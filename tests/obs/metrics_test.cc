/**
 * @file
 * Metric registry tests: kinds, the runtime gate, clear() keeping
 * references valid, percentile accuracy against sorted-vector ground
 * truth, and snapshot/export paths.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <thread>
#include <vector>

#include "base/random.hh"
#include "obs/metrics.hh"

namespace mindful::obs {
namespace {

TEST(CounterTest, StartsAtZeroAndAccumulates)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
}

TEST(CounterTest, ConcurrentAddsAreLossless)
{
    Counter c;
    constexpr int kThreads = 8;
    constexpr int kAdds = 10000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&c] {
            for (int i = 0; i < kAdds; ++i)
                c.add();
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads * kAdds));
}

TEST(MetricRegistryTest, EnabledGateDefaultsOn)
{
    MetricRegistry registry;
    EXPECT_TRUE(registry.enabled());
    registry.setEnabled(false);
    EXPECT_FALSE(registry.enabled());
    registry.setEnabled(true);
    EXPECT_TRUE(registry.enabled());
}

TEST(MetricRegistryTest, MacrosRecordNothingWhileDisabled)
{
    auto &registry = MetricRegistry::global();
    registry.clear();
    registry.setEnabled(false);
    MINDFUL_METRIC_COUNT("test.gate.counter", 5);
    MINDFUL_METRIC_GAUGE("test.gate.gauge", 1.0);
    MINDFUL_METRIC_RECORD("test.gate.histogram", 2.0);
    // Disabled recording must not even *create* the metrics — sites
    // are expected to skip name formatting behind enabled(), and the
    // macros must not leave empty entries behind.
    EXPECT_FALSE(registry.contains("test.gate.counter"));
    EXPECT_FALSE(registry.contains("test.gate.gauge"));
    EXPECT_FALSE(registry.contains("test.gate.histogram"));

    registry.setEnabled(true);
    MINDFUL_METRIC_COUNT("test.gate.counter", 5);
    EXPECT_TRUE(registry.contains("test.gate.counter"));
    EXPECT_EQ(registry.counter("test.gate.counter").value(), 5u);
    registry.clear();
}

TEST(GaugeTest, TracksLastWriteAndSetFlag)
{
    Gauge g;
    EXPECT_FALSE(g.isSet());
    g.set(3.5);
    g.set(-1.25);
    EXPECT_TRUE(g.isSet());
    EXPECT_DOUBLE_EQ(g.value(), -1.25);
}

TEST(HistogramMetricTest, CountMeanExtremaExact)
{
    HistogramMetric h;
    for (double v : {1.0, 10.0, 100.0})
        h.record(v);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_DOUBLE_EQ(h.mean(), 37.0);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 100.0);
    EXPECT_DOUBLE_EQ(h.sum(), 111.0);
}

TEST(HistogramMetricTest, PercentileTracksSortedVectorGroundTruth)
{
    // Log-uniform samples spanning the bucket range; the histogram's
    // nearest-rank estimate must match the exact sorted-vector answer
    // to within one bucket's relative width.
    HistogramOptions options;
    options.lo = 1e-3;
    options.hi = 1e9;
    options.bins = 120;
    // Bucket edge ratio = (hi/lo)^(1/bins) = 10^(12/120) = 10^0.1.
    const double ratio = std::pow(10.0, 0.1);

    Rng rng(123);
    HistogramMetric h(options);
    std::vector<double> values;
    for (int i = 0; i < 20000; ++i) {
        double v = std::pow(10.0, rng.uniform(-2.0, 6.0));
        values.push_back(v);
        h.record(v);
    }
    std::sort(values.begin(), values.end());

    for (double p : {1.0, 10.0, 50.0, 90.0, 95.0, 99.0, 99.9}) {
        auto rank = static_cast<std::size_t>(
            std::ceil(p / 100.0 * static_cast<double>(values.size())));
        double exact = values[std::max<std::size_t>(rank, 1) - 1];
        double estimate = h.percentile(p);
        EXPECT_GT(estimate, exact / ratio)
            << "p" << p << " underestimates";
        EXPECT_LT(estimate, exact * ratio)
            << "p" << p << " overestimates";
    }
}

TEST(MetricRegistryTest, LookupCreatesOnceAndIsStable)
{
    MetricRegistry registry;
    Counter &a = registry.counter("x.count");
    Counter &b = registry.counter("x.count");
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(registry.size(), 1u);
    EXPECT_TRUE(registry.contains("x.count"));
    EXPECT_FALSE(registry.contains("x.other"));
}

TEST(MetricRegistryDeathTest, KindMismatchPanics)
{
    MetricRegistry registry;
    registry.counter("dual.use");
    EXPECT_DEATH(registry.gauge("dual.use"), "different kind");
}

TEST(MetricRegistryTest, SnapshotIsNameSortedAndTyped)
{
    MetricRegistry registry;
    registry.counter("b.count").add(5);
    registry.gauge("a.gauge").set(1.0);
    registry.histogram("c.hist").record(2.0);

    auto samples = registry.snapshot();
    ASSERT_EQ(samples.size(), 3u);
    EXPECT_EQ(samples[0].name, "a.gauge");
    EXPECT_EQ(samples[0].type, "gauge");
    EXPECT_EQ(samples[1].name, "b.count");
    EXPECT_EQ(samples[1].type, "counter");
    EXPECT_DOUBLE_EQ(samples[1].value, 5.0);
    EXPECT_EQ(samples[2].name, "c.hist");
    EXPECT_EQ(samples[2].type, "histogram");
    EXPECT_EQ(samples[2].count, 1u);
}

TEST(MetricRegistryTest, TableExportHasHeaderAndOneRowPerMetric)
{
    MetricRegistry registry;
    registry.counter("x").add(1);
    registry.counter("y").add(2);
    Table table = registry.snapshotTable();
    EXPECT_EQ(table.columns(), 9u);
    EXPECT_EQ(table.rows(), 2u);
}

TEST(MetricRegistryTest, ClearEmptiesTheRegistry)
{
    // clear() empties every metric's *value* but keeps its entry:
    // counters read 0, gauges are unset, histograms hold no samples.
    MetricRegistry registry;
    registry.counter("x").add(1);
    registry.gauge("g").set(2.5);
    registry.histogram("h").record(3.0);
    registry.clear();
    EXPECT_EQ(registry.size(), 3u);
    EXPECT_TRUE(registry.contains("x"));
    EXPECT_EQ(registry.counter("x").value(), 0u);
    EXPECT_FALSE(registry.gauge("g").isSet());
    EXPECT_DOUBLE_EQ(registry.gauge("g").value(), 0.0);
    EXPECT_EQ(registry.histogram("h").count(), 0u);
    EXPECT_DOUBLE_EQ(registry.histogram("h").percentile(50.0), 0.0);
    for (const MetricSample &sample : registry.snapshot()) {
        EXPECT_EQ(sample.count, 0u) << sample.name;
        EXPECT_DOUBLE_EQ(sample.value, 0.0) << sample.name;
    }
}

TEST(MetricRegistryTest, ClearKeepsReferencesValid)
{
    // "Returned references stay valid for the registry's lifetime":
    // a reference held across clear() keeps recording into the entry
    // the registry reports.
    MetricRegistry registry;
    Counter &c = registry.counter("x");
    HistogramMetric &h = registry.histogram("h");
    c.add(5);
    h.record(2.0);
    registry.clear();
    c.add(1);
    // ASSERT: past this line the histogram reference is used, which
    // would touch freed memory if clear() had dropped the entries.
    ASSERT_EQ(registry.counter("x").value(), 1u);
    EXPECT_EQ(&registry.counter("x"), &c);
    h.record(4.0);
    EXPECT_EQ(registry.histogram("h").count(), 1u);
    EXPECT_DOUBLE_EQ(registry.histogram("h").min(), 4.0);
}

TEST(MetricRegistryTest, CsvExportIsStableAcrossRepeatedSnapshots)
{
    MetricRegistry registry;
    registry.counter("test.csv.counter").add(42);
    registry.gauge("test.csv.gauge").set(0.5);
    registry.histogram("test.csv.histogram").record(1.5);
    std::ostringstream first;
    registry.snapshotTable().printCsv(first);
    std::ostringstream second;
    registry.snapshotTable().printCsv(second);
    EXPECT_EQ(first.str(), second.str());
    EXPECT_NE(first.str().find("test.csv.counter,counter,42,42"),
              std::string::npos);
}

TEST(MetricRegistryTest, GlobalIsASingleton)
{
    EXPECT_EQ(&MetricRegistry::global(), &MetricRegistry::global());
}

} // namespace
} // namespace mindful::obs
