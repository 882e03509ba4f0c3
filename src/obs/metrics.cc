#include "obs/metrics.hh"

#include <cmath>
#include <ostream>
#include <sstream>
#include <vector>

#include "base/logging.hh"
#include "obs/json.hh"
#include "obs/manifest.hh"

namespace mindful::obs {

HistogramMetric::HistogramMetric(HistogramOptions options)
    : _histogram(options.lo, options.hi, options.bins)
{
}

void
HistogramMetric::record(double value)
{
    LockGuard lock(_mutex);
    _histogram.add(value);
    _stats.add(value);
}

void
HistogramMetric::clear()
{
    LockGuard lock(_mutex);
    _histogram = LogHistogram(_histogram.lowerBound(),
                              _histogram.upperBound(), _histogram.bins());
    _stats = RunningStats();
}

std::size_t
HistogramMetric::count() const
{
    LockGuard lock(_mutex);
    return _stats.count();
}

double
HistogramMetric::mean() const
{
    LockGuard lock(_mutex);
    return _stats.mean();
}

double
HistogramMetric::min() const
{
    LockGuard lock(_mutex);
    return _stats.count() ? _stats.min() : 0.0;
}

double
HistogramMetric::max() const
{
    LockGuard lock(_mutex);
    return _stats.count() ? _stats.max() : 0.0;
}

double
HistogramMetric::sum() const
{
    LockGuard lock(_mutex);
    return _stats.sum();
}

double
HistogramMetric::percentile(double p) const
{
    LockGuard lock(_mutex);
    return _histogram.percentile(p);
}

MetricRegistry &
MetricRegistry::global()
{
    static MetricRegistry registry;
    return registry;
}

Counter &
MetricRegistry::counter(const std::string &name)
{
    LockGuard lock(_mutex);
    Entry &entry = _entries[name];
    MINDFUL_ASSERT(!entry.gauge && !entry.histogram,
                   "metric '", name, "' already registered with "
                   "a different kind");
    if (!entry.counter)
        entry.counter = std::make_unique<Counter>();
    return *entry.counter;
}

Gauge &
MetricRegistry::gauge(const std::string &name)
{
    LockGuard lock(_mutex);
    Entry &entry = _entries[name];
    MINDFUL_ASSERT(!entry.counter && !entry.histogram,
                   "metric '", name, "' already registered with "
                   "a different kind");
    if (!entry.gauge)
        entry.gauge = std::make_unique<Gauge>();
    return *entry.gauge;
}

HistogramMetric &
MetricRegistry::histogram(const std::string &name, HistogramOptions options)
{
    LockGuard lock(_mutex);
    Entry &entry = _entries[name];
    MINDFUL_ASSERT(!entry.counter && !entry.gauge,
                   "metric '", name, "' already registered with "
                   "a different kind");
    if (!entry.histogram)
        entry.histogram = std::make_unique<HistogramMetric>(options);
    return *entry.histogram;
}

bool
MetricRegistry::contains(const std::string &name) const
{
    LockGuard lock(_mutex);
    return _entries.count(name) > 0;
}

std::size_t
MetricRegistry::size() const
{
    LockGuard lock(_mutex);
    return _entries.size();
}

void
MetricRegistry::clear()
{
    LockGuard lock(_mutex);
    for (auto &[name, entry] : _entries) {
        (void)name;
        if (entry.counter)
            entry.counter->clear();
        if (entry.gauge)
            entry.gauge->clear();
        if (entry.histogram)
            entry.histogram->clear();
    }
}

std::vector<MetricSample>
MetricRegistry::snapshot() const
{
    // Collect entry pointers under the lock, then read each metric
    // through its own synchronization (std::map iteration order is
    // already name-sorted).
    struct Ref
    {
        std::string name;
        const Counter *counter = nullptr;
        const Gauge *gauge = nullptr;
        const HistogramMetric *histogram = nullptr;
    };
    std::vector<Ref> refs;
    {
        LockGuard lock(_mutex);
        refs.reserve(_entries.size());
        for (const auto &[name, entry] : _entries) {
            refs.push_back({name, entry.counter.get(), entry.gauge.get(),
                            entry.histogram.get()});
        }
    }

    std::vector<MetricSample> samples;
    samples.reserve(refs.size());
    for (const auto &ref : refs) {
        MetricSample sample;
        sample.name = ref.name;
        if (ref.counter) {
            sample.type = "counter";
            sample.value = static_cast<double>(ref.counter->value());
            sample.count = static_cast<std::size_t>(ref.counter->value());
        } else if (ref.gauge) {
            sample.type = "gauge";
            sample.value = ref.gauge->value();
            sample.count = ref.gauge->isSet() ? 1 : 0;
        } else if (ref.histogram) {
            sample.type = "histogram";
            sample.value = ref.histogram->mean();
            sample.count = ref.histogram->count();
            sample.min = ref.histogram->min();
            sample.max = ref.histogram->max();
            sample.p50 = ref.histogram->percentile(50.0);
            sample.p95 = ref.histogram->percentile(95.0);
            sample.p99 = ref.histogram->percentile(99.0);
        }
        samples.push_back(std::move(sample));
    }

    return samples;
}

Table
MetricRegistry::snapshotTable() const
{
    Table table("metrics");
    table.setHeader({"name", "type", "count", "value", "min", "p50",
                     "p95", "p99", "max"});
    for (const auto &s : snapshot()) {
        table.addRow({
            s.name,
            s.type,
            std::to_string(s.count),
            Table::formatNumber(s.value, 6),
            Table::formatNumber(s.min, 6),
            Table::formatNumber(s.p50, 6),
            Table::formatNumber(s.p95, 6),
            Table::formatNumber(s.p99, 6),
            Table::formatNumber(s.max, 6),
        });
    }
    return table;
}

namespace {

void
writeJsonNumber(std::ostream &os, double v)
{
    // JSON has no Infinity/NaN literals; clamp to null.
    if (!std::isfinite(v)) {
        os << "null";
        return;
    }
    std::ostringstream tmp;
    tmp.precision(15);
    tmp << v;
    os << tmp.str();
}

} // namespace

void
MetricRegistry::writeJson(std::ostream &os) const
{
    os << "{";
    // Provenance block first; the leading underscore keeps it clear
    // of the metric namespace (names start with a subsystem letter).
    os << "\n  \"_manifest\": ";
    RunManifest::current().writeJsonObject(os);
    for (const auto &s : snapshot()) {
        os << ",";
        os << "\n  ";
        writeJsonEscaped(os, s.name);
        os << ": {\"type\": ";
        writeJsonEscaped(os, s.type);
        os << ", \"count\": " << s.count << ", \"value\": ";
        writeJsonNumber(os, s.value);
        if (s.type == "histogram") {
            os << ", \"min\": ";
            writeJsonNumber(os, s.min);
            os << ", \"p50\": ";
            writeJsonNumber(os, s.p50);
            os << ", \"p95\": ";
            writeJsonNumber(os, s.p95);
            os << ", \"p99\": ";
            writeJsonNumber(os, s.p99);
            os << ", \"max\": ";
            writeJsonNumber(os, s.max);
        }
        os << "}";
    }
    os << "\n}\n";
}

} // namespace mindful::obs
