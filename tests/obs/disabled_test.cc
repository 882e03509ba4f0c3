/**
 * @file
 * MINDFUL_OBS_DISABLED build test. This file is compiled into its own
 * executable with the macro defined (see tests/CMakeLists.txt), so it
 * verifies both that instrumented code still compiles in that
 * configuration and that every MINDFUL_TRACE_* / MINDFUL_METRIC_* /
 * MINDFUL_HOT_SPAN macro degrades to a genuine no-op: nothing reaches
 * the global trace session, metric registry, or trace collector even
 * when all of them are explicitly enabled.
 */

#ifndef MINDFUL_OBS_DISABLED
#error "this test must be built with -DMINDFUL_OBS_DISABLED"
#endif

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "obs/collector.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace mindful::obs {
namespace {

TEST(ObsDisabledTest, TraceMacrosRecordNothing)
{
    TraceSession::global().clear();
    TraceSession::global().setEnabled(true);
    {
        MINDFUL_TRACE_SCOPE("test", "scope");
        MINDFUL_TRACE_SPAN(span, "test", "span");
        // The null span keeps the instrumented call sites compiling.
        span.arg("label", std::string("x"))
            .arg("ratio", 0.5)
            .arg("count", std::uint64_t{7});
        EXPECT_FALSE(span.active());
    }
    EXPECT_EQ(TraceSession::global().eventCount(), 0u);
    TraceSession::global().setEnabled(false);
}

TEST(ObsDisabledTest, MetricMacrosRegisterNothing)
{
    MetricRegistry::global().setEnabled(true);
    const std::size_t before = MetricRegistry::global().size();
    MINDFUL_METRIC_COUNT("disabled.count", 3);
    MINDFUL_METRIC_GAUGE("disabled.gauge", 1.5);
    MINDFUL_METRIC_RECORD("disabled.hist", 2.5);
    EXPECT_EQ(MetricRegistry::global().size(), before);
    EXPECT_FALSE(MetricRegistry::global().contains("disabled.count"));
}

TEST(ObsDisabledTest, HotSpanMacroRecordsNothingWhileStreaming)
{
    auto &collector = TraceCollector::global();
    [[maybe_unused]] const TraceSite site =
        collector.site("disabled", "hot_span");
    collector.registerCurrentThread();
    collector.start(nullptr);
    {
        // Expands to a NullSpan: compiles, records nothing.
        MINDFUL_HOT_SPAN(span, site);
        span.setArg(std::uint64_t{7});
        EXPECT_FALSE(span.active());
    }
    CollectorTotals totals = collector.stop();
    EXPECT_EQ(totals.emitted, 0u);
    EXPECT_EQ(totals.dropped, 0u);
}

TEST(ObsDisabledTest, DirectApiStillWorks)
{
    // Only the macros are compiled out; explicit use of the classes
    // (e.g. the bench harness writing its A/B gauges) keeps working.
    MetricRegistry registry;
    registry.counter("explicit.count").add(2);
    EXPECT_EQ(registry.counter("explicit.count").value(), 2u);
}

} // namespace
} // namespace mindful::obs
