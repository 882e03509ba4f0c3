/**
 * @file
 * Tracer tests: cold-span recording, nesting and runtime gating, the
 * call-level MINDFUL_CALL_SPAN macro streaming through the collector,
 * and metric-registry JSON well-formedness (validated by parsing the
 * emitted text back with a minimal JSON parser).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>

#include "json_checker.hh"
#include "obs/collector.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace mindful::obs {
namespace {

/** Scoped enable + clear of the global session, restoring on exit. */
class SessionFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        TraceSession::global().clear();
        TraceSession::global().setEnabled(true);
    }

    void
    TearDown() override
    {
        TraceSession::global().setEnabled(false);
        TraceSession::global().clear();
    }
};

using TraceSpanTest = SessionFixture;
using TraceJsonTest = SessionFixture;

TEST_F(TraceSpanTest, RecordsOnDestruction)
{
    {
        TraceSpan span("test", "outer");
        EXPECT_TRUE(span.active());
        EXPECT_TRUE(TraceSession::global().events().empty());
    }
    auto events = TraceSession::global().events();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].name, "outer");
    EXPECT_EQ(events[0].category, "test");
}

TEST_F(TraceSpanTest, DisabledSessionRecordsNothing)
{
    TraceSession::global().setEnabled(false);
    {
        TraceSpan span("test", "ghost");
        EXPECT_FALSE(span.active());
    }
    EXPECT_TRUE(TraceSession::global().events().empty());
}

TEST_F(TraceSpanTest, NestingIsExpressedByTimestampContainment)
{
    {
        TraceSpan outer("test", "outer");
        {
            TraceSpan inner("test", "inner");
        }
    }
    auto events = TraceSession::global().events();
    ASSERT_EQ(events.size(), 2u);
    // Events record in completion order: inner first.
    const TraceEvent &inner = events[0];
    const TraceEvent &outer = events[1];
    EXPECT_EQ(inner.name, "inner");
    EXPECT_EQ(outer.name, "outer");
    EXPECT_EQ(inner.threadId, outer.threadId);
    EXPECT_GE(inner.startNanos, outer.startNanos);
    EXPECT_LE(inner.startNanos + inner.durationNanos,
              outer.startNanos + outer.durationNanos);
}

TEST_F(TraceSpanTest, ThreadsGetDistinctIds)
{
    std::uint32_t main_id = TraceSession::currentThreadId();
    std::uint32_t other_id = main_id;
    std::thread worker([&other_id] {
        other_id = TraceSession::currentThreadId();
    });
    worker.join();
    EXPECT_NE(main_id, other_id);
}

TEST_F(TraceJsonTest, MetricRegistryJsonParses)
{
    MetricRegistry registry;
    registry.counter("comm.qam.bit_errors").add(3);
    registry.gauge("accel.sim.utilization").set(0.75);
    registry.histogram("core.closed_loop.loop_latency_us").record(12.5);
    std::ostringstream os;
    registry.writeJson(os);
    JsonChecker checker(os.str());
    EXPECT_TRUE(checker.valid()) << os.str();
    EXPECT_NE(os.str().find("\"comm.qam.bit_errors\""),
              std::string::npos);
}

TEST_F(TraceJsonTest, MacroSpansRecordWhenEnabled)
{
    auto &collector = TraceCollector::global();
    collector.registerCurrentThread();
    std::ostringstream os;
    collector.start(&os);
    for (std::uint64_t i = 0; i < 2; ++i) {
        MINDFUL_CALL_SPAN(span, "test", "macro_span");
        EXPECT_TRUE(span.active());
        span.setArg(i + 7);
    }
    const CollectorTotals totals = collector.stop();
    EXPECT_EQ(totals.emitted, 2u);
    EXPECT_EQ(totals.dropped, 0u);
    // Call-level spans go to the stream, never to the cold session.
    EXPECT_TRUE(TraceSession::global().events().empty());
    JsonChecker checker(os.str());
    EXPECT_TRUE(checker.valid()) << os.str();
    EXPECT_NE(os.str().find("\"macro_span\""), std::string::npos);
    EXPECT_NE(os.str().find("\"args\": {\"v\": 8}"), std::string::npos);
}

} // namespace
} // namespace mindful::obs
