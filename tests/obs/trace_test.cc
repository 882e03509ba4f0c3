/**
 * @file
 * Tracer tests: span recording, nesting, runtime gating, argument
 * capture, and Chrome trace_event JSON well-formedness (validated by
 * parsing the emitted text back with a minimal JSON parser).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>

#include "json_checker.hh"
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
        EXPECT_EQ(TraceSession::global().eventCount(), 0u);
    }
    EXPECT_EQ(TraceSession::global().eventCount(), 1u);
    auto events = TraceSession::global().events();
    EXPECT_EQ(events[0].name, "outer");
    EXPECT_EQ(events[0].category, "test");
}

TEST_F(TraceSpanTest, DisabledSessionRecordsNothing)
{
    TraceSession::global().setEnabled(false);
    {
        TraceSpan span("test", "ghost");
        EXPECT_FALSE(span.active());
        span.arg("k", 1.0);
    }
    EXPECT_EQ(TraceSession::global().eventCount(), 0u);
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

TEST_F(TraceSpanTest, ArgsAreCaptured)
{
    {
        TraceSpan span("test", "with_args");
        span.arg("label", std::string("x"))
            .arg("ratio", 0.5)
            .arg("count", std::uint64_t{7});
    }
    auto events = TraceSession::global().events();
    ASSERT_EQ(events.size(), 1u);
    ASSERT_EQ(events[0].args.size(), 3u);
    EXPECT_EQ(events[0].args[0].first, "label");
    EXPECT_EQ(events[0].args[0].second, "x");
    EXPECT_EQ(events[0].args[2].second, "7");
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

TEST_F(TraceJsonTest, EmittedJsonParses)
{
    {
        TraceSpan outer("comm", "outer \"quoted\" name");
        outer.arg("newline", std::string("a\nb")).arg("v", 1.25);
        TraceSpan inner("accel", "inner\\path");
    }
    std::ostringstream os;
    TraceSession::global().writeJson(os);
    JsonChecker checker(os.str());
    EXPECT_TRUE(checker.valid()) << os.str();
    EXPECT_NE(os.str().find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(os.str().find("\"ph\": \"X\""), std::string::npos);
}

TEST_F(TraceJsonTest, EmptySessionStillEmitsValidJson)
{
    std::ostringstream os;
    TraceSession::global().writeJson(os);
    JsonChecker checker(os.str());
    EXPECT_TRUE(checker.valid()) << os.str();
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
    {
        MINDFUL_TRACE_SCOPE("test", "macro_scope");
        MINDFUL_TRACE_SPAN(span, "test", "macro_span");
        span.arg("k", std::uint64_t{1});
    }
    EXPECT_EQ(TraceSession::global().eventCount(), 2u);
}

} // namespace
} // namespace mindful::obs
