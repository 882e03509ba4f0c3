/**
 * @file
 * The cold tier of the tracer: string-named spans buffered in a
 * process-wide session.
 *
 * Call-level library code records through the hot tier
 * (MINDFUL_CALL_SPAN, obs/collector.hh). One cold site is left: the
 * accelerator simulator's per-layer `"layer." + name()` span, which
 * perfbench's modeled-vs-measured table reads back through
 * TraceSession::events() (docs/observability.md). A TraceSpan is an
 * RAII scope: construction stamps the start time, destruction records
 * a complete ("ph":"X") event. While the TraceCollector streams, the
 * event joins its stream (one timeline); otherwise it is buffered
 * here for events().
 *
 * Two gates keep the cost out of hot loops:
 *  - runtime: a span records nothing unless the collector streams or
 *    `TraceSession::global().setEnabled(true)` was called (two
 *    relaxed atomic loads);
 *  - compile time: building with `MINDFUL_OBS_DISABLED` turns
 *    MINDFUL_TRACE_SPAN into a NullSpan that constructs nothing.
 */

#ifndef MINDFUL_OBS_TRACE_HH
#define MINDFUL_OBS_TRACE_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "base/compiler.hh"

namespace mindful::obs {

/** One recorded complete event (Chrome trace_event "X" phase). */
struct TraceEvent
{
    std::string name;
    std::string category;
    std::uint64_t startNanos = 0; //!< since process trace epoch
    std::uint64_t durationNanos = 0;
    std::uint32_t threadId = 0; //!< dense per-process thread index
};

/**
 * Process-wide span sink. Recording appends under a mutex — spans are
 * expected at call granularity (one simulated layer), not per sample.
 */
class TraceSession
{
  public:
    static TraceSession &global();

    TraceSession() = default;
    TraceSession(const TraceSession &) = delete;
    TraceSession &operator=(const TraceSession &) = delete;

    /** Enable or disable recording. Disabled by default. */
    void setEnabled(bool enabled);

    bool
    enabled() const
    {
        return _enabled.load(std::memory_order_relaxed);
    }

    /** Dense id of the calling thread (stable for its lifetime). */
    static std::uint32_t currentThreadId();

    void record(TraceEvent event);

    /** Copy of the recorded events (test / analysis use). */
    std::vector<TraceEvent> events() const;

    /** Drop all recorded events; keeps the enabled flag. */
    void clear();

  private:
    MINDFUL_ATOMIC_ROLE(once_flag)
    std::atomic<bool> _enabled{false};
    mutable Mutex _mutex;
    std::vector<TraceEvent> _events MINDFUL_GUARDED_BY(_mutex);
};

/**
 * RAII span. Records into TraceSession::global() if the collector
 * streams or the session is enabled at construction time; otherwise
 * costs two atomic loads (and the caller's name string).
 */
class TraceSpan
{
  public:
    TraceSpan(const char *category, std::string name);
    ~TraceSpan();

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

    /** Whether this span is live (tracing was enabled). */
    bool active() const { return _active; }

  private:
    bool _active;
    std::uint64_t _startNanos = 0;
    TraceEvent _event;
};

/** No-op stand-ins the macros degrade to under MINDFUL_OBS_DISABLED. */
class NullSpan
{
  public:
    NullSpan() = default;
    bool active() const { return false; }

    /** HotSpan-compatible no-op (MINDFUL_HOT_SPAN / MINDFUL_CALL_SPAN
     * when disabled). */
    template <typename V>
    NullSpan &
    setArg(const V &)
    {
        return *this;
    }
};

} // namespace mindful::obs

#ifndef MINDFUL_OBS_DISABLED

/** Open a named cold span: MINDFUL_TRACE_SPAN(span, "accel",
 * "layer." + layer.name()); */
#define MINDFUL_TRACE_SPAN(var, category, name) \
    ::mindful::obs::TraceSpan var((category), (name))

#else

#define MINDFUL_TRACE_SPAN(var, category, name) \
    [[maybe_unused]] ::mindful::obs::NullSpan var

#endif // MINDFUL_OBS_DISABLED

#endif // MINDFUL_OBS_TRACE_HH
