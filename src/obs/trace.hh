/**
 * @file
 * Scoped event tracer emitting Chrome trace_event JSON.
 *
 * A TraceSpan is an RAII scope: construction stamps the start time,
 * destruction records a complete ("ph":"X") event into the global
 * TraceSession. The resulting file loads directly in Perfetto or
 * chrome://tracing; nesting is expressed by timestamp containment per
 * thread, so spans opened inside spans render as a flame graph with
 * no extra bookkeeping.
 *
 * Two gates keep the cost out of hot loops:
 *  - runtime: spans record nothing unless
 *    `TraceSession::global().setEnabled(true)` was called (the check
 *    is one relaxed atomic load);
 *  - compile time: building with `MINDFUL_OBS_DISABLED` turns the
 *    MINDFUL_TRACE_* macros into no-ops that construct nothing.
 *
 * Categories follow the subsystem names: "comm", "accel", "dnn",
 * "core", "bench" (docs/observability.md).
 */

#ifndef MINDFUL_OBS_TRACE_HH
#define MINDFUL_OBS_TRACE_HH

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
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
    std::vector<std::pair<std::string, std::string>> args;
};

/**
 * Process-wide span sink. Recording appends under a mutex — spans are
 * expected at call granularity (an experiment, a layer, a BER
 * measurement), not per sample.
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

    /** Monotonic nanoseconds since the session epoch. */
    std::uint64_t nowNanos() const;

    /** Dense id of the calling thread (stable for its lifetime). */
    static std::uint32_t currentThreadId();

    void record(TraceEvent event);

    std::size_t eventCount() const;

    /** Copy of the recorded events (test / analysis use). */
    std::vector<TraceEvent> events() const;

    /** Drop all recorded events; keeps the enabled flag. */
    void clear();

    /**
     * Write the Chrome trace_event JSON object
     * (`{"traceEvents": [...], ...}`). Timestamps are microseconds
     * with sub-microsecond decimals, as the format specifies.
     */
    void writeJson(std::ostream &os) const;

  private:
    MINDFUL_ATOMIC_ROLE(once_flag)
    std::atomic<bool> _enabled{false};
    mutable Mutex _mutex;
    std::vector<TraceEvent> _events MINDFUL_GUARDED_BY(_mutex);
};

/**
 * RAII span. Records into TraceSession::global() if tracing is
 * enabled at construction time; otherwise costs one atomic load.
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

    /** Attach a key/value argument shown in the trace viewer. */
    TraceSpan &arg(const std::string &key, const std::string &value);
    TraceSpan &arg(const std::string &key, double value);
    TraceSpan &arg(const std::string &key, std::uint64_t value);

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

    template <typename K, typename V>
    NullSpan &
    arg(const K &, const V &)
    {
        return *this;
    }

    /** HotSpan-compatible no-op (MINDFUL_HOT_SPAN when disabled). */
    template <typename V>
    NullSpan &
    setArg(const V &)
    {
        return *this;
    }
};

/**
 * Exporter plumbing shared with the streaming collector
 * (obs/collector.cc): one trace_event object, no surrounding comma.
 */
void writeTraceEventJson(std::ostream &os, const TraceEvent &event);

/** ts/dur in microseconds with nanosecond decimals. */
void writeTraceMicros(std::ostream &os, std::uint64_t nanos);

} // namespace mindful::obs

#define MINDFUL_OBS_CONCAT_INNER(a, b) a##b
#define MINDFUL_OBS_CONCAT(a, b) MINDFUL_OBS_CONCAT_INNER(a, b)

#ifndef MINDFUL_OBS_DISABLED

/** Open a named RAII span variable: MINDFUL_TRACE_SPAN(span, "comm",
 * "qam.measure_ber"); span.arg("symbols", n); */
#define MINDFUL_TRACE_SPAN(var, category, name) \
    ::mindful::obs::TraceSpan var((category), (name))

/** Open an anonymous span covering the rest of the scope. */
#define MINDFUL_TRACE_SCOPE(category, name) \
    ::mindful::obs::TraceSpan MINDFUL_OBS_CONCAT(_mindful_span_, \
                                                 __LINE__)((category), \
                                                           (name))

#else

#define MINDFUL_TRACE_SPAN(var, category, name) \
    ::mindful::obs::NullSpan var
#define MINDFUL_TRACE_SCOPE(category, name) \
    do { \
    } while (0)

#endif // MINDFUL_OBS_DISABLED

#endif // MINDFUL_OBS_TRACE_HH
