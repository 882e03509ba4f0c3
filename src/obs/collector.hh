/**
 * @file
 * Streaming trace collector: the one span path of the library.
 *
 * Recording is split from formatting:
 *
 *  - each participating thread registers ONE TraceRing up front
 *    (registerCurrentThread; the exec thread pool does this for its
 *    workers, bench_util for the main thread under --trace-out).
 *    Span names are interned to TraceSite ids via site();
 *  - a HotSpan records by stamping two clock reads and pushing one
 *    32-byte PodEvent into its thread's ring — no lock, no
 *    allocation, no string. A full ring drops the event and counts
 *    it, so `recorded == emitted + dropped` holds exactly;
 *  - a background drain thread pops every ring and streams Chrome
 *    trace_event JSON incrementally into the sink passed to start(),
 *    so memory stays bounded for hour-long soaks. stop() joins the
 *    drain thread, sweeps the rings once more, appends the run
 *    manifest (obs/manifest.hh) plus emitted/dropped totals to the
 *    file footer, and returns those totals.
 *
 * Two macros open a HotSpan. Call-level code writes
 * MINDFUL_CALL_SPAN(span, "dnn", "gemm"), which interns its site once
 * into a function-local static; parallelFor shard bodies hoist the
 * site out of the body and write MINDFUL_HOT_SPAN(span, site), which
 * mindful-analyze certifies lock- and allocation-free.
 *
 * While the collector is streaming, the one remaining cold-tier span
 * (obs/trace.hh: the simulator's per-layer span) is forwarded into
 * the same stream via submitCold, so one timeline holds every span.
 *
 * Contracts: the sink stream must outlive stop(); totals are exact
 * once producers have quiesced (joined, or parallelFor returned)
 * before stop(); HotSpans on threads that never registered record
 * nothing but are counted as drops.
 */

#ifndef MINDFUL_OBS_COLLECTOR_HH
#define MINDFUL_OBS_COLLECTOR_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "base/compiler.hh"
#include "obs/event.hh"
#include "obs/ring.hh"
#include "obs/trace.hh"

namespace mindful::obs {

namespace detail {

/** True while the global collector streams; every HotSpan gates on
 * one relaxed load of this before touching anything else. */
MINDFUL_ATOMIC_ROLE(once_flag)
extern std::atomic<bool> g_collectorStreaming;

/** HotSpans constructed while streaming on a thread with no ring. */
MINDFUL_ATOMIC_ROLE(stat_counter)
extern std::atomic<std::uint64_t> g_unregisteredDrops;

/** The calling thread's ring; null until registerCurrentThread(). */
extern thread_local TraceRing *t_traceRing;

} // namespace detail

/** Interned (category, name) pair. Resolve once, at setup time. */
struct TraceSite
{
    std::uint32_t id = 0;
};

/** stop() summary; recorded-span conservation: emitted + dropped. */
struct CollectorTotals
{
    std::uint64_t emitted = 0;
    std::uint64_t dropped = 0;
};

/** Default per-thread ring capacity (slots; 32 B each). */
constexpr std::size_t kDefaultRingSlots = 8192;

class TraceCollector
{
  public:
    /** The process-wide collector the hot tier records into. */
    static TraceCollector &global();

    TraceCollector() = default;
    ~TraceCollector();
    TraceCollector(const TraceCollector &) = delete;
    TraceCollector &operator=(const TraceCollector &) = delete;

    /**
     * Intern a (category, name) pair. Idempotent; takes a lock —
     * call once per site (a static, or MINDFUL_CALL_SPAN), never per
     * recorded span.
     */
    TraceSite site(const std::string &category, const std::string &name);

    /**
     * Give the calling thread a ring (idempotent). Allocation happens
     * here, once, so recording never does. Rings live for the
     * process; a thread keeps its ring (and its capacity) for life.
     */
    void registerCurrentThread();

    /** Whether the calling thread has a ring. */
    static bool
    currentThreadRegistered()
    {
        return detail::t_traceRing != nullptr;
    }

    /** Ring capacity for FUTURE registrations (rounded to 2^n). */
    void setRingCapacity(std::size_t slots);

    bool
    streaming() const
    {
        return detail::g_collectorStreaming.load(
            std::memory_order_acquire);
    }

    /**
     * Begin streaming into @p os (nullptr = count-only sink, for
     * overhead benchmarks). Writes the trace_event header, resets the
     * session's emitted/dropped baselines, and launches the drain
     * thread. Must not already be streaming.
     */
    void start(std::ostream *os);

    /**
     * Stop streaming: joins the drain thread, performs a final sweep
     * of every ring and the cold queue, writes the JSON footer (run
     * manifest + totals) and returns this session's totals. Safe to
     * call when not streaming (returns zeros).
     */
    CollectorTotals stop();

    /**
     * Suspend the drain thread's sweeps (tests use this to force ring
     * overflow deterministically). stop() clears the pause so the
     * final sweep always runs.
     */
    void setDrainPaused(bool paused);

    /** Forward the cold per-layer span into the stream (TraceSession). */
    void submitCold(TraceEvent event);

    /** Events streamed so far this session (approximate while live). */
    std::uint64_t
    emittedCount() const
    {
        return _emitted.load(std::memory_order_relaxed);
    }

    /** Drops so far this session (approximate while live). */
    std::uint64_t droppedSinceStart() const;

  private:
    void drainLoop();
    std::uint64_t drainOnce();
    void emitHotLocked(const PodEvent &event, std::uint32_t thread_id)
        MINDFUL_REQUIRES(_mutex);
    void emitColdLocked(const TraceEvent &event) MINDFUL_REQUIRES(_mutex);
    std::uint64_t lockedDroppedSum() const MINDFUL_REQUIRES(_mutex);

    mutable Mutex _mutex;
    std::vector<std::pair<std::string, std::string>>
        _sites MINDFUL_GUARDED_BY(_mutex);
    std::vector<std::unique_ptr<TraceRing>>
        _rings MINDFUL_GUARDED_BY(_mutex);
    std::vector<TraceEvent> _cold MINDFUL_GUARDED_BY(_mutex);
    std::ostream *_os MINDFUL_GUARDED_BY(_mutex) = nullptr;
    bool _firstEvent MINDFUL_GUARDED_BY(_mutex) = true;
    std::size_t _ringCapacity MINDFUL_GUARDED_BY(_mutex) =
        kDefaultRingSlots;
    std::uint64_t _droppedAtStart MINDFUL_GUARDED_BY(_mutex) = 0;

    // start()/stop() are control-plane calls from one thread; the
    // drain thread itself only reads the atomics below.
    std::thread _drain;
    MINDFUL_ATOMIC_ROLE(once_flag)
    std::atomic<bool> _stopRequested{false};
    MINDFUL_ATOMIC_ROLE(once_flag)
    std::atomic<bool> _paused{false};
    MINDFUL_ATOMIC_ROLE(stat_counter)
    std::atomic<std::uint64_t> _emitted{0};
};

/**
 * Hot-path RAII span. Construction is two relaxed loads (streaming
 * gate, thread ring) plus one clock read; destruction is a clock read
 * and a lock-free ring push. Inactive — and near-free — when the
 * collector is not streaming or the thread has no ring.
 */
class HotSpan
{
  public:
    explicit HotSpan(TraceSite site)
    {
        if (!detail::g_collectorStreaming.load(
                std::memory_order_relaxed)) {
            return;
        }
        _ring = detail::t_traceRing;
        if (_ring == nullptr) {
            detail::g_unregisteredDrops.fetch_add(
                1, std::memory_order_relaxed);
            return;
        }
        _siteId = site.id;
        _startNanos = traceNowNanos();
    }

    ~HotSpan()
    {
        if (_ring == nullptr)
            return;
        PodEvent event;
        event.startNanos = _startNanos;
        event.durationNanos = traceNowNanos() - _startNanos;
        event.arg = _arg;
        event.siteId = _siteId;
        event.hasArg = _hasArg;
        _ring->tryPush(event);
    }

    HotSpan(const HotSpan &) = delete;
    HotSpan &operator=(const HotSpan &) = delete;

    /** Whether this span will push an event on destruction. */
    bool active() const { return _ring != nullptr; }

    /** Attach the one integer payload ("args": {"v": ...}). */
    HotSpan &
    setArg(std::uint64_t value)
    {
        _arg = value;
        _hasArg = 1;
        return *this;
    }

  private:
    TraceRing *_ring = nullptr;
    std::uint64_t _startNanos = 0;
    std::uint64_t _arg = 0;
    std::uint32_t _siteId = 0;
    std::uint32_t _hasArg = 0;
};

} // namespace mindful::obs

/**
 * The two ways to open a HotSpan (compiled to a NullSpan under
 * MINDFUL_OBS_DISABLED):
 *
 *   MINDFUL_CALL_SPAN(span, "dnn", "gemm");  // call-level code
 *   span.setArg(macs);
 *
 * interns its TraceSite on the first execution into a function-local
 * static (one lock, once), then costs what a HotSpan costs;
 *
 *   MINDFUL_HOT_SPAN(shard_span, site);      // parallelFor shard body
 *   shard_span.setArg(rows);
 *
 * records over a site hoisted out of the body, the form
 * mindful-analyze certifies for shard bodies and streaming loops.
 */
#ifndef MINDFUL_OBS_DISABLED

#define MINDFUL_CALL_SPAN(var, category, name) \
    ::mindful::obs::HotSpan var([]() { \
        static const ::mindful::obs::TraceSite site = \
            ::mindful::obs::TraceCollector::global().site((category), \
                                                          (name)); \
        return site; \
    }())

#define MINDFUL_HOT_SPAN(var, site) ::mindful::obs::HotSpan var((site))

#else

#define MINDFUL_CALL_SPAN(var, category, name) \
    [[maybe_unused]] ::mindful::obs::NullSpan var
#define MINDFUL_HOT_SPAN(var, site) \
    [[maybe_unused]] ::mindful::obs::NullSpan var

#endif // MINDFUL_OBS_DISABLED

#endif // MINDFUL_OBS_COLLECTOR_HH
