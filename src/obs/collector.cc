#include "obs/collector.hh"

#include <chrono>
#include <ostream>

#include "base/logging.hh"
#include "obs/json.hh"
#include "obs/manifest.hh"

namespace mindful::obs {

namespace detail {

MINDFUL_ATOMIC_ROLE(once_flag)
std::atomic<bool> g_collectorStreaming{false};
MINDFUL_ATOMIC_ROLE(stat_counter)
std::atomic<std::uint64_t> g_unregisteredDrops{0};
thread_local TraceRing *t_traceRing = nullptr;

} // namespace detail

namespace {

/** ts/dur in microseconds with nanosecond decimals. */
void
writeMicros(std::ostream &os, std::uint64_t nanos)
{
    os << nanos / 1000 << '.' << static_cast<char>('0' + nanos / 100 % 10)
       << static_cast<char>('0' + nanos / 10 % 10)
       << static_cast<char>('0' + nanos % 10);
}

/** A complete ("ph":"X") trace_event up to its tid; caller closes it. */
void
writeSpanHead(std::ostream &os, const std::string &name,
              const std::string &category, std::uint64_t start_nanos,
              std::uint64_t duration_nanos, std::uint32_t thread_id)
{
    os << "\n  {\"name\": ";
    writeJsonEscaped(os, name);
    os << ", \"cat\": ";
    writeJsonEscaped(os, category);
    os << ", \"ph\": \"X\", \"ts\": ";
    writeMicros(os, start_nanos);
    os << ", \"dur\": ";
    writeMicros(os, duration_nanos);
    os << ", \"pid\": 1, \"tid\": " << thread_id;
}

} // namespace

TraceCollector &
TraceCollector::global()
{
    static TraceCollector collector;
    return collector;
}

TraceCollector::~TraceCollector()
{
    // Last-resort teardown (process exit with a live session): stop
    // the drain thread but skip the footer — the sink may already be
    // gone. Orderly shutdown goes through stop().
    if (_drain.joinable()) {
        detail::g_collectorStreaming.store(false,
                                           std::memory_order_release);
        _stopRequested.store(true, std::memory_order_release);
        _drain.join();
    }
}

TraceSite
TraceCollector::site(const std::string &category, const std::string &name)
{
    LockGuard lock(_mutex);
    for (std::size_t i = 0; i < _sites.size(); ++i) {
        if (_sites[i].first == category && _sites[i].second == name)
            return TraceSite{static_cast<std::uint32_t>(i)};
    }
    _sites.emplace_back(category, name);
    return TraceSite{static_cast<std::uint32_t>(_sites.size() - 1)};
}

void
TraceCollector::registerCurrentThread()
{
    if (detail::t_traceRing != nullptr)
        return;
    LockGuard lock(_mutex);
    _rings.push_back(std::make_unique<TraceRing>(
        _ringCapacity, TraceSession::currentThreadId()));
    detail::t_traceRing = _rings.back().get();
}

void
TraceCollector::setRingCapacity(std::size_t slots)
{
    MINDFUL_ASSERT(slots > 0, "ring capacity must be positive");
    LockGuard lock(_mutex);
    _ringCapacity = slots;
}

void
TraceCollector::start(std::ostream *os)
{
    MINDFUL_ASSERT(!streaming() && !_drain.joinable(),
                   "trace collector is already streaming");
    {
        LockGuard lock(_mutex);
        _os = os;
        _firstEvent = true;
        _droppedAtStart = lockedDroppedSum();
        if (_os != nullptr)
            *_os << "{\"traceEvents\": [";
    }
    _emitted.store(0, std::memory_order_relaxed);
    _stopRequested.store(false, std::memory_order_relaxed);
    _paused.store(false, std::memory_order_relaxed);
    detail::g_collectorStreaming.store(true, std::memory_order_release);
    _drain = std::thread([this] { drainLoop(); });
}

CollectorTotals
TraceCollector::stop()
{
    if (!streaming() && !_drain.joinable())
        return {};
    detail::g_collectorStreaming.store(false, std::memory_order_release);
    _stopRequested.store(true, std::memory_order_release);
    if (_drain.joinable())
        _drain.join();
    // Final sweep, pause cleared: producers that recorded before the
    // streaming flag flipped are flushed here.
    _paused.store(false, std::memory_order_relaxed);
    drainOnce();

    CollectorTotals totals;
    totals.emitted = _emitted.load(std::memory_order_relaxed);
    LockGuard lock(_mutex);
    totals.dropped = lockedDroppedSum() - _droppedAtStart;
    if (_os != nullptr) {
        std::ostream &os = *_os;
        os << "\n], \"displayTimeUnit\": \"ms\", \"otherData\": "
              "{\"manifest\": ";
        RunManifest::current().writeJsonObject(os);
        os << ", \"emitted\": " << totals.emitted
           << ", \"dropped\": " << totals.dropped << "}}\n";
        os.flush();
        _os = nullptr;
    }
    return totals;
}

void
TraceCollector::setDrainPaused(bool paused)
{
    _paused.store(paused, std::memory_order_release);
}

void
TraceCollector::submitCold(TraceEvent event)
{
    LockGuard lock(_mutex);
    _cold.push_back(std::move(event));
}

std::uint64_t
TraceCollector::droppedSinceStart() const
{
    LockGuard lock(_mutex);
    return lockedDroppedSum() - _droppedAtStart;
}

void
TraceCollector::drainLoop()
{
    while (!_stopRequested.load(std::memory_order_acquire)) {
        if (!_paused.load(std::memory_order_acquire))
            drainOnce();
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
}

std::uint64_t
TraceCollector::drainOnce()
{
    LockGuard lock(_mutex);
    std::uint64_t written = 0;
    for (const auto &ring : _rings) {
        PodEvent event;
        MINDFUL_RT_LOOP("collector.drain")
        while (ring->tryPop(event)) {
            emitHotLocked(event, ring->threadId());
            ++written;
        }
    }
    for (const TraceEvent &event : _cold) {
        emitColdLocked(event);
        ++written;
    }
    _cold.clear();
    _emitted.fetch_add(written, std::memory_order_relaxed);
    return written;
}

void
TraceCollector::emitHotLocked(const PodEvent &event,
                              std::uint32_t thread_id)
{
    if (_os == nullptr)
        return; // count-only sink
    std::ostream &os = *_os;
    if (!_firstEvent)
        os << ",";
    _firstEvent = false;
    const auto &site = _sites[event.siteId];
    writeSpanHead(os, site.second, site.first, event.startNanos,
                  event.durationNanos, thread_id);
    if (event.hasArg != 0)
        os << ", \"args\": {\"v\": " << event.arg << "}";
    os << "}";
}

void
TraceCollector::emitColdLocked(const TraceEvent &event)
{
    if (_os == nullptr)
        return;
    std::ostream &os = *_os;
    if (!_firstEvent)
        os << ",";
    _firstEvent = false;
    writeSpanHead(os, event.name, event.category, event.startNanos,
                  event.durationNanos, event.threadId);
    os << "}";
}

std::uint64_t
TraceCollector::lockedDroppedSum() const
{
    std::uint64_t sum =
        detail::g_unregisteredDrops.load(std::memory_order_relaxed);
    for (const auto &ring : _rings)
        sum += ring->dropped();
    return sum;
}

} // namespace mindful::obs
