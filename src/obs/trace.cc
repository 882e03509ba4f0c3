#include "obs/trace.hh"

#include <chrono>

#include "obs/collector.hh"

namespace mindful::obs {

namespace {

std::chrono::steady_clock::time_point
traceEpoch()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return epoch;
}

// Touch at static-init so the epoch is process start.
const auto initTraceEpoch = traceEpoch();

std::uint64_t
nanosSinceEpoch()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - traceEpoch())
            .count());
}

} // namespace

std::uint64_t
traceNowNanos()
{
    return nanosSinceEpoch();
}

TraceSession &
TraceSession::global()
{
    static TraceSession session;
    return session;
}

void
TraceSession::setEnabled(bool enabled)
{
    _enabled.store(enabled, std::memory_order_relaxed);
}

std::uint32_t
TraceSession::currentThreadId()
{
    MINDFUL_ATOMIC_ROLE(stat_counter)
    static std::atomic<std::uint32_t> next{0};
    thread_local const std::uint32_t id =
        next.fetch_add(1, std::memory_order_relaxed);
    return id;
}

void
TraceSession::record(TraceEvent event)
{
    // While the streaming collector is live, the global session's
    // cold spans join the stream instead of accumulating here — one
    // timeline, bounded memory.
    if (this == &global() &&
        detail::g_collectorStreaming.load(std::memory_order_relaxed)) {
        TraceCollector::global().submitCold(std::move(event));
        return;
    }
    LockGuard lock(_mutex);
    _events.push_back(std::move(event));
}

std::vector<TraceEvent>
TraceSession::events() const
{
    LockGuard lock(_mutex);
    return _events;
}

void
TraceSession::clear()
{
    LockGuard lock(_mutex);
    _events.clear();
}

TraceSpan::TraceSpan(const char *category, std::string name)
    : _active(detail::g_collectorStreaming.load(std::memory_order_relaxed) ||
              TraceSession::global().enabled())
{
    if (!_active)
        return;
    _event.name = std::move(name);
    _event.category = category;
    _event.threadId = TraceSession::currentThreadId();
    _startNanos = nanosSinceEpoch();
}

TraceSpan::~TraceSpan()
{
    if (!_active)
        return;
    _event.startNanos = _startNanos;
    _event.durationNanos = nanosSinceEpoch() - _startNanos;
    TraceSession::global().record(std::move(_event));
}

} // namespace mindful::obs
