#include "obs/trace.hh"

#include <chrono>
#include <ostream>
#include <sstream>

#include "obs/collector.hh"
#include "obs/json.hh"
#include "obs/manifest.hh"

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

void
writeTraceMicros(std::ostream &os, std::uint64_t nanos)
{
    os << nanos / 1000 << '.' << static_cast<char>('0' + nanos / 100 % 10)
       << static_cast<char>('0' + nanos / 10 % 10)
       << static_cast<char>('0' + nanos % 10);
}

void
writeTraceEventJson(std::ostream &os, const TraceEvent &event)
{
    os << "{\"name\": ";
    writeJsonEscaped(os, event.name);
    os << ", \"cat\": ";
    writeJsonEscaped(os, event.category);
    os << ", \"ph\": \"X\", \"ts\": ";
    writeTraceMicros(os, event.startNanos);
    os << ", \"dur\": ";
    writeTraceMicros(os, event.durationNanos);
    os << ", \"pid\": 1, \"tid\": " << event.threadId;
    if (!event.args.empty()) {
        os << ", \"args\": {";
        bool first_arg = true;
        for (const auto &[key, value] : event.args) {
            if (!first_arg)
                os << ", ";
            first_arg = false;
            writeJsonEscaped(os, key);
            os << ": ";
            writeJsonEscaped(os, value);
        }
        os << "}";
    }
    os << "}";
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

std::uint64_t
TraceSession::nowNanos() const
{
    return nanosSinceEpoch();
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

std::size_t
TraceSession::eventCount() const
{
    LockGuard lock(_mutex);
    return _events.size();
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

void
TraceSession::writeJson(std::ostream &os) const
{
    std::vector<TraceEvent> snapshot = events();
    os << "{\"traceEvents\": [";
    bool first = true;
    for (const auto &event : snapshot) {
        if (!first)
            os << ",";
        first = false;
        os << "\n  ";
        writeTraceEventJson(os, event);
    }
    os << "\n], \"displayTimeUnit\": \"ms\", \"otherData\": "
          "{\"manifest\": ";
    RunManifest::current().writeJsonObject(os);
    os << "}}\n";
}

TraceSpan::TraceSpan(const char *category, std::string name)
    : _active(TraceSession::global().enabled())
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

TraceSpan &
TraceSpan::arg(const std::string &key, const std::string &value)
{
    if (_active)
        _event.args.emplace_back(key, value);
    return *this;
}

TraceSpan &
TraceSpan::arg(const std::string &key, double value)
{
    if (_active) {
        std::ostringstream os;
        os.precision(12);
        os << value;
        _event.args.emplace_back(key, os.str());
    }
    return *this;
}

TraceSpan &
TraceSpan::arg(const std::string &key, std::uint64_t value)
{
    if (_active)
        _event.args.emplace_back(key, std::to_string(value));
    return *this;
}

} // namespace mindful::obs
