/**
 * @file
 * Fixed-size POD trace event: what every HotSpan records.
 *
 * Call-level spans (MINDFUL_CALL_SPAN) and shard-body spans
 * (MINDFUL_HOT_SPAN) both push one 32-byte PodEvent per span into a
 * per-thread SPSC ring (obs/ring.hh): no allocation, no lock, no
 * string. Names are interned into TraceSite ids (obs/collector.hh);
 * the background collector resolves them back while streaming
 * Chrome trace_event JSON. Every event is a complete ("ph":"X") span.
 */

#ifndef MINDFUL_OBS_EVENT_HH
#define MINDFUL_OBS_EVENT_HH

#include <cstdint>

namespace mindful::obs {

/** One hot-path span record. Plain data, copied into ring slots. */
struct PodEvent
{
    std::uint64_t startNanos = 0; //!< since the process trace epoch
    std::uint64_t durationNanos = 0;
    std::uint64_t arg = 0; //!< optional integer payload (rows, MACs)
    std::uint32_t siteId = 0;
    std::uint32_t hasArg = 0;
};

static_assert(sizeof(PodEvent) == 32, "one ring slot is 32 bytes");

/**
 * Monotonic nanoseconds since the process trace epoch — the same
 * epoch TraceSpan stamps, so the per-layer cold span lines up with
 * the hot spans on one timeline. Defined in trace.cc.
 */
std::uint64_t traceNowNanos();

} // namespace mindful::obs

#endif // MINDFUL_OBS_EVENT_HH
