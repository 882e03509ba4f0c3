#include "serve/query.hh"

#include <bit>
#include <cmath>

#include "base/logging.hh"
#include "core/scaling.hh"
#include "thermal/safety.hh"

namespace mindful::serve {

namespace {

// FNV-1a 64 over explicit 64-bit lanes (the standard 64-bit offset
// basis and prime). Field-by-field mixing keeps struct padding out of
// the digest.
constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

constexpr std::uint64_t
mix(std::uint64_t hash, std::uint64_t value)
{
    for (int byte = 0; byte < 8; ++byte) {
        hash ^= (value >> (byte * 8)) & 0xffu;
        hash *= kFnvPrime;
    }
    return hash;
}

constexpr std::uint64_t
mixDouble(std::uint64_t hash, double value)
{
    return mix(hash, std::bit_cast<std::uint64_t>(value));
}

/** True when the knob holds a usable positive finite value. */
bool
positiveFinite(double value)
{
    return std::isfinite(value) && value > 0.0;
}

bool
usesCompute(WorkloadClass workload)
{
    return workload == WorkloadClass::EventStreaming ||
           workload == WorkloadClass::DnnMlp ||
           workload == WorkloadClass::DnnCnn ||
           workload == WorkloadClass::Kalman;
}

bool
supportsPartitioning(WorkloadClass workload)
{
    return workload == WorkloadClass::DnnMlp ||
           workload == WorkloadClass::DnnCnn ||
           workload == WorkloadClass::Kalman;
}

} // namespace

double
defaultThermalEnvelopeMwPerCm2()
{
    const thermal::SafetyLimits limits;
    return limits.maxPowerDensity.inMilliwattsPerSquareCentimetre();
}

DesignQuery
canonicalize(const DesignQuery &query)
{
    DesignQuery canonical = query;

    if (canonical.channels == 0)
        canonical.channels = core::kStandardChannels;
    if (!positiveFinite(canonical.thermalEnvelopeMwPerCm2))
        canonical.thermalEnvelopeMwPerCm2 = defaultThermalEnvelopeMwPerCm2();
    if (!positiveFinite(canonical.uplinkCapMbps))
        canonical.uplinkCapMbps = 0.0;
    if (!positiveFinite(canonical.qamEfficiency) ||
        canonical.qamEfficiency > 1.0)
        canonical.qamEfficiency = kDefaultQamEfficiency;

    // Reset every knob the workload class never reads, so two
    // requests that differ only in an ignored field share one memo
    // entry (and one evaluation).
    if (canonical.workload != WorkloadClass::RawStreaming)
        canonical.commStrategy = core::CommScalingStrategy::HighMargin;
    if (canonical.workload != WorkloadClass::QamStreaming)
        canonical.qamEfficiency = kDefaultQamEfficiency;
    if (!usesCompute(canonical.workload))
        canonical.node = ProcessNode::Node45nm;
    if (!supportsPartitioning(canonical.workload))
        canonical.partitioned = false;

    return canonical;
}

std::uint64_t
queryKey(const DesignQuery &canonical)
{
    std::uint64_t hash = kFnvOffset;
    hash = mix(hash, static_cast<std::uint64_t>(
                         static_cast<std::int64_t>(canonical.socId)));
    hash = mix(hash, canonical.channels);
    hash = mix(hash, static_cast<std::uint64_t>(canonical.workload));
    hash = mix(hash, static_cast<std::uint64_t>(canonical.commStrategy));
    hash = mix(hash, static_cast<std::uint64_t>(canonical.node));
    hash = mix(hash, canonical.partitioned ? 1u : 0u);
    hash = mixDouble(hash, canonical.qamEfficiency);
    hash = mixDouble(hash, canonical.uplinkCapMbps);
    hash = mixDouble(hash, canonical.thermalEnvelopeMwPerCm2);
    return hash;
}

std::uint64_t
resultDigest(const QueryResult &result)
{
    std::uint64_t hash = kFnvOffset;
    hash = mix(hash, static_cast<std::uint64_t>(result.status));
    hash = mix(hash, static_cast<std::uint64_t>(result.workload));
    hash = mix(hash, static_cast<std::uint64_t>(
                         static_cast<std::int64_t>(result.socId)));
    hash = mix(hash, result.channels);
    hash = mix(hash, result.feasible ? 1u : 0u);
    hash = mix(hash, result.budgetSafe ? 1u : 0u);
    hash = mix(hash, result.deadlineMet ? 1u : 0u);
    hash = mix(hash, result.linkMet ? 1u : 0u);
    hash = mixDouble(hash, result.budgetUtilization);
    hash = mixDouble(hash, result.totalPowerMw);
    hash = mixDouble(hash, result.sensingPowerMw);
    hash = mixDouble(hash, result.commPowerMw);
    hash = mixDouble(hash, result.computePowerMw);
    hash = mixDouble(hash, result.digitalPowerMw);
    hash = mixDouble(hash, result.powerBudgetMw);
    hash = mixDouble(hash, result.areaMm2);
    hash = mixDouble(hash, result.uplinkMbps);
    hash = mixDouble(hash, result.qamMinEfficiency);
    hash = mix(hash, result.activeChannels);
    hash = mix(hash, result.onImplantLayers);
    hash = mix(hash, result.transmittedElements);
    return hash;
}

std::string
toString(WorkloadClass workload)
{
    switch (workload) {
    case WorkloadClass::RawStreaming:
        return "raw_streaming";
    case WorkloadClass::QamStreaming:
        return "qam_streaming";
    case WorkloadClass::EventStreaming:
        return "event_streaming";
    case WorkloadClass::DnnMlp:
        return "dnn_mlp";
    case WorkloadClass::DnnCnn:
        return "dnn_cnn";
    case WorkloadClass::Kalman:
        return "kalman";
    }
    MINDFUL_FATAL("unknown WorkloadClass ",
                  static_cast<unsigned>(workload));
}

} // namespace mindful::serve
