#include "ni/synthetic_cortex.hh"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "base/logging.hh"
#include "exec/parallel.hh"

namespace mindful::ni {

std::uint64_t
Recording::spikeCount(std::uint64_t channel) const
{
    std::uint64_t count = 0;
    for (std::size_t t = 0; t < steps; ++t)
        count += spikeRaster[channel * steps + t];
    return count;
}

std::vector<std::vector<double>>
Recording::binnedCounts(std::size_t bin_steps) const
{
    MINDFUL_ASSERT(bin_steps > 0, "bin size must be positive");
    std::size_t bins = steps / bin_steps;
    std::vector<std::vector<double>> out(
        channels, std::vector<double>(bins, 0.0));
    for (std::uint64_t ch = 0; ch < channels; ++ch) {
        for (std::size_t b = 0; b < bins; ++b) {
            double count = 0.0;
            for (std::size_t s = 0; s < bin_steps; ++s)
                count += spikeRaster[ch * steps + b * bin_steps + s];
            out[ch][b] = count;
        }
    }
    return out;
}

std::vector<std::vector<double>>
Recording::binnedIntent(std::size_t bin_steps) const
{
    MINDFUL_ASSERT(bin_steps > 0, "bin size must be positive");
    std::size_t bins = steps / bin_steps;
    std::vector<std::vector<double>> out(
        intent.size(), std::vector<double>(bins, 0.0));
    for (std::size_t d = 0; d < intent.size(); ++d) {
        for (std::size_t b = 0; b < bins; ++b) {
            double sum = 0.0;
            for (std::size_t s = 0; s < bin_steps; ++s)
                sum += intent[d][b * bin_steps + s];
            out[d][b] = sum / static_cast<double>(bin_steps);
        }
    }
    return out;
}

SyntheticCortex::SyntheticCortex(SyntheticCortexConfig config)
    : _config(config), _rng(config.seed)
{
    MINDFUL_ASSERT(config.channels > 0, "need at least one channel");
    MINDFUL_ASSERT(config.latentDims > 0, "need at least one latent dim");
    MINDFUL_ASSERT(config.activeFraction >= 0.0 &&
                       config.activeFraction <= 1.0,
                   "activeFraction must lie in [0, 1]");
    MINDFUL_ASSERT(config.maxRateHz >= config.baseRateHz,
                   "maxRateHz must be >= baseRateHz");
    MINDFUL_ASSERT(config.samplingFrequency.inHertz() >= 1000.0,
                   "spike-band recordings need >= 1 kHz sampling");

    // Assign tuned neurons to a deterministic prefix-shuffled subset
    // of channels, with unit-norm random preferred directions.
    auto active_target = static_cast<std::uint64_t>(
        std::llround(config.activeFraction *
                     static_cast<double>(config.channels)));
    std::vector<std::uint64_t> order(config.channels);
    for (std::uint64_t i = 0; i < config.channels; ++i)
        order[i] = i;
    std::shuffle(order.begin(), order.end(), _rng.engine());

    _tuning.resize(config.channels);
    for (std::uint64_t i = 0; i < active_target; ++i) {
        std::vector<double> dir(config.latentDims);
        double norm = 0.0;
        do {
            norm = 0.0;
            for (auto &v : dir) {
                v = _rng.gaussian();
                norm += v * v;
            }
        } while (norm < 1e-12);
        norm = std::sqrt(norm);
        for (auto &v : dir)
            v /= norm;
        _tuning[order[i]] = std::move(dir);
        ++_activeCount;
    }

    // Biphasic spike template: ~1.2 ms, sharp negative trough then a
    // slower positive rebound, scaled to the requested amplitude.
    double fs = config.samplingFrequency.inHertz();
    auto kernel_len = std::max<std::size_t>(
        4, static_cast<std::size_t>(std::llround(1.2e-3 * fs)));
    _spikeKernel.resize(kernel_len);
    double peak = 0.0;
    for (std::size_t s = 0; s < kernel_len; ++s) {
        double t = static_cast<double>(s) / fs;
        double trough = -std::exp(-t / 0.15e-3) * std::sin(
            std::numbers::pi * t / 0.4e-3);
        double rebound = 0.35 * std::exp(-(t - 0.45e-3) * (t - 0.45e-3) /
                                         (2.0 * 0.2e-3 * 0.2e-3));
        _spikeKernel[s] = trough + rebound;
        peak = std::max(peak, std::abs(_spikeKernel[s]));
    }
    for (auto &v : _spikeKernel)
        v *= config.spikeAmplitudeUv / peak;
}

const std::vector<double> &
SyntheticCortex::tuning(std::uint64_t channel) const
{
    MINDFUL_ASSERT(channel < _config.channels, "channel out of range");
    return _tuning[channel];
}

bool
SyntheticCortex::isActive(std::uint64_t channel) const
{
    return !tuning(channel).empty();
}

Recording
SyntheticCortex::generate(std::size_t steps)
{
    MINDFUL_ASSERT(steps > 0, "cannot generate an empty recording");

    const double fs = _config.samplingFrequency.inHertz();
    const double dt = 1.0 / fs;
    const auto channels = _config.channels;

    Recording rec;
    rec.channels = channels;
    rec.steps = steps;
    rec.samplingFrequency = _config.samplingFrequency;
    rec.samples.assign(channels * steps, 0.0);
    rec.spikeRaster.assign(channels * steps, 0);
    rec.intent.assign(_config.latentDims, std::vector<double>(steps, 0.0));

    // --- Latent intent: OU process with unit stationary variance. ---
    const double tau = _config.intentTimeConstant;
    const double decay = std::exp(-dt / tau);
    const double drive = std::sqrt(1.0 - decay * decay);
    std::vector<double> x(_config.latentDims, 0.0);
    for (std::size_t t = 0; t < steps; ++t) {
        for (unsigned d = 0; d < _config.latentDims; ++d) {
            x[d] = decay * x[d] + drive * _rng.gaussian();
            rec.intent[d][t] = x[d];
        }
    }

    // --- Shared LFP: a few low-frequency sinusoids (theta / beta). ---
    std::vector<double> lfp(steps, 0.0);
    {
        const double freqs[] = {6.0, 11.0, 23.0};
        const double gains[] = {1.0, 0.5, 0.25};
        double gain_sum = 0.0;
        for (double g : gains)
            gain_sum += g;
        for (std::size_t c = 0; c < 3; ++c) {
            double phase = _rng.uniform(0.0, 2.0 * std::numbers::pi);
            double w = 2.0 * std::numbers::pi * freqs[c];
            for (std::size_t t = 0; t < steps; ++t) {
                lfp[t] += _config.lfpAmplitudeUv * gains[c] / gain_sum *
                          std::sin(w * static_cast<double>(t) * dt + phase);
            }
        }
    }

    // --- Per-channel spikes + noise. ---
    // Pink-ish noise: OU low-frequency component plus white floor.
    const double noise_tau = 5e-3;
    const double noise_decay = std::exp(-dt / noise_tau);
    const double noise_drive = std::sqrt(1.0 - noise_decay * noise_decay);
    const double ou_share = 0.6;

    // Every channel draws from its own forked stream (never from the
    // shared engine), so the raster is a pure function of (seed, call,
    // channel) and the channels can run as parallel shards: all writes
    // (trace, spikeRaster rows) are channel-disjoint.
    const std::uint64_t call = _generateCalls++;
    exec::parallelFor(
        exec::kDefaultShards,
        [&](std::size_t shard) {
            const auto range =
                exec::shardRange(channels, exec::kDefaultShards, shard);
            for (std::uint64_t ch = range.begin; ch < range.end; ++ch) {
                Rng rng = _rng.fork(call * channels + ch);
                double *trace = rec.samples.data() + ch * steps;
                const bool active = !_tuning[ch].empty();
                double ou = 0.0;
                for (std::size_t t = 0; t < steps; ++t) {
                    // Firing rate from cosine tuning to the intent.
                    double rate = _config.inactiveRateHz;
                    if (active) {
                        double dot = 0.0;
                        for (unsigned d = 0; d < _config.latentDims; ++d)
                            dot += _tuning[ch][d] * rec.intent[d][t];
                        double drive_sig = 1.0 / (1.0 + std::exp(-dot));
                        rate = _config.baseRateHz +
                               (_config.maxRateHz - _config.baseRateHz) *
                                   drive_sig;
                    }
                    if (rng.bernoulli(std::min(1.0, rate * dt))) {
                        rec.spikeRaster[ch * steps + t] = 1;
                        std::size_t len =
                            std::min(_spikeKernel.size(), steps - t);
                        for (std::size_t s = 0; s < len; ++s)
                            trace[t + s] += _spikeKernel[s];
                    }

                    ou = noise_decay * ou + noise_drive * rng.gaussian();
                    double noise = _config.noiseRmsUv *
                                   (ou_share * ou +
                                    (1.0 - ou_share) * rng.gaussian());
                    trace[t] += noise + lfp[t];
                }
            }
        });
    return rec;
}

} // namespace mindful::ni
