#include "signal/spike_sorter.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "base/logging.hh"
#include "exec/parallel.hh"

namespace mindful::signal {

std::vector<Snippet>
extractSnippets(const std::vector<double> &trace,
                const std::vector<SpikeEvent> &events, std::size_t pre,
                std::size_t post)
{
    std::vector<Snippet> snippets;
    snippets.reserve(events.size());
    for (const auto &event : events) {
        if (event.sampleIndex < pre ||
            event.sampleIndex + post >= trace.size())
            continue;
        Snippet snippet;
        snippet.reserve(pre + post + 1);
        for (std::size_t s = event.sampleIndex - pre;
             s <= event.sampleIndex + post; ++s)
            snippet.push_back(trace[s]);
        snippets.push_back(std::move(snippet));
    }
    return snippets;
}

namespace {

double
squaredDistance(const Snippet &a, const Snippet &b)
{
    double acc = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        double d = a[i] - b[i];
        acc += d * d;
    }
    return acc;
}

} // namespace

TemplateSpikeSorter::TemplateSpikeSorter(SpikeSorterConfig config)
    : _config(config)
{
    MINDFUL_ASSERT(config.units >= 1, "need at least one template");
    MINDFUL_ASSERT(config.rejectionSigmas > 0.0,
                   "rejection threshold must be positive");
}

void
TemplateSpikeSorter::train(const std::vector<Snippet> &snippets)
{
    MINDFUL_ASSERT(snippets.size() >= _config.units,
                   "need at least as many snippets (", snippets.size(),
                   ") as templates (", _config.units, ")");
    _snippetLength = snippets.front().size();
    MINDFUL_ASSERT(_snippetLength > 0, "snippets must be non-empty");
    for (const auto &snippet : snippets)
        MINDFUL_ASSERT(snippet.size() == _snippetLength,
                       "all snippets must share one length");

    // k-means with probabilistic k-means++ seeding and a few
    // restarts, keeping the lowest-inertia solution. Probabilistic
    // seeding (next centre drawn with probability ~ D^2) is robust
    // against the handful of misaligned outlier snippets real
    // detections produce, which deterministic farthest-point seeding
    // would latch onto.
    //
    // Each restart draws from its own forked stream (never from raw
    // bits() of a shared engine) and runs as an independent shard on
    // the process-wide pool; the winner is the lowest inertia with
    // the lowest attempt index breaking ties, so the result is
    // identical on any thread count.
    const Rng base_rng(_config.seed);
    const std::size_t restarts = 4;

    struct Attempt
    {
        double inertia = std::numeric_limits<double>::infinity();
        std::vector<Snippet> centres;
        std::vector<std::size_t> assignment;
        std::vector<double> weight;      // k-means++ scratch
        std::vector<Snippet> sums;       // Lloyd accumulation scratch
        std::vector<std::size_t> counts; // Lloyd accumulation scratch
    };
    std::vector<Attempt> attempts(restarts);
    // Every container a restart touches is sized here, before the
    // shards run; the shard bodies only write in place. Keeps the
    // whole k-means loop allocation-free on the pool (the analyzer's
    // hot-path check holds the line).
    for (auto &attempt : attempts) {
        attempt.centres.assign(_config.units,
                               Snippet(_snippetLength, 0.0));
        attempt.assignment.assign(snippets.size(), 0);
        attempt.weight.assign(snippets.size(), 0.0);
        attempt.sums.assign(_config.units,
                            Snippet(_snippetLength, 0.0));
        attempt.counts.assign(_config.units, 0);
    }

    auto run_attempt = [&](std::size_t attempt_index) {
        Attempt &attempt = attempts[attempt_index];
        std::vector<Snippet> &centres = attempt.centres;
        std::vector<std::size_t> &assignment = attempt.assignment;
        std::vector<double> &weight = attempt.weight;
        std::vector<Snippet> &sums = attempt.sums;
        std::vector<std::size_t> &counts = attempt.counts;

        Rng rng = base_rng.fork(attempt_index);
        centres[0] = snippets[static_cast<std::size_t>(
            rng.uniformInt(0,
                           static_cast<std::int64_t>(snippets.size()) -
                               1))];
        for (std::size_t seeded = 1; seeded < _config.units; ++seeded) {
            double total_weight = 0.0;
            for (std::size_t i = 0; i < snippets.size(); ++i) {
                double nearest =
                    std::numeric_limits<double>::infinity();
                for (std::size_t u = 0; u < seeded; ++u)
                    nearest = std::min(
                        nearest,
                        squaredDistance(snippets[i], centres[u]));
                weight[i] = nearest;
                total_weight += nearest;
            }
            double draw = rng.uniform(0.0, std::max(total_weight, 1e-30));
            std::size_t chosen = snippets.size() - 1;
            double acc = 0.0;
            for (std::size_t i = 0; i < snippets.size(); ++i) {
                acc += weight[i];
                if (acc >= draw) {
                    chosen = i;
                    break;
                }
            }
            centres[seeded] = snippets[chosen];
        }

        // Lloyd iterations.
        for (std::size_t iter = 0; iter < _config.kmeansIterations;
             ++iter) {
            bool changed = false;
            for (std::size_t i = 0; i < snippets.size(); ++i) {
                std::size_t best = 0;
                double best_distance =
                    std::numeric_limits<double>::infinity();
                for (std::size_t u = 0; u < centres.size(); ++u) {
                    double d = squaredDistance(snippets[i], centres[u]);
                    if (d < best_distance) {
                        best_distance = d;
                        best = u;
                    }
                }
                if (assignment[i] != best) {
                    assignment[i] = best;
                    changed = true;
                }
            }

            for (auto &sum : sums)
                std::fill(sum.begin(), sum.end(), 0.0);
            std::fill(counts.begin(), counts.end(), 0);
            for (std::size_t i = 0; i < snippets.size(); ++i) {
                for (std::size_t s = 0; s < _snippetLength; ++s)
                    sums[assignment[i]][s] += snippets[i][s];
                ++counts[assignment[i]];
            }
            for (std::size_t u = 0; u < centres.size(); ++u) {
                if (counts[u] == 0) {
                    centres[u] = snippets[static_cast<std::size_t>(
                        rng.uniformInt(
                            0, static_cast<std::int64_t>(
                                   snippets.size()) -
                                   1))];
                    changed = true;
                    continue;
                }
                for (std::size_t s = 0; s < _snippetLength; ++s)
                    centres[u][s] =
                        sums[u][s] / static_cast<double>(counts[u]);
            }
            if (!changed && iter > 0)
                break;
        }

        double inertia = 0.0;
        for (std::size_t i = 0; i < snippets.size(); ++i)
            inertia +=
                squaredDistance(snippets[i], centres[assignment[i]]);
        attempt.inertia = inertia;
    };

    exec::parallelFor(restarts, run_attempt);

    // Deterministic winner: strict < scanned in attempt order keeps
    // the lowest attempt index on inertia ties.
    std::size_t best = 0;
    for (std::size_t attempt = 1; attempt < restarts; ++attempt) {
        if (attempts[attempt].inertia < attempts[best].inertia)
            best = attempt;
    }
    std::vector<std::size_t> best_assignment =
        std::move(attempts[best].assignment);
    _templates = std::move(attempts[best].centres);

    // Noise scale: mean within-cluster distance (for the rejection
    // rule). Guard against degenerate zero-noise training sets.
    double total = 0.0;
    for (std::size_t i = 0; i < snippets.size(); ++i)
        total += std::sqrt(
            squaredDistance(snippets[i], _templates[best_assignment[i]]));
    _noiseScale = std::max(
        total / static_cast<double>(snippets.size()), 1e-9);
}

double
TemplateSpikeSorter::distanceTo(const Snippet &snippet,
                                std::size_t unit) const
{
    return std::sqrt(squaredDistance(snippet, _templates[unit]));
}

SortedSpike
TemplateSpikeSorter::classify(const Snippet &snippet) const
{
    MINDFUL_ASSERT(trained(), "sorter must be trained before use");
    MINDFUL_ASSERT(snippet.size() == _snippetLength,
                   "snippet length ", snippet.size(), " != trained length ",
                   _snippetLength);

    SortedSpike result;
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t u = 0; u < _templates.size(); ++u) {
        double d = distanceTo(snippet, u);
        if (d < best) {
            best = d;
            result.unit = static_cast<int>(u);
        }
    }
    result.distance = best;
    if (best > _config.rejectionSigmas * _noiseScale)
        result.unit = -1;
    return result;
}

std::vector<SortedSpike>
TemplateSpikeSorter::classify(const std::vector<Snippet> &snippets) const
{
    std::vector<SortedSpike> results;
    results.reserve(snippets.size());
    for (const auto &snippet : snippets)
        results.push_back(classify(snippet));
    return results;
}

} // namespace mindful::signal
