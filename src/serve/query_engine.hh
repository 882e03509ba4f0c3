/**
 * @file
 * The mindful_serve query engine: batched, memo-cached evaluation of
 * design-space requests against the MINDFUL analytic models.
 *
 * One engine owns one MemoCache and the registry counters it resolves
 * once at construction (serve.queries / serve.cache.hits /
 * serve.cache.misses / serve.cache.drops). evaluate() answers one
 * DesignQuery — from the cache when an equivalent request was answered
 * before, else through the core/accel/thermal analytic path for its
 * workload class.
 * evaluateBatch() (batch.cc) shards a request vector over
 * exec::parallelFor under the repo's determinism contract: fixed
 * kDefaultShards decomposition, indexed writes, results bit-identical
 * for any --threads value and any cache state (docs/serving.md).
 */

#ifndef MINDFUL_SERVE_QUERY_ENGINE_HH
#define MINDFUL_SERVE_QUERY_ENGINE_HH

#include <cstdint>
#include <vector>

#include "obs/metrics.hh"
#include "serve/cache.hh"
#include "serve/query.hh"

namespace mindful::serve {

/** Evaluates design queries; see file comment. */
class QueryEngine
{
  public:
    explicit QueryEngine(
        std::size_t cache_capacity = MemoCache::kDefaultCapacity);

    /**
     * Answer one request: canonicalize, probe the cache, evaluate on
     * a miss and publish the result. Invalid requests come back with
     * status InvalidRequest / UnknownSoc (never fatal). Equal
     * canonical requests always return bit-identical results.
     */
    QueryResult evaluate(const DesignQuery &request);

    /**
     * Miss path: evaluate an already-canonicalized request under its
     * precomputed memo key and publish the result. evaluateBatch's
     * shard bodies call this after an inline cache probe.
     */
    QueryResult evaluate(const DesignQuery &canonical,
                         std::uint64_t key);

    /**
     * Answer a request vector in parallel (batch.cc). Requests are
     * sharded over exec::parallelFor with the fixed kDefaultShards
     * decomposition; results[i] answers requests[i], bit-identical
     * for any thread count and cache state.
     */
    std::vector<QueryResult>
    evaluateBatch(const std::vector<DesignQuery> &requests);

    const MemoCache &cache() const { return _cache; }

    // Counter snapshots (process-wide totals; tests take deltas).
    std::uint64_t queriesTotal() const { return _queries.value(); }
    std::uint64_t cacheHitsTotal() const { return _hits.value(); }
    std::uint64_t cacheMissesTotal() const { return _misses.value(); }
    std::uint64_t cacheDropsTotal() const { return _drops.value(); }

  private:
    /** The uncached analytic evaluation for one canonical request. */
    QueryResult evaluateUncached(const DesignQuery &canonical) const;

    /** Add @p n to @p counter unless the global registry is disabled. */
    static void
    addIfEnabled(obs::Counter &counter, std::uint64_t n = 1)
    {
        if (obs::MetricRegistry::global().enabled())
            counter.add(n);
    }

    MemoCache _cache;

    // Resolved once at construction; added to lock-free afterwards.
    obs::Counter &_queries;
    obs::Counter &_hits;
    obs::Counter &_misses;
    obs::Counter &_drops;
};

} // namespace mindful::serve

#endif // MINDFUL_SERVE_QUERY_ENGINE_HH
