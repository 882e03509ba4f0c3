/**
 * @file
 * Batched query evaluation under the determinism contract
 * (docs/parallelism.md): requests shard over exec::parallelFor with
 * the fixed kDefaultShards decomposition, every request writes its
 * own results slot, and results are therefore bit-identical for any
 * --threads value. They are also bit-identical for any *cache* state:
 * a hit returns the atomically published first evaluation, and the
 * analytic paths are deterministic, so re-evaluating produces the
 * same bytes the cache would have returned.
 *
 * The shard body's probe path — canonicalize, queryKey, MemoCache
 * probe — is allocation- and lock-free and is certified by
 * mindful-analyze's hot-path check. Only a miss drops into the
 * (allocating) analytic evaluation. Queries and hits are counted in
 * shard-local variables and added to the registry counters once per
 * shard, so no per-query add contends on a shared cache line.
 */

#include "base/compiler.hh"
#include "exec/parallel.hh"
#include "serve/query_engine.hh"

namespace mindful::serve {

std::vector<QueryResult>
QueryEngine::evaluateBatch(const std::vector<DesignQuery> &requests)
{
    std::vector<QueryResult> results(requests.size());
    if (requests.empty())
        return results;

    exec::parallelFor(
        exec::kDefaultShards,
        [&](std::size_t shard) {
            const exec::ShardRange range = exec::shardRange(
                requests.size(), exec::kDefaultShards, shard);
            std::uint64_t hits = 0;
            MINDFUL_RT_LOOP("serve.batch")
            for (std::uint64_t i = range.begin; i < range.end; ++i) {
                const DesignQuery canonical =
                    canonicalize(requests[i]);
                const std::uint64_t key = queryKey(canonical);
                const QueryResult *hit = _cache.probe(key);
                if (hit != nullptr) {
                    ++hits;
                    results[i] = *hit;
                } else {
                    results[i] = evaluate(canonical, key);
                }
            }
            addIfEnabled(_queries, range.end - range.begin);
            addIfEnabled(_hits, hits);
        });
    return results;
}

} // namespace mindful::serve
