/**
 * @file
 * Deterministic data-parallel helpers over the process-wide pool.
 *
 * The central contract (docs/parallelism.md): **results depend only
 * on the shard decomposition, never on the thread count.** Callers
 * pick a fixed shard count (a constant of the algorithm, part of its
 * reproducibility surface, like an RNG seed), each shard computes an
 * independent partial result — with its own Rng::fork(stream) when
 * stochastic — and partial results combine on the calling thread in
 * ascending shard order. Running on 1 thread or 16 therefore produces
 * bit-for-bit identical output; `--threads` is a pure performance
 * knob.
 *
 * Every call takes one path (thread_pool.hh): the caller claims
 * shards in ascending order alongside up to threads - 1 pool helpers.
 * With one shard, one thread, a taken pool or a call from a pool
 * worker the caller simply claims them all, which also makes nested
 * parallelism deadlock-free. Work smaller than a few thousand "inner
 * iterations" per shard is still usually not worth the hand-off.
 */

#ifndef MINDFUL_EXEC_PARALLEL_HH
#define MINDFUL_EXEC_PARALLEL_HH

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "exec/thread_pool.hh"

namespace mindful::exec {

/**
 * Default shard count for the Monte-Carlo substrates. Deliberately a
 * constant (not a function of the thread count): enough shards to
 * keep 8+ threads balanced, few enough that per-shard overhead stays
 * negligible. Changing it changes which RNG stream simulates which
 * sample — i.e. it is part of the determinism contract.
 */
inline constexpr std::size_t kDefaultShards = 16;

/** Half-open item range [begin, end) owned by one shard. */
struct ShardRange
{
    std::uint64_t begin = 0;
    std::uint64_t end = 0;

    std::uint64_t size() const { return end - begin; }
};

/**
 * Deterministic near-even split of @p items across @p shards: the
 * first (items % shards) shards hold one extra item. Depends only on
 * (items, shards, shard).
 */
ShardRange shardRange(std::uint64_t items, std::size_t shards,
                      std::size_t shard);

/**
 * Run body(shard) for every shard in [0, shards), blocking until all
 * complete. Exceptions are captured per shard and the lowest-indexed
 * one is rethrown on the caller after every shard finished (so which
 * exception propagates is also thread-count independent).
 */
void parallelFor(std::size_t shards,
                 const std::function<void(std::size_t)> &body);

/**
 * Map every shard to a partial result, then fold the partials into
 * @p init in ascending shard order on the calling thread:
 *
 *     T acc = init;
 *     for (s = 0..shards) acc = combine(acc, map(s));
 *
 * Only the map step runs on the pool; the combine order is fixed, so
 * even non-associative combines (floating-point sums) reduce
 * identically on any thread count. T must be default-constructible.
 */
template <typename T, typename MapFn, typename CombineFn>
T
parallelReduce(std::size_t shards, T init, MapFn &&map,
               CombineFn &&combine)
{
    std::vector<T> partials(shards);
    parallelFor(shards,
                [&](std::size_t shard) { partials[shard] = map(shard); });
    T acc = std::move(init);
    for (std::size_t shard = 0; shard < shards; ++shard)
        acc = combine(std::move(acc), std::move(partials[shard]));
    return acc;
}

} // namespace mindful::exec

#endif // MINDFUL_EXEC_PARALLEL_HH
