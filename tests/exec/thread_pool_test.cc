/**
 * @file
 * ThreadPool unit tests: how many helpers a parallelFor hands its
 * job to, concurrent callers sharing the one job slot, exception
 * propagation through parallelFor, and deadlock-free nested
 * parallelism on pool workers.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/parallel.hh"
#include "exec/thread_pool.hh"
#include "obs/metrics.hh"

namespace mindful::exec {
namespace {

std::uint64_t
poolTasks()
{
    return obs::MetricRegistry::global().counter("exec.pool.tasks").value();
}

/** exec.pool.tasks added by one call of @p fn. */
template <typename Fn>
std::uint64_t
helpersHandedOut(Fn &&fn)
{
    const std::uint64_t before = poolTasks();
    fn();
    return poolTasks() - before;
}

TEST(ThreadPoolTest, HandsAJobToMinThreadsShardsMinusOneHelpers)
{
    auto empty = [](std::size_t) {};
    ThreadPool::setGlobalThreadCount(4);
    EXPECT_EQ(helpersHandedOut([&] { parallelFor(16, empty); }), 3u);
    EXPECT_EQ(helpersHandedOut([&] { parallelFor(2, empty); }), 1u);
    EXPECT_EQ(helpersHandedOut([&] { parallelFor(1, empty); }), 0u);
    // Nested calls, from workers and from the caller (whose own job
    // holds the slot), run alone: only the outer call hands out work.
    EXPECT_EQ(helpersHandedOut([&] {
                  parallelFor(4, [&](std::size_t) { parallelFor(16, empty); });
              }),
              3u);
    ThreadPool::setGlobalThreadCount(1);
    EXPECT_EQ(helpersHandedOut([&] { parallelFor(16, empty); }), 0u);
    ThreadPool::setGlobalThreadCount(0);
}

TEST(ThreadPoolTest, ConcurrentCallersEachRunEveryShardOnce)
{
    // Two callers race for the one job slot; the one that finds it
    // taken drains its own job, so neither loses nor repeats a shard.
    ThreadPool::setGlobalThreadCount(4);
    constexpr std::size_t kShards = 64;
    for (int round = 0; round < 10; ++round) {
        std::vector<std::atomic<int>> runs_a(kShards), runs_b(kShards);
        auto call = [](std::vector<std::atomic<int>> &runs) {
            parallelFor(kShards, [&](std::size_t shard) {
                std::this_thread::sleep_for(std::chrono::microseconds(50));
                runs[shard].fetch_add(1);
            });
        };
        std::thread a(call, std::ref(runs_a));
        std::thread b(call, std::ref(runs_b));
        a.join();
        b.join();
        for (std::size_t shard = 0; shard < kShards; ++shard) {
            EXPECT_EQ(runs_a[shard].load(), 1) << "shard " << shard;
            EXPECT_EQ(runs_b[shard].load(), 1) << "shard " << shard;
        }
    }
    ThreadPool::setGlobalThreadCount(0);
}

TEST(ThreadPoolTest, OnWorkerThreadDistinguishesCallers)
{
    EXPECT_FALSE(ThreadPool::onWorkerThread());
    ThreadPool::setGlobalThreadCount(4);
    constexpr std::size_t kShards = 16;
    std::vector<std::thread::id> ran_on(kShards);
    std::vector<char> on_worker(kShards, 0);
    parallelFor(kShards, [&](std::size_t shard) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ran_on[shard] = std::this_thread::get_id();
        on_worker[shard] = ThreadPool::onWorkerThread();
    });
    ThreadPool::setGlobalThreadCount(0);

    const std::thread::id caller = std::this_thread::get_id();
    std::size_t worker_shards = 0;
    for (std::size_t shard = 0; shard < kShards; ++shard) {
        EXPECT_EQ(on_worker[shard] != 0, ran_on[shard] != caller)
            << "shard " << shard;
        worker_shards += on_worker[shard];
    }
    EXPECT_GE(worker_shards, 1u);
    EXPECT_FALSE(ThreadPool::onWorkerThread());
}

TEST(ThreadPoolTest, GlobalThreadCountIsReconfigurable)
{
    unsigned before = ThreadPool::globalThreadCount();
    ThreadPool::setGlobalThreadCount(3);
    EXPECT_EQ(ThreadPool::globalThreadCount(), 3u);
    EXPECT_EQ(ThreadPool::global().threadCount(), 3u);
    ThreadPool::setGlobalThreadCount(0); // back to automatic
    EXPECT_GE(ThreadPool::globalThreadCount(), 1u);
    (void)before;
}

TEST(ParallelForTest, PropagatesExceptions)
{
    ThreadPool::setGlobalThreadCount(4);
    EXPECT_THROW(
        parallelFor(8,
                    [](std::size_t shard) {
                        if (shard >= 4)
                            throw std::runtime_error("shard failed");
                    }),
        std::runtime_error);
    ThreadPool::setGlobalThreadCount(0);
}

TEST(ParallelForTest, EveryShardRunsWhenOneThrows)
{
    for (unsigned threads : {1u, 4u}) {
        ThreadPool::setGlobalThreadCount(threads);
        std::atomic<int> ran{0};
        EXPECT_THROW(parallelFor(8,
                                 [&](std::size_t shard) {
                                     ran.fetch_add(1);
                                     if (shard == 2)
                                         throw std::runtime_error("2");
                                 }),
                     std::runtime_error);
        EXPECT_EQ(ran.load(), 8) << threads << " threads";
    }
    ThreadPool::setGlobalThreadCount(0);
}

TEST(ParallelForTest, PropagatesLowestShardExceptionDeterministically)
{
    for (unsigned threads : {1u, 4u}) {
        ThreadPool::setGlobalThreadCount(threads);
        try {
            parallelFor(8, [](std::size_t shard) {
                if (shard == 2 || shard == 5)
                    throw std::runtime_error("shard " +
                                             std::to_string(shard));
            });
            FAIL() << "expected an exception";
        } catch (const std::runtime_error &e) {
            // Both failing shards run (every shard does); the lowest
            // failed index wins regardless of scheduling.
            EXPECT_STREQ(e.what(), "shard 2");
        }
    }
    ThreadPool::setGlobalThreadCount(0);
}

TEST(ParallelForTest, NestedCallsRunInlineWithoutDeadlock)
{
    ThreadPool::setGlobalThreadCount(2);
    std::atomic<int> inner_runs{0};
    parallelFor(4, [&](std::size_t) {
        // A nested parallelFor must not wait on the (possibly fully
        // occupied) pool; it drains its own shards.
        parallelFor(4, [&](std::size_t) { inner_runs.fetch_add(1); });
    });
    EXPECT_EQ(inner_runs.load(), 16);
    ThreadPool::setGlobalThreadCount(0);
}

} // namespace
} // namespace mindful::exec
