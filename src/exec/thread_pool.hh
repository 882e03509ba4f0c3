/**
 * @file
 * Process-wide worker pool behind exec::parallelFor.
 *
 * The pool follows the engineering discipline of the rest of the
 * repository: determinism first. It never decides *what* work runs or
 * in *which* order results combine — that is parallel.hh's job, via a
 * fixed shard count decoupled from the thread count — it only supplies
 * threads to run already-decomposed shards on. Consequences:
 *
 *  - the pool is started lazily, on first use, so binaries that never
 *    go parallel pay nothing;
 *  - the thread count is configuration (--threads, MINDFUL_THREADS,
 *    hardware_concurrency fallback), never part of any result;
 *  - it runs one job at a time. run() posts {body, shards} into a
 *    single slot and hands it to min(threads, shards) - 1 idle
 *    workers; the caller and those helpers then claim shard indices
 *    in ascending order until none is left. A one-shard job, a
 *    one-thread pool, a call from a pool worker (nested parallelism)
 *    and a call that finds the slot taken all run that same claim
 *    loop with no helpers, so every call takes one path.
 *
 * Pool health is published through mindful_obs as the exec.pool.*
 * metrics (docs/observability.md).
 */

#ifndef MINDFUL_EXEC_THREAD_POOL_HH
#define MINDFUL_EXEC_THREAD_POOL_HH

#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

#include "base/compiler.hh"

namespace mindful::exec {

/** Fixed-size pool: the calling thread plus threads - 1 workers. */
class ThreadPool
{
  public:
    /** Start @p threads - 1 workers (@p threads must be >= 1). */
    explicit ThreadPool(unsigned threads);

    /** Joins every worker; no run() may be in flight. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Run body(shard) for every shard in [0, shards) on the caller
     * and at most threadCount() - 1 helpers, blocking until every
     * shard finished; see exec::parallelFor for the exception rule.
     */
    void run(std::size_t shards,
             const std::function<void(std::size_t)> &body);

    unsigned threadCount() const { return _threadCount; }

    /** True when called from one of this process's pool workers. */
    static bool onWorkerThread();

    /**
     * The process-wide pool, created on first use with the configured
     * thread count (setGlobalThreadCount, else MINDFUL_THREADS, else
     * hardware_concurrency).
     */
    static ThreadPool &global();

    /**
     * Configure the global pool's thread count; 0 restores the
     * automatic default. If the pool is already running with a
     * different count it is shut down and lazily restarted — safe
     * because shard decomposition never depends on the count.
     */
    static void setGlobalThreadCount(unsigned threads);

    /** Thread count the global pool has (or would start with). */
    static unsigned globalThreadCount();

  private:
    struct Job;

    void workerLoop();

    const unsigned _threadCount;

    Mutex _mutex;
    ConditionVariable _wake;
    /** The posted job; set and cleared only by its run() caller. */
    Job *_job MINDFUL_GUARDED_BY(_mutex) = nullptr;
    /** Helpers _job still wants; a worker attaches by taking one. */
    std::size_t _seats MINDFUL_GUARDED_BY(_mutex) = 0;
    bool _stopping MINDFUL_GUARDED_BY(_mutex) = false;

    std::vector<std::thread> _workers;
};

} // namespace mindful::exec

#endif // MINDFUL_EXEC_THREAD_POOL_HH
