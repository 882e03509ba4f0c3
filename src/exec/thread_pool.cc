#include "exec/thread_pool.hh"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <memory>

#include "base/compiler.hh"
#include "base/logging.hh"
#include "base/parse.hh"
#include "obs/collector.hh"
#include "obs/manifest.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace mindful::exec {

namespace {

thread_local bool t_on_worker = false;

/**
 * Global-pool holder. Constructing it first touches the obs
 * singletons so they complete construction earlier and are therefore
 * destroyed *after* the holder — workers can never outlive the
 * metric registry they report into.
 */
struct GlobalPool
{
    GlobalPool()
    {
#ifndef MINDFUL_OBS_DISABLED
        obs::MetricRegistry::global();
        obs::TraceSession::global();
        obs::TraceCollector::global();
#endif
    }

    Mutex mutex;
    std::unique_ptr<ThreadPool> pool MINDFUL_GUARDED_BY(mutex);
    unsigned requested MINDFUL_GUARDED_BY(mutex) = 0; //!< 0 = automatic
};

GlobalPool &
holder()
{
    static GlobalPool global;
    return global;
}

unsigned
resolveThreadCount(unsigned requested)
{
    if (requested > 0)
        return requested;
    if (const char *env = std::getenv("MINDFUL_THREADS")) {
        // Strict parse (base/parse.hh): "8abc" and "-1" are invalid
        // rather than 8 threads or a wrapped-around huge count.
        std::optional<unsigned> value = parseThreadCount(env);
        if (value && *value >= 1)
            return *value;
        MINDFUL_WARN_ONCE("ignoring invalid MINDFUL_THREADS=", env,
                          " (want an integer in [1, ", kMaxThreadCount,
                          "])");
    }
    unsigned hardware = std::thread::hardware_concurrency();
    return hardware > 0 ? hardware : 1;
}

} // namespace

/**
 * One run() call, on its caller's stack. Shards are claimed in
 * ascending order under the job's own mutex; the caller waits for
 * every attached helper before the job goes out of scope.
 */
struct ThreadPool::Job
{
    Job(std::size_t shard_count,
        const std::function<void(std::size_t)> &shard_body)
        : shards(shard_count), body(shard_body)
    {
    }

    /** Claim and run shards until none is left. */
    void drain();

    const std::size_t shards;
    const std::function<void(std::size_t)> &body;

    Mutex mutex;
    ConditionVariable idle;
    std::size_t next MINDFUL_GUARDED_BY(mutex) = 0; //!< next unclaimed
    std::size_t attached MINDFUL_GUARDED_BY(mutex) = 0; //!< helpers in drain()
    std::size_t failedShard MINDFUL_GUARDED_BY(mutex) = 0;
    std::exception_ptr error MINDFUL_GUARDED_BY(mutex);
};

void
ThreadPool::Job::drain()
{
    for (;;) {
        std::size_t shard = 0;
        {
            LockGuard lock(mutex);
            if (next == shards)
                return;
            shard = next++;
        }
        try {
            body(shard);
        } catch (...) {
            // Keep claiming: every shard runs, and the lowest-indexed
            // failure wins, so which exception surfaces does not
            // depend on scheduling.
            LockGuard lock(mutex);
            if (!error || shard < failedShard) {
                error = std::current_exception();
                failedShard = shard;
            }
        }
    }
}

ThreadPool::ThreadPool(unsigned threads) : _threadCount(threads)
{
    MINDFUL_ASSERT(threads >= 1, "a pool needs at least one thread");
    MINDFUL_METRIC_GAUGE("exec.pool.threads",
                         static_cast<double>(threads));
#ifndef MINDFUL_OBS_DISABLED
    // Pool width is a run-manifest fact (obs/manifest.hh); obs cannot
    // link against exec, so exec publishes it.
    obs::setManifestThreadCount(threads);
#endif
    // The caller of run() is the pool's first thread.
    _workers.reserve(threads - 1);
    for (unsigned i = 1; i < threads; ++i)
        _workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        LockGuard lock(_mutex);
        _stopping = true;
    }
    _wake.notifyAll();
    for (auto &worker : _workers)
        worker.join();
}

void
ThreadPool::run(std::size_t shards,
                const std::function<void(std::size_t)> &body)
{
    Job job(shards, body);
    std::size_t helpers = 0;
    // A worker never posts: a nested call drains its shards alone,
    // which is what keeps nested parallelism deadlock-free.
    if (shards > 1 && !t_on_worker) {
        LockGuard lock(_mutex);
        if (_job == nullptr) {
            helpers = std::min<std::size_t>(_threadCount, shards) - 1;
            if (helpers > 0) {
                _job = &job;
                _seats = helpers;
            }
        }
    }
    if (helpers > 0) {
        MINDFUL_METRIC_COUNT("exec.pool.tasks", helpers);
        for (std::size_t i = 0; i < helpers; ++i)
            _wake.notifyOne();
    }

    job.drain();

    if (helpers > 0) {
        // Withdraw the seats no worker took; from here no worker can
        // attach, so the job outlives every helper that did.
        LockGuard lock(_mutex);
        _job = nullptr;
        _seats = 0;
    }
    LockGuard lock(job.mutex);
    while (job.attached != 0)
        job.idle.wait(job.mutex);
    if (job.error)
        std::rethrow_exception(job.error);
}

bool
ThreadPool::onWorkerThread()
{
    return t_on_worker;
}

void
ThreadPool::workerLoop()
{
    t_on_worker = true;
#ifndef MINDFUL_OBS_DISABLED
    // One-time, up-front allocation of this worker's trace ring, so
    // hot-path spans inside shard bodies never allocate.
    obs::TraceCollector::global().registerCurrentThread();
#endif
    for (;;) {
        Job *job = nullptr;
        {
            LockGuard lock(_mutex);
            while (!_stopping && _seats == 0)
                _wake.wait(_mutex);
            if (_stopping)
                return;
            --_seats;
            job = _job;
            LockGuard attach(job->mutex);
            ++job->attached;
        }
        job->drain();
        LockGuard lock(job->mutex);
        if (--job->attached == 0)
            job->idle.notifyAll();
    }
}

ThreadPool &
ThreadPool::global()
{
    GlobalPool &global = holder();
    LockGuard lock(global.mutex);
    if (!global.pool) {
        global.pool = std::make_unique<ThreadPool>(
            resolveThreadCount(global.requested));
    }
    return *global.pool;
}

void
ThreadPool::setGlobalThreadCount(unsigned threads)
{
    GlobalPool &global = holder();
    LockGuard lock(global.mutex);
    global.requested = threads;
    unsigned resolved = resolveThreadCount(threads);
    // Restart lazily on the next global() call. Callers must not
    // reconfigure while a parallelFor is in flight.
    if (global.pool && global.pool->threadCount() != resolved)
        global.pool.reset();
}

unsigned
ThreadPool::globalThreadCount()
{
    GlobalPool &global = holder();
    LockGuard lock(global.mutex);
    if (global.pool)
        return global.pool->threadCount();
    return resolveThreadCount(global.requested);
}

} // namespace mindful::exec
