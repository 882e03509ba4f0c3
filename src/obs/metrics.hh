/**
 * @file
 * Process-wide metric registry: named counters, gauges, and
 * distribution (histogram) metrics.
 *
 * The registry is the single reporting path for everything the
 * executable substrates measure — Monte-Carlo sample counts, simulated
 * cycles and energy, closed-loop latency decompositions. Hot paths
 * hold a `Counter &` / `HistogramMetric &` obtained once (name lookup
 * is a locked map access, recording is an atomic add or a short
 * critical section) and typically accumulate in a local variable
 * inside the loop, publishing once per call. Sharded kernels record
 * nothing inside a shard body: the caller adds the call's total once,
 * after the join.
 *
 * Metric names are dot-separated paths, lowercase with underscores,
 * `<subsystem>.<component>.<quantity>[_<unit>]` — e.g.
 * `comm.qam.bit_errors`, `accel.sim.cycles`,
 * `core.closed_loop.loop_latency_us`. See docs/observability.md.
 *
 * Define `MINDFUL_OBS_DISABLED` to compile the convenience macros at
 * the bottom of this header to no-ops; the classes themselves remain
 * available (they are cheap and deterministic).
 */

#ifndef MINDFUL_OBS_METRICS_HH
#define MINDFUL_OBS_METRICS_HH

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/compiler.hh"
#include "base/stats.hh"
#include "base/table.hh"

namespace mindful::obs {

/** Monotonically increasing event count. Lock-free to record. */
class Counter
{
  public:
    void
    add(std::uint64_t n = 1)
    {
        _value.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t
    value() const
    {
        return _value.load(std::memory_order_relaxed);
    }

  private:
    friend class MetricRegistry;

    void clear() { _value.store(0, std::memory_order_relaxed); }

    MINDFUL_ATOMIC_ROLE(stat_counter)
    std::atomic<std::uint64_t> _value{0};
};

/** Last-written instantaneous value (utilization, overhead, ...). */
class Gauge
{
  public:
    void
    set(double v)
    {
        _value.store(v, std::memory_order_relaxed);
        // Release pairs with isSet()'s acquire: a reader that observes
        // the flag also observes the value stored above.
        _set.store(true, std::memory_order_release);
    }

    double
    value() const
    {
        return _value.load(std::memory_order_relaxed);
    }

    /** Whether set() has been called since creation or clear(). */
    bool
    isSet() const
    {
        return _set.load(std::memory_order_acquire);
    }

  private:
    friend class MetricRegistry;

    void
    clear()
    {
        _value.store(0.0, std::memory_order_relaxed);
        _set.store(false, std::memory_order_relaxed);
    }

    MINDFUL_ATOMIC_ROLE(stat_counter)
    std::atomic<double> _value{0.0};
    MINDFUL_ATOMIC_ROLE(once_flag)
    std::atomic<bool> _set{false};
};

/** Bucket layout for a HistogramMetric. */
struct HistogramOptions
{
    /** Lower edge of the first log-spaced bucket (must be > 0). */
    double lo = 1e-3;

    /** Upper edge of the last bucket. */
    double hi = 1e9;

    /** Bucket count across [lo, hi). */
    std::size_t bins = 120;
};

/**
 * Distribution metric: a log-spaced histogram (for percentiles) plus
 * a RunningStats (for exact mean/min/max/count). Recording takes a
 * short mutex; hot loops should record per-call aggregates, not
 * per-sample values.
 */
class HistogramMetric
{
  public:
    explicit HistogramMetric(HistogramOptions options = {});

    void record(double value);

    std::size_t count() const;
    double mean() const;
    double min() const;
    double max() const;
    double sum() const;

    /** Percentile estimate, p in [0, 100]; see LogHistogram. */
    double percentile(double p) const;

  private:
    friend class MetricRegistry;

    /** Drop every sample, keeping the bucket layout. */
    void clear();

    mutable Mutex _mutex;
    LogHistogram _histogram MINDFUL_GUARDED_BY(_mutex);
    RunningStats _stats MINDFUL_GUARDED_BY(_mutex);
};

/** One row of MetricRegistry::snapshotTable(), for programmatic use. */
struct MetricSample
{
    std::string name;
    std::string type; //!< "counter", "gauge", or "histogram"
    double value = 0.0; //!< counter/gauge value; histogram mean
    std::size_t count = 0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
};

/**
 * Named collection of metrics. Lookup creates on first use; returned
 * references stay valid for the registry's lifetime. A metric name
 * may only ever be used with one metric kind.
 */
class MetricRegistry
{
  public:
    MetricRegistry() = default;
    MetricRegistry(const MetricRegistry &) = delete;
    MetricRegistry &operator=(const MetricRegistry &) = delete;

    /** The process-wide registry the instrumented substrates use. */
    static MetricRegistry &global();

    /**
     * Runtime recording gate, on by default. The MINDFUL_METRIC_*
     * macros record nothing while disabled, and instrumented code
     * must also skip any *preparation* of a recording — metric-name
     * formatting, per-call aggregation buffers — behind enabled(),
     * so a disabled registry costs one relaxed atomic load per site.
     */
    void
    setEnabled(bool enabled)
    {
        _enabled.store(enabled, std::memory_order_relaxed);
    }

    bool
    enabled() const
    {
        return _enabled.load(std::memory_order_relaxed);
    }

    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    HistogramMetric &histogram(const std::string &name,
                               HistogramOptions options = {});

    /** Whether a metric of any kind exists under @p name. */
    bool contains(const std::string &name) const;

    /** Number of registered metrics (all kinds). */
    std::size_t size() const;

    /**
     * Zero every metric in place (intended for tests and A/B
     * harnesses): counters to 0, gauges to unset, histograms to
     * empty. Entries are kept, so held references stay valid and the
     * names stay registered.
     */
    void clear();

    /** Name-sorted snapshot of every metric. */
    std::vector<MetricSample> snapshot() const;

    /**
     * Snapshot as a Table (name, type, count, value, min, p50, p95,
     * p99, max) — print() for humans, printCsv() for machines.
     */
    Table snapshotTable() const;

    /** Snapshot as a JSON object keyed by metric name. */
    void writeJson(std::ostream &os) const;

  private:
    struct Entry
    {
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<HistogramMetric> histogram;
    };

    MINDFUL_ATOMIC_ROLE(once_flag)
    std::atomic<bool> _enabled{true};
    mutable Mutex _mutex;
    std::map<std::string, Entry> _entries MINDFUL_GUARDED_BY(_mutex);
};

} // namespace mindful::obs

/**
 * Convenience macros for one-shot recording sites. These compile away
 * under MINDFUL_OBS_DISABLED; code holding metric references directly
 * should instead guard with `#ifndef MINDFUL_OBS_DISABLED` or accept
 * the (cheap) unconditional cost.
 */
#ifndef MINDFUL_OBS_DISABLED

#define MINDFUL_METRIC_COUNT(name, n) \
    do { \
        auto &_mindful_registry = \
            ::mindful::obs::MetricRegistry::global(); \
        if (_mindful_registry.enabled()) \
            _mindful_registry.counter(name).add(n); \
    } while (0)
#define MINDFUL_METRIC_GAUGE(name, v) \
    do { \
        auto &_mindful_registry = \
            ::mindful::obs::MetricRegistry::global(); \
        if (_mindful_registry.enabled()) \
            _mindful_registry.gauge(name).set(v); \
    } while (0)
#define MINDFUL_METRIC_RECORD(name, v) \
    do { \
        auto &_mindful_registry = \
            ::mindful::obs::MetricRegistry::global(); \
        if (_mindful_registry.enabled()) \
            _mindful_registry.histogram(name).record(v); \
    } while (0)

#else

#define MINDFUL_METRIC_COUNT(name, n) \
    do { \
    } while (0)
#define MINDFUL_METRIC_GAUGE(name, v) \
    do { \
    } while (0)
#define MINDFUL_METRIC_RECORD(name, v) \
    do { \
    } while (0)

#endif // MINDFUL_OBS_DISABLED

#endif // MINDFUL_OBS_METRICS_HH
