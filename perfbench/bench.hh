/**
 * @file
 * Shared pieces of the perfbench driver: the in-memory span recorder
 * and the workload interface.
 *
 * Spans are recorded by the driver around its calls into the public
 * functions of ni/comm/dnn/accel/thermal/exec, never inside the
 * library. Each span keeps its name, start, end, parent span and op
 * id; per-name self time (duration minus the part covered by child
 * spans) is accumulated as spans close, so the per-layer numbers do
 * not depend on how many records fit in the bounded buffer that is
 * written out at exit.
 */

#ifndef MINDFUL_PERFBENCH_BENCH_HH
#define MINDFUL_PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t
nowNanos()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Aggregate over every closed span of one name. */
struct SpanTotals
{
    std::uint64_t count = 0;
    std::int64_t selfNs = 0;
};

/** Single-threaded span recorder; spans are opened by the driving
 *  thread only, so no synchronisation is needed. */
class SpanRecorder
{
  public:
    static SpanRecorder &global();

    void setEnabled(bool enabled) { _enabled = enabled; }
    bool enabled() const { return _enabled; }

    /** Op id stamped onto spans opened from now on. */
    void setOp(std::uint32_t op) { _op = op; }

    /** Intern @p name (a string literal) and return its site id. */
    std::uint32_t site(const char *name);

    void begin(std::uint32_t site);
    void end();

    /** Forget aggregates (records already kept stay). */
    void resetTotals() { _totals.assign(_totals.size(), SpanTotals{}); }

    const SpanTotals &totals(std::uint32_t site) const;

    /** Per-name self-time table of the current totals, to @p out. */
    void printSelfTimes(std::FILE *out, const std::string &title) const;

    /** Write kept records as Chrome trace_event JSON; @p manifest is
     *  the pre-rendered JSON object stamped into "otherData". */
    bool writeChromeTrace(const std::string &path,
                          const std::string &manifest) const;

  private:
    /** One closed span as kept for the trace file. */
    struct SpanRecord
    {
        std::uint32_t site = 0;
        std::uint32_t op = 0;
        std::uint64_t id = 0;     //!< 1-based, in open order
        std::uint64_t parent = 0; //!< 0 = root
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
    };

    struct Open
    {
        std::uint32_t site;
        std::uint64_t id;
        std::int64_t startNs;
        std::int64_t childNs;
    };

    static constexpr std::size_t kMaxRecords = 1u << 16;

    bool _enabled = false;
    std::uint32_t _op = 0;
    std::uint64_t _nextId = 1;
    std::uint64_t _dropped = 0;
    std::vector<const char *> _names;
    std::vector<SpanTotals> _totals;
    std::vector<Open> _stack;
    std::vector<SpanRecord> _records;
};

/** RAII span on the global recorder; one branch when disabled. */
class Span
{
  public:
    explicit Span(std::uint32_t site)
        : _live(SpanRecorder::global().enabled())
    {
        if (_live)
            SpanRecorder::global().begin(site);
    }
    ~Span()
    {
        if (_live)
            SpanRecorder::global().end();
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    bool _live;
};

/** 64-bit FNV-1a style fold, word-wise, for run digests. */
class Digest
{
  public:
    void
    add(std::uint64_t word)
    {
        _h ^= word;
        _h *= 0x100000001b3ull;
    }

    void
    add(const void *data, std::size_t bytes)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        std::size_t i = 0;
        for (; i + 8 <= bytes; i += 8) {
            std::uint64_t w;
            std::memcpy(&w, p + i, 8);
            add(w);
        }
        std::uint64_t tail = 0;
        std::memcpy(&tail, p + i, bytes - i);
        add(tail ^ (static_cast<std::uint64_t>(bytes) << 56));
    }

    std::uint64_t value() const { return _h; }

  private:
    std::uint64_t _h = 0xcbf29ce484222325ull;
};

/** One reported metric. */
struct Metric
{
    double value = 0.0;
    const char *unit = "";
};

using MetricMap = std::map<std::string, Metric>;

/**
 * One benchmark workload. The driver times setup() plus one warm-up
 * op(0) as set-up, calls prepareGoldens() between them untimed, then
 * issues op(1), op(2), ... back to back. op(i) performs the same work
 * for the same i on every run, checks its own output and folds it
 * into @p digest.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Generate inputs from @p seed and construct the objects. */
    virtual void setup(std::uint64_t seed) = 0;

    /** Reference outputs the op checks compare against (untimed). */
    virtual void prepareGoldens() {}

    /** Run op @p index; false when its output check fails. */
    virtual bool op(std::uint64_t index, Digest &digest) = 0;

    /** Ops after which the op sequence repeats its inputs; the run
     *  digest covers ops [0, cycle()). */
    virtual std::uint64_t cycle() const = 0;

    /** Per-layer metrics from the recorder's span totals (traced
     *  set-up plus traced ops) and the workload's own counts. */
    virtual void layerMetrics(MetricMap &out) = 0;

    /** Extra human-readable report lines (stderr), if any. */
    virtual void report() {}
};

/** Workload names in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** nullptr for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const std::string &name);

} // namespace perfbench

#endif // MINDFUL_PERFBENCH_BENCH_HH
