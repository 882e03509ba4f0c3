/**
 * @file
 * perfbench driver: closed-loop timing of the repository's real paths
 * through their public APIs.
 *
 *   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
 *                    [--out-dir DIR]
 *
 * One driving thread issues ops back to back on a pool fixed at
 * kPoolThreads workers. --trace 0 reports the end-to-end metrics
 * (set-up, peak RSS, throughput, op latency percentiles); --trace 1
 * reports the per-layer metrics from driver-side spans. Every run
 * also re-runs the workload's first op cycle at pool size 1 and
 * requires the same output digest. The last stdout line is the JSON
 * result; the exit code is non-zero when any output check failed.
 * See perfbench/README.md.
 */

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "base/parse.hh"
#include "bench.hh"
#include "exec/parallel.hh"
#include "exec/thread_pool.hh"
#include "obs/json.hh"
#include "obs/manifest.hh"

namespace perfbench {

// ---------------------------------------------------------------- spans

SpanRecorder &
SpanRecorder::global()
{
    static SpanRecorder recorder;
    return recorder;
}

std::uint32_t
SpanRecorder::site(const char *name)
{
    for (std::size_t i = 0; i < _names.size(); ++i)
        if (std::strcmp(_names[i], name) == 0)
            return static_cast<std::uint32_t>(i);
    _names.push_back(name);
    _totals.emplace_back();
    return static_cast<std::uint32_t>(_names.size() - 1);
}

void
SpanRecorder::begin(std::uint32_t site)
{
    if (_records.capacity() == 0)
        _records.reserve(kMaxRecords);
    _stack.push_back({site, _nextId++, nowNanos(), 0});
}

void
SpanRecorder::end()
{
    const std::int64_t end = nowNanos();
    const Open open = _stack.back();
    _stack.pop_back();
    const std::int64_t duration = end - open.startNs;
    SpanTotals &totals = _totals[open.site];
    ++totals.count;
    totals.selfNs += duration - open.childNs;
    const std::uint64_t parent = _stack.empty() ? 0 : _stack.back().id;
    if (!_stack.empty())
        _stack.back().childNs += duration;
    if (_records.size() < kMaxRecords)
        _records.push_back(
            {open.site, _op, open.id, parent, open.startNs, end});
    else
        ++_dropped;
}

const SpanTotals &
SpanRecorder::totals(std::uint32_t site) const
{
    return _totals.at(site);
}

void
SpanRecorder::printSelfTimes(std::FILE *out, const std::string &title) const
{
    std::int64_t all = 0;
    for (const SpanTotals &t : _totals)
        all += t.selfNs;
    std::fprintf(out, "%s: span self time\n%-28s %10s %12s %12s %7s\n",
                 title.c_str(), "span", "count", "self_ms", "self_us/call",
                 "share");
    for (std::size_t i = 0; i < _names.size(); ++i) {
        const SpanTotals &t = _totals[i];
        if (t.count == 0)
            continue;
        std::fprintf(out, "%-28s %10llu %12.3f %12.3f %6.1f%%\n", _names[i],
                     static_cast<unsigned long long>(t.count),
                     static_cast<double>(t.selfNs) * 1e-6,
                     static_cast<double>(t.selfNs) * 1e-3 /
                         static_cast<double>(t.count),
                     all ? 100.0 * static_cast<double>(t.selfNs) /
                               static_cast<double>(all)
                         : 0.0);
    }
}

bool
SpanRecorder::writeChromeTrace(const std::string &path,
                               const std::string &manifest) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    const std::int64_t epoch =
        _records.empty() ? 0 : _records.front().startNs;
    os << "{\"traceEvents\":[";
    char buf[256];
    for (std::size_t i = 0; i < _records.size(); ++i) {
        const SpanRecord &r = _records[i];
        std::snprintf(
            buf, sizeof buf,
            "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
            "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
            "\"parent\":%llu,\"op\":%u}}",
            i ? ",\n" : "\n", _names[r.site],
            static_cast<double>(r.startNs - epoch) * 1e-3,
            static_cast<double>(r.endNs - r.startNs) * 1e-3,
            static_cast<unsigned long long>(r.id),
            static_cast<unsigned long long>(r.parent), r.op);
        os << buf;
    }
    os << "\n],\"otherData\":" << manifest
       << ",\"droppedSpans\":" << _dropped << "}\n";
    return static_cast<bool>(os);
}

namespace {

using namespace mindful;

/** Pool width for every timed phase; recorded, never inherited. */
constexpr unsigned kPoolThreads = 4;

/** Set-up repetitions per end-to-end run; setup_s is their median.
 *  Fixed, because every pool start leaves its workers' trace rings
 *  allocated, so the count shows in peak_rss_mb. */
constexpr int kSetupReps = 5;

/** Minimum wall time of each other workload's traced probe. */
constexpr double kProbeSeconds = 1.0;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string outDir = ".";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench_driver: " << why
              << "\nusage: perfbench_driver --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--out-dir DIR]\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        bool ok = true;
        if (flag == "--workload") {
            opt.workload = value;
        } else if (flag == "--seed") {
            const auto seed = parseUnsigned(value);
            ok = seed.has_value();
            opt.seed = seed.value_or(0);
        } else if (flag == "--seconds") {
            const auto secs = parseDouble(value);
            ok = secs && *secs > 0.0 && *secs <= 3600.0;
            opt.seconds = secs.value_or(0.0);
        } else if (flag == "--trace") {
            ok = value == "0" || value == "1";
            opt.trace = value == "1";
        } else if (flag == "--out-dir") {
            opt.outDir = value;
        } else {
            usage("unknown flag " + flag);
        }
        if (!ok)
            usage("bad value for " + flag + ": " + value);
    }
    if (!makeWorkload(opt.workload))
        usage("unknown workload '" + opt.workload + "'");
    return opt;
}

double
seconds(std::int64_t ns)
{
    return static_cast<double>(ns) * 1e-9;
}

/** Linear-interpolated quantile of an ascending-sorted sample. */
double
quantile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    return sorted[lo] + (sorted[hi] - sorted[lo]) *
                            (pos - static_cast<double>(lo));
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    return quantile(values, 0.5);
}

/** VmHWM of this process [MiB]. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
}

/** Shut the global pool down, so the next startPool() pays a start. */
void
stopPool()
{
    exec::ThreadPool::setGlobalThreadCount(1);
}

void
startPool(unsigned threads = kPoolThreads)
{
    exec::ThreadPool::setGlobalThreadCount(threads);
    exec::ThreadPool::global();
}

/** A workload after set-up, with its run state. */
struct Prepared
{
    std::unique_ptr<Workload> workload;
    std::int64_t setupNs = 0;
    Digest digest;          //!< over ops [0, cycle)
    std::uint64_t next = 1; //!< index of the next op (0 = warm-up)
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

std::uint64_t g_opSerial = 0; //!< process-wide op id for spans

/** Issue the next op under a root "op" span; its self time is the
 *  driver's own per-op work (checks, digest) between library calls. */
bool
runOp(Prepared &p)
{
    static const std::uint32_t op_site = SpanRecorder::global().site("op");
    const std::uint64_t index = p.next++;
    Digest discard;
    Digest &digest = index < p.workload->cycle() ? p.digest : discard;
    SpanRecorder::global().setOp(static_cast<std::uint32_t>(g_opSerial++));
    Span span(op_site);
    return p.workload->op(index, digest);
}

/**
 * Set-up = pool start + input generation + object construction + one
 * warm-up op; goldens are computed in between, untimed. With
 * @p trace_setup the setup() call (not the warm-up) is traced.
 */
Prepared
prepare(const std::string &name, std::uint64_t seed, bool trace_setup,
        unsigned threads = kPoolThreads)
{
    stopPool();
    Prepared p;
    auto &rec = SpanRecorder::global();
    const std::int64_t t0 = nowNanos();
    startPool(threads);
    p.workload = makeWorkload(name);
    rec.setEnabled(trace_setup);
    p.workload->setup(seed);
    rec.setEnabled(false);
    const std::int64_t t1 = nowNanos();
    p.workload->prepareGoldens();
    const std::int64_t t2 = nowNanos();
    p.next = 0;
    const bool ok = runOp(p);
    const std::int64_t t3 = nowNanos();
    p.setupNs = (t1 - t0) + (t3 - t2);
    p.attempted = 1;
    p.failed = ok ? 0 : 1;
    return p;
}

struct LoopResult
{
    std::uint64_t ops = 0;
    std::uint64_t failed = 0;
    std::int64_t elapsedNs = 0;
    std::vector<double> latencyUs;
};

/**
 * Moves the driving thread round-robin over the CPUs it may run on,
 * at most every kRotateNs, and restores its affinity when destroyed.
 * On a shared VM host each vCPU runs in a fast or a slow mode for tens
 * of seconds at a time (about 1.3x apart on stream_raw), so a thread
 * the scheduler leaves on one vCPU makes a whole run fast or slow;
 * rotating makes every run sample all vCPUs. Ops never straddle a
 * move, and at 50 ms the cache refill after a move is a small share of
 * even the shortest op's interval.
 */
class CpuRotation
{
  public:
    static constexpr std::int64_t kRotateNs = 50'000'000;

    CpuRotation()
    {
        CPU_ZERO(&_allowed);
        if (sched_getaffinity(0, sizeof _allowed, &_allowed) != 0)
            return;
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
            if (CPU_ISSET(cpu, &_allowed))
                _cpus.push_back(cpu);
    }

    ~CpuRotation()
    {
        if (_cpus.size() > 1)
            sched_setaffinity(0, sizeof _allowed, &_allowed);
    }

    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    void
    maybeRotate(std::int64_t now)
    {
        if (_cpus.size() < 2 || now - _lastNs < kRotateNs)
            return;
        _lastNs = now;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(_cpus[_next++ % _cpus.size()], &one);
        sched_setaffinity(0, sizeof one, &one);
    }

  private:
    cpu_set_t _allowed;
    std::vector<int> _cpus;
    std::size_t _next = 0;
    std::int64_t _lastNs = 0;
};

/** Closed loop: issue ops back to back for @p secs, and at least until
 *  the first op cycle is complete. */
LoopResult
runLoop(Prepared &p, double secs)
{
    CpuRotation rotation;
    LoopResult r;
    const std::int64_t budget = static_cast<std::int64_t>(secs * 1e9);
    const std::int64_t start = nowNanos();
    std::int64_t now = start;
    while (now - start < budget || p.next < p.workload->cycle()) {
        rotation.maybeRotate(now);
        now = nowNanos();
        const bool ok = runOp(p);
        const std::int64_t after = nowNanos();
        r.latencyUs.push_back(static_cast<double>(after - now) * 1e-3);
        now = after;
        ++r.ops;
        r.failed += ok ? 0 : 1;
    }
    r.elapsedNs = now - start;
    p.attempted += r.ops;
    p.failed += r.failed;
    return r;
}

/**
 * Thread-invariance self-check: a fresh instance at pool size 1 must
 * produce the same digest over ops [0, cycle) with every check passing.
 */
bool
sameDigestAtOneThread(const std::string &name, std::uint64_t seed,
                      std::uint64_t expected)
{
    Prepared p = prepare(name, seed, false, 1);
    bool ok = p.failed == 0;
    while (p.next < p.workload->cycle())
        ok = runOp(p) && ok;
    stopPool();
    return ok && p.digest.value() == expected;
}

std::string
manifestJson(std::uint64_t seed)
{
    std::ostringstream os;
    os << "{\"run\":";
    obs::RunManifest::current().writeJsonObject(os);
    os << ",\"seed\":" << seed << ",\"pool_threads\":" << kPoolThreads
       << "}";
    return os.str();
}

/** `{"name": {"value": v, "unit": "u"}, ...}` with every digit. */
void
writeMetrics(std::ostream &os, const MetricMap &metrics)
{
    os.precision(17);
    os << '{';
    bool first = true;
    for (const auto &[name, m] : metrics) {
        os << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
           << m.value << ", \"unit\": \"" << m.unit << "\"}";
        first = false;
    }
    os << '}';
}

/** Median wall time of an empty-body parallelFor over kDefaultShards. */
double
emptyParallelForUs()
{
    constexpr int kCalls = 2000;
    std::vector<double> us;
    us.reserve(kCalls);
    for (int i = 0; i < kCalls; ++i) {
        const std::int64_t t0 = nowNanos();
        exec::parallelFor(exec::kDefaultShards, [](std::size_t) {});
        us.push_back(static_cast<double>(nowNanos() - t0) * 1e-3);
    }
    return median(std::move(us));
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const Options opt = parseArgs(argc, argv);
    obs::setManifestConfigHash(obs::hashCommandLine(argc, argv));
    std::filesystem::create_directories(opt.outDir);
    auto &rec = SpanRecorder::global();

    MetricMap metrics;
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t digest = 0;

    if (!opt.trace) {
        std::vector<double> setup_s;
        Prepared p;
        for (int rep = 0; rep < kSetupReps; ++rep) {
            p = Prepared{}; // free the previous instance first
            p = prepare(opt.workload, opt.seed, false);
            setup_s.push_back(seconds(p.setupNs));
            correct = correct && p.failed == 0;
        }
        LoopResult loop = runLoop(p, opt.seconds);
        const double rss = peakRssMb();
        attempted = p.attempted;
        failed = p.failed;
        digest = p.digest.value();

        std::sort(loop.latencyUs.begin(), loop.latencyUs.end());
        metrics["setup_s"] = {median(setup_s), "s"};
        metrics["peak_rss_mb"] = {rss, "MiB"};
        metrics["ops_per_s"] = {static_cast<double>(loop.ops) /
                                    seconds(loop.elapsedNs),
                                "1/s"};
        metrics["op_p50_us"] = {quantile(loop.latencyUs, 0.5), "us"};
        metrics["op_p90_us"] = {quantile(loop.latencyUs, 0.9), "us"};
        std::fprintf(stderr, "%s: %llu timed ops in %.3f s\n",
                     opt.workload.c_str(),
                     static_cast<unsigned long long>(loop.ops),
                     seconds(loop.elapsedNs));
    } else {
        // Requested workload: untraced then traced halves, for the
        // tracing overhead and its per-layer metrics.
        Prepared p = prepare(opt.workload, opt.seed, true);
        const double half = opt.seconds / 2.0;
        LoopResult plain = runLoop(p, half);
        rec.setEnabled(true);
        LoopResult traced = runLoop(p, half);
        rec.setEnabled(false);
        const double rate_plain = static_cast<double>(plain.ops) /
                                  seconds(plain.elapsedNs);
        const double rate_traced = static_cast<double>(traced.ops) /
                                   seconds(traced.elapsedNs);
        metrics["obs.trace_overhead_share"] = {1.0 - rate_traced / rate_plain,
                                               "share"};
        p.workload->layerMetrics(metrics);
        rec.printSelfTimes(stderr, opt.workload);
        p.workload->report();
        attempted = p.attempted;
        failed = p.failed;
        digest = p.digest.value();
        metrics["exec.parallel_for_empty_us"] = {emptyParallelForUs(), "us"};
        p = Prepared{};

        // Every other workload: a short traced probe, so one traced run
        // reports every per-layer metric.
        for (const std::string &name : workloadNames()) {
            if (name == opt.workload)
                continue;
            rec.resetTotals();
            Prepared probe = prepare(name, opt.seed, true);
            rec.setEnabled(true);
            runLoop(probe, kProbeSeconds);
            rec.setEnabled(false);
            probe.workload->layerMetrics(metrics);
            rec.printSelfTimes(stderr, name + " (probe)");
            probe.workload->report();
            attempted += probe.attempted;
            failed += probe.failed;
        }
    }

    // Stamped with the pool at its measured width (the serial baseline
    // and the self-check below run it at 1).
    startPool();
    const std::string manifest = manifestJson(opt.seed);
    const bool invariant =
        sameDigestAtOneThread(opt.workload, opt.seed, digest);
    correct = correct && failed == 0 && invariant;

    const std::string stem = opt.outDir + "/perfbench_" + opt.workload +
                             (opt.trace ? "_trace" : "");
    {
        std::ofstream os(stem + ".json");
        os << "{\"manifest\":" << manifest << ",\"workload\":";
        obs::writeJsonEscaped(os, opt.workload);
        os << ",\"digest\":\"" << std::hex << digest << std::dec
           << "\",\"thread_invariant\":" << (invariant ? "true" : "false")
           << ",\"attempted\":" << attempted << ",\"failed\":" << failed
           << ",\"metrics\":";
        writeMetrics(os, metrics);
        os << "}\n";
    }
    if (opt.trace && !rec.writeChromeTrace(stem + ".trace.json", manifest))
        std::cerr << "perfbench_driver: cannot write " << stem
                  << ".trace.json\n";

    std::fprintf(stderr, "digest %016llx thread_invariant=%s\n",
                 static_cast<unsigned long long>(digest),
                 invariant ? "yes" : "NO");
    std::cout << "manifest " << manifest << "\n"
              << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted
              << ", \"failed\": " << failed << ", \"metrics\": ";
    writeMetrics(std::cout, metrics);
    std::cout << '}' << std::endl;
    return correct ? 0 : 1;
}
