/**
 * @file
 * The four perfbench workloads. Each op is a fixed slice of work
 * through the public APIs, wrapped in driver-side spans, with an
 * output check that counts as a failed op when it does not hold.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>

#include "accel/lower_bound.hh"
#include "accel/simulator.hh"
#include "bench.hh"
#include "comm/channel_sim.hh"
#include "comm/modulation.hh"
#include "comm/packetizer.hh"
#include "dnn/models.hh"
#include "exec/thread_pool.hh"
#include "ni/adc.hh"
#include "ni/synthetic_cortex.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "thermal/bioheat.hh"

namespace perfbench {

using namespace mindful;

namespace {

/** Mean self time [ns] of one closed @p site span, per @p units of
 *  work inside it; 0 when no span was traced. */
double
selfPer(std::uint32_t site, double units = 1.0)
{
    const SpanTotals &totals = SpanRecorder::global().totals(site);
    const double work = static_cast<double>(totals.count) * units;
    return work > 0.0 ? static_cast<double>(totals.selfNs) / work : 0.0;
}

std::uint64_t
bitsOf(double v)
{
    std::uint64_t w;
    std::memcpy(&w, &v, sizeof w);
    return w;
}

// ------------------------------------------------------------------
// stream_raw: the Eq. 6-8 implant data path at the paper's
// 1024-channel scale. One op = 10 ms of an 8 kHz recording: 80 frames
// of gather -> quantize -> pack -> unpack.
// ------------------------------------------------------------------
class StreamRaw : public Workload
{
  public:
    static constexpr std::uint64_t kChannels = 1024;
    static constexpr std::size_t kSteps = 8000; // 1 s at 8 kHz
    static constexpr std::size_t kFramesPerOp = 80;

    void
    setup(std::uint64_t seed) override
    {
        ni::SyntheticCortexConfig config;
        config.channels = kChannels;
        config.samplingFrequency = Frequency::kilohertz(8.0);
        config.activeFraction = 0.7;
        config.seed = seed;
        ni::SyntheticCortex cortex(config);
        {
            Span span(_generate);
            _recording = cortex.generate(kSteps);
        }
        _adc = std::make_unique<ni::AdcModel>(10, 1000.0,
                                              config.samplingFrequency);
        _packetizer = std::make_unique<comm::Packetizer>(
            comm::FrameConfig{10});
        _frame.assign(kChannels, 0.0);
    }

    bool
    op(std::uint64_t index, Digest &digest) override
    {
        bool ok = true;
        const std::size_t first = (index % cycle()) * kFramesPerOp;
        for (std::size_t t = first; t < first + kFramesPerOp; ++t) {
            {
                Span span(_gather);
                for (std::uint64_t ch = 0; ch < kChannels; ++ch)
                    _frame[ch] = _recording.sample(ch, t);
            }
            std::vector<std::uint32_t> codes;
            {
                Span span(_quantize);
                codes = _adc->quantize(_frame);
            }
            const auto sequence = static_cast<std::uint16_t>(t);
            std::vector<std::uint8_t> bytes;
            {
                Span span(_pack);
                bytes = _packetizer->pack(sequence, codes);
            }
            comm::UnpackedFrame frame;
            {
                Span span(_unpack);
                frame = _packetizer->unpack(bytes);
            }
            const bool valid = frame.valid && frame.sequence == sequence &&
                               frame.samples == codes;
            _invalid += valid ? 0 : 1;
            ok = ok && valid;
            _frameBytes = bytes.size();
            digest.add(bytes.data(), bytes.size());
        }
        return ok;
    }

    std::uint64_t cycle() const override
    {
        return kSteps / kFramesPerOp;
    }

    void
    layerMetrics(MetricMap &out) override
    {
        const double channels = static_cast<double>(kChannels);
        out["ni.generate_ns_per_sample"] = {
            selfPer(_generate, channels * static_cast<double>(kSteps)),
            "ns"};
        out["ni.gather_ns_per_sample"] = {selfPer(_gather, channels), "ns"};
        out["ni.quantize_ns_per_sample"] = {selfPer(_quantize, channels),
                                            "ns"};
        out["comm.pack_ns_per_frame"] = {selfPer(_pack), "ns"};
        out["comm.unpack_ns_per_frame"] = {selfPer(_unpack), "ns"};
        out["comm.frame_bytes"] = {static_cast<double>(_frameBytes),
                                   "bytes"};
        const double payload =
            static_cast<double>((kChannels * 10 + 7) / 8);
        out["comm.payload_share"] = {
            _frameBytes ? payload / static_cast<double>(_frameBytes) : 0.0,
            "share"};
        out["comm.frames_invalid"] = {static_cast<double>(_invalid),
                                      "count"};
    }

  private:
    std::uint32_t _generate = SpanRecorder::global().site("ni.generate");
    std::uint32_t _gather = SpanRecorder::global().site("ni.gather");
    std::uint32_t _quantize = SpanRecorder::global().site("ni.quantize");
    std::uint32_t _pack = SpanRecorder::global().site("comm.pack");
    std::uint32_t _unpack = SpanRecorder::global().site("comm.unpack");

    ni::Recording _recording;
    std::unique_ptr<ni::AdcModel> _adc;
    std::unique_ptr<comm::Packetizer> _packetizer;
    std::vector<double> _frame;
    std::size_t _frameBytes = 0;
    std::uint64_t _invalid = 0;
};

// ------------------------------------------------------------------
// stream_decode: the example's Path B at 64 channels. One op = 10
// consecutive inferences: window -> PE-array simulator -> label
// quantize -> pack, on an array sized for the 500 us (2 kHz) deadline.
// ------------------------------------------------------------------
class StreamDecode : public Workload
{
  public:
    static constexpr std::uint64_t kChannels = 64;
    static constexpr std::size_t kHop = 4; // 8 kHz recording, 2 kHz app
    static constexpr std::size_t kInferencesPerOp = 10;
    static constexpr std::uint64_t kCycle = 100;

    void
    setup(std::uint64_t seed) override
    {
        const Frequency app = Frequency::kilohertz(2.0);
        _deadline = period(app);
        {
            Span span(_build);
            _network = std::make_unique<dnn::Network>(
                dnn::buildSpeechMlp(kChannels));
            Rng rng(seed ^ 0x6d6c7021ull);
            _network->initializeWeights(rng);
        }
        {
            Span span(_boundSolve);
            accel::LowerBoundSolver solver(accel::nangate45());
            _bound = solver.solveBest(_network->census(), _deadline);
        }
        _sim = std::make_unique<accel::AcceleratorSimulator>(
            accel::SimulatorConfig{_bound.macUnits, accel::nangate45()});
        _window = dnn::elementCount(_network->inputShape()) / kChannels;

        ni::SyntheticCortexConfig config;
        config.channels = kChannels;
        config.samplingFrequency = Frequency::kilohertz(8.0);
        config.activeFraction = 0.7;
        config.seed = seed;
        ni::SyntheticCortex cortex(config);
        {
            Span span(_generate);
            _recording = cortex.generate(kCycle * kInferencesPerOp * kHop +
                                         _window * kHop);
        }
        _input = dnn::Tensor(_network->inputShape());
        _packetizer = std::make_unique<comm::Packetizer>(
            comm::FrameConfig{10});
    }

    void
    prepareGoldens() override
    {
        const std::size_t count = kCycle * kInferencesPerOp;
        _golden.clear();
        _golden.reserve(count);
        for (std::size_t k = 0; k < count; ++k) {
            fillWindow(k);
            _golden.push_back(_network->forward(_input).storage());
        }
    }

    bool
    op(std::uint64_t index, Digest &digest) override
    {
        bool ok = _bound.feasible;
        const std::size_t first = (index % kCycle) * kInferencesPerOp;
        for (std::size_t k = first; k < first + kInferencesPerOp; ++k) {
            {
                Span span(_windowSite);
                fillWindow(k);
            }
            accel::SimulationResult result;
            {
                Span span(_run);
                result = _sim->run(*_network, _input);
            }
            const auto &golden = _golden[k];
            ok = ok && result.output.size() == golden.size() &&
                 std::memcmp(result.output.data(), golden.data(),
                             golden.size() * sizeof(float)) == 0 &&
                 result.latency <= _deadline;

            std::vector<std::uint8_t> bytes;
            {
                Span span(_pack);
                _labels.resize(result.output.size());
                for (std::size_t i = 0; i < result.output.size(); ++i)
                    _labels[i] = static_cast<std::uint32_t>(
                        result.output[i] * 1023.0f);
                bytes = _packetizer->pack(static_cast<std::uint16_t>(k),
                                          _labels);
            }
            digest.add(bytes.data(), bytes.size());
            digest.add(result.cycles);
            _last = std::move(result);
        }
        return ok;
    }

    std::uint64_t cycle() const override { return kCycle; }

    void
    layerMetrics(MetricMap &out) override
    {
        const auto census = _network->census();
        std::uint64_t census_macs = 0;
        for (const auto &layer : census)
            census_macs += layer.totalMacs();

        out["ni.window_ns_per_inference"] = {selfPer(_windowSite), "ns"};
        out["accel.run_us_per_inference"] = {selfPer(_run) * 1e-3, "us"};
        out["accel.host_ns_per_mac"] = {
            selfPer(_run, static_cast<double>(_last.macsExecuted)), "ns"};
        out["comm.pack_labels_ns_per_frame"] = {selfPer(_pack), "ns"};
        out["dnn.build_ms"] = {selfPer(_build) * 1e-6, "ms"};
        out["accel.bound_solve_ms"] = {selfPer(_boundSolve) * 1e-6, "ms"};
        out["dnn.census_macs"] = {static_cast<double>(census_macs), "count"};
        out["accel.cycles_per_inference"] = {
            static_cast<double>(_last.cycles), "count"};
        for (std::size_t i = 0; i < _last.layerCycles.size(); ++i) {
            if (census[i].empty())
                continue;
            out["accel.layer." + std::to_string(i) + ".cycles"] = {
                static_cast<double>(_last.layerCycles[i]), "count"};
        }
        out["accel.macs_executed"] = {
            static_cast<double>(_last.macsExecuted), "count"};
        out["accel.utilization"] = {_last.utilization, "share"};
        out["accel.mac_units"] = {static_cast<double>(_bound.macUnits),
                                  "count"};
        out["accel.modeled_latency_us"] = {_last.latency.inMicroseconds(),
                                           "us"};
    }

    /**
     * Modeled-vs-measured table: Eq. 10 MACs and Eq. 11-15 cycles per
     * layer next to the host time of that layer inside
     * AcceleratorSimulator::run, read from the library's own
     * per-layer trace spans over a short extra pass.
     */
    void
    report() override
    {
        constexpr std::size_t kSamples = 50;
        auto &session = obs::TraceSession::global();
        session.clear();
        session.setEnabled(true);
        for (std::size_t k = 0; k < kSamples; ++k) {
            fillWindow(k);
            _sim->run(*_network, _input);
        }
        session.setEnabled(false);
        std::map<std::string, std::vector<double>> host_us;
        for (const auto &event : session.events())
            host_us[event.name].push_back(
                static_cast<double>(event.durationNanos) * 1e-3);
        session.clear();

        const auto census = _network->census();
        const double mac_us = accel::nangate45().macTime.inMicroseconds();
        std::fprintf(stderr,
                     "stream_decode modeled vs measured (%llu PEs, "
                     "median of %zu inferences)\n"
                     "%-3s %-18s %12s %12s %12s %12s\n",
                     static_cast<unsigned long long>(_bound.macUnits),
                     kSamples, "i", "layer", "eq10_macs", "eq11_cycles",
                     "model_us", "host_us");
        for (std::size_t i = 0; i < _network->layerCount(); ++i) {
            auto &samples = host_us["layer." + _network->layer(i).name()];
            double median = 0.0;
            if (!samples.empty()) {
                std::sort(samples.begin(), samples.end());
                median = samples[samples.size() / 2];
            }
            std::fprintf(
                stderr, "%-3zu %-18s %12llu %12llu %12.3f %12.3f\n", i,
                _network->layer(i).name().c_str(),
                static_cast<unsigned long long>(census[i].totalMacs()),
                static_cast<unsigned long long>(_last.layerCycles[i]),
                static_cast<double>(_last.layerCycles[i]) * mac_us, median);
        }
    }

  private:
    void
    fillWindow(std::size_t k)
    {
        const std::size_t start = k * kHop;
        for (std::uint64_t ch = 0; ch < kChannels; ++ch)
            for (std::size_t s = 0; s < _window; ++s)
                _input[ch * _window + s] = static_cast<float>(
                    _recording.sample(ch, start + s * kHop) / 1000.0);
    }

    std::uint32_t _build = SpanRecorder::global().site("dnn.build");
    std::uint32_t _boundSolve =
        SpanRecorder::global().site("accel.bound_solve");
    std::uint32_t _generate = SpanRecorder::global().site("ni.generate");
    std::uint32_t _windowSite = SpanRecorder::global().site("ni.window");
    std::uint32_t _run = SpanRecorder::global().site("accel.run");
    std::uint32_t _pack = SpanRecorder::global().site("comm.pack_labels");

    Time _deadline;
    std::unique_ptr<dnn::Network> _network;
    accel::AcceleratorBound _bound;
    std::unique_ptr<accel::AcceleratorSimulator> _sim;
    std::size_t _window = 0;
    ni::Recording _recording;
    dnn::Tensor _input;
    std::unique_ptr<comm::Packetizer> _packetizer;
    std::vector<std::uint32_t> _labels;
    std::vector<std::vector<float>> _golden;
    accel::SimulationResult _last;
};

// ------------------------------------------------------------------
// ber_sweep: Monte-Carlo check of the QAM/OOK BER model. One op = one
// Eb/N0 point (0..14 dB in 2 dB steps) through QAM-4/16/64 and OOK at
// a fixed symbol count.
// ------------------------------------------------------------------
class BerSweep : public Workload
{
  public:
    static constexpr std::uint64_t kSymbols = 1u << 17;
    static constexpr std::uint64_t kPoints = 8;
    /** A point is checked once this many errors were counted... */
    static constexpr std::uint64_t kMinErrors = 100;
    /** ...and only where the nearest-neighbour closed form is itself
     *  accurate (it is 7-16 % high for QAM-64 above BER 5e-2). */
    static constexpr double kMaxModelBer = 1e-2;
    /** Allowed |measured / analytic - 1|: model slack plus five
     *  Poisson standard deviations of the error count. */
    static constexpr double kModelSlack = 0.1;

    void
    setup(std::uint64_t seed) override
    {
        for (unsigned i = 0; i < 3; ++i)
            _qam[i] = std::make_unique<comm::AwgnChannelSimulator>(
                kQamBits[i], seed * 3 + i);
        _ook = std::make_unique<comm::OokChannelSimulator>(seed * 3 + 3);
    }

    bool
    op(std::uint64_t index, Digest &digest) override
    {
        const double db = 2.0 * static_cast<double>(index % kPoints);
        const double linear = std::pow(10.0, db / 10.0);
        bool ok = true;
        const bool counted = index < kPoints;
        for (unsigned i = 0; i < 3; ++i) {
            comm::BerMeasurement m;
            {
                Span span(_qamSite[i]);
                m = _qam[i]->measureBer(linear, kSymbols);
            }
            ok = check(m, comm::qamBitErrorRate(kQamBits[i], linear)) && ok;
            digest.add(m.bitErrors);
            if (counted)
                _bitErrors += m.bitErrors;
        }
        comm::BerMeasurement m;
        {
            Span span(_ookSite);
            m = _ook->measureBer(linear, kSymbols);
        }
        ok = check(m, comm::ookBitErrorRate(linear)) && ok;
        digest.add(m.bitErrors);
        if (counted)
            _bitErrors += m.bitErrors;
        return ok;
    }

    std::uint64_t cycle() const override { return kPoints; }

    void
    layerMetrics(MetricMap &out) override
    {
        const double symbols = static_cast<double>(kSymbols);
        static const char *const kNames[3] = {
            "comm.ber.qam4_ns_per_symbol", "comm.ber.qam16_ns_per_symbol",
            "comm.ber.qam64_ns_per_symbol"};
        for (unsigned i = 0; i < 3; ++i)
            out[kNames[i]] = {selfPer(_qamSite[i], symbols), "ns"};
        out["comm.ber.ook_ns_per_bit"] = {selfPer(_ookSite, symbols), "ns"};
        out["comm.ber.bit_errors"] = {static_cast<double>(_bitErrors),
                                      "count"};
    }

  private:
    static constexpr unsigned kQamBits[3] = {2, 4, 6};

    static bool
    check(const comm::BerMeasurement &m, double analytic)
    {
        if (m.bitErrors < kMinErrors || analytic > kMaxModelBer)
            return true;
        const double sigma =
            1.0 / std::sqrt(static_cast<double>(m.bitErrors));
        return std::abs(m.ber() / analytic - 1.0) <= kModelSlack + 5 * sigma;
    }

    std::uint32_t _qamSite[3] = {
        SpanRecorder::global().site("comm.ber.qam4"),
        SpanRecorder::global().site("comm.ber.qam16"),
        SpanRecorder::global().site("comm.ber.qam64")};
    std::uint32_t _ookSite = SpanRecorder::global().site("comm.ber.ook");

    std::unique_ptr<comm::AwgnChannelSimulator> _qam[3];
    std::unique_ptr<comm::OokChannelSimulator> _ook;
    std::uint64_t _bitErrors = 0; //!< over the first sweep, ops [0, 8)
};

// ------------------------------------------------------------------
// bioheat_fine: one steady Pennes solve on the 0.15 mm grid (above the
// solver's parallel-cell threshold), 57.6 mW over 144 mm^2.
// ------------------------------------------------------------------
class BioheatFine : public Workload
{
  public:
    /** Pinned golden of the solve (independent of the seed). */
    static constexpr std::size_t kGoldenSweeps = 472;
    static constexpr double kGoldenPeakK = 2.0127425369372962;

    void
    setup(std::uint64_t) override
    {
        thermal::BioHeatConfig config;
        config.gridSpacing = Length::millimetres(0.15);
        _solver = std::make_unique<thermal::BioHeatSolver>(
            thermal::TissueProperties{}, config);
    }

    bool
    op(std::uint64_t, Digest &digest) override
    {
        thermal::BioHeatResult result;
        {
            Span span(_solve);
            result = solveOnce();
        }
        _sweeps = result.iterations;
        _cells = result.fieldRows * result.fieldCols;
        const double peak = result.peakRise.inKelvin();
        digest.add(bitsOf(peak));
        digest.add(bitsOf(result.meanContactRise.inKelvin()));
        digest.add(result.iterations);
        return result.iterations == kGoldenSweeps &&
               std::abs(peak - kGoldenPeakK) <= 1e-9 * kGoldenPeakK;
    }

    std::uint64_t cycle() const override { return 1; }

    void
    layerMetrics(MetricMap &out) override
    {
        out["thermal.solve_ms"] = {selfPer(_solve) * 1e-6, "ms"};
        out["thermal.sweeps"] = {static_cast<double>(_sweeps), "count"};
        out["thermal.ns_per_cell_sweep"] = {
            selfPer(_solve, static_cast<double>(_cells * _sweeps)), "ns"};

        // Pool tasks one solve submits, at the measured pool width.
        auto &tasks = obs::MetricRegistry::global().counter("exec.pool.tasks");
        const std::uint64_t before = tasks.value();
        solveOnce();
        out["exec.pool.tasks_per_op"] = {
            static_cast<double>(tasks.value() - before), "count"};

        // The serial baseline: the same solve with the pool at 1 thread.
        const unsigned threads = exec::ThreadPool::globalThreadCount();
        exec::ThreadPool::setGlobalThreadCount(1);
        std::vector<double> ms;
        for (int i = 0; i < 5; ++i) {
            const std::int64_t t0 = nowNanos();
            solveOnce();
            ms.push_back(static_cast<double>(nowNanos() - t0) * 1e-6);
        }
        exec::ThreadPool::setGlobalThreadCount(threads);
        std::sort(ms.begin(), ms.end());
        out["thermal.solve_serial_ms"] = {ms[ms.size() / 2], "ms"};
    }

  private:
    thermal::BioHeatResult
    solveOnce() const
    {
        return _solver->solve(Power::milliwatts(57.6),
                              Area::squareMillimetres(144.0));
    }

    std::uint32_t _solve = SpanRecorder::global().site("thermal.solve");
    std::unique_ptr<thermal::BioHeatSolver> _solver;
    std::size_t _sweeps = 0;
    std::size_t _cells = 0;
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "stream_raw", "stream_decode", "ber_sweep", "bioheat_fine"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "stream_raw")
        return std::make_unique<StreamRaw>();
    if (name == "stream_decode")
        return std::make_unique<StreamDecode>();
    if (name == "ber_sweep")
        return std::make_unique<BerSweep>();
    if (name == "bioheat_fine")
        return std::make_unique<BioheatFine>();
    return nullptr;
}

} // namespace perfbench
