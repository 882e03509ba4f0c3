/**
 * @file
 * Tracked perf-regression harness for the DNN forward path (conv and
 * dense layers on the one column-tiled GEMM kernel) and the red-black
 * bio-heat SOR sweep, plus the end-to-end figure paths built on them
 * (Figs. 9, 10, 12).
 *
 * Each kernel runs both its production implementation and the
 * retained golden reference (Conv2dLayer::forwardNaive,
 * DenseLayer::forwardNaive, BioHeatSolver::solveReference), so the
 * emitted speedups measure exactly the optimization under regression
 * watch, on the same machine, in the same run.
 *
 * Outputs:
 *  - human-readable timing summary on stdout (default);
 *  - `--json FILE`: machine-readable BENCH_kernels.json with wall
 *    times, ops/s, speedups, iteration counts, and a thread-scaling
 *    sweep of the 64-channel speech-MLP forward — the artifact CI
 *    uploads per commit;
 *  - `--csv`: *deterministic values only* (output checksums and SOR
 *    iteration counts, no timings), byte-identical for any --threads
 *    value — the determinism contract test diffs this across thread
 *    counts;
 *  - `--quick`: CI smoke mode (fewer repetitions, no scaling sweep).
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "core/experiments.hh"
#include "dnn/conv.hh"
#include "dnn/dense.hh"
#include "dnn/models.hh"
#include "obs/json.hh"
#include "obs/manifest.hh"
#include "thermal/bioheat.hh"

namespace {

using namespace mindful;

/** Milliseconds for one invocation of @p fn, averaged over @p reps. */
double
timeMs(std::size_t reps, const std::function<void()> &fn)
{
    auto start = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < reps; ++r)
        fn();
    auto stop = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(stop - start)
               .count() /
           static_cast<double>(reps);
}

/** One fast-vs-reference kernel measurement. */
struct KernelResult
{
    std::string name;
    double fastMs = 0.0;
    double referenceMs = 0.0;
    double gigaOpsPerSec = 0.0;   //!< fast path, 2 * MACs / time
    double checksum = 0.0;        //!< deterministic output digest
    std::size_t iterations = 0;   //!< SOR sweeps (0 for DNN kernels)
    std::size_t referenceIterations = 0;

    double
    speedup() const
    {
        return fastMs > 0.0 ? referenceMs / fastMs : 0.0;
    }
};

struct ScalingPoint
{
    std::string name;
    unsigned threads = 0;
    double wallMs = 0.0;
};

struct EndToEndResult
{
    std::string name;
    double wallMs = 0.0;
};

/** Deterministic digest of a tensor: plain ascending-index sum. */
double
checksum(const dnn::Tensor &t)
{
    double sum = 0.0;
    for (std::size_t i = 0; i < t.size(); ++i)
        sum += t[i];
    return sum;
}

dnn::Tensor
makeInput(const dnn::Shape &shape)
{
    dnn::Tensor x(shape);
    Rng rng(29);
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
    return x;
}

/**
 * Conv case at a fig-10 DN-CNN shape (speech decoder at n = 512
 * channels, alpha = 4: growth 22, stem-pooled 128-row maps).
 */
KernelResult
benchConv(const std::string &name, std::size_t in_ch, std::size_t out_ch,
          const dnn::Shape &input_shape, std::size_t fast_reps,
          std::size_t ref_reps)
{
    dnn::Conv2dLayer conv(in_ch, out_ch, 3, 3, 1, dnn::Padding::Same);
    Rng rng(31);
    conv.initializeWeights(rng);
    dnn::Tensor x = makeInput(input_shape);

    KernelResult result;
    result.name = name;
    dnn::Tensor out = conv.forward(x);
    result.checksum = checksum(out);
    result.fastMs = timeMs(fast_reps, [&] { conv.forward(x); });
    result.referenceMs = timeMs(ref_reps, [&] { conv.forwardNaive(x); });

    auto census = conv.census(x.shape());
    result.gigaOpsPerSec = 2.0 * static_cast<double>(census.totalMacs()) /
                           (result.fastMs * 1e6);
    return result;
}

KernelResult
benchDense(const std::string &name, std::size_t in, std::size_t out,
           std::size_t fast_reps, std::size_t ref_reps)
{
    dnn::DenseLayer layer(in, out);
    Rng rng(37);
    layer.initializeWeights(rng);
    dnn::Tensor x = makeInput({in});

    KernelResult result;
    result.name = name;
    result.checksum = checksum(layer.forward(x));
    result.fastMs = timeMs(fast_reps, [&] { layer.forward(x); });
    result.referenceMs = timeMs(ref_reps, [&] { layer.forwardNaive(x); });
    result.gigaOpsPerSec = 2.0 * static_cast<double>(in) * out /
                           (result.fastMs * 1e6);
    return result;
}

KernelResult
benchBioHeat(const std::string &name, const thermal::BioHeatConfig &config,
             std::size_t fast_reps, std::size_t ref_reps)
{
    thermal::BioHeatSolver solver({}, config);
    Power p = Power::milliwatts(57.6);
    Area a = Area::squareMillimetres(144.0);

    KernelResult result;
    result.name = name;
    auto fast = solver.solve(p, a);
    result.checksum = fast.peakRise.inKelvin();
    result.iterations = fast.iterations;
    result.fastMs = timeMs(fast_reps, [&] { solver.solve(p, a); });
    if (ref_reps > 0) {
        auto ref = solver.solveReference(p, a);
        result.referenceIterations = ref.iterations;
        result.referenceMs =
            timeMs(ref_reps, [&] { solver.solveReference(p, a); });
    }
    // Cell updates per second: sweeps * interior cells, counted as
    // one "op" per 5-point stencil update.
    double cells = static_cast<double>(fast.fieldRows - 1) *
                   (fast.fieldCols - 1);
    result.gigaOpsPerSec = static_cast<double>(result.iterations) *
                           cells / (result.fastMs * 1e6);
    return result;
}

void
writeJson(const std::string &path, bool quick,
          const std::vector<KernelResult> &kernels,
          const std::vector<EndToEndResult> &end_to_end,
          const std::vector<ScalingPoint> &scaling)
{
    std::ofstream os(path);
    if (!os)
        MINDFUL_FATAL("cannot open JSON output ", path);
    os << "{\n";
    os << "  \"manifest\": ";
    mindful::obs::RunManifest::current().writeJsonObject(os);
    os << ",\n";
    os << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
    os << "  \"threads\": " << exec::ThreadPool::global().threadCount()
       << ",\n";
    os << "  \"kernels\": [\n";
    for (std::size_t i = 0; i < kernels.size(); ++i) {
        const auto &k = kernels[i];
        os << "    {\"name\": ";
        mindful::obs::writeJsonEscaped(os, k.name);
        char buf[512];
        std::snprintf(
            buf, sizeof(buf),
            ", \"fast_ms\": %.6f, "
            "\"reference_ms\": %.6f, \"speedup\": %.3f, "
            "\"gops\": %.4f, \"iterations\": %zu, "
            "\"reference_iterations\": %zu, \"checksum\": %.12e}",
            k.fastMs, k.referenceMs, k.speedup(), k.gigaOpsPerSec,
            k.iterations, k.referenceIterations, k.checksum);
        os << buf << (i + 1 < kernels.size() ? "," : "") << "\n";
    }
    os << "  ],\n";
    os << "  \"end_to_end\": [\n";
    for (std::size_t i = 0; i < end_to_end.size(); ++i) {
        os << "    {\"name\": ";
        mindful::obs::writeJsonEscaped(os, end_to_end[i].name);
        char buf[256];
        std::snprintf(buf, sizeof(buf), ", \"wall_ms\": %.3f}",
                      end_to_end[i].wallMs);
        os << buf << (i + 1 < end_to_end.size() ? "," : "") << "\n";
    }
    os << "  ],\n";
    os << "  \"thread_scaling\": [\n";
    for (std::size_t i = 0; i < scaling.size(); ++i) {
        os << "    {\"name\": ";
        mindful::obs::writeJsonEscaped(os, scaling[i].name);
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      ", \"threads\": %u, \"wall_ms\": %.6f}",
                      scaling[i].threads, scaling[i].wallMs);
        os << buf << (i + 1 < scaling.size() ? "," : "") << "\n";
    }
    os << "  ]\n";
    os << "}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    bench::ObsGuard _obs(argc, argv);
    bool csv = bench::csvOnly(argc, argv);
    bool quick = false;
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--quick") {
            quick = true;
        } else if (arg == "--json") {
            if (i + 1 >= argc)
                MINDFUL_FATAL("--json requires an argument");
            json_path = argv[++i];
        } else if (arg.rfind("--json=", 0) == 0) {
            json_path = arg.substr(7);
        }
    }

    const std::size_t fast_reps = quick ? 5 : 40;
    const std::size_t ref_reps = quick ? 2 : 8;

    // --- Kernel measurements (fast vs retained reference) ------------
    std::vector<KernelResult> kernels;

    // Fig-10 DN-CNN conv shapes at n = 512 (alpha = 4): growth 22,
    // stem over the raw 512 x 16 window, block-1 stages on the
    // stem-pooled 64 x 8 maps, block-2 stages on 32 x 4 maps with the
    // concatenated channel depth of the last stage.
    kernels.push_back(benchConv("conv_dncnn_stem", 1, 22, {1, 512, 16},
                                fast_reps, ref_reps));
    kernels.push_back(benchConv("conv_dncnn_block1", 66, 22, {66, 64, 8},
                                fast_reps, ref_reps));
    kernels.push_back(benchConv("conv_dncnn_block2", 220, 22, {220, 32, 4},
                                fast_reps, ref_reps));
    // Fig-10 MLP trunk at n = 512: latent 1024 -> trunk 768.
    kernels.push_back(
        benchDense("dense_mlp_trunk", 1024, 768, fast_reps, ref_reps));

    // Bio-heat at the seed configuration (the paper's operating
    // point) and on a fine grid (20 000 cells per sweep).
    kernels.push_back(benchBioHeat("bioheat_default", {},
                                   quick ? 2 : 10, quick ? 1 : 4));
    thermal::BioHeatConfig fine;
    fine.gridSpacing = Length::millimetres(0.15);
    kernels.push_back(
        benchBioHeat("bioheat_fine", fine, quick ? 1 : 4, quick ? 0 : 2));

    // --- End-to-end figure paths -------------------------------------
    std::vector<EndToEndResult> end_to_end;
    end_to_end.push_back(
        {"fig9_accelerator_power",
         timeMs(1, [] { core::experiments::fig9Table(); })});
    end_to_end.push_back(
        {"fig10_dnn_power_mlp", timeMs(1, [] {
             core::experiments::fig10Table(
                 core::experiments::SpeechModel::Mlp);
         })});
    end_to_end.push_back(
        {"fig10_dnn_power_dncnn", timeMs(1, [] {
             core::experiments::fig10Table(
                 core::experiments::SpeechModel::DnCnn);
         })});
    end_to_end.push_back(
        {"fig12_optimizations_soc1",
         timeMs(1, [] { core::experiments::fig12Table(1); })});

    // --- Thread-scaling sweep (sharded kernels only) -----------------
    // The 64-channel speech-MLP forward is the decoder the implant
    // data path (perfbench stream_decode) runs; its three large dense
    // layers shard their GEMMs 8, 16 and 6 ways. The SOR sweep is
    // serial, so bioheat_fine has no row here.
    std::vector<ScalingPoint> scaling;
    if (!quick) {
        const unsigned initial = exec::ThreadPool::global().threadCount();
        dnn::Network mlp = dnn::buildSpeechMlp(64);
        Rng rng(41);
        mlp.initializeWeights(rng);
        dnn::Tensor x = makeInput(mlp.inputShape());
        for (unsigned threads : {1u, 2u, 4u, 8u}) {
            exec::ThreadPool::setGlobalThreadCount(threads);
            timeMs(fast_reps, [&] { mlp.forward(x); }); // warm-up
            scaling.push_back({"speech_mlp_64ch", threads,
                               timeMs(fast_reps * 10,
                                      [&] { mlp.forward(x); })});
        }
        exec::ThreadPool::setGlobalThreadCount(initial);
    }

    // --- Output ------------------------------------------------------
    if (csv) {
        // Deterministic values only: byte-identical for any --threads.
        std::printf("kernel,checksum,iterations\n");
        for (const auto &k : kernels)
            std::printf("%s,%.12e,%zu\n", k.name.c_str(), k.checksum,
                        k.iterations);
    } else {
        std::printf("%-26s %12s %12s %9s %10s %6s\n", "kernel",
                    "fast_ms", "ref_ms", "speedup", "gops", "iters");
        for (const auto &k : kernels)
            std::printf("%-26s %12.4f %12.4f %8.2fx %10.3f %6zu\n",
                        k.name.c_str(), k.fastMs, k.referenceMs,
                        k.speedup(), k.gigaOpsPerSec, k.iterations);
        for (const auto &e : end_to_end)
            std::printf("%-30s %10.2f ms\n", e.name.c_str(), e.wallMs);
        for (const auto &s : scaling)
            std::printf("scaling %-22s t=%u %10.4f ms\n", s.name.c_str(),
                        s.threads, s.wallMs);
    }

    if (!json_path.empty()) {
        writeJson(json_path, quick, kernels, end_to_end, scaling);
        MINDFUL_INFORM("wrote ", json_path);
    }
    return 0;
}
