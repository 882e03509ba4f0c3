/**
 * @file
 * End-to-end implant simulation: both Sec. 3.1 dataflows executed on
 * real (synthetic) neural data.
 *
 * Communication-centric path:
 *   cortex -> ADC -> packetizer -> wireless uplink (raw samples)
 *
 * Computation-centric path:
 *   cortex -> window -> speech-MLP on the PE-array simulator ->
 *   packetizer -> wireless uplink (40 labels per inference)
 *
 * The example measures what the analytical framework predicts: the
 * computation-centric path trades a little MAC power for a much
 * smaller uplink (~6x at this small 64-channel scale; the gap widens
 * linearly with channel count since the label payload is fixed). A
 * Kalman decoder (the paper's traditional baseline) runs alongside
 * to show the same data stream supports classic intent decoding.
 *
 * A per-layer table then sets each decoder layer's modelled cost
 * (Eq. 10 MACs, Eq. 11 cycles, cycles x t_MAC) next to the host time
 * the simulator measured for it over the same inferences
 * (SimulationResult::layerHostNanos), with no trace file.
 *
 * Build & run:  ./build/examples/speech_pipeline
 */

#include <iostream>

#include "accel/lower_bound.hh"
#include "accel/simulator.hh"
#include "base/matrix.hh"
#include "base/table.hh"
#include "comm/packetizer.hh"
#include "core/soc_catalog.hh"
#include "core/scaling.hh"
#include "dnn/models.hh"
#include "ni/synthetic_cortex.hh"
#include "signal/kalman.hh"
#include "signal/metrics.hh"

int
main()
{
    using namespace mindful;

    // --- The implant: a 64-channel slice of a BISC-like SoC. ------
    constexpr std::uint64_t kChannels = 64;
    const Frequency kFs = Frequency::kilohertz(2.0); // application rate
    core::ImplantModel implant(core::socById(1));

    ni::SyntheticCortexConfig cortex_config;
    cortex_config.channels = kChannels;
    cortex_config.samplingFrequency = Frequency::kilohertz(8.0);
    cortex_config.activeFraction = 0.7;
    cortex_config.seed = 2026;
    ni::SyntheticCortex cortex(cortex_config);

    std::cout << "Generating 8 s of cortical activity on " << kChannels
              << " channels...\n";
    auto recording = cortex.generate(64000);

    // --- Path A: communication-centric (stream everything). -------
    ni::AdcModel adc(10, 1000.0, cortex_config.samplingFrequency);
    comm::Packetizer packetizer({10});

    std::uint64_t raw_bits = 0;
    std::vector<double> frame(kChannels);
    for (std::size_t t = 0; t < recording.steps; ++t) {
        for (std::uint64_t ch = 0; ch < kChannels; ++ch)
            frame[ch] = recording.sample(ch, t);
        raw_bits +=
            packetizer
                .pack(static_cast<std::uint16_t>(t & 0xFFFF),
                      adc.quantize(frame))
                .size() *
            8;
    }
    double duration = static_cast<double>(recording.steps) /
                      cortex_config.samplingFrequency.inHertz();
    DataRate raw_rate = DataRate::bitsPerSecond(
        static_cast<double>(raw_bits) / duration);
    Power raw_tx = raw_rate * implant.commEnergyPerBit();

    // --- Path B: computation-centric (decode on the implant). -----
    auto network = dnn::buildSpeechMlp(kChannels);
    Rng rng(7);
    network.initializeWeights(rng);

    // Size the PE array for the 2 kHz application deadline (Eq. 11).
    accel::LowerBoundSolver solver(accel::nangate45());
    auto bound = solver.solveBest(network.census(), period(kFs));
    if (!bound.feasible) {
        std::cerr << "accelerator cannot meet the deadline\n";
        return 1;
    }
    accel::AcceleratorSimulator sim({bound.macUnits, accel::nangate45()});

    const std::size_t window =
        dnn::elementCount(network.inputShape()) / kChannels;
    const std::size_t hop = static_cast<std::size_t>(
        cortex_config.samplingFrequency.inHertz() / kFs.inHertz());

    std::uint64_t decoded_bits = 0;
    std::uint64_t inferences = 0;
    Energy mac_energy = Energy::joules(0.0);
    Time worst_latency = Time::seconds(0.0);
    std::vector<std::uint64_t> layer_cycles;
    std::vector<std::uint64_t> layer_host_ns(network.layerCount(), 0);
    comm::Packetizer label_packetizer({10});

    dnn::Tensor input(network.inputShape());
    for (std::size_t start = 0;
         start + window * hop < recording.steps && inferences < 400;
         start += hop) {
        // Window: `window` decimated samples per channel, normalized
        // to the ADC full scale.
        for (std::uint64_t ch = 0; ch < kChannels; ++ch)
            for (std::size_t s = 0; s < window; ++s)
                input[ch * window + s] = static_cast<float>(
                    recording.sample(ch, start + s * hop) / 1000.0);

        auto result = sim.run(network, input);
        mac_energy += result.energy;
        if (result.latency > worst_latency)
            worst_latency = result.latency;
        layer_cycles = result.layerCycles;
        for (std::size_t i = 0; i < layer_host_ns.size(); ++i)
            layer_host_ns[i] += result.layerHostNanos[i];

        // Quantize the 40 label probabilities to 10 bits and frame.
        std::vector<std::uint32_t> labels;
        labels.reserve(result.output.size());
        for (std::size_t i = 0; i < result.output.size(); ++i)
            labels.push_back(static_cast<std::uint32_t>(
                result.output[i] * 1023.0f));
        decoded_bits +=
            label_packetizer
                .pack(static_cast<std::uint16_t>(inferences), labels)
                .size() *
            8;
        ++inferences;
    }

    DataRate decoded_rate = DataRate::bitsPerSecond(
        static_cast<double>(decoded_bits) /
        (static_cast<double>(inferences) / kFs.inHertz()));
    Power decoded_tx = decoded_rate * implant.commEnergyPerBit();
    Power mac_power = mac_energy / Time::seconds(
        static_cast<double>(inferences) / kFs.inHertz());

    // --- Traditional baseline: Kalman intent decoding. -------------
    const std::size_t bin = 400; // 50 ms
    auto counts = recording.binnedCounts(bin);
    auto intent = recording.binnedIntent(bin);
    std::size_t bins = counts[0].size();
    std::size_t split = bins * 2 / 3;
    auto slice = [](const std::vector<std::vector<double>> &rows,
                    std::size_t from, std::size_t to) {
        Matrix m(rows.size(), to - from);
        for (std::size_t r = 0; r < rows.size(); ++r)
            for (std::size_t c = from; c < to; ++c)
                m(r, c - from) = rows[r][c];
        return m;
    };
    signal::KalmanDecoder kalman;
    kalman.train(slice(intent, 0, split), slice(counts, 0, split));
    double corr = signal::meanRowCorrelation(
        kalman.decode(slice(counts, split, bins)),
        slice(intent, split, bins));

    // --- Report. ----------------------------------------------------
    Table table("Dataflow comparison (" + std::to_string(kChannels) +
                " channels, measured on simulated hardware)");
    table.setHeader({"metric", "comm-centric", "comp-centric"});
    table.addRow({"uplink data rate",
                  Table::formatNumber(raw_rate.inMegabitsPerSecond(), 2) +
                      " Mbps",
                  Table::formatNumber(
                      decoded_rate.inMegabitsPerSecond(), 4) + " Mbps"});
    table.addRow({"transmit power",
                  Table::formatNumber(raw_tx.inMilliwatts(), 3) + " mW",
                  Table::formatNumber(decoded_tx.inMilliwatts(), 4) +
                      " mW"});
    table.addRow({"compute power", "~0 (packetize only)",
                  Table::formatNumber(mac_power.inMilliwatts(), 3) +
                      " mW (" + std::to_string(bound.macUnits) +
                      " MACs)"});
    table.addRow({"worst inference latency", "-",
                  Table::formatNumber(worst_latency.inMicroseconds(), 1) +
                      " us (deadline " +
                      Table::formatNumber(
                          period(kFs).inMicroseconds(), 0) + " us)"});
    table.print(std::cout);

    std::cout << "\nuplink reduction: "
              << Table::formatNumber(raw_rate / decoded_rate, 0)
              << "x fewer bits with on-implant decoding\n";
    std::cout << "Kalman baseline intent correlation (held-out): "
              << Table::formatNumber(corr, 2) << "\n\n";

    const auto census = network.census();
    const double mac_us = accel::nangate45().macTime.inMicroseconds();
    Table layers("Decoder layers on " + std::to_string(bound.macUnits) +
                 " PEs: modelled vs host time (mean of " +
                 std::to_string(inferences) + " inferences)");
    layers.setHeader({"layer", "Eq. 10 MACs", "Eq. 11 cycles",
                      "modelled (us)", "host (us)"});
    for (std::size_t i = 0; i < network.layerCount(); ++i) {
        layers.addRow(
            {network.layer(i).name(),
             std::to_string(census[i].totalMacs()),
             std::to_string(layer_cycles[i]),
             Table::formatNumber(
                 static_cast<double>(layer_cycles[i]) * mac_us, 3),
             Table::formatNumber(static_cast<double>(layer_host_ns[i]) *
                                     1e-3 /
                                     static_cast<double>(inferences),
                                 3)});
    }
    layers.print(std::cout);
    return 0;
}
