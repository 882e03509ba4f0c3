/**
 * @file
 * PE-array simulator tests: functional equivalence with the
 * reference forward pass (with and without input dropout),
 * consistency with the analytical latency model across a
 * parameterized sweep of PE counts, and per-layer host time reported
 * by the same run.
 */

#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "accel/lower_bound.hh"
#include "accel/simulator.hh"
#include "dnn/activation.hh"
#include "dnn/dense.hh"
#include "dnn/models.hh"

namespace mindful::accel {
namespace {

dnn::Network
makeMlp(std::uint64_t seed = 3)
{
    dnn::Network net("sim-mlp", dnn::Shape{32});
    net.emplace<dnn::DenseLayer>(32, 24);
    net.emplace<dnn::ReluLayer>();
    net.emplace<dnn::DenseLayer>(24, 16);
    net.emplace<dnn::ReluLayer>();
    net.emplace<dnn::DenseLayer>(16, 5);
    Rng rng(seed);
    net.initializeWeights(rng);
    return net;
}

dnn::Tensor
makeInput(std::size_t size)
{
    dnn::Tensor x(dnn::Shape{size});
    for (std::size_t i = 0; i < size; ++i)
        x[i] = 0.1f * static_cast<float>(i % 17) - 0.5f;
    return x;
}

TEST(SimulatorTest, OutputBitIdenticalToReference)
{
    auto net = makeMlp();
    auto input = makeInput(32);
    dnn::Tensor reference = net.forward(input);

    AcceleratorSimulator sim({8, nangate45()});
    auto result = sim.run(net, input);
    EXPECT_FLOAT_EQ(result.output.maxAbsDiff(reference), 0.0f);
}

/** Equivalence must hold for any PE count. */
class SimulatorPeSweep : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(SimulatorPeSweep, EquivalentAcrossPeCounts)
{
    auto net = makeMlp();
    auto input = makeInput(32);
    dnn::Tensor reference = net.forward(input);

    AcceleratorSimulator sim({GetParam(), nangate45()});
    auto result = sim.run(net, input);
    EXPECT_FLOAT_EQ(result.output.maxAbsDiff(reference), 0.0f);
}

TEST_P(SimulatorPeSweep, CyclesMatchAnalyticalLatencyModel)
{
    auto net = makeMlp();
    auto input = makeInput(32);

    AcceleratorSimulator sim({GetParam(), nangate45()});
    auto result = sim.run(net, input);

    LowerBoundSolver solver(nangate45());
    Time predicted = solver.sharedPoolLatency(net.census(), GetParam());
    EXPECT_NEAR(result.latency.inSeconds(), predicted.inSeconds(), 1e-15);
}

INSTANTIATE_TEST_SUITE_P(PeCounts, SimulatorPeSweep,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 16u, 24u,
                                           64u));

/** An input-dropout mask keeping every stride-th of the 32 inputs. */
struct DropoutCase
{
    std::size_t stride;
    dnn::DropoutPath path; //!< kernel the first dense layer takes
};

void
PrintTo(const DropoutCase &c, std::ostream *os)
{
    *os << "stride " << c.stride;
}

/** Equivalence must hold with an installed input-dropout mask. */
class SimulatorDropout : public ::testing::TestWithParam<DropoutCase>
{
};

TEST_P(SimulatorDropout, OutputBitIdenticalToReference)
{
    auto net = makeMlp();
    std::vector<std::uint8_t> mask(32, 0);
    for (std::size_t i = 0; i < mask.size(); i += GetParam().stride)
        mask[i] = 1;
    ASSERT_TRUE(net.setInputDropout(mask));
    const auto &first =
        dynamic_cast<const dnn::DenseLayer &>(net.layer(0));
    ASSERT_EQ(first.dropoutPath(), GetParam().path);

    auto input = makeInput(32);
    dnn::Tensor reference = net.forward(input);
    AcceleratorSimulator sim({8, nangate45()});
    auto result = sim.run(net, input);
    ASSERT_EQ(result.output.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i)
        EXPECT_EQ(std::bit_cast<std::uint32_t>(result.output[i]),
                  std::bit_cast<std::uint32_t>(reference[i]))
            << "output " << i;
}

// 16 of 32 inputs active stays above sparse::kCsrDensityThreshold
// (column-pruned GEMM); 4 of 32 falls below it (CSR kernel).
INSTANTIATE_TEST_SUITE_P(
    Masks, SimulatorDropout,
    ::testing::Values(DropoutCase{2, dnn::DropoutPath::Pruned},
                      DropoutCase{8, dnn::DropoutPath::Csr}),
    [](const ::testing::TestParamInfo<DropoutCase> &info) {
        return info.param.path == dnn::DropoutPath::Csr
                   ? std::string("Csr4of32")
                   : std::string("Pruned16of32");
    });

TEST(SimulatorTest, CycleCountExactForKnownShape)
{
    // One dense 8->4 with 2 PEs: ceil(4/2) = 2 passes x 8 steps.
    dnn::Network net("tiny", dnn::Shape{8});
    net.emplace<dnn::DenseLayer>(8, 4);
    Rng rng(1);
    net.initializeWeights(rng);

    AcceleratorSimulator sim({2, nangate45()});
    auto result = sim.run(net, makeInput(8));
    EXPECT_EQ(result.cycles, 16u);
    EXPECT_EQ(result.macsExecuted, 32u);
    EXPECT_DOUBLE_EQ(result.utilization, 1.0);
    EXPECT_NEAR(result.latency.inNanoseconds(), 32.0, 1e-12);
    EXPECT_NEAR(result.energy.inPicojoules(), 3.2, 1e-9);
}

TEST(SimulatorTest, UtilizationDropsWithIdlePes)
{
    // 4 output rows on 3 PEs: second pass runs 1 of 3 PEs.
    dnn::Network net("tiny", dnn::Shape{8});
    net.emplace<dnn::DenseLayer>(8, 4);
    Rng rng(1);
    net.initializeWeights(rng);

    AcceleratorSimulator sim({3, nangate45()});
    auto result = sim.run(net, makeInput(8));
    EXPECT_EQ(result.cycles, 16u);
    EXPECT_NEAR(result.utilization, 32.0 / (16.0 * 3.0), 1e-12);
}

TEST(SimulatorTest, PerLayerCyclesReported)
{
    auto net = makeMlp();
    AcceleratorSimulator sim({8, nangate45()});
    auto result = sim.run(net, makeInput(32));
    ASSERT_EQ(result.layerCycles.size(), net.layerCount());
    EXPECT_EQ(result.layerCycles[0], 3u * 32u); // ceil(24/8) passes
    EXPECT_EQ(result.layerCycles[1], 0u);       // ReLU is free
    std::uint64_t total = 0;
    for (auto c : result.layerCycles)
        total += c;
    EXPECT_EQ(total, result.cycles);
}

TEST(SimulatorTest, PerLayerHostTimeFitsInsideTheCall)
{
    auto net = makeMlp();
    AcceleratorSimulator sim({8, nangate45()});
    const auto input = makeInput(32);
    const auto start = std::chrono::steady_clock::now();
    auto result = sim.run(net, input);
    const auto wall = std::chrono::steady_clock::now() - start;
    ASSERT_EQ(result.layerHostNanos.size(), net.layerCount());
    ASSERT_EQ(result.layerHostNanos.size(), result.layerCycles.size());
    EXPECT_GT(result.layerHostNanos[0], 0u); // a 32x24 dense layer
    std::uint64_t total = 0;
    for (auto ns : result.layerHostNanos)
        total += ns;
    EXPECT_LE(total, static_cast<std::uint64_t>(
                         std::chrono::duration_cast<
                             std::chrono::nanoseconds>(wall)
                             .count()));
}

TEST(SimulatorTest, EnergyUsesTechnologyParameters)
{
    auto net = makeMlp();
    auto input = makeInput(32);
    auto slow = AcceleratorSimulator({8, nangate45()}).run(net, input);
    auto fast = AcceleratorSimulator({8, scaled12nm()}).run(net, input);
    EXPECT_EQ(slow.macsExecuted, fast.macsExecuted);
    EXPECT_GT(slow.energy.inJoules(), fast.energy.inJoules());
    EXPECT_GT(slow.latency.inSeconds(), fast.latency.inSeconds());
}

TEST(SimulatorTest, RunsTheRealSpeechMlp)
{
    // Integration: the Fig. 10 model at base scale, end to end.
    auto net = dnn::buildSpeechMlp(128);
    Rng rng(11);
    net.initializeWeights(rng);
    auto input = makeInput(dnn::elementCount(net.inputShape()));

    AcceleratorSimulator sim({64, nangate45()});
    auto result = sim.run(net, input);
    dnn::Tensor reference = net.forward(input);
    EXPECT_FLOAT_EQ(result.output.maxAbsDiff(reference), 0.0f);
    EXPECT_EQ(result.macsExecuted, net.totalMacs());
    EXPECT_GT(result.utilization, 0.5);
}

TEST(SimulatorDeathTest, ZeroPesPanics)
{
    EXPECT_DEATH(AcceleratorSimulator({0, nangate45()}),
                 "at least one MAC");
}

} // namespace
} // namespace mindful::accel
