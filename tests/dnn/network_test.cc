/**
 * @file
 * Network container and MAC-census aggregation tests.
 */

#include <gtest/gtest.h>

#include "dnn/activation.hh"
#include "dnn/dense.hh"
#include "dnn/network.hh"
#include "dnn/pooling.hh"

namespace mindful::dnn {
namespace {

Network
smallMlp()
{
    Network net("test-mlp", Shape{8});
    net.emplace<DenseLayer>(8, 4);
    net.emplace<ReluLayer>();
    net.emplace<DenseLayer>(4, 2);
    net.emplace<SoftmaxLayer>();
    return net;
}

TEST(NetworkTest, ShapesTrackedPerLayer)
{
    Network net = smallMlp();
    EXPECT_EQ(net.layerCount(), 4u);
    EXPECT_EQ(net.inputShape(), (Shape{8}));
    EXPECT_EQ(net.shapeBefore(0), (Shape{8}));
    EXPECT_EQ(net.shapeAfter(0), (Shape{4}));
    EXPECT_EQ(net.shapeAfter(1), (Shape{4}));
    EXPECT_EQ(net.outputShape(), (Shape{2}));
    EXPECT_EQ(net.outputElements(2), 2u);
}

TEST(NetworkTest, CensusPerLayer)
{
    Network net = smallMlp();
    auto census = net.census();
    ASSERT_EQ(census.size(), 4u);
    EXPECT_EQ(census[0].totalMacs(), 32u);
    EXPECT_TRUE(census[1].empty());
    EXPECT_EQ(census[2].totalMacs(), 8u);
    EXPECT_EQ(net.totalMacs(), 40u);
    EXPECT_EQ(maxMacOp(census), 4u);
    EXPECT_EQ(totalMacs(census), 40u);
}

TEST(MacCensusTest, TotalMacsSaturatesInsteadOfWrapping)
{
    // 2^40 * 2^30 would wrap to exactly 0 in 64-bit arithmetic and
    // silently make the layer "free" (a bug the failure-injection
    // suite caught); it must saturate instead.
    MacCensus huge{1ull << 40, 1ull << 30};
    EXPECT_EQ(huge.totalMacs(), UINT64_MAX);
    EXPECT_FALSE(huge.empty());
    EXPECT_TRUE((MacCensus{0, 5}).empty());
    EXPECT_TRUE((MacCensus{5, 0}).empty());
}

TEST(MacCensusTest, StepsAreCeilPassesTimesSequence)
{
    // Eq. 11: ceil(#MAC_op / units) passes of MAC_seq steps each.
    EXPECT_EQ((MacCensus{24, 32}).steps(8), 3u * 32u);
    EXPECT_EQ((MacCensus{24, 32}).steps(5), 5u * 32u);
    EXPECT_EQ((MacCensus{24, 32}).steps(64), 32u);
    EXPECT_EQ((MacCensus{0, 5}).steps(4), 0u);
    EXPECT_EQ((MacCensus{5, 0}).steps(4), 0u);
    MacCensus huge{1ull << 40, 1ull << 30};
    EXPECT_EQ(huge.steps(1), UINT64_MAX);
    EXPECT_EQ(huge.steps(1ull << 40), 1ull << 30);
}

TEST(NetworkTest, CensusPrefixSumsToFullCensus)
{
    Network net = smallMlp();
    auto prefix = net.censusPrefix(2);
    EXPECT_EQ(prefix.size(), 2u);
    EXPECT_EQ(totalMacs(prefix), 32u);
    EXPECT_EQ(totalMacs(net.censusPrefix(0)), 0u);
}

TEST(NetworkTest, TotalWeights)
{
    Network net = smallMlp();
    EXPECT_EQ(net.totalWeights(), (8u * 4 + 4) + (4u * 2 + 2));
}

TEST(NetworkTest, ForwardRunsAllLayers)
{
    Network net = smallMlp();
    Rng rng(5);
    net.initializeWeights(rng);
    Tensor x(Shape{8}, {1, -1, 2, -2, 3, -3, 4, -4});
    Tensor y = net.forward(x);
    ASSERT_EQ(y.shape(), (Shape{2}));
    EXPECT_NEAR(y[0] + y[1], 1.0f, 1e-6); // softmax output
}

TEST(NetworkTest, ForwardPrefixStopsEarly)
{
    Network net = smallMlp();
    Rng rng(5);
    net.initializeWeights(rng);
    Tensor x(Shape{8}, {1, -1, 2, -2, 3, -3, 4, -4});
    Tensor mid = net.forwardPrefix(x, 2);
    ASSERT_EQ(mid.shape(), (Shape{4}));
    for (std::size_t i = 0; i < mid.size(); ++i)
        EXPECT_GE(mid[i], 0.0f); // post-ReLU
    // Prefix of zero layers is the input itself.
    EXPECT_FLOAT_EQ(net.forwardPrefix(x, 0).maxAbsDiff(x), 0.0f);
}

TEST(NetworkTest, SummaryMentionsLayersAndTotals)
{
    Network net = smallMlp();
    std::string summary = net.summary();
    EXPECT_NE(summary.find("dense 8->4"), std::string::npos);
    EXPECT_NE(summary.find("total MACs 40"), std::string::npos);
}

TEST(NetworkTest, MixedRankPipeline)
{
    Network net("conv-net", Shape{1, 8, 8});
    net.emplace<Pool2dLayer>(PoolKind::Max, 2, 2);
    net.emplace<FlattenLayer>();
    net.emplace<DenseLayer>(16, 3);
    EXPECT_EQ(net.outputShape(), (Shape{3}));
    EXPECT_EQ(net.totalMacs(), 48u);
}

TEST(NetworkDeathTest, IncompatibleLayerPanics)
{
    Network net("bad", Shape{8});
    EXPECT_DEATH(net.emplace<DenseLayer>(9, 4), "expects 9 inputs");
}

TEST(NetworkDeathTest, WrongInputShapePanics)
{
    Network net = smallMlp();
    Rng rng(5);
    net.initializeWeights(rng);
    Tensor wrong(Shape{4});
    EXPECT_DEATH(net.forward(wrong), "input shape");
}

} // namespace
} // namespace mindful::dnn
