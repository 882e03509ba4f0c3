/**
 * @file
 * Layer-level tests: forward semantics, shapes, weight counts, and
 * lazy materialization for dense, conv, activation, pooling and
 * DenseNet-stage layers.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "dnn/activation.hh"
#include "dnn/conv.hh"
#include "dnn/dense.hh"
#include "dnn/pooling.hh"

namespace mindful::dnn {
namespace {

TEST(DenseLayerTest, ForwardComputesAffineMap)
{
    DenseLayer layer(3, 2);
    layer.materialize();
    // Wᵀ [in x out]: W = {{1, 2, 3}, {0.5, -1, 0}}.
    layer.weights() = {1.0f, 0.5f, /* Wᵀ row 1 */ 2.0f, -1.0f,
                       /* Wᵀ row 2 */ 3.0f, 0.0f};
    layer.biases() = {10.0f, -1.0f};
    Tensor x(Shape{3}, {1.0f, 2.0f, 3.0f});
    Tensor y = layer.forward(x);
    ASSERT_EQ(y.shape(), (Shape{2}));
    EXPECT_FLOAT_EQ(y[0], 10.0f + 1.0f + 4.0f + 9.0f);
    EXPECT_FLOAT_EQ(y[1], -1.0f + 0.5f - 2.0f);
}

TEST(DenseLayerTest, AcceptsAnyShapeWithMatchingElements)
{
    DenseLayer layer(6, 1);
    layer.materialize();
    Tensor x(Shape{2, 3});
    EXPECT_EQ(layer.outputShape(x.shape()), (Shape{1}));
    EXPECT_NO_THROW(layer.forward(x));
}

TEST(DenseLayerTest, WeightCountWithoutMaterialization)
{
    DenseLayer layer(512, 128);
    EXPECT_FALSE(layer.materialized());
    EXPECT_EQ(layer.weightCount(), 512u * 128u + 128u);
}

TEST(DenseLayerTest, InitializeWeightsMaterializesAndBounds)
{
    DenseLayer layer(100, 50);
    Rng rng(1);
    layer.initializeWeights(rng);
    EXPECT_TRUE(layer.materialized());
    double limit = std::sqrt(6.0 / 150.0);
    for (float w : layer.weights()) {
        EXPECT_LE(std::abs(w), limit);
    }
}

TEST(DenseLayerTest, SeededWeightsLandOnPinnedRowsAndColumns)
{
    // One-hot input c through the reference loop reads column c of W
    // exactly (bias 0, every other product 0), so this pins which
    // logical (row, col) each seeded draw lands on, whatever the
    // storage layout. Values recorded when W was stored row-major
    // [out x in].
    DenseLayer layer(3, 4);
    Rng rng(5);
    layer.initializeWeights(rng);
    const float expected[3][4] = {
        {0.320453942f, 0.325763106f, -0.685429752f, -0.519279122f},
        {-0.854541957f, -0.758493125f, 0.347699434f, -0.829596162f},
        {-0.508666754f, -0.747428596f, 0.544335544f, 0.132724136f},
    };
    for (std::size_t c = 0; c < 3; ++c) {
        Tensor x(Shape{3});
        x[c] = 1.0f;
        const Tensor y = layer.forwardNaive(x);
        for (std::size_t r = 0; r < 4; ++r)
            EXPECT_EQ(y[r], expected[c][r]) << "row " << r << " col " << c;
    }
}

TEST(DenseLayerDeathTest, ForwardWithoutWeightsPanics)
{
    DenseLayer layer(4, 2);
    Tensor x(Shape{4});
    EXPECT_DEATH(layer.forward(x), "materialized");
}

TEST(DenseLayerTest, CensusMatchesFig8)
{
    // Fig. 8 top: A(4x3): #MAC_op = 4 rows, MAC_seq = 3.
    DenseLayer layer(3, 4);
    MacCensus census = layer.census({3});
    EXPECT_EQ(census.macOp, 4u);
    EXPECT_EQ(census.macSeq, 3u);
    EXPECT_EQ(census.totalMacs(), 12u);
}

TEST(ActivationTest, ReluClampsNegatives)
{
    ReluLayer relu;
    Tensor x(Shape{4}, {-1.0f, 0.0f, 2.0f, -3.0f});
    Tensor y = relu.forward(x);
    EXPECT_FLOAT_EQ(y[0], 0.0f);
    EXPECT_FLOAT_EQ(y[1], 0.0f);
    EXPECT_FLOAT_EQ(y[2], 2.0f);
    EXPECT_FLOAT_EQ(y[3], 0.0f);
    EXPECT_TRUE(relu.census({4}).empty());
    EXPECT_EQ(relu.weightCount(), 0u);
}

TEST(ActivationTest, SigmoidRangeAndMidpoint)
{
    SigmoidLayer sigmoid;
    Tensor x(Shape{3}, {0.0f, 10.0f, -10.0f});
    Tensor y = sigmoid.forward(x);
    EXPECT_NEAR(y[0], 0.5f, 1e-6);
    EXPECT_GT(y[1], 0.999f);
    EXPECT_LT(y[2], 0.001f);
}

TEST(ActivationTest, SoftmaxNormalizesAndOrders)
{
    SoftmaxLayer softmax;
    Tensor x(Shape{3}, {1.0f, 2.0f, 3.0f});
    Tensor y = softmax.forward(x);
    float sum = y[0] + y[1] + y[2];
    EXPECT_NEAR(sum, 1.0f, 1e-6);
    EXPECT_LT(y[0], y[1]);
    EXPECT_LT(y[1], y[2]);
}

TEST(ActivationTest, SoftmaxStableForLargeInputs)
{
    SoftmaxLayer softmax;
    Tensor x(Shape{2}, {1000.0f, 1000.0f});
    Tensor y = softmax.forward(x);
    EXPECT_NEAR(y[0], 0.5f, 1e-6);
}

TEST(Conv2dTest, ValidOutputShape)
{
    Conv2dLayer conv(2, 4, 3, 3);
    EXPECT_EQ(conv.outputShape({2, 8, 8}), (Shape{4, 6, 6}));
}

TEST(Conv2dTest, SameOutputShapeWithStride)
{
    Conv2dLayer conv(1, 1, 3, 3, 2, Padding::Same);
    EXPECT_EQ(conv.outputShape({1, 9, 9}), (Shape{1, 5, 5}));
}

TEST(Conv2dTest, IdentityKernelReproducesInput)
{
    Conv2dLayer conv(1, 1, 3, 3, 1, Padding::Same);
    conv.materialize();
    conv.weights()[4] = 1.0f; // centre tap
    Tensor x(Shape{1, 4, 4});
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = static_cast<float>(i);
    Tensor y = conv.forward(x);
    EXPECT_FLOAT_EQ(y.maxAbsDiff(x), 0.0f);
}

TEST(Conv2dTest, BoxKernelComputesLocalSum)
{
    Conv2dLayer conv(1, 1, 2, 2, 1, Padding::Valid);
    conv.materialize();
    for (auto &w : conv.weights())
        w = 1.0f;
    Tensor x(Shape{1, 2, 2}, {1.0f, 2.0f, 3.0f, 4.0f});
    Tensor y = conv.forward(x);
    ASSERT_EQ(y.shape(), (Shape{1, 1, 1}));
    EXPECT_FLOAT_EQ(y[0], 10.0f);
}

TEST(Conv2dTest, MultiChannelAccumulation)
{
    Conv2dLayer conv(2, 1, 1, 1);
    conv.materialize();
    conv.weights() = {2.0f, 3.0f}; // [out0][in0], [out0][in1]
    Tensor x(Shape{2, 1, 1}, {5.0f, 7.0f});
    Tensor y = conv.forward(x);
    EXPECT_FLOAT_EQ(y[0], 10.0f + 21.0f);
}

TEST(Conv2dTest, CensusMatchesFig8Example)
{
    // Fig. 8 bottom: 2 input channels, 1 output channel, kernel 4,
    // output size 4 -> #MAC_op = 4, MAC_seq = 8.
    Conv2dLayer conv(2, 1, 1, 4, 4, Padding::Valid);
    MacCensus census = conv.census({2, 1, 16});
    EXPECT_EQ(census.macOp, 4u);
    EXPECT_EQ(census.macSeq, 8u);
    EXPECT_EQ(census.totalMacs(), 32u);
}

TEST(Conv2dTest, CensusProductEqualsTotalMacs)
{
    Conv2dLayer conv(3, 8, 3, 3, 1, Padding::Same);
    Shape input{3, 16, 10};
    MacCensus census = conv.census(input);
    Shape out = conv.outputShape(input);
    std::uint64_t expected = static_cast<std::uint64_t>(out[1]) * out[2] *
                             9u * 3u * 8u;
    EXPECT_EQ(census.totalMacs(), expected);
}

TEST(Conv2dTest, WeightCount)
{
    Conv2dLayer conv(3, 8, 3, 3);
    EXPECT_EQ(conv.weightCount(), 3u * 8u * 9u + 8u);
}

TEST(DenseStageTest, ConcatenatesInputWithNewFeatures)
{
    DenseStage2dLayer stage(2, 3, 3, 3);
    EXPECT_EQ(stage.outputShape({2, 4, 4}), (Shape{5, 4, 4}));

    Rng rng(3);
    stage.initializeWeights(rng);
    Tensor x(Shape{2, 4, 4});
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = static_cast<float>(i) * 0.1f;
    Tensor y = stage.forward(x);

    // Channels 0-1 are the untouched input.
    for (std::size_t i = 0; i < x.size(); ++i)
        EXPECT_FLOAT_EQ(y[i], x[i]);
    // New channels are ReLU outputs: non-negative.
    for (std::size_t i = x.size(); i < y.size(); ++i)
        EXPECT_GE(y[i], 0.0f);
}

TEST(DenseStageTest, CensusIsTheInnerConvolutions)
{
    DenseStage2dLayer stage(4, 2, 3, 3);
    Conv2dLayer conv(4, 2, 3, 3, 1, Padding::Same);
    Shape input{4, 8, 8};
    EXPECT_EQ(stage.census(input).totalMacs(),
              conv.census(input).totalMacs());
    EXPECT_EQ(stage.weightCount(), conv.weightCount());
}

TEST(PoolingTest, MaxPoolSelectsMaxima)
{
    Pool2dLayer pool(PoolKind::Max, 2, 2);
    Tensor x(Shape{1, 2, 4}, {1.0f, 5.0f, 2.0f, 0.0f,
                              3.0f, -1.0f, 7.0f, 2.0f});
    Tensor y = pool.forward(x);
    ASSERT_EQ(y.shape(), (Shape{1, 1, 2}));
    EXPECT_FLOAT_EQ(y[0], 5.0f);
    EXPECT_FLOAT_EQ(y[1], 7.0f);
}

TEST(PoolingTest, AvgPoolAverages)
{
    Pool2dLayer pool(PoolKind::Average, 2, 2);
    Tensor x(Shape{1, 2, 2}, {1.0f, 2.0f, 3.0f, 6.0f});
    Tensor y = pool.forward(x);
    EXPECT_FLOAT_EQ(y[0], 3.0f);
}

TEST(PoolingTest, FloorSemanticsDropPartialWindows)
{
    Pool2dLayer pool(PoolKind::Max, 2, 2);
    EXPECT_EQ(pool.outputShape({3, 5, 7}), (Shape{3, 2, 3}));
}

TEST(PoolingTest, GlobalAvgPool)
{
    GlobalAvgPoolLayer pool;
    Tensor x(Shape{2, 2, 2}, {1, 1, 1, 1, 2, 4, 6, 8});
    Tensor y = pool.forward(x);
    ASSERT_EQ(y.shape(), (Shape{2}));
    EXPECT_FLOAT_EQ(y[0], 1.0f);
    EXPECT_FLOAT_EQ(y[1], 5.0f);
}

TEST(PoolingTest, FlattenKeepsDataOrder)
{
    FlattenLayer flatten;
    Tensor x(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
    Tensor y = flatten.forward(x);
    ASSERT_EQ(y.shape(), (Shape{6}));
    EXPECT_FLOAT_EQ(y[3], 4.0f);
}

TEST(PoolingTest, PoolingLayersAreMacFree)
{
    Pool2dLayer pool(PoolKind::Max, 2, 2);
    GlobalAvgPoolLayer global;
    FlattenLayer flatten;
    EXPECT_TRUE(pool.census({1, 4, 4}).empty());
    EXPECT_TRUE(global.census({1, 4, 4}).empty());
    EXPECT_TRUE(flatten.census({1, 4, 4}).empty());
}

} // namespace
} // namespace mindful::dnn
