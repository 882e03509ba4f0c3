/**
 * @file
 * Golden-equivalence tests for the im2col-GEMM forward path.
 *
 * Conv2dLayer::forward / DenseLayer::forward execute through the
 * shared GEMM kernel (src/dnn/gemm.hh); the original loop nests are
 * retained as forwardNaive. The kernel starts each output element
 * from its bias and accumulates sequentially in ascending k — the same
 * order as the naive loops — on the calling thread, so the contract
 * is *exact* float equality to the naive reference at any pool size.
 * These tests pin that contract over the padding modes, strides, and
 * kernel shapes the model zoo uses (and a few it doesn't, e.g. even
 * kernels).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "dnn/conv.hh"
#include "dnn/dense.hh"
#include "dnn/gemm.hh"
#include "exec/thread_pool.hh"
#include "obs/metrics.hh"

namespace mindful::dnn {
namespace {

/** Deterministic non-trivial input: mixed signs, no repeats. */
Tensor
makeInput(const Shape &shape)
{
    Tensor x(shape);
    Rng rng(7);
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
    return x;
}

/** Exact per-element comparison (bitwise-equal floats). */
void
expectIdentical(const Tensor &a, const Tensor &b)
{
    ASSERT_EQ(a.shape(), b.shape());
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a[i], b[i]) << "element " << i;
}

Conv2dLayer
makeConv(std::size_t in_ch, std::size_t out_ch, std::size_t kh,
         std::size_t kw, std::size_t stride, Padding padding)
{
    Conv2dLayer conv(in_ch, out_ch, kh, kw, stride, padding);
    Rng rng(11);
    conv.initializeWeights(rng);
    for (std::size_t i = 0; i < conv.biases().size(); ++i)
        conv.biases()[i] = 0.05f * static_cast<float>(i) - 0.1f;
    return conv;
}

TEST(GemmConvTest, SamePaddingMatchesNaiveExactly)
{
    auto conv = makeConv(3, 8, 3, 3, 1, Padding::Same);
    // Odd extents so the GEMM column count exercises the tail block
    // (n = 143 is not a multiple of the 16-wide register tile).
    Tensor x = makeInput({3, 13, 11});
    expectIdentical(conv.forward(x), conv.forwardNaive(x));
}

TEST(GemmConvTest, ValidPaddingMatchesNaiveExactly)
{
    auto conv = makeConv(4, 6, 3, 3, 1, Padding::Valid);
    Tensor x = makeInput({4, 12, 9});
    expectIdentical(conv.forward(x), conv.forwardNaive(x));
}

TEST(GemmConvTest, StridedSamePaddingMatchesNaiveExactly)
{
    auto conv = makeConv(2, 5, 3, 3, 2, Padding::Same);
    Tensor x = makeInput({2, 11, 17});
    expectIdentical(conv.forward(x), conv.forwardNaive(x));
}

TEST(GemmConvTest, StridedValidPaddingMatchesNaiveExactly)
{
    auto conv = makeConv(2, 4, 4, 4, 3, Padding::Valid);
    Tensor x = makeInput({2, 16, 13});
    expectIdentical(conv.forward(x), conv.forwardNaive(x));
}

TEST(GemmConvTest, EvenKernelMatchesNaiveExactly)
{
    // Even kernels make the "same" padding asymmetric ((k-1)/2 before,
    // the remainder after) — the im2col valid-span bookkeeping must
    // agree with the naive loop's bounds checks exactly.
    auto conv = makeConv(3, 4, 2, 4, 1, Padding::Same);
    Tensor x = makeInput({3, 9, 10});
    expectIdentical(conv.forward(x), conv.forwardNaive(x));
}

TEST(GemmConvTest, WideRectangularKernelMatchesNaiveExactly)
{
    // The speech front-end uses 1xN temporal kernels.
    auto conv = makeConv(2, 3, 1, 7, 1, Padding::Same);
    Tensor x = makeInput({2, 5, 40});
    expectIdentical(conv.forward(x), conv.forwardNaive(x));
}

TEST(GemmConvTest, PointwiseConvMatchesNaiveExactly)
{
    // 1x1 stride-1 takes the zero-copy path (input buffer used as the
    // patch matrix directly).
    auto conv = makeConv(6, 9, 1, 1, 1, Padding::Same);
    Tensor x = makeInput({6, 14, 10});
    expectIdentical(conv.forward(x), conv.forwardNaive(x));
}

TEST(GemmConvTest, KernelLargerThanInputSamePadding)
{
    auto conv = makeConv(1, 2, 5, 5, 1, Padding::Same);
    Tensor x = makeInput({1, 3, 3});
    expectIdentical(conv.forward(x), conv.forwardNaive(x));
}

TEST(GemmConvTest, LargeConvMatchesNaiveExactly)
{
    // m*n*k = 16 x 1024 x 72 MACs: 64 full column tiles per row.
    auto conv = makeConv(8, 16, 3, 3, 1, Padding::Same);
    Tensor x = makeInput({8, 32, 32});
    expectIdentical(conv.forward(x), conv.forwardNaive(x));
}

TEST(GemmConvTest, LargeConvHandsThePoolNoWork)
{
    // biasGemm runs inline at every size: a conv forward well past
    // 2^16 MACs hands no helper a job even with a pool of 8.
    auto conv = makeConv(8, 16, 3, 3, 1, Padding::Same);
    Tensor x = makeInput({8, 32, 32});
    ASSERT_GE(conv.census(x.shape()).totalMacs(), 1u << 16);

    auto &tasks = obs::MetricRegistry::global().counter("exec.pool.tasks");
    exec::ThreadPool::setGlobalThreadCount(8);
    const std::uint64_t before = tasks.value();
    conv.forward(x);
    const std::uint64_t handed_out = tasks.value() - before;
    exec::ThreadPool::setGlobalThreadCount(0);
    EXPECT_EQ(handed_out, 0u);
}

TEST(GemmDenseTest, MatchesNaiveExactly)
{
    DenseLayer layer(37, 29);
    Rng rng(13);
    layer.initializeWeights(rng);
    for (std::size_t i = 0; i < layer.biases().size(); ++i)
        layer.biases()[i] = 0.01f * static_cast<float>(i);
    Tensor x = makeInput({37});
    expectIdentical(layer.forward(x), layer.forwardNaive(x));
}

TEST(GemmDenseTest, WideLayerMatchesNaiveExactly)
{
    // 512 x 512 = 2^18 MACs; 512 outputs are 32 full column tiles.
    DenseLayer layer(512, 512);
    Rng rng(17);
    layer.initializeWeights(rng);
    Tensor x = makeInput({512});
    expectIdentical(layer.forward(x), layer.forwardNaive(x));
}

TEST(GemmDenseTest, RaggedTileMatchesNaiveExactly)
{
    // 770 outputs is not a multiple of the 16-column tile, so the
    // row ends on a ragged 2-column tile.
    DenseLayer layer(512, 770);
    Rng rng(17);
    layer.initializeWeights(rng);
    Tensor x = makeInput({512});
    expectIdentical(layer.forward(x), layer.forwardNaive(x));
}

TEST(GemmDenseStageTest, FusedForwardMatchesReferenceExactly)
{
    // The production DenseNet stage writes the conv's ReLU-ed output
    // directly into the concatenated tensor with the ReLU fused into
    // the GEMM epilogue; forwardReference runs the naive conv plus an
    // explicit ReLU pass. max(x, 0) on identical x is identical.
    DenseStage2dLayer stage(5, 11, 3, 3);
    Rng rng(19);
    stage.initializeWeights(rng);
    Tensor x = makeInput({5, 16, 16});
    expectIdentical(stage.forward(x), stage.forwardReference(x));
}

TEST(GemmKernelTest, EpilogueReluClampsExactly)
{
    // Direct kernel check: one row whose products straddle zero.
    // A = [1, -1], B columns = (1,0), (0,1), (2,3), and C starts at
    // the bias -0.5.
    const float a[] = {1.0f, -1.0f};
    const float b[] = {1.0f, 0.0f, 2.0f, /* k=1 row */ 0.0f, 1.0f, 3.0f};
    float none[3] = {-0.5f, -0.5f, -0.5f};
    float relu[3] = {-0.5f, -0.5f, -0.5f};
    gemm::biasGemm(1, 3, 2, a, b, none, gemm::Epilogue::None);
    gemm::biasGemm(1, 3, 2, a, b, relu, gemm::Epilogue::Relu);
    EXPECT_FLOAT_EQ(none[0], 0.5f);
    EXPECT_FLOAT_EQ(none[1], -1.5f);
    EXPECT_FLOAT_EQ(none[2], -1.5f);
    EXPECT_FLOAT_EQ(relu[0], 0.5f);
    EXPECT_FLOAT_EQ(relu[1], 0.0f);
    EXPECT_FLOAT_EQ(relu[2], 0.0f);
}

TEST(GemmKernelTest, ReluTieKeepsNegativeZero)
{
    // An accumulator of exactly -0.0 stays -0.0, since
    // std::max(acc, 0.0f) returns its first argument when neither is
    // greater. +0.0 weights against negative inputs give -0.0
    // products, so a -0.0 bias stays -0.0 (-0 + -0 = -0). Checked on
    // one ragged tile (n == 1), one full tile plus a ragged tail
    // (n == 24), and the dense shape (m == 1, n == 24).
    const std::size_t k = 8;
    using Mn = std::pair<std::size_t, std::size_t>;
    for (const auto &[m, n] : {Mn{9, 1}, Mn{9, 24}, Mn{1, 24}}) {
        const std::vector<float> zeros(m * k, 0.0f);
        const std::vector<float> inputs(k * n, -0.5f);
        std::vector<float> out(m * n, -0.0f);
        gemm::biasGemm(m, n, k, zeros.data(), inputs.data(), out.data(),
                       gemm::Epilogue::Relu);
        for (std::size_t i = 0; i < out.size(); ++i)
            EXPECT_EQ(std::bit_cast<std::uint32_t>(out[i]),
                      std::bit_cast<std::uint32_t>(-0.0f))
                << "m=" << m << " n=" << n << " element " << i;
    }
}

} // namespace
} // namespace mindful::dnn
