/**
 * @file
 * im2col packing and cache-blocked GEMM for the DNN forward path.
 *
 * The paper's feasibility studies (Figs. 8-10) are validated by
 * actually executing the speech decoders, so the forward path is a
 * measured hot loop, not an analytical model. Conv2dLayer and
 * DenseLayer both lower onto the single kernel here:
 *
 *     C[m][n] = epilogue(C[m][n] + sum_k A[m][k] * B[k][n])
 *
 * where C holds the bias on entry. A convolution passes its weights
 * as A (one row per output channel) and the im2col patch matrix as B,
 * with each C row filled with that channel's bias. A dense layer is
 * the m = 1 row: A is the input vector, B its stored Wᵀ [in x out],
 * and C a copy of the bias vector.
 *
 * Determinism contract (docs/performance.md): every output element
 * starts from its bias and accumulates its k products **sequentially
 * in ascending k order** into one scalar, exactly like the retained
 * naive loops, and work is sharded over whole kColBlock column tiles
 * only — no cross-shard reduction exists. The result is therefore
 * bit-identical to the naive reference and across any `--threads`
 * value. Cache blocking happens in the n direction (register tiles of
 * kColBlock columns walk B rows contiguously), which reorders
 * nothing.
 */

#ifndef MINDFUL_DNN_GEMM_HH
#define MINDFUL_DNN_GEMM_HH

#include <cstddef>
#include <cstdint>

#include "dnn/tensor.hh"

namespace mindful::dnn::gemm {

/** Element-wise transform fused into the GEMM output store. */
enum class Epilogue : std::uint8_t {
    None, //!< store the biased accumulation as-is
    Relu  //!< store max(acc, 0) — the DenseNet composite function
};

/**
 * Register-tile width of the blocked kernel, and the unit of its
 * sharding: one row of C is produced kColBlock columns at a time, with
 * the k loop innermost over a contiguous B row segment. 16 floats =
 * one 64-byte cache line.
 */
inline constexpr std::size_t kColBlock = 16;

/**
 * C = epilogue(C + A * B), all matrices row-major and contiguous: A is
 * m x k, B is k x n, C is m x n and holds the bias on entry. Shards
 * column tiles over exec::parallelFor once the MAC count is large
 * enough to pay for the dispatch (smaller problems run inline; the
 * result is identical either way); records dnn.gemm.* metrics.
 */
void biasGemm(std::size_t m, std::size_t n, std::size_t k,
              const float *a, const float *b, float *c,
              Epilogue epilogue = Epilogue::None);

/**
 * Number of rows (the k extent) of the im2col patch matrix for a
 * convolution with the given input-channel count and kernel size.
 */
std::size_t im2colRows(std::size_t in_channels, std::size_t kernel_h,
                       std::size_t kernel_w);

/**
 * Pack a (channels, height, width) input into the im2col patch matrix
 * @p patches of shape [in_ch * kh * kw] x [out_h * out_w] (row-major,
 * caller-allocated): row (ic*kh + ky)*kw + kx, column oy*out_w + ox
 * holds input[ic][oy*stride + ky - pad_h][ox*stride + kx - pad_w],
 * or 0 where that index falls outside the input (zero padding). Row
 * order matches Conv2dLayer's [oc][ic][kh][kw] weight layout, so the
 * weight buffer is usable as the GEMM A matrix unchanged.
 *
 * Boundary handling is hoisted out of the inner loop: each patch row
 * is a zero head, a contiguous/strided copy of the valid span, and a
 * zero tail.
 */
void im2col(const Tensor &input, std::size_t kernel_h,
            std::size_t kernel_w, std::size_t stride,
            std::size_t pad_h, std::size_t pad_w, std::size_t out_h,
            std::size_t out_w, float *patches);

} // namespace mindful::dnn::gemm

#endif // MINDFUL_DNN_GEMM_HH
