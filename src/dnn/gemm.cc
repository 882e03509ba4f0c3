#include "dnn/gemm.hh"

#include <algorithm>
#include <cstring>

#include "base/logging.hh"
#include "exec/parallel.hh"
#include "obs/collector.hh"
#include "obs/metrics.hh"

namespace mindful::dnn::gemm {
namespace {

/**
 * Minimum m * n * k product before biasGemm ships column-tile shards
 * to the process-wide pool; smaller problems run inline (pool dispatch
 * would cost more than the arithmetic). Results are identical either
 * way.
 */
constexpr std::uint64_t kParallelMacThreshold = 1u << 16;

/**
 * One register tile: C columns [0, width) of one row, width <=
 * kColBlock. The accumulators start from C's current value (the
 * caller's bias) and the k loop runs innermost over a contiguous
 * segment of each B row, so B streams through cache line by line while
 * each output element still accumulates in ascending k order into a
 * single scalar — the bit-exactness guarantee. The start is a memcpy
 * because gcc 12 at -O3 then keeps a full tile as four 4-wide vector
 * chains; an element-wise load loop left it half scalar and ~40 %
 * slower on the DN-CNN conv shapes.
 */
template <bool Relu>
inline void
accumulateTile(std::size_t width, std::size_t n, std::size_t k,
               const float *arow, const float *bcol, float *out)
{
    float acc[kColBlock];
    std::memcpy(acc, out, width * sizeof(float));
    for (std::size_t kk = 0; kk < k; ++kk) {
        const float av = arow[kk];
        const float *brow = bcol + kk * n;
        for (std::size_t j = 0; j < width; ++j)
            acc[j] += av * brow[j];
    }
    for (std::size_t j = 0; j < width; ++j)
        out[j] = Relu ? std::max(acc[j], 0.0f) : acc[j];
}

/**
 * Produce C columns [col_begin, col_end) of every row as kColBlock-wide
 * tiles; only a range ending at n can end on a ragged tile. The full
 * tiles pass the width as a constant so their j loops vectorise.
 */
template <bool Relu>
void
gemmColRange(std::size_t m, std::size_t n, std::size_t k, const float *a,
             const float *b, float *c, std::size_t col_begin,
             std::size_t col_end)
{
    for (std::size_t row = 0; row < m; ++row) {
        const float *arow = a + row * k;
        float *crow = c + row * n;
        std::size_t col = col_begin;
        for (; col + kColBlock <= col_end; col += kColBlock)
            accumulateTile<Relu>(kColBlock, n, k, arow, b + col,
                                 crow + col);
        if (col < col_end)
            accumulateTile<Relu>(col_end - col, n, k, arow, b + col,
                                 crow + col);
    }
}

} // namespace

void
biasGemm(std::size_t m, std::size_t n, std::size_t k, const float *a,
         const float *b, float *c, Epilogue epilogue)
{
    MINDFUL_ASSERT(m > 0 && n > 0 && k > 0,
                   "gemm dimensions must be positive");
    MINDFUL_ASSERT(a != nullptr && b != nullptr && c != nullptr,
                   "gemm buffers must be non-null");

    const std::uint64_t macs =
        static_cast<std::uint64_t>(m) * n * k;
    MINDFUL_CALL_SPAN(span, "dnn", "gemm");
    span.setArg(macs);

    const bool relu = epilogue == Epilogue::Relu;
    auto run = [&](std::size_t col_begin, std::size_t col_end) {
        if (relu)
            gemmColRange<true>(m, n, k, a, b, c, col_begin, col_end);
        else
            gemmColRange<false>(m, n, k, a, b, c, col_begin, col_end);
    };

    // Shard over whole kColBlock column tiles only: no shard touches
    // another shard's C columns and there is no cross-shard reduction,
    // so the decomposition (and the thread count) cannot affect the
    // result.
    const std::size_t tiles = (n + kColBlock - 1) / kColBlock;
    std::size_t shards = 1;
    if (macs >= kParallelMacThreshold)
        shards = std::min<std::size_t>(exec::kDefaultShards, tiles);
    if (shards <= 1) {
        run(0, n);
    } else {
        // The shard site is interned once outside the body; recording
        // a HotSpan is lock- and allocation-free, and mindful-analyze
        // certifies it, so this needs no suppression.
        static const obs::TraceSite shard_site =
            obs::TraceCollector::global().site("dnn", "gemm.shard");
        exec::parallelFor(
            shards,
            [&](std::size_t shard) {
                obs::HotSpan shard_span(shard_site);
                auto range = exec::shardRange(tiles, shards, shard);
                const std::size_t col_begin = range.begin * kColBlock;
                const std::size_t col_end =
                    std::min<std::size_t>(range.end * kColBlock, n);
                shard_span.setArg(col_end - col_begin);
                run(col_begin, col_end);
            });
    }

    auto &registry = obs::MetricRegistry::global();
    if (registry.enabled()) {
        registry.counter("dnn.gemm.calls").add(1);
        registry.counter("dnn.gemm.macs").add(macs);
    }
}

std::size_t
im2colRows(std::size_t in_channels, std::size_t kernel_h,
           std::size_t kernel_w)
{
    return in_channels * kernel_h * kernel_w;
}

void
im2col(const Tensor &input, std::size_t kernel_h, std::size_t kernel_w,
       std::size_t stride, std::size_t pad_h, std::size_t pad_w,
       std::size_t out_h, std::size_t out_w, float *patches)
{
    MINDFUL_ASSERT(input.rank() == 3, "im2col expects a rank-3 input");
    MINDFUL_ASSERT(stride > 0, "im2col stride must be positive");
    MINDFUL_ASSERT(patches != nullptr, "im2col patch buffer is null");

    const std::size_t channels = input.dim(0);
    const std::size_t in_h = input.dim(1);
    const std::size_t in_w = input.dim(2);
    const std::size_t n = out_h * out_w;
    const auto in_h_pd = static_cast<std::ptrdiff_t>(in_h);

    float *prow = patches;
    for (std::size_t ic = 0; ic < channels; ++ic) {
        for (std::size_t ky = 0; ky < kernel_h; ++ky) {
            for (std::size_t kx = 0; kx < kernel_w; ++kx, prow += n) {
                // This tap reads ix = ox*stride + shift; hoist the
                // valid ox span so the per-row work is zero-head,
                // contiguous (or strided) copy, zero-tail.
                const std::ptrdiff_t shift =
                    static_cast<std::ptrdiff_t>(kx) -
                    static_cast<std::ptrdiff_t>(pad_w);
                std::size_t ox_lo = 0;
                if (shift < 0)
                    ox_lo = (static_cast<std::size_t>(-shift) + stride -
                             1) /
                            stride;
                std::size_t ox_hi = 0;
                const std::ptrdiff_t lim =
                    static_cast<std::ptrdiff_t>(in_w) - shift;
                if (lim > 0)
                    ox_hi = std::min<std::size_t>(
                        out_w,
                        static_cast<std::size_t>(lim - 1) / stride + 1);
                ox_lo = std::min(ox_lo, ox_hi);

                for (std::size_t oy = 0; oy < out_h; ++oy) {
                    float *dst = prow + oy * out_w;
                    const std::ptrdiff_t iy =
                        static_cast<std::ptrdiff_t>(oy * stride + ky) -
                        static_cast<std::ptrdiff_t>(pad_h);
                    if (iy < 0 || iy >= in_h_pd || ox_lo >= ox_hi) {
                        std::fill(dst, dst + out_w, 0.0f);
                        continue;
                    }
                    const float *src = input.rowData(
                        ic, static_cast<std::size_t>(iy));
                    std::fill(dst, dst + ox_lo, 0.0f);
                    if (stride == 1) {
                        std::copy(src + static_cast<std::ptrdiff_t>(
                                            ox_lo) +
                                      shift,
                                  src + static_cast<std::ptrdiff_t>(
                                            ox_hi) +
                                      shift,
                                  dst + ox_lo);
                    } else {
                        for (std::size_t ox = ox_lo; ox < ox_hi; ++ox)
                            dst[ox] = src[static_cast<std::ptrdiff_t>(
                                              ox * stride) +
                                          shift];
                    }
                    std::fill(dst + ox_hi, dst + out_w, 0.0f);
                }
            }
        }
    }
}

} // namespace mindful::dnn::gemm
