/**
 * @file
 * MAC census: the f_MAC decomposition of Eq. 10 / Fig. 8.
 *
 * Every DNN layer decomposes into #MAC_op independent
 * multiply-accumulate sequences, each MAC_seq accumulation steps
 * long. The paper's examples (Fig. 8):
 *
 *  - matrix-vector (dense) layer W[out x in] * x: #MAC_op = out rows,
 *    MAC_seq = in accumulations per row;
 *  - convolution: #MAC_op = input spatial size / kernel size,
 *    MAC_seq = output size * number of kernels.
 *
 * In both cases #MAC_op * MAC_seq equals the layer's total MAC count,
 * which is the invariant this struct maintains.
 */

#ifndef MINDFUL_DNN_MAC_CENSUS_HH
#define MINDFUL_DNN_MAC_CENSUS_HH

#include <cstdint>
#include <vector>

#include "base/special_math.hh"

namespace mindful::dnn {

/** Per-layer MAC decomposition. */
struct MacCensus
{
    /** Number of independent (parallelizable) MAC sequences. */
    std::uint64_t macOp = 0;

    /** Accumulation steps per sequence. */
    std::uint64_t macSeq = 0;

    /** Total multiply-accumulate operations in the layer; saturates
     *  at UINT64_MAX rather than wrapping on absurd inputs. */
    std::uint64_t
    totalMacs() const
    {
        if (macOp != 0 && macSeq > UINT64_MAX / macOp)
            return UINT64_MAX;
        return macOp * macSeq;
    }

    /**
     * PE time-steps on @p units MAC units (Eq. 11): ceil(#MAC_op /
     * units) passes of MAC_seq accumulations each. Zero for a MAC-free
     * layer; saturates like totalMacs().
     */
    std::uint64_t
    steps(std::uint64_t units) const
    {
        const std::uint64_t passes = ceilDiv(macOp, units);
        if (passes != 0 && macSeq > UINT64_MAX / passes)
            return UINT64_MAX;
        return passes * macSeq;
    }

    /** True for layers that perform no MACs (ReLU, pooling, ...). */
    bool
    empty() const
    {
        return macOp == 0 || macSeq == 0;
    }
};

/** Sum of total MACs over a census list. */
std::uint64_t totalMacs(const std::vector<MacCensus> &census);

/** Largest #MAC_op over a census list (the Eq. 12 cap). */
std::uint64_t maxMacOp(const std::vector<MacCensus> &census);

} // namespace mindful::dnn

#endif // MINDFUL_DNN_MAC_CENSUS_HH
