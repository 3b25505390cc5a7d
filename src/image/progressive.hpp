/**
 * @file
 * Progressive block-fill reconstruction for tree-sampled images.
 *
 * Output sampling with a 2-D tree permutation (paper Figure 5) computes
 * pixels at progressively increasing resolution. To make every
 * intermediate version a complete image of the *whole* output — the
 * early-availability property the paper's sample outputs exhibit — each
 * computed pixel is splatted over the block it currently represents;
 * later, finer samples overwrite their sub-blocks until every pixel
 * holds its own computed value (at which point the image is precise).
 */

#ifndef ANYTIME_IMAGE_PROGRESSIVE_HPP
#define ANYTIME_IMAGE_PROGRESSIVE_HPP

#include <algorithm>
#include <cstdint>
#include <vector>

#include "image/image.hpp"
#include "sampling/tree_permutation.hpp"
#include "support/error.hpp"

namespace anytime {

/**
 * Pixel coordinates of tree-permutation sample @p ordinal for a
 * permutation built over (height, width).
 */
inline std::pair<std::size_t, std::size_t>
treeSampleCoords(const TreePermutation &perm, std::uint64_t ordinal,
                 std::size_t width)
{
    const std::uint64_t flat = perm.map(ordinal);
    return {static_cast<std::size_t>(flat % width),
            static_cast<std::size_t>(flat / width)};
}

/**
 * Splat @p value over the unrefined block represented by tree sample
 * @p ordinal, clipped to the image bounds.
 *
 * @tparam T    Pixel type.
 * @param out   Destination image.
 * @param perm  Tree permutation built as TreePermutation({height, width}).
 * @param ordinal Sample ordinal in [0, perm.size()).
 * @param value The computed pixel value.
 */
template <typename T>
void
fillTreeBlock(Image<T> &out, const TreePermutation &perm,
              std::uint64_t ordinal, const T &value)
{
    const auto [x, y] = treeSampleCoords(perm, ordinal, out.width());
    const std::size_t block_h =
        static_cast<std::size_t>(perm.blockExtent(ordinal, 0));
    const std::size_t block_w =
        static_cast<std::size_t>(perm.blockExtent(ordinal, 1));
    const std::size_t x_end = std::min(out.width(), x + block_w);
    const std::size_t y_end = std::min(out.height(), y + block_h);
    for (std::size_t yy = y; yy < y_end; ++yy) {
        for (std::size_t xx = x; xx < x_end; ++xx)
            out.at(xx, yy) = value;
    }
}

/**
 * Precomputed tree-sweep plan: the sample coordinates and block
 * geometry of every ordinal, materialized once so that sweeps that
 * re-run (e.g., a diffusive apply stage re-triggered per input version)
 * pay table lookups instead of recomputing the bit-reverse mapping per
 * pixel per sweep. Built by one O(1)-per-sample TreeSchedule::walk over
 * the padded domain; no permutation table is materialized.
 */
class TreeSweepPlan
{
  public:
    /** Build the plan for a tree sweep over (height, width). */
    TreeSweepPlan(std::uint64_t height, std::uint64_t width)
    {
        fatalIf(width >= (std::uint64_t(1) << 32) ||
                    height >= (std::uint64_t(1) << 32),
                "TreeSweepPlan: extent too large");
        const TreeSchedule schedule({height, width});
        const std::size_t n = static_cast<std::size_t>(schedule.size());
        xs.resize(n);
        ys.resize(n);
        bw.resize(n);
        bh.resize(n);
        std::size_t k = 0;
        schedule.walk([&](const std::uint64_t *coords,
                          const std::uint64_t *block, std::uint64_t) {
            ys[k] = static_cast<std::uint32_t>(coords[0]);
            xs[k] = static_cast<std::uint32_t>(coords[1]);
            bh[k] = static_cast<std::uint32_t>(block[0]);
            bw[k] = static_cast<std::uint32_t>(block[1]);
            ++k;
        });
        panicIf(k != n, "TreeSweepPlan: walk visited ", k,
                " samples, expected ", n);
    }

    /** Build the plan for a permutation over (height, width). */
    explicit TreeSweepPlan(const TreePermutation &perm)
        : TreeSweepPlan(perm.dims()[0], perm.dims()[1])
    {
    }

    /** Number of samples in the sweep. */
    std::size_t size() const { return xs.size(); }

    /** Sample coordinates of ordinal @p i. */
    std::uint32_t x(std::size_t i) const { return xs[i]; }
    std::uint32_t y(std::size_t i) const { return ys[i]; }

    /** Splat @p value over ordinal @p i's block, clipped. */
    template <typename T>
    void
    fill(Image<T> &out, std::size_t i, const T &value) const
    {
        const std::size_t x0 = xs[i];
        const std::size_t y0 = ys[i];
        const std::size_t x_end = std::min(out.width(), x0 + bw[i]);
        const std::size_t y_end = std::min(out.height(), y0 + bh[i]);
        T *data = out.data().data();
        for (std::size_t yy = y0; yy < y_end; ++yy) {
            T *row = data + yy * out.width();
            for (std::size_t xx = x0; xx < x_end; ++xx)
                row[xx] = value;
        }
    }

  private:
    std::vector<std::uint32_t> xs, ys, bw, bh;
};

} // namespace anytime

#endif // ANYTIME_IMAGE_PROGRESSIVE_HPP
