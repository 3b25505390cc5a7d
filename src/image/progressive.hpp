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
              std::uint64_t ordinal, T value)
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
 * Precomputed tree-sweep plan: the sample coordinates of every ordinal
 * (8 bytes per sample), plus small per-level and per-axis tables, so
 * that sweeps that re-run (e.g., a diffusive apply stage re-triggered
 * per input version) pay table lookups instead of recomputing the
 * bit-reverse mapping per pixel per sweep. Built by one
 * O(1)-per-sample TreeSchedule::walk over the padded domain; no
 * permutation table is materialized.
 *
 * Two ways to draw samples onto an image:
 *
 *  - fill(): the specification. Splatting samples 0..e-1 in ordinal
 *    order, each over its own level's block, gives the progressive
 *    image after e samples.
 *  - fillRegion(): the same image, written in disjoint pieces. Padded
 *    ordinals visit levels in increasing order, so once samples [0, e)
 *    are visited every level below the level Lc of sample e-1 is
 *    complete. Every pixel then shows the sample its level-Lc block
 *    starts at if that sample is visited, else the sample its
 *    level-(Lc-1) block starts at. So sample s shows, at e, on its level-Lc
 *    block plus — when s's level is below Lc — the level-Lc block of
 *    its not-yet-visited sibling (padded ordinal pad(s) | 2^(Lc-1),
 *    one level-Lc block further along the dimension level Lc splits).
 *    These regions are disjoint, and writing the regions of a window
 *    [b, e) in any order onto the image at b gives the image at e.
 */
class TreeSweepPlan
{
  public:
    /** Build the plan for a tree sweep over (height, width). */
    TreeSweepPlan(std::uint64_t height, std::uint64_t width)
        : schedule(checkedExtents(height, width))
    {
        const std::size_t n = static_cast<std::size_t>(schedule.size());
        xs.resize(n);
        ys.resize(n);
        // levelStart[L]: the first sample whose level is at least L;
        // the trailing entry (past the last level) is n.
        levelStart.assign(schedule.levels() + 2, n);
        std::size_t k = 0;
        unsigned next = 0;
        schedule.walk([&](const std::uint64_t *coords, const std::uint64_t *,
                          std::uint64_t padded) {
            for (const unsigned level = TreeSchedule::levelOf(padded);
                 next <= level; ++next)
                levelStart[next] = k;
            ys[k] = static_cast<std::uint32_t>(coords[0]);
            xs[k] = static_cast<std::uint32_t>(coords[1]);
            ++k;
        });
        panicIf(k != n, "TreeSweepPlan: walk visited ", k,
                " samples, expected ", n);
        paddedRow.resize(static_cast<std::size_t>(height));
        paddedColumn.resize(static_cast<std::size_t>(width));
        for (std::uint64_t y = 0; y < height; ++y) {
            const std::uint64_t coords[2] = {y, 0};
            paddedRow[y] = schedule.paddedOf(coords);
        }
        for (std::uint64_t x = 0; x < width; ++x) {
            const std::uint64_t coords[2] = {0, x};
            paddedColumn[x] = schedule.paddedOf(coords);
        }
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
    fill(Image<T> &out, std::size_t i, T value) const
    {
        const unsigned level = levelOf(i);
        splat(out, xs[i], ys[i],
              static_cast<std::size_t>(schedule.blockExtent(level, 1)),
              static_cast<std::size_t>(schedule.blockExtent(level, 0)),
              value);
    }

    /** Region geometry shared by every sample once samples [0, e) are
     *  visited (see the class comment); depends on e only. */
    struct Regions
    {
        /** Level-Lc block extents. */
        std::size_t blockW = 0;
        std::size_t blockH = 0;
        /** Samples before this ordinal have a level below Lc. */
        std::size_t below = 0;
        /** Offset from a below-Lc sample to its level-Lc sibling. */
        std::size_t siblingDx = 0;
        std::size_t siblingDy = 0;
        /** The bit a sibling adds to the padded ordinal: 2^(Lc-1). */
        std::uint64_t siblingBit = 0;
        /** Padded ordinal of sample e-1. */
        std::uint64_t lastPadded = 0;
    };

    /** The regions of every sample in [0, @p end), 0 < end <= size(). */
    Regions
    regionsAt(std::size_t end) const
    {
        panicIf(end == 0 || end > size(), "TreeSweepPlan: region end ", end,
                " out of range ", size());
        const unsigned level = levelOf(end - 1);
        Regions regions;
        regions.blockW = static_cast<std::size_t>(schedule.blockExtent(level, 1));
        regions.blockH = static_cast<std::size_t>(schedule.blockExtent(level, 0));
        regions.below = levelStart[level];
        if (level > 0) {
            const unsigned dim = schedule.splitDim(level);
            const auto offset =
                static_cast<std::size_t>(schedule.blockExtent(level, dim));
            (dim == 0 ? regions.siblingDy : regions.siblingDx) = offset;
            regions.siblingBit = std::uint64_t(1) << (level - 1);
            regions.lastPadded = paddedOf(end - 1);
        }
        return regions;
    }

    /**
     * Write @p value, sample @p i's value, over the region it shows on
     * once the samples up to @p regions' end are visited.
     */
    template <typename T>
    void
    fillRegion(Image<T> &out, const Regions &regions, std::size_t i,
               T value) const
    {
        splat(out, xs[i], ys[i], regions.blockW, regions.blockH, value);
        if (i >= regions.below)
            return;
        const std::size_t sx = xs[i] + regions.siblingDx;
        const std::size_t sy = ys[i] + regions.siblingDy;
        if (sx < out.width() && sy < out.height() &&
            (paddedOf(i) | regions.siblingBit) > regions.lastPadded)
            splat(out, sx, sy, regions.blockW, regions.blockH, value);
    }

  private:
    static std::vector<std::uint64_t>
    checkedExtents(std::uint64_t height, std::uint64_t width)
    {
        fatalIf(width >= (std::uint64_t(1) << 32) ||
                    height >= (std::uint64_t(1) << 32),
                "TreeSweepPlan: extent too large");
        return {height, width};
    }

    /** Level of sample @p i (TreeSchedule::levelOf of its padded
     *  ordinal), from the per-level start table. */
    unsigned
    levelOf(std::size_t i) const
    {
        return static_cast<unsigned>(
            std::upper_bound(levelStart.begin(), levelStart.end(), i) -
            levelStart.begin() - 1);
    }

    /** Padded ordinal of sample @p i. */
    std::uint64_t
    paddedOf(std::size_t i) const
    {
        return paddedRow[ys[i]] | paddedColumn[xs[i]];
    }

    /** Set the w x h block at (x0, y0), clipped to the image. */
    template <typename T>
    static void
    splat(Image<T> &out, std::size_t x0, std::size_t y0, std::size_t w,
          std::size_t h, T value)
    {
        const std::size_t x_end = std::min(out.width(), x0 + w);
        const std::size_t y_end = std::min(out.height(), y0 + h);
        const std::size_t stride = out.width();
        const std::size_t n = x_end - x0;
        T *row = out.data().data() + y0 * stride + x0;
        if (n <= 8) {
            // Most blocks are a few pixels wide: plain stores beat a
            // fill call per row.
            for (std::size_t yy = y0; yy < y_end; ++yy, row += stride)
                for (std::size_t k = 0; k < n; ++k)
                    row[k] = value;
            return;
        }
        for (std::size_t yy = y0; yy < y_end; ++yy, row += stride)
            std::fill_n(row, n, value);
    }

    TreeSchedule schedule;
    std::vector<std::uint32_t> xs, ys;
    std::vector<std::size_t> levelStart;
    /** The padded-ordinal bits of each row and each column: the
     *  schedule sends every coordinate bit to its own ordinal bit, so
     *  pad(x, y) = paddedRow[y] | paddedColumn[x]. */
    std::vector<std::uint64_t> paddedRow, paddedColumn;
};

} // namespace anytime

#endif // ANYTIME_IMAGE_PROGRESSIVE_HPP
