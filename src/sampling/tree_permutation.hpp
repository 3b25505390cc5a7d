/**
 * @file
 * N-dimensional tree (bit-reverse) sampling permutation.
 *
 * Paper Section III-B2, Figures 4 and 5. The data set is visited at
 * progressively increasing resolution: for a 2-D image, after 4 samples
 * a 2x2 grid has been visited, after 16 samples a 4x4 grid, and so on.
 * The permutation de-interleaves the bits of the set index into one
 * sub-index per dimension and reverses each sub-index.
 *
 * Arbitrary (non-power-of-two) extents are supported by walking the
 * padded power-of-two domain and skipping out-of-range coordinates; in
 * that case the forward table is precomputed at construction. When every
 * extent is a power of two, map() is computed in closed form with no
 * table.
 *
 * The walk (TreeSchedule::walk) is incremental: from ordinal i-1 to i
 * exactly the low ctz(i)+1 ordinal bits flip, so each coordinate moves
 * by a fixed XOR mask and every step costs O(1). It is the one place
 * that enumerates samples in order; the permutation's forward table and
 * the image sweep plan (image/progressive.hpp) are both built from it.
 */

#ifndef ANYTIME_SAMPLING_TREE_PERMUTATION_HPP
#define ANYTIME_SAMPLING_TREE_PERMUTATION_HPP

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sampling/permutation.hpp"

namespace anytime {

/**
 * Bit-assignment schedule of the tree permutation over given extents.
 *
 * Ordinal bit j lands in dimension schedDim[j] at bit position
 * schedBit[j]: bits are dealt round-robin starting from the
 * fastest-varying (last) dimension, and each dimension fills its index
 * from the most significant bit downward (paper Figures 4 and 5). The
 * schedule is small (one entry per padded bit) and cheap to build; it
 * holds no per-sample state.
 *
 * A sample's "level" is the number of low ordinal bits its padded
 * ordinal uses: 0 for ordinal 0, ilog2(i) + 1 otherwise. Every sample
 * of one level represents a block of the same extents.
 */
class TreeSchedule
{
  public:
    /**
     * @param extents Extent of each dimension, slowest-varying first
     *                (row-major: extents.back() is contiguous).
     */
    explicit TreeSchedule(std::vector<std::uint64_t> extents);

    /** Extents of the index space. */
    const std::vector<std::uint64_t> &dims() const { return extents; }

    /** Number of in-range samples (product of the extents). */
    std::uint64_t size() const { return totalSize; }

    /** Number of ordinals in the padded power-of-two domain. */
    std::uint64_t paddedSize() const { return std::uint64_t(1) << totalBits; }

    /** True iff every extent is a power of two (no padding). */
    bool allPow2() const { return pow2; }

    /**
     * Closed-form mapping of padded ordinal @p i: the row-major
     * flattened coordinates, or size() if they fall outside the true
     * extents. O(bits) per call; the specification walk() must agree
     * with.
     */
    std::uint64_t mapPadded(std::uint64_t i) const;

    /**
     * Closed-form inverse of mapPadded() on coordinates: the padded
     * ordinal whose sample sits at @p coords (dims().size() entries,
     * each inside its extent). O(bits) per call.
     */
    std::uint64_t paddedOf(const std::uint64_t *coords) const;

    /**
     * The dimension a sample of @p level (>= 1) splits: its highest
     * ordinal bit lands there, so it sits blockExtent(level, dim) past
     * its level-(level - 1) parent along that dimension.
     */
    unsigned
    splitDim(unsigned level) const
    {
        return schedDim[level - 1];
    }

    /** Number of levels above level 0 (the padded ordinal bits). */
    unsigned levels() const { return totalBits; }

    /** Extent along @p dim of the block a sample of @p level refines. */
    std::uint64_t
    blockExtent(unsigned level, unsigned dim) const
    {
        return blockCache[static_cast<std::size_t>(level) * extents.size() +
                          dim];
    }

    /** Level of padded ordinal @p padded (see the class comment). */
    static unsigned
    levelOf(std::uint64_t padded)
    {
        return static_cast<unsigned>(std::bit_width(padded));
    }

    /** See TreePermutation::levelAfter(). */
    unsigned levelAfter(std::uint64_t samples) const;

    /**
     * Visit every in-range sample in ordinal order, in O(1) per padded
     * ordinal. Calls visit(coords, block, padded) where coords[d] is the
     * sample's coordinate along dimension d, block[d] its block extent
     * (blockExtent(level, d)) and padded its padded-domain ordinal.
     * Both arrays hold dims().size() entries and are only valid during
     * the call.
     */
    template <typename Visit>
    void
    walk(Visit &&visit) const
    {
        const std::size_t dims = extents.size();
        // flip[j * dims + d]: the change of coordinate d when ordinal
        // bit j goes 0 -> 1 and bits [0, j) go 1 -> 0, i.e. the prefix
        // XOR of the schedule's bits [0, j] that land in dimension d.
        std::vector<std::uint64_t> flip(totalBits * dims);
        std::uint64_t prefix[16] = {};
        for (unsigned j = 0; j < totalBits; ++j) {
            prefix[schedDim[j]] ^= std::uint64_t(1) << schedBit[j];
            std::copy(prefix, prefix + dims, flip.begin() + j * dims);
        }
        std::uint64_t coords[16] = {};
        const std::uint64_t *const view = coords;
        visit(view, blockCache.data(), std::uint64_t(0));
        for (unsigned level = 1; level <= totalBits; ++level) {
            const std::uint64_t *block = blockCache.data() + level * dims;
            const std::uint64_t end = std::uint64_t(1) << level;
            for (std::uint64_t i = end >> 1; i < end; ++i) {
                const std::uint64_t *mask =
                    flip.data() + std::countr_zero(i) * dims;
                bool inside = true;
                for (std::size_t d = 0; d < dims; ++d) {
                    coords[d] ^= mask[d];
                    inside &= coords[d] < extents[d];
                }
                if (inside)
                    visit(view, block, i);
            }
        }
    }

  private:
    std::vector<std::uint64_t> extents;
    std::uint64_t totalSize = 0;
    unsigned totalBits = 0;
    bool pow2 = false;
    /** Block extents per level: entry [level * dims + d]. */
    std::vector<std::uint64_t> blockCache;
    /** Ordinal bit j lands in dimension schedDim[j], bit schedBit[j]. */
    std::vector<std::uint8_t> schedDim;
    std::vector<std::uint8_t> schedBit;
};

/**
 * Bit-reverse ("tree") permutation over an N-dimensional index space.
 *
 * Ordinal i is interpreted in the padded power-of-two domain: its bits
 * are de-interleaved round-robin across dimensions (dimension 0 gets bit
 * 0, dimension 1 gets bit 1, ...), each per-dimension index is
 * bit-reversed, and the resulting coordinates are flattened in row-major
 * order over the true extents. Coordinates falling outside the true
 * extents are skipped, preserving bijectivity over [0, n).
 */
class TreePermutation : public Permutation
{
  public:
    /**
     * Build a tree permutation.
     *
     * @param extents Extent of each dimension, slowest-varying first
     *                (row-major: extents.back() is contiguous).
     */
    explicit TreePermutation(std::vector<std::uint64_t> extents);

    /** Convenience 1-D constructor. */
    static TreePermutation
    oneDim(std::uint64_t n)
    {
        return TreePermutation(std::vector<std::uint64_t>{n});
    }

    /** Convenience 2-D (rows x cols) constructor. */
    static TreePermutation
    twoDim(std::uint64_t rows, std::uint64_t cols)
    {
        return TreePermutation(std::vector<std::uint64_t>{rows, cols});
    }

    std::uint64_t size() const override { return schedule.size(); }
    std::uint64_t map(std::uint64_t i) const override;
    std::string name() const override { return "tree"; }
    std::unique_ptr<Permutation> clone() const override;

    /** Extents of the permuted index space. */
    const std::vector<std::uint64_t> &dims() const
    {
        return schedule.dims();
    }

    /**
     * Resolution level reached after @p samples samples: the base-2 log
     * of the number of distinct per-dimension positions covered along
     * the fastest-refining dimension. Used by benches to report
     * "2^k x 2^k image sampled" milestones.
     */
    unsigned levelAfter(std::uint64_t samples) const;

    /**
     * Extent, per dimension, of the unrefined block that the sample at
     * @p ordinal represents. The sample's own coordinates (from map())
     * are the block origin; until later samples refine it, the whole
     * block can be filled with the sampled value to reconstruct a
     * complete low-resolution output (progressive block fill).
     */
    std::vector<std::uint64_t> blockExtents(std::uint64_t ordinal) const;

    /**
     * Single-dimension variant of blockExtents(): the extent along
     * dimension @p dim of the block refined by sample @p ordinal.
     * O(1) (cached per bit depth); the hot path for block fill.
     */
    std::uint64_t blockExtent(std::uint64_t ordinal, unsigned dim) const;

  private:
    TreeSchedule schedule;
    /** Forward table, built only when some extent is not a power of 2. */
    std::vector<std::uint64_t> table;
    /** Padded-domain ordinal per table ordinal (non-power-of-2 only). */
    std::vector<std::uint64_t> paddedOrdinals;
};

} // namespace anytime

#endif // ANYTIME_SAMPLING_TREE_PERMUTATION_HPP
