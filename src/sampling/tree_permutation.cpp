#include "sampling/tree_permutation.hpp"

#include <algorithm>

#include "support/bits.hpp"
#include "support/error.hpp"

namespace anytime {

TreeSchedule::TreeSchedule(std::vector<std::uint64_t> extents_in)
    : extents(std::move(extents_in))
{
    fatalIf(extents.empty(), "TreePermutation: no dimensions");
    fatalIf(extents.size() > 16,
            "TreePermutation supports at most 16 dimensions");
    std::vector<unsigned> bitsPerDim;
    totalSize = 1;
    pow2 = true;
    for (std::uint64_t extent : extents) {
        fatalIf(extent == 0, "TreePermutation: zero extent");
        totalSize *= extent;
        const unsigned bits = (extent == 1) ? 0 : indexBits(extent);
        bitsPerDim.push_back(bits);
        totalBits += bits;
        pow2 = pow2 && isPow2(extent);
    }

    // Fix the bit-assignment schedule once: ordinal bits are dealt
    // round-robin starting from the fastest-varying (last) dimension,
    // and each dimension fills its index from the most significant bit
    // downward (paper Figures 4 and 5).
    const unsigned dims = static_cast<unsigned>(extents.size());
    unsigned received[16] = {};
    unsigned cursor = 0;
    blockCache.resize(static_cast<std::size_t>(totalBits + 1) * dims);
    for (unsigned bits_used = 0; bits_used <= totalBits; ++bits_used) {
        for (unsigned d = 0; d < dims; ++d) {
            const std::uint64_t padded_extent = std::uint64_t(1)
                                                << bitsPerDim[d];
            blockCache[static_cast<std::size_t>(bits_used) * dims + d] =
                std::max<std::uint64_t>(padded_extent >> received[d], 1);
        }
        if (bits_used == totalBits)
            break;
        unsigned d = 0;
        for (unsigned probe = 0; probe < dims; ++probe) {
            d = dims - 1 - ((cursor + probe) % dims);
            if (received[d] < bitsPerDim[d]) {
                cursor = (cursor + probe + 1) % dims;
                break;
            }
        }
        schedDim.push_back(static_cast<std::uint8_t>(d));
        schedBit.push_back(
            static_cast<std::uint8_t>(bitsPerDim[d] - 1 - received[d]));
        ++received[d];
    }
}

std::uint64_t
TreeSchedule::mapPadded(std::uint64_t i) const
{
    const unsigned dims = static_cast<unsigned>(extents.size());

    // Scatter the set bits of the ordinal through the precomputed
    // schedule; the loop ends once the remaining ordinal bits are zero.
    std::uint64_t coords[16] = {};
    std::uint64_t remaining = i;
    for (unsigned j = 0; remaining != 0; ++j, remaining >>= 1) {
        if (remaining & 1)
            coords[schedDim[j]] |= std::uint64_t(1) << schedBit[j];
    }

    // Flatten row-major, rejecting coordinates outside true extents.
    std::uint64_t flat = 0;
    for (unsigned d = 0; d < dims; ++d) {
        if (coords[d] >= extents[d])
            return totalSize;
        flat = flat * extents[d] + coords[d];
    }
    return flat;
}

std::uint64_t
TreeSchedule::paddedOf(const std::uint64_t *coords) const
{
    std::uint64_t padded = 0;
    for (unsigned j = 0; j < totalBits; ++j)
        padded |= ((coords[schedDim[j]] >> schedBit[j]) & 1) << j;
    return padded;
}

unsigned
TreeSchedule::levelAfter(std::uint64_t samples) const
{
    if (samples <= 1)
        return 0;
    // Number of low ordinal bits fully swept by `samples` samples.
    unsigned bits_used = ilog2(samples);
    bits_used = std::min(bits_used, totalBits);

    // Count how many of those bits each dimension received; report the
    // deepest (fastest-refining) dimension.
    unsigned received[16] = {};
    unsigned level = 0;
    for (unsigned j = 0; j < bits_used; ++j)
        level = std::max(level, ++received[schedDim[j]]);
    return level;
}

TreePermutation::TreePermutation(std::vector<std::uint64_t> extents)
    : schedule(std::move(extents))
{
    if (schedule.allPow2())
        return;
    const std::vector<std::uint64_t> &dims = schedule.dims();
    table.reserve(schedule.size());
    paddedOrdinals.reserve(schedule.size());
    schedule.walk([&](const std::uint64_t *coords, const std::uint64_t *,
                      std::uint64_t padded) {
        std::uint64_t flat = 0;
        for (std::size_t d = 0; d < dims.size(); ++d)
            flat = flat * dims[d] + coords[d];
        table.push_back(flat);
        paddedOrdinals.push_back(padded);
    });
    panicIf(table.size() != schedule.size(), "tree permutation table has ",
            table.size(), " entries, expected ", schedule.size());
}

std::uint64_t
TreePermutation::map(std::uint64_t i) const
{
    panicIf(i >= size(), "tree permutation ordinal ", i, " out of range ",
            size());
    if (schedule.allPow2())
        return schedule.mapPadded(i);
    return table[i];
}

unsigned
TreePermutation::levelAfter(std::uint64_t samples) const
{
    return schedule.levelAfter(samples);
}

std::uint64_t
TreePermutation::blockExtent(std::uint64_t ordinal, unsigned dim) const
{
    panicIf(ordinal >= size(), "tree block ordinal ", ordinal,
            " out of range ", size());
    panicIf(dim >= dims().size(), "tree block dimension out of range");
    const std::uint64_t padded =
        schedule.allPow2() ? ordinal : paddedOrdinals[ordinal];
    return schedule.blockExtent(TreeSchedule::levelOf(padded), dim);
}

std::vector<std::uint64_t>
TreePermutation::blockExtents(std::uint64_t ordinal) const
{
    std::vector<std::uint64_t> block(dims().size());
    for (unsigned d = 0; d < block.size(); ++d)
        block[d] = blockExtent(ordinal, d);
    return block;
}

std::unique_ptr<Permutation>
TreePermutation::clone() const
{
    return std::make_unique<TreePermutation>(*this);
}

} // namespace anytime
