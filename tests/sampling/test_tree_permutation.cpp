/**
 * @file
 * Tests for the N-dimensional tree (bit-reverse) permutation: paper
 * Figures 4 and 5 exactly, bijectivity over arbitrary extents, the
 * progressive-resolution property, and block-fill geometry.
 */

#include <gtest/gtest.h>

#include <set>
#include <tuple>
#include <vector>

#include "sampling/tree_permutation.hpp"

namespace anytime {
namespace {

void
expectBijective(const Permutation &perm)
{
    const std::uint64_t n = perm.size();
    std::vector<bool> seen(n, false);
    for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint64_t p = perm.map(i);
        ASSERT_LT(p, n);
        ASSERT_FALSE(seen[p]) << "duplicate at ordinal " << i;
        seen[p] = true;
    }
}

TEST(TreePermutation, OneDimMatchesPaperFigure4)
{
    // 16 elements: p is bit reversal b3b2b1b0 -> b0b1b2b3. After 2^k
    // samples, the visited indices are the multiples of 16/2^k.
    TreePermutation perm = TreePermutation::oneDim(16);
    EXPECT_EQ(perm.map(0), 0u);
    EXPECT_EQ(perm.map(1), 8u);
    EXPECT_EQ(perm.map(2), 4u);
    EXPECT_EQ(perm.map(3), 12u);
    EXPECT_EQ(perm.map(4), 2u);
    EXPECT_EQ(perm.map(5), 10u);
    EXPECT_EQ(perm.map(6), 6u);
    EXPECT_EQ(perm.map(7), 14u);
    EXPECT_EQ(perm.map(8), 1u);
    expectBijective(perm);
}

TEST(TreePermutation, TwoDimMatchesPaperFigure5)
{
    // 8x8: after 1 sample, a 1x1 grid; after 4, the 2x2 corners of 4x4
    // blocks; after 16, a 4x4 grid; after 64, everything.
    TreePermutation perm = TreePermutation::twoDim(8, 8);
    EXPECT_EQ(perm.map(0), 0u); // (row 0, col 0)

    // First 4 samples cover the 2x2 sub-sampled grid {0,4} x {0,4}.
    std::set<std::uint64_t> first4;
    for (std::uint64_t i = 0; i < 4; ++i)
        first4.insert(perm.map(i));
    const std::set<std::uint64_t> expected4 = {
        0 * 8 + 0, 0 * 8 + 4, 4 * 8 + 0, 4 * 8 + 4};
    EXPECT_EQ(first4, expected4);

    // First 16 samples cover the 4x4 grid {0,2,4,6} x {0,2,4,6}.
    std::set<std::uint64_t> first16;
    for (std::uint64_t i = 0; i < 16; ++i)
        first16.insert(perm.map(i));
    std::set<std::uint64_t> expected16;
    for (std::uint64_t r = 0; r < 8; r += 2)
        for (std::uint64_t c = 0; c < 8; c += 2)
            expected16.insert(r * 8 + c);
    EXPECT_EQ(first16, expected16);

    expectBijective(perm);
}

TEST(TreePermutation, SingleElement)
{
    TreePermutation perm = TreePermutation::oneDim(1);
    EXPECT_EQ(perm.size(), 1u);
    EXPECT_EQ(perm.map(0), 0u);
}

TEST(TreePermutation, RejectsEmptyAndZero)
{
    EXPECT_THROW(TreePermutation(std::vector<std::uint64_t>{}),
                 FatalError);
    EXPECT_THROW(TreePermutation({8, 0}), FatalError);
}

TEST(TreePermutation, ThreeDimBijective)
{
    TreePermutation perm({4, 8, 2});
    EXPECT_EQ(perm.size(), 64u);
    expectBijective(perm);
}

TEST(TreePermutation, LevelAfterTracksResolution)
{
    TreePermutation perm = TreePermutation::twoDim(16, 16);
    EXPECT_EQ(perm.levelAfter(0), 0u);
    EXPECT_EQ(perm.levelAfter(1), 0u);
    EXPECT_EQ(perm.levelAfter(4), 1u);   // 2x2 resolved
    EXPECT_EQ(perm.levelAfter(16), 2u);  // 4x4 resolved
    EXPECT_EQ(perm.levelAfter(256), 4u); // fully resolved
}

TEST(TreePermutation, BlockExtentsShrinkToOne)
{
    TreePermutation perm = TreePermutation::twoDim(8, 8);
    // Sample 0 represents the whole padded domain.
    EXPECT_EQ(perm.blockExtents(0), (std::vector<std::uint64_t>{8, 8}));
    // The final samples refine single pixels.
    EXPECT_EQ(perm.blockExtents(63), (std::vector<std::uint64_t>{1, 1}));
}

TEST(TreePermutation, BlockUnionCoversDomainAtEveryPrefix)
{
    // Progressive block fill must yield a complete image after any
    // prefix of samples: the blocks of samples [0, s) tile the domain.
    TreePermutation perm = TreePermutation::twoDim(8, 16);
    const std::size_t rows = 8, cols = 16;
    for (std::uint64_t prefix : {1ull, 3ull, 7ull, 16ull, 50ull, 128ull}) {
        std::vector<int> covered(rows * cols, 0);
        for (std::uint64_t i = 0; i < prefix; ++i) {
            const std::uint64_t flat = perm.map(i);
            const std::uint64_t r = flat / cols, c = flat % cols;
            const auto block = perm.blockExtents(i);
            for (std::uint64_t dr = 0; dr < block[0] && r + dr < rows;
                 ++dr) {
                for (std::uint64_t dc = 0;
                     dc < block[1] && c + dc < cols; ++dc)
                    covered[(r + dr) * cols + (c + dc)] = 1;
            }
        }
        for (std::size_t i = 0; i < covered.size(); ++i)
            ASSERT_EQ(covered[i], 1)
                << "pixel " << i << " uncovered after " << prefix;
    }
}

/** Property sweep: bijectivity across shapes, incl. non-powers of 2. */
class TreeBijectivity
    : public ::testing::TestWithParam<std::vector<std::uint64_t>>
{
};

TEST_P(TreeBijectivity, Bijective)
{
    expectBijective(TreePermutation(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TreeBijectivity,
    ::testing::Values(std::vector<std::uint64_t>{1},
                      std::vector<std::uint64_t>{2},
                      std::vector<std::uint64_t>{31},
                      std::vector<std::uint64_t>{32},
                      std::vector<std::uint64_t>{33},
                      std::vector<std::uint64_t>{100},
                      std::vector<std::uint64_t>{8, 8},
                      std::vector<std::uint64_t>{16, 4},
                      std::vector<std::uint64_t>{5, 7},
                      std::vector<std::uint64_t>{12, 20},
                      std::vector<std::uint64_t>{9, 16},
                      std::vector<std::uint64_t>{3, 3, 3},
                      std::vector<std::uint64_t>{4, 4, 4},
                      std::vector<std::uint64_t>{2, 3, 5, 7}));

/**
 * The incremental walk against its closed-form specification: walking
 * the padded domain must visit exactly the in-range ordinals of
 * mapPadded(), in order, with the coordinates and level block extents
 * of each; paddedOf() must invert it on every visited coordinate; and
 * the permutation's table (built from the walk) must agree with both.
 */
void
expectWalkMatchesClosedForm(const std::vector<std::uint64_t> &extents)
{
    const TreeSchedule schedule(extents);
    const std::size_t dims = extents.size();
    struct Visited
    {
        std::uint64_t flat;
        std::uint64_t padded;
    };
    std::vector<Visited> walked;
    walked.reserve(schedule.size());
    std::uint64_t block_mismatches = 0;
    std::uint64_t inverse_mismatches = 0;
    schedule.walk([&](const std::uint64_t *coords, const std::uint64_t *block,
                      std::uint64_t padded) {
        inverse_mismatches += schedule.paddedOf(coords) != padded;
        std::uint64_t flat = 0;
        for (std::size_t d = 0; d < dims; ++d) {
            flat = flat * extents[d] + coords[d];
            block_mismatches +=
                block[d] !=
                schedule.blockExtent(TreeSchedule::levelOf(padded), d);
        }
        walked.push_back({flat, padded});
    });
    ASSERT_EQ(walked.size(), schedule.size());
    EXPECT_EQ(block_mismatches, 0u);
    EXPECT_EQ(inverse_mismatches, 0u);

    const TreePermutation perm(extents);
    ASSERT_EQ(perm.size(), schedule.size());
    std::size_t k = 0;
    for (std::uint64_t i = 0; i < schedule.paddedSize(); ++i) {
        const std::uint64_t flat = schedule.mapPadded(i);
        if (flat == schedule.size())
            continue;
        ASSERT_LT(k, walked.size()) << "padded ordinal " << i;
        ASSERT_EQ(walked[k].padded, i) << "ordinal " << k;
        ASSERT_EQ(walked[k].flat, flat) << "ordinal " << k;
        ASSERT_EQ(perm.map(k), flat) << "ordinal " << k;
        const unsigned level = TreeSchedule::levelOf(i);
        for (unsigned d = 0; d < dims; ++d)
            ASSERT_EQ(perm.blockExtent(k, d), schedule.blockExtent(level, d))
                << "ordinal " << k << " dim " << d;
        ++k;
    }
    EXPECT_EQ(k, walked.size());
}

class TreeWalk : public ::testing::TestWithParam<std::vector<std::uint64_t>>
{
};

TEST_P(TreeWalk, MatchesClosedForm)
{
    expectWalkMatchesClosedForm(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TreeWalk,
    ::testing::Values(
        // 1-D: trivial, odd, 2^k and 2^k +- 1.
        std::vector<std::uint64_t>{1}, std::vector<std::uint64_t>{2},
        std::vector<std::uint64_t>{7}, std::vector<std::uint64_t>{1023},
        std::vector<std::uint64_t>{1024}, std::vector<std::uint64_t>{1025},
        // 2-D: degenerate rows/columns, odd, 2^k +- 1, video frames.
        std::vector<std::uint64_t>{1, 1}, std::vector<std::uint64_t>{1, 37},
        std::vector<std::uint64_t>{37, 1}, std::vector<std::uint64_t>{13, 7},
        std::vector<std::uint64_t>{31, 33},
        std::vector<std::uint64_t>{64, 64},
        std::vector<std::uint64_t>{65, 63},
        std::vector<std::uint64_t>{1023, 1025},
        std::vector<std::uint64_t>{720, 1280},
        std::vector<std::uint64_t>{1152, 1152},
        // 3-D, including a unit extent.
        std::vector<std::uint64_t>{3, 5, 7},
        std::vector<std::uint64_t>{4, 1, 9},
        std::vector<std::uint64_t>{17, 8, 33}));

TEST(TreeSchedule, LevelOfCountsUsedOrdinalBits)
{
    EXPECT_EQ(TreeSchedule::levelOf(0), 0u);
    EXPECT_EQ(TreeSchedule::levelOf(1), 1u);
    EXPECT_EQ(TreeSchedule::levelOf(2), 2u);
    EXPECT_EQ(TreeSchedule::levelOf(3), 2u);
    EXPECT_EQ(TreeSchedule::levelOf(4), 3u);
    EXPECT_EQ(TreeSchedule::levelOf(1023), 10u);
}

TEST(TreePermutation, NonPow2KeepsProgressiveOrder)
{
    // For non-power-of-two extents the padded schedule is filtered; the
    // first sample must still be the origin and early samples must be
    // spread out (no two of the first four samples adjacent).
    TreePermutation perm = TreePermutation::twoDim(6, 10);
    EXPECT_EQ(perm.map(0), 0u);
    std::vector<std::pair<std::int64_t, std::int64_t>> coords;
    for (std::uint64_t i = 0; i < 4; ++i) {
        const std::uint64_t flat = perm.map(i);
        coords.emplace_back(flat / 10, flat % 10);
    }
    for (std::size_t a = 0; a < coords.size(); ++a) {
        for (std::size_t b = a + 1; b < coords.size(); ++b) {
            const auto dist =
                std::abs(coords[a].first - coords[b].first) +
                std::abs(coords[a].second - coords[b].second);
            EXPECT_GE(dist, 3) << "samples " << a << "," << b
                               << " too close";
        }
    }
}

} // namespace
} // namespace anytime
