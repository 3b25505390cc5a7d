/**
 * @file
 * Tests for the precomputed tree-sweep plan: it must agree exactly with
 * the on-the-fly permutation + block-extent computation it caches, from
 * either constructor.
 */

#include <gtest/gtest.h>

#include "image/progressive.hpp"

namespace anytime {
namespace {

TEST(TreeSweepPlan, MatchesPermutationCoordinates)
{
    // Both constructors walk the same schedule as the permutation.
    const std::pair<std::size_t, std::size_t> shapes[] = {
        {8, 8}, {16, 4}, {6, 10}, {13, 7}, {1, 1}, {1, 9}, {9, 1},
        {720, 1280}};
    for (const auto &[h, w] : shapes) {
        TreePermutation perm = TreePermutation::twoDim(h, w);
        const TreeSweepPlan via_perm(perm);
        const TreeSweepPlan direct(h, w);
        ASSERT_EQ(via_perm.size(), perm.size());
        ASSERT_EQ(direct.size(), perm.size());
        for (std::uint64_t i = 0; i < perm.size(); ++i) {
            const auto [x, y] = treeSampleCoords(perm, i, w);
            ASSERT_EQ(via_perm.x(i), x) << h << "x" << w << " ordinal " << i;
            ASSERT_EQ(via_perm.y(i), y) << h << "x" << w << " ordinal " << i;
            ASSERT_EQ(direct.x(i), x) << h << "x" << w << " ordinal " << i;
            ASSERT_EQ(direct.y(i), y) << h << "x" << w << " ordinal " << i;
        }
    }
}

TEST(TreeSweepPlan, FillMatchesFillTreeBlock)
{
    // Block geometry of both constructors, checked through fill()
    // after every ordinal.
    const std::pair<std::size_t, std::size_t> shapes[] = {
        {12, 20}, {1, 9}, {9, 1}, {16, 16}, {33, 31}};
    for (const auto &[h, w] : shapes) {
        TreePermutation perm = TreePermutation::twoDim(h, w);
        const TreeSweepPlan via_perm(perm);
        const TreeSweepPlan direct(h, w);
        GrayImage by_perm(w, h, 0), by_direct(w, h, 0), by_block(w, h, 0);
        for (std::uint64_t i = 0; i < perm.size(); ++i) {
            const auto value =
                static_cast<std::uint8_t>((i * 37 + 5) & 0xff);
            via_perm.fill(by_perm, i, value);
            direct.fill(by_direct, i, value);
            fillTreeBlock(by_block, perm, i, value);
            ASSERT_EQ(by_perm, by_block) << h << "x" << w << " ordinal " << i;
            ASSERT_EQ(by_direct, by_block)
                << h << "x" << w << " ordinal " << i;
        }
    }
}

TEST(TreeSweepPlan, FullSweepAssignsEveryPixelItsOwnValue)
{
    TreePermutation perm = TreePermutation::twoDim(9, 11);
    TreeSweepPlan plan(perm);
    GrayImage image(11, 9, 0);
    for (std::uint64_t i = 0; i < plan.size(); ++i) {
        plan.fill(image, i,
                  static_cast<std::uint8_t>(
                      (plan.x(i) * 31 + plan.y(i) * 7 + 1) & 0xff));
    }
    for (std::size_t y = 0; y < 9; ++y)
        for (std::size_t x = 0; x < 11; ++x)
            ASSERT_EQ(image.at(x, y),
                      static_cast<std::uint8_t>((x * 31 + y * 7 + 1) &
                                                0xff));
}

} // namespace
} // namespace anytime
