/**
 * @file
 * Tests for the precomputed tree-sweep plan: it must agree exactly with
 * the on-the-fly permutation + block-extent computation it caches, from
 * either constructor, and its disjoint region fills must reproduce the
 * ordinal-order block fill at every window end.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <utility>
#include <vector>

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

/**
 * Window boundaries b < e to check on an @p h x @p w sweep: e = 1,
 * e = size(), pairs one either side of every level start (where the
 * block extents change), windows that straddle a level from far below
 * it, and a few random windows.
 */
std::vector<std::pair<std::size_t, std::size_t>>
windowsToCheck(std::size_t h, std::size_t w, std::mt19937 &rng)
{
    const TreePermutation perm = TreePermutation::twoDim(h, w);
    const std::size_t n = perm.size();
    std::vector<std::pair<std::size_t, std::size_t>> windows = {{0, 1},
                                                                {0, n}};
    const auto add = [&](std::size_t b, std::size_t e) {
        e = std::min(e, n);
        if (b < e)
            windows.emplace_back(b, e);
    };
    add(n - 1, n);
    for (std::size_t i = 1; i < n; ++i) {
        if (perm.blockExtent(i, 0) == perm.blockExtent(i - 1, 0) &&
            perm.blockExtent(i, 1) == perm.blockExtent(i - 1, 1))
            continue;
        // i is a level start.
        add(i - 1, i);
        add(i - 1, i + 1);
        add(i, i + 1);
        add(i, i + 2);
        add(i - std::min<std::size_t>(i, 2), i + 2);
        add(i / 2, i + 1);
        add(i / 2, i);
    }
    std::uniform_int_distribution<std::size_t> pick(0, n);
    for (int k = 0; k < 6; ++k) {
        std::size_t b = pick(rng), e = pick(rng);
        add(std::min(b, e), std::max(b, e));
    }
    return windows;
}

/**
 * Walk the ordinal-order fill of an @p h x @p w sweep once (sample i
 * has the unique value i + 1). At each window start b, apply the region
 * fills of [b, e) in shuffled order to a copy of the image; when the
 * walk reaches e, the copy must equal the sequential image.
 */
void
expectRegionFillsMatchSequential(std::size_t h, std::size_t w,
                                 std::mt19937 &rng)
{
    using Plane = Image<std::uint32_t>;
    const TreePermutation perm = TreePermutation::twoDim(h, w);
    const TreeSweepPlan plan(h, w);
    const std::size_t n = plan.size();
    auto windows = windowsToCheck(h, w, rng);
    std::sort(windows.begin(), windows.end());
    Plane sequential(w, h, 0);
    std::multimap<std::size_t, std::pair<std::size_t, Plane>> pending;
    std::size_t next = 0;
    std::size_t checked = 0;
    for (std::size_t i = 0; i <= n; ++i) {
        // `sequential` now holds the fill of samples [0, i).
        for (auto it = pending.find(i); it != pending.end() && it->first == i;
             it = pending.erase(it)) {
            ASSERT_TRUE(it->second.second == sequential)
                << h << "x" << w << " window [" << it->second.first << ", "
                << i << ")";
            ++checked;
        }
        for (; next < windows.size() && windows[next].first == i; ++next) {
            const std::size_t e = windows[next].second;
            std::vector<std::size_t> order(e - i);
            for (std::size_t k = 0; k < order.size(); ++k)
                order[k] = i + k;
            std::shuffle(order.begin(), order.end(), rng);
            Plane image = sequential;
            const TreeSweepPlan::Regions regions = plan.regionsAt(e);
            for (const std::size_t s : order)
                plan.fillRegion(image, regions, s,
                                static_cast<std::uint32_t>(s + 1));
            pending.emplace(e, std::make_pair(i, std::move(image)));
        }
        if (i < n)
            fillTreeBlock(sequential, perm, i,
                          static_cast<std::uint32_t>(i + 1));
    }
    EXPECT_TRUE(pending.empty());
    EXPECT_EQ(checked, windows.size()) << h << "x" << w;
}

TEST(TreeSweepPlan, RegionFillsOfAnyWindowGiveSequentialFill)
{
    const std::pair<std::size_t, std::size_t> shapes[] = {
        {8, 8},   {16, 4},   {6, 10},  {13, 7},   {1, 1},
        {1, 9},   {9, 1},    {12, 20}, {16, 16},  {33, 31},
        {45, 38}, {720, 1280}, {1152, 1152}};
    std::mt19937 rng(20161019);
    for (const auto &[h, w] : shapes)
        expectRegionFillsMatchSequential(h, w, rng);
}

} // namespace
} // namespace anytime
