/**
 * @file
 * Integration property tests: randomized multi-stage pipelines whose
 * final outputs must equal the composed precise functions, regardless
 * of stage shapes, publish periods, or interleavings.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/automaton.hpp"
#include "core/controller.hpp"
#include "core/source_stage.hpp"
#include "core/transform_stage.hpp"
#include "sampling/lfsr_permutation.hpp"
#include "support/rng.hpp"

namespace anytime {
namespace {

/**
 * Randomized pipeline: a diffusive source sums a permuted data set,
 * then a chain of arithmetic transforms, then a two-input join with a
 * second (iterative) source. Parameterized by seed.
 */
class RandomPipeline : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RandomPipeline, FinalOutputEqualsComposedPreciseFunction)
{
    const std::uint64_t seed = GetParam();
    Xoshiro256 rng(seed);

    const std::uint64_t n = 500 + rng.nextBelow(2000);
    auto data = std::make_shared<std::vector<long>>();
    long precise_sum = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        const long v = static_cast<long>(rng.nextBelow(1000)) - 500;
        data->push_back(v);
        precise_sum += v;
    }

    const unsigned chain_length = 1 + rng.nextBelow(4);
    std::vector<long> multipliers;
    for (unsigned i = 0; i < chain_length; ++i)
        multipliers.push_back(1 + static_cast<long>(rng.nextBelow(5)));

    const std::size_t iterative_levels = 1 + rng.nextBelow(4);
    const long iterative_value = static_cast<long>(rng.nextBelow(100));

    Automaton automaton;
    auto sum_buf = automaton.makeBuffer<long>("sum");

    // Diffusive source: LFSR-permuted summation.
    auto perm = std::make_shared<const LfsrPermutation>(
        n, static_cast<std::uint32_t>(seed + 1));
    automaton.addStage(std::make_shared<DiffusiveSourceStage<long>>(
        "sum", sum_buf, 0L, n,
        [data, perm](std::uint64_t step, long &acc, StageContext &) {
            acc += (*data)[perm->map(step)];
        },
        /*publish_period=*/1 + rng.nextBelow(n)));

    // Chain of multiplier transforms.
    auto upstream = sum_buf;
    for (unsigned i = 0; i < chain_length; ++i) {
        auto next = automaton.makeBuffer<long>("chain" +
                                               std::to_string(i));
        const long m = multipliers[i];
        automaton.addStage(makeFunctionStage<long, long>(
            "mul" + std::to_string(i), upstream, next,
            [m](const long &v) { return v * m; }));
        upstream = next;
    }

    // Second source (iterative) and a joining stage.
    auto iter_buf = automaton.makeBuffer<long>("iter");
    automaton.addStage(std::make_shared<IterativeSourceStage<long>>(
        "iter", iter_buf, iterative_levels,
        [iterative_value, iterative_levels](std::size_t level, long &out,
                                            StageContext &) {
            // Coarse levels are rounded versions of the final value.
            const long shift = static_cast<long>(
                iterative_levels - 1 - level);
            out = (iterative_value >> shift) << shift;
        }));

    auto join_buf = automaton.makeBuffer<long>("join");
    automaton.addStage(makeFunctionStage<long, long, long>(
        "join", upstream, iter_buf, join_buf,
        [](const long &a, const long &b) { return a + b; }));

    const RunOutcome outcome = runToCompletion(automaton);
    ASSERT_TRUE(outcome.reachedPrecise);
    ASSERT_FALSE(automaton.failed());

    long expected = precise_sum;
    for (long m : multipliers)
        expected *= m;
    expected += iterative_value;

    const auto snap = join_buf->read();
    ASSERT_TRUE(snap);
    EXPECT_TRUE(snap.final);
    EXPECT_EQ(*snap.value, expected) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPipeline,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(Integration, InterruptAtRandomPointsAlwaysLeavesValidState)
{
    // Fire stop() at a random point of a long pipeline many times: no
    // crash, no torn state, buffers readable, nothing final unless the
    // run actually finished.
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        Xoshiro256 rng(seed);
        Automaton automaton;
        auto src = automaton.makeBuffer<long>("src");
        auto dst = automaton.makeBuffer<long>("dst");
        automaton.addStage(std::make_shared<DiffusiveSourceStage<long>>(
            "count", src, 0L, 200'000,
            [](std::uint64_t, long &acc, StageContext &) { acc += 1; },
            1000));
        automaton.addStage(makeFunctionStage<long, long>(
            "copy", src, dst, [](const long &v) { return v; }));

        automaton.start();
        const std::uint64_t spin = rng.nextBelow(50'000);
        for (volatile std::uint64_t i = 0; i < spin; ++i) {
        }
        automaton.stop();
        automaton.shutdown();

        const auto snap = src->read();
        if (snap) {
            EXPECT_GE(*snap.value, 0);
            EXPECT_LE(*snap.value, 200'000);
            if (snap.final) {
                EXPECT_EQ(*snap.value, 200'000);
            }
        }
        EXPECT_FALSE(automaton.failed());
    }
}

} // namespace
} // namespace anytime
