/**
 * @file
 * Tests for the iterative and diffusive source factories: version
 * sequences, final semantics, interruption validity, and the
 * single-worker contract both share (a source is a zero-input
 * TransformStage with an emit body).
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/source_stage.hpp"

namespace anytime {
namespace {

struct ManualContext
{
    PauseGate gate;
    StageStats stats;
    std::stop_source source;

    StageContext
    make(unsigned id = 0, unsigned count = 1)
    {
        return StageContext(source.get_token(), gate, stats, id, count);
    }
};

TEST(IterativeSourceStage, PublishesOneVersionPerLevel)
{
    auto buffer = std::make_shared<VersionedBuffer<int>>("out");
    std::vector<std::size_t> levels_run;
    auto stage = makeIterativeSource<int>(
        "iter", buffer, 3,
        [&](std::size_t level, int &out, StageContext &) {
            levels_run.push_back(level);
            out = static_cast<int>(100 + level);
        });

    ManualContext mc;
    StageContext ctx = mc.make();
    stage->run(ctx);

    EXPECT_EQ(levels_run, (std::vector<std::size_t>{0, 1, 2}));
    EXPECT_EQ(buffer->version(), 3u);
    EXPECT_TRUE(buffer->final());
    EXPECT_EQ(*buffer->read().value, 102);
}

TEST(IterativeSourceStage, EachLevelStartsFromPrototype)
{
    // Iterative levels must overwrite, not accumulate (Section III-B1).
    auto buffer = std::make_shared<VersionedBuffer<int>>("out");
    auto stage = makeIterativeSource<int>(
        "iter", buffer, 2,
        [](std::size_t, int &out, StageContext &) { out += 1; },
        /*prototype=*/10);
    ManualContext mc;
    StageContext ctx = mc.make();
    stage->run(ctx);
    EXPECT_EQ(*buffer->read().value, 11); // 10 + 1, not 10 + 2
}

TEST(IterativeSourceStage, StopSkipsIncompleteLevel)
{
    auto buffer = std::make_shared<VersionedBuffer<int>>("out");
    ManualContext mc;
    auto stage = makeIterativeSource<int>(
        "iter", buffer, 3,
        [&](std::size_t level, int &out, StageContext &) {
            out = static_cast<int>(level);
            if (level == 1)
                mc.source.request_stop(); // stop arrives mid-level
        });
    StageContext ctx = mc.make();
    stage->run(ctx);

    // Level 0 published; level 1 was interrupted and must NOT be.
    EXPECT_EQ(buffer->version(), 1u);
    EXPECT_FALSE(buffer->final());
    EXPECT_EQ(*buffer->read().value, 0);
}

TEST(IterativeSourceStage, RejectsMultipleWorkers)
{
    auto buffer = std::make_shared<VersionedBuffer<int>>("out");
    auto stage = makeIterativeSource<int>(
        "iter", buffer, 1, [](std::size_t, int &, StageContext &) {});
    ManualContext mc;
    StageContext ctx = mc.make(0, 2);
    EXPECT_THROW(stage->run(ctx), FatalError);
}

TEST(DiffusiveSourceStage, FinalEqualsSequentialApplication)
{
    auto buffer =
        std::make_shared<VersionedBuffer<std::vector<int>>>("out");
    const std::uint64_t steps = 1000;
    auto stage = makeDiffusiveSource<std::vector<int>>(
        "diff", buffer, std::vector<int>(steps, 0), steps,
        [](std::uint64_t step, std::vector<int> &state, StageContext &) {
            state[step] = static_cast<int>(step * 3);
        },
        /*publish_period=*/100);

    ManualContext mc;
    StageContext ctx = mc.make();
    stage->run(ctx);

    EXPECT_TRUE(buffer->final());
    const auto snap = buffer->read();
    for (std::uint64_t i = 0; i < steps; ++i)
        ASSERT_EQ((*snap.value)[i], static_cast<int>(i * 3));
    // First-step publish + periodic + final.
    EXPECT_GE(buffer->version(), steps / 100);
}

TEST(DiffusiveSourceStage, IntermediateVersionsBuildOnPreviousOutput)
{
    auto buffer = std::make_shared<VersionedBuffer<long>>("out");
    std::vector<long> observed;
    buffer->addObserver([&](const Snapshot<long> &snap) {
        observed.push_back(*snap.value);
    });
    auto stage = makeDiffusiveSource<long>(
        "diff", buffer, 0L, 10,
        [](std::uint64_t, long &state, StageContext &) { state += 1; },
        /*publish_period=*/2);
    ManualContext mc;
    StageContext ctx = mc.make();
    stage->run(ctx);

    // Counts are monotone non-decreasing across versions: accuracy is
    // diffused, never reset.
    ASSERT_FALSE(observed.empty());
    for (std::size_t i = 1; i < observed.size(); ++i)
        EXPECT_GE(observed[i], observed[i - 1]);
    EXPECT_EQ(observed.back(), 10);
}

TEST(DiffusiveSourceStage, RejectsMultipleWorkers)
{
    auto buffer = std::make_shared<VersionedBuffer<int>>("out");
    auto stage = makeDiffusiveSource<int>(
        "diff", buffer, 0, 1, [](std::uint64_t, int &, StageContext &) {},
        1);
    ManualContext mc;
    StageContext ctx = mc.make(0, 2);
    EXPECT_THROW(stage->run(ctx), FatalError);
}

TEST(DiffusiveSourceStage, StopLeavesValidPartialVersion)
{
    auto buffer = std::make_shared<VersionedBuffer<long>>("out");
    ManualContext mc;
    auto stage = makeDiffusiveSource<long>(
        "diff", buffer, 0L, 1000,
        [&](std::uint64_t step, long &state, StageContext &) {
            state += 1;
            if (step == 499)
                mc.source.request_stop();
        },
        /*publish_period=*/100);
    StageContext ctx = mc.make();
    stage->run(ctx);

    EXPECT_FALSE(buffer->final());
    const auto snap = buffer->read();
    ASSERT_TRUE(snap);
    EXPECT_GT(*snap.value, 0);
    EXPECT_LE(*snap.value, 1000);
}

TEST(DiffusiveSourceStage, ValidatesArguments)
{
    auto buffer = std::make_shared<VersionedBuffer<int>>("out");
    const auto fn = [](std::uint64_t, int &, StageContext &) {};
    EXPECT_THROW(makeDiffusiveSource<int>("d", buffer, 0, 0, fn, 1),
                 FatalError);
    EXPECT_THROW(makeDiffusiveSource<int>("d", buffer, 0, 1, fn, 0),
                 FatalError);
}

} // namespace
} // namespace anytime
