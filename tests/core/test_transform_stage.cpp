/**
 * @file
 * Tests for asynchronous-pipeline transform stages: latest-version
 * consumption, final propagation, anytime child bodies, multi-input
 * joins, and stop behavior.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/transform_stage.hpp"
#include "sampling/replay.hpp"

namespace anytime {
namespace {

struct ManualContext
{
    PauseGate gate;
    StageStats stats;
    std::stop_source source;

    StageContext
    make()
    {
        return StageContext(source.get_token(), gate, stats, 0, 1);
    }
};

TEST(TransformStage, ProcessesFinalInputToCompletion)
{
    auto in = std::make_shared<VersionedBuffer<int>>("in");
    auto out = std::make_shared<VersionedBuffer<int>>("out");
    TransformStage<int, int> stage(
        "double", in, out,
        [](const int &value, Emitter<int> &emitter, StageContext &) {
            emitter.emit(value * 2, true);
        });

    in->publish(21, true);
    ManualContext mc;
    StageContext ctx = mc.make();
    stage.run(ctx); // returns once the final input is processed

    EXPECT_TRUE(out->final());
    EXPECT_EQ(*out->read().value, 42);
}

TEST(TransformStage, NonFinalInputsProduceNonFinalOutputs)
{
    auto in = std::make_shared<VersionedBuffer<int>>("in");
    auto out = std::make_shared<VersionedBuffer<int>>("out");
    TransformStage<int, int> stage(
        "inc", in, out,
        [](const int &value, Emitter<int> &emitter, StageContext &) {
            EXPECT_FALSE(emitter.inputsFinal());
            emitter.emit(value + 1, true); // stage-final, not buffer-final
        });

    in->publish(5, false);
    ManualContext mc;
    std::thread runner([&] {
        StageContext ctx = mc.make();
        stage.run(ctx);
    });
    // Wait for the first output, then stop (input never goes final).
    while (out->version() == 0)
        std::this_thread::yield();
    EXPECT_FALSE(out->final());
    EXPECT_EQ(*out->read().value, 6);
    mc.source.request_stop();
    runner.join();
}

TEST(TransformStage, SkipsStaleVersionsProcessesLatest)
{
    // "g processes whichever output F_i happens to be in the buffer":
    // if versions arrive while g is busy, intermediate ones are skipped.
    auto in = std::make_shared<VersionedBuffer<int>>("in");
    auto out = std::make_shared<VersionedBuffer<int>>("out");
    std::vector<int> processed;
    TransformStage<int, int> stage(
        "track", in, out,
        [&](const int &value, Emitter<int> &emitter, StageContext &) {
            processed.push_back(value);
            emitter.emit(value, true);
        });

    for (int v = 1; v <= 10; ++v)
        in->publish(v, v == 10);
    ManualContext mc;
    StageContext ctx = mc.make();
    stage.run(ctx);

    // Started after all publishes: only the latest (final) is seen.
    EXPECT_EQ(processed, (std::vector<int>{10}));
    EXPECT_TRUE(out->final());
}

TEST(TransformStage, AnytimeChildEmitsSeveralVersionsPerInput)
{
    auto in = std::make_shared<VersionedBuffer<int>>("in");
    auto out = std::make_shared<VersionedBuffer<int>>("out");
    TransformStage<int, int> stage(
        "anytime", in, out,
        [](const int &value, Emitter<int> &emitter, StageContext &) {
            emitter.emit(value / 4, false); // coarse
            emitter.emit(value / 2, false); // finer
            emitter.emit(value, true);      // precise for this input
        });

    in->publish(100, true);
    ManualContext mc;
    StageContext ctx = mc.make();
    stage.run(ctx);

    EXPECT_EQ(out->version(), 3u);
    EXPECT_TRUE(out->final());
    EXPECT_EQ(*out->read().value, 100);
}

TEST(TransformStage, TwoInputJoinWaitsForBoth)
{
    auto a = std::make_shared<VersionedBuffer<int>>("a");
    auto b = std::make_shared<VersionedBuffer<int>>("b");
    auto out = std::make_shared<VersionedBuffer<int>>("out");
    TransformStage<int, int, int> stage(
        "sum", a, b, out,
        [](const int &x, const int &y, Emitter<int> &emitter,
           StageContext &) { emitter.emit(x + y, true); });

    ManualContext mc;
    std::thread runner([&] {
        StageContext ctx = mc.make();
        stage.run(ctx);
    });
    a->publish(1, true);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(out->version(), 0u) << "ran before second input existed";
    b->publish(2, true);
    runner.join();

    EXPECT_TRUE(out->final());
    EXPECT_EQ(*out->read().value, 3);
}

TEST(TransformStage, ReprocessesWhenAnyInputAdvances)
{
    auto a = std::make_shared<VersionedBuffer<int>>("a");
    auto b = std::make_shared<VersionedBuffer<int>>("b");
    auto out = std::make_shared<VersionedBuffer<int>>("out");
    TransformStage<int, int, int> stage(
        "sum", a, b, out,
        [](const int &x, const int &y, Emitter<int> &emitter,
           StageContext &) { emitter.emit(x + y, true); });

    a->publish(10, true);
    b->publish(1, false);
    ManualContext mc;
    std::thread runner([&] {
        StageContext ctx = mc.make();
        stage.run(ctx);
    });
    while (out->version() == 0)
        std::this_thread::yield();
    EXPECT_EQ(*out->read().value, 11);
    b->publish(2, true);
    runner.join();
    EXPECT_EQ(*out->read().value, 12);
    EXPECT_TRUE(out->final());
}

TEST(TransformStage, FunctionStageHelper)
{
    auto in = std::make_shared<VersionedBuffer<std::string>>("in");
    auto out = std::make_shared<VersionedBuffer<std::size_t>>("out");
    auto stage = makeFunctionStage<std::size_t, std::string>(
        "len", in, out,
        [](const std::string &s) { return s.size(); });

    in->publish(std::string("hello"), true);
    ManualContext mc;
    StageContext ctx = mc.make();
    stage->run(ctx);
    EXPECT_EQ(*out->read().value, 5u);
    EXPECT_TRUE(out->final());
}

TEST(TransformStage, ReadsAndWritesReportGraphEdges)
{
    auto in = std::make_shared<VersionedBuffer<int>>("in");
    auto out = std::make_shared<VersionedBuffer<int>>("out");
    TransformStage<int, int> stage(
        "t", in, out,
        [](const int &, Emitter<int> &, StageContext &) {});
    ASSERT_EQ(stage.reads().size(), 1u);
    EXPECT_EQ(stage.reads()[0], in.get());
    EXPECT_EQ(stage.writes(), out.get());
}

/**
 * Run @p stage on a single-worker context, let it process a non-final
 * input, then close that input degraded without a new version. The
 * stage must treat the terminal transition as new input: re-run on the
 * (now final) value and close its own output final and degraded.
 */
template <typename Stage>
void
expectFinishesOnDegradedClose(Stage &stage, VersionedBuffer<int> &in,
                              VersionedBuffer<int> &out)
{
    in.publish(5, false);
    ManualContext mc;
    std::thread runner([&] {
        StageContext ctx = mc.make();
        stage.run(ctx);
    });
    while (out.version() == 0)
        std::this_thread::yield();
    in.markDegradedFinal(0.5);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!out.final() && std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    mc.source.request_stop(); // unblocks a stage that missed the close
    runner.join();
    EXPECT_TRUE(out.final());
    EXPECT_TRUE(out.read().degraded);
    EXPECT_EQ(*out.read().value, 10);
}

TEST(TransformStage, DegradedCloseOfProcessedInputFinishesOutput)
{
    auto in = std::make_shared<VersionedBuffer<int>>("in");
    auto out = std::make_shared<VersionedBuffer<int>>("out");
    TransformStage<int, int> stage(
        "double", in, out,
        [](const int &value, Emitter<int> &emitter, StageContext &) {
            emitter.emit(value * 2, true);
        });
    expectFinishesOnDegradedClose(stage, *in, *out);
}

TEST(TransformStage, PartitionedDegradedCloseOfProcessedInputFinishesOutput)
{
    using Partial = OrdinalLog<int>;
    auto in = std::make_shared<VersionedBuffer<int>>("in");
    auto out = std::make_shared<VersionedBuffer<int>>("out");
    PartitionedBody<Partial, int, int> body;
    body.layout.steps = 1;
    body.layout.window = 1;
    body.layout.checkpointStride = 1;
    body.makePartial = [] { return Partial{}; };
    body.resetPartial = [](Partial &partial) { partial.clear(); };
    body.init = [](const int &) { return 0; };
    body.step = [](const int &value, std::uint64_t step, Partial &partial,
                   StageContext &) { partial.push_back({step, value * 2}); };
    body.merge = [](int &state, std::vector<Partial> &partials,
                    std::uint64_t, std::uint64_t) {
        for (const Partial &partial : partials)
            for (const auto &write : partial)
                state = write.value;
    };
    TransformStage<int, int> stage("double", in, out, std::move(body));
    expectFinishesOnDegradedClose(stage, *in, *out);
}

TEST(TransformStage, StopWhileWaitingExitsCleanly)
{
    auto in = std::make_shared<VersionedBuffer<int>>("in");
    auto out = std::make_shared<VersionedBuffer<int>>("out");
    TransformStage<int, int> stage(
        "t", in, out,
        [](const int &v, Emitter<int> &emitter, StageContext &) {
            emitter.emit(v, true);
        });
    ManualContext mc;
    std::thread runner([&] {
        StageContext ctx = mc.make();
        stage.run(ctx);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    mc.source.request_stop();
    runner.join();
    EXPECT_EQ(out->version(), 0u);
}

} // namespace
} // namespace anytime
