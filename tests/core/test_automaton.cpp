/**
 * @file
 * End-to-end tests for the Automaton: graph validation (Properties 1-3
 * as checkable invariants), the paper's Figure 1 diamond pipeline, the
 * anytime interruption guarantee, and pause/resume.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "core/automaton.hpp"
#include "core/source_stage.hpp"
#include "core/transform_stage.hpp"

namespace anytime {
namespace {

using namespace std::chrono_literals;

/** A 100-step diffusive counter source. */
std::shared_ptr<DiffusiveSourceStage<long>>
makeCounter(const std::string &name,
            std::shared_ptr<VersionedBuffer<long>> out,
            std::uint64_t steps = 100, std::uint64_t period = 10)
{
    return std::make_shared<DiffusiveSourceStage<long>>(
        name, std::move(out), 0L, steps,
        [](std::uint64_t, long &state, StageContext &) { state += 1; },
        period);
}

TEST(Automaton, RejectsEmptyAndDoubleStart)
{
    Automaton automaton;
    EXPECT_THROW(automaton.start(), FatalError);
}

TEST(Automaton, RejectsTwoWritersPerBuffer)
{
    Automaton automaton;
    auto buffer = automaton.makeBuffer<long>("shared");
    automaton.addStage(makeCounter("a", buffer));
    automaton.addStage(makeCounter("b", buffer));
    EXPECT_THROW(automaton.start(), FatalError);
}

TEST(Automaton, RejectsReadOfUnwrittenBuffer)
{
    Automaton automaton;
    auto in = automaton.makeBuffer<long>("in");
    auto out = automaton.makeBuffer<long>("out");
    automaton.addStage(makeFunctionStage<long, long>(
        "f", in, out, [](const long &v) { return v; }));
    EXPECT_THROW(automaton.start(), FatalError);
}

TEST(Automaton, AcceptsExternallyPublishedInput)
{
    Automaton automaton;
    auto in = automaton.makeBuffer<long>("in");
    auto out = automaton.makeBuffer<long>("out");
    in->publish(7, true); // external input (e.g., loaded file)
    automaton.addStage(makeFunctionStage<long, long>(
        "f", in, out, [](const long &v) { return v * 6; }));
    automaton.start();
    EXPECT_TRUE(automaton.waitUntilDone(2s));
    automaton.shutdown();
    EXPECT_EQ(*out->read().value, 42);
}

TEST(Automaton, RejectsCycles)
{
    Automaton automaton;
    auto a = automaton.makeBuffer<long>("a");
    auto b = automaton.makeBuffer<long>("b");
    automaton.addStage(makeFunctionStage<long, long>(
        "f", a, b, [](const long &v) { return v; }));
    automaton.addStage(makeFunctionStage<long, long>(
        "g", b, a, [](const long &v) { return v; }));
    EXPECT_THROW(automaton.start(), FatalError);
}

TEST(Automaton, Figure1DiamondReachesPreciseOutput)
{
    // f -> (g, h) -> i, as in the paper's Figure 1.
    Automaton automaton;
    auto f_out = automaton.makeBuffer<long>("f");
    auto g_out = automaton.makeBuffer<long>("g");
    auto h_out = automaton.makeBuffer<long>("h");
    auto i_out = automaton.makeBuffer<long>("i");

    automaton.addStage(makeCounter("f", f_out, 200, 20));
    automaton.addStage(makeFunctionStage<long, long>(
        "g", f_out, g_out, [](const long &v) { return v * 2; }));
    automaton.addStage(makeFunctionStage<long, long>(
        "h", f_out, h_out, [](const long &v) { return v + 1000; }));
    automaton.addStage(makeFunctionStage<long, long, long>(
        "i", g_out, h_out, i_out,
        [](const long &g, const long &h) { return g + h; }));

    automaton.start();
    ASSERT_TRUE(automaton.waitUntilDone(5s));
    automaton.shutdown();

    EXPECT_TRUE(automaton.complete());
    EXPECT_EQ(*i_out->read().value, 200 * 2 + 200 + 1000);
    EXPECT_TRUE(i_out->final());
}

TEST(Automaton, ChildStartsBeforeParentFinishes)
{
    // The pipeline extracts parallelism: g must see a non-final version
    // of f (early availability), not only the final one.
    Automaton automaton;
    auto f_out = automaton.makeBuffer<long>("f");
    auto g_out = automaton.makeBuffer<long>("g");

    auto slow_counter = std::make_shared<DiffusiveSourceStage<long>>(
        "f", f_out, 0L, 50,
        [](std::uint64_t, long &state, StageContext &) {
            state += 1;
            std::this_thread::sleep_for(200us);
        },
        /*publish_period=*/5);
    automaton.addStage(std::move(slow_counter));

    std::atomic<long> first_seen{-1};
    automaton.addStage(std::make_shared<TransformStage<long, long>>(
        "g", f_out, g_out,
        [&](const long &v, Emitter<long> &emitter, StageContext &) {
            long expected = -1;
            first_seen.compare_exchange_strong(expected, v);
            emitter.emit(v, true);
        }));

    automaton.start();
    ASSERT_TRUE(automaton.waitUntilDone(5s));
    automaton.shutdown();

    EXPECT_GT(first_seen.load(), 0);
    EXPECT_LT(first_seen.load(), 50) << "g only ever saw the final f";
    EXPECT_EQ(*g_out->read().value, 50);
}

TEST(Automaton, StopLeavesValidApproximateOutput)
{
    // The anytime property: stopping early keeps the latest published
    // version available and marks nothing final.
    Automaton automaton;
    auto out = automaton.makeBuffer<long>("out");
    automaton.addStage(std::make_shared<DiffusiveSourceStage<long>>(
        "slow", out, 0L, 1u << 20,
        [](std::uint64_t, long &state, StageContext &) {
            state += 1;
            std::this_thread::sleep_for(10us);
        },
        /*publish_period=*/64));

    automaton.start();
    while (out->version() < 2)
        std::this_thread::yield();
    automaton.stop();
    automaton.shutdown();

    const auto snap = out->read();
    ASSERT_TRUE(snap);
    EXPECT_GT(*snap.value, 0);
    EXPECT_FALSE(snap.final);
    EXPECT_FALSE(automaton.complete());
}

TEST(Automaton, PauseFreezesProgressResumeContinues)
{
    Automaton automaton;
    auto out = automaton.makeBuffer<long>("out");
    automaton.addStage(std::make_shared<DiffusiveSourceStage<long>>(
        "counter", out, 0L, 1u << 18,
        [](std::uint64_t, long &state, StageContext &) {
            state += 1;
            std::this_thread::sleep_for(5us);
        },
        /*publish_period=*/16));

    automaton.start();
    while (out->version() < 2)
        std::this_thread::yield();
    automaton.pause();
    // Let any in-flight batch drain, then confirm no further progress.
    std::this_thread::sleep_for(20ms);
    const std::uint64_t frozen = out->version();
    std::this_thread::sleep_for(30ms);
    EXPECT_EQ(out->version(), frozen);

    automaton.resume();
    while (out->version() == frozen)
        std::this_thread::yield();
    EXPECT_GT(out->version(), frozen);
    automaton.stop();
    automaton.shutdown();
}

TEST(Automaton, CannotAddStagesAfterStart)
{
    Automaton automaton;
    auto out = automaton.makeBuffer<long>("out");
    automaton.addStage(makeCounter("c", out));
    automaton.start();
    EXPECT_THROW(automaton.addStage(makeCounter("d", out)), FatalError);
    automaton.shutdown();
}

TEST(Automaton, StopWhilePausedReleasesGateAndJoins)
{
    Automaton automaton;
    auto out = automaton.makeBuffer<long>("out");
    automaton.addStage(std::make_shared<DiffusiveSourceStage<long>>(
        "counter", out, 0L, 1u << 18,
        [](std::uint64_t, long &state, StageContext &) {
            state += 1;
            std::this_thread::sleep_for(5us);
        },
        /*publish_period=*/16));

    automaton.start();
    while (out->version() < 1)
        std::this_thread::yield();
    automaton.pause();
    // Give the workers time to actually block on the pause gate...
    std::this_thread::sleep_for(20ms);
    // ...then stop without resuming first: stop() must release the
    // gate, so the paused workers wake, observe the stop, and exit.
    automaton.stop();
    EXPECT_TRUE(automaton.waitUntilDone(5s)) << "stop on a paused "
        "automaton deadlocked instead of releasing the pause gate";
    automaton.shutdown();
    // The anytime guarantee held throughout: a valid snapshot remains.
    const auto snap = out->read();
    ASSERT_TRUE(snap);
    EXPECT_GT(*snap.value, 0);
    EXPECT_FALSE(automaton.complete());
}

TEST(Automaton, ShutdownWhilePausedJoinsCleanly)
{
    Automaton automaton;
    auto out = automaton.makeBuffer<long>("out");
    automaton.addStage(std::make_shared<DiffusiveSourceStage<long>>(
        "counter", out, 0L, 1u << 18,
        [](std::uint64_t, long &state, StageContext &) {
            state += 1;
            std::this_thread::sleep_for(5us);
        },
        /*publish_period=*/16));

    automaton.start();
    while (out->version() < 1)
        std::this_thread::yield();
    automaton.pause();
    std::this_thread::sleep_for(10ms);
    // shutdown() = stop() + join: must terminate despite the pause.
    automaton.shutdown();
    EXPECT_TRUE(automaton.waitUntilDone(0ms));
}

TEST(Automaton, StatsAccumulateWork)
{
    Automaton automaton;
    auto out = automaton.makeBuffer<long>("out");
    auto stage = makeCounter("c", out, 128, 32);
    automaton.addStage(stage);
    automaton.start();
    ASSERT_TRUE(automaton.waitUntilDone(2s));
    automaton.shutdown();
    EXPECT_EQ(stage->stats().steps.load(), 128u);
}

} // namespace
} // namespace anytime
