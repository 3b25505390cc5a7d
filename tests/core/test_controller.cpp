/**
 * @file
 * Tests for the run controllers: time budgets, accuracy-threshold
 * stopping, and run-to-completion (paper Section III-A's stopping
 * policies).
 */

#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <thread>

#include "core/controller.hpp"
#include "core/source_stage.hpp"

namespace anytime {
namespace {

using namespace std::chrono_literals;

/** Automaton whose single stage takes roughly @p total_us microseconds. */
struct SlowCounter
{
    Automaton automaton;
    std::shared_ptr<VersionedBuffer<long>> out;

    explicit SlowCounter(std::uint64_t steps, std::uint64_t step_us = 50)
    {
        out = automaton.makeBuffer<long>("out");
        automaton.addStage(makeDiffusiveSource<long>(
            "counter", out, 0L, steps,
            [step_us](std::uint64_t, long &state, StageContext &) {
                state += 1;
                std::this_thread::sleep_for(
                    std::chrono::microseconds(step_us));
            },
            /*publish_period=*/8));
    }
};

TEST(Controller, TimeBudgetStopsLongRun)
{
    SlowCounter rig(1u << 20); // ~50 s if left alone
    const RunOutcome outcome =
        runWithTimeBudget(rig.automaton, 50ms);
    EXPECT_FALSE(outcome.reachedPrecise);
    EXPECT_LT(outcome.seconds, 5.0);
    // The anytime guarantee: a valid approximate output exists.
    const auto snap = rig.out->read();
    ASSERT_TRUE(snap);
    EXPECT_GT(*snap.value, 0);
}

TEST(Controller, TimeBudgetLetsShortRunFinish)
{
    SlowCounter rig(64, 10);
    const RunOutcome outcome = runWithTimeBudget(rig.automaton, 10s);
    EXPECT_TRUE(outcome.reachedPrecise);
    EXPECT_TRUE(rig.out->final());
    EXPECT_EQ(*rig.out->read().value, 64);
}

TEST(Controller, RunToCompletionReachesPrecise)
{
    SlowCounter rig(128, 5);
    const RunOutcome outcome = runToCompletion(rig.automaton);
    EXPECT_TRUE(outcome.reachedPrecise);
    EXPECT_EQ(*rig.out->read().value, 128);
}

TEST(Controller, AcceptabilityPredicateStopsEarly)
{
    SlowCounter rig(1u << 20);
    auto out = rig.out;
    const RunOutcome outcome = runUntilAcceptable(
        rig.automaton,
        [out] {
            const auto snap = out->read();
            return snap && *snap.value >= 16; // "good enough"
        },
        2ms);
    EXPECT_FALSE(outcome.reachedPrecise);
    EXPECT_GE(*rig.out->read().value, 16);
}

TEST(Controller, AcceptabilityPredicateNeverTrueRunsToEnd)
{
    SlowCounter rig(32, 5);
    const RunOutcome outcome = runUntilAcceptable(
        rig.automaton, [] { return false; }, 1ms);
    EXPECT_TRUE(outcome.reachedPrecise);
    EXPECT_EQ(*rig.out->read().value, 32);
}

TEST(Controller, PredicateAlreadyTrueStopsBeforeFirstPoll)
{
    SlowCounter rig(1u << 20); // ~50 s if left alone
    // The condition holds before the automaton produces anything: the
    // run must stop immediately, not sleep out a poll interval first.
    const RunOutcome outcome = runUntilAcceptable(
        rig.automaton, [] { return true; }, 10s);
    EXPECT_FALSE(outcome.reachedPrecise);
    EXPECT_LT(outcome.seconds, 5.0);
}

TEST(Controller, ThrowingPredicateShutsDownAndPropagates)
{
    SlowCounter rig(1u << 20);
    EXPECT_THROW(
        runUntilAcceptable(
            rig.automaton,
            []() -> bool {
                throw std::runtime_error("metric exploded");
            },
            1ms),
        std::runtime_error);
    // The automaton was stopped and joined before the throw escaped:
    // no workers remain (a timed wait returns immediately) and the
    // failure did not come from a stage.
    EXPECT_TRUE(rig.automaton.waitUntilDone(std::chrono::nanoseconds{0}));
    EXPECT_FALSE(rig.automaton.failed());
    // The anytime guarantee still holds for whatever was published.
    EXPECT_FALSE(rig.automaton.complete());
}

TEST(Controller, CompletionBetweenPollsReturnsPromptly)
{
    SlowCounter rig(32, 5); // finishes in a few milliseconds
    // A poll interval far longer than the run: completion must wake
    // the controller, not wait out the interval.
    const RunOutcome outcome = runUntilAcceptable(
        rig.automaton, [] { return false; }, 60s);
    EXPECT_TRUE(outcome.reachedPrecise);
    EXPECT_LT(outcome.seconds, 10.0);
    EXPECT_EQ(*rig.out->read().value, 32);
}

} // namespace
} // namespace anytime
