/**
 * @file
 * Tests for the intra-stage parallelism layer (Section IV-C1): the
 * SweepBarrier protocol, the partitioned diffusive source stage, and
 * the partitioned transform body — determinism (bit-identical versions
 * for every worker count), empty partitions, and stop behavior.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "core/automaton.hpp"
#include "core/parallel_stage.hpp"
#include "core/transform_stage.hpp"

namespace anytime {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------- barrier

TEST(SweepBarrier, SingleWorkerIsAlwaysLeader)
{
    SweepBarrier barrier(1);
    std::stop_source source;
    for (int round = 0; round < 3; ++round) {
        ASSERT_EQ(barrier.arrive(0, source.get_token()),
                  SweepBarrier::Outcome::leader);
        barrier.release();
    }
}

TEST(SweepBarrier, ExactlyOneLeaderPerWindow)
{
    constexpr unsigned kWorkers = 4;
    constexpr int kWindows = 25;
    SweepBarrier barrier(kWorkers);
    std::stop_source source;
    std::vector<std::atomic<int>> leaders(kWindows);
    std::vector<std::thread> threads;
    for (unsigned w = 0; w < kWorkers; ++w) {
        threads.emplace_back([&, w] {
            for (int window = 0; window < kWindows; ++window) {
                const auto outcome =
                    barrier.arrive(w, source.get_token());
                ASSERT_NE(outcome, SweepBarrier::Outcome::stopped);
                if (outcome == SweepBarrier::Outcome::leader) {
                    ++leaders[window];
                    barrier.release();
                }
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    for (int window = 0; window < kWindows; ++window)
        EXPECT_EQ(leaders[window].load(), 1) << "window " << window;
}

TEST(SweepBarrier, StopWakesWaitersAndRetractsArrival)
{
    SweepBarrier barrier(2);
    std::stop_source source;
    std::thread waiter([&] {
        EXPECT_EQ(barrier.arrive(0, source.get_token()),
                  SweepBarrier::Outcome::stopped);
        barrier.leave(0);
    });
    std::this_thread::sleep_for(20ms);
    source.request_stop();
    waiter.join();
    // The retracted arrival means this thread still elects as leader.
    std::stop_source fresh;
    EXPECT_EQ(barrier.arrive(1, fresh.get_token()),
              SweepBarrier::Outcome::leader);
    barrier.release();
}

TEST(SweepBarrier, LeavePromotesFullyArrivedRemainder)
{
    // Workers A and B are blocked in arrive(); the never-arriving C
    // leaves. With no future arrival possible, leave() must open the
    // barrier so A and B do not wait for a leader that never comes.
    SweepBarrier barrier(3);
    std::stop_source source;
    std::atomic<int> released{0};
    std::vector<std::thread> blocked;
    for (unsigned i = 0; i < 2; ++i) {
        blocked.emplace_back([&, i] {
            const auto outcome = barrier.arrive(i, source.get_token());
            EXPECT_NE(outcome, SweepBarrier::Outcome::stopped);
            if (outcome == SweepBarrier::Outcome::leader)
                barrier.release();
            ++released;
        });
    }
    std::this_thread::sleep_for(20ms);
    EXPECT_EQ(released.load(), 0);
    barrier.leave(2);
    for (auto &thread : blocked)
        thread.join();
    EXPECT_EQ(released.load(), 2);
}

TEST(SweepBarrier, LeaveDuringLeaderMergeKeepsBarrierClosed)
{
    // Regression: while an elected leader is merging outside the lock,
    // a stopped worker's leave() used to see arrivedCount ==
    // participants and reopen the barrier, releasing the remaining
    // waiter into a race with the in-flight merge. The barrier must
    // stay closed until the leader's own release().
    SweepBarrier barrier(3);
    std::stop_source keepRunning;
    std::stop_source stopOne;

    std::atomic<int> survivorReleased{0};
    std::thread survivor([&] {
        EXPECT_EQ(barrier.arrive(0, keepRunning.get_token()),
                  SweepBarrier::Outcome::released);
        ++survivorReleased;
    });
    std::thread quitter([&] {
        EXPECT_EQ(barrier.arrive(1, stopOne.get_token()),
                  SweepBarrier::Outcome::stopped);
        barrier.leave(1);
    });

    // Let both workers block, then arrive last: this thread is the
    // leader, now notionally merging outside the barrier lock.
    std::this_thread::sleep_for(20ms);
    ASSERT_EQ(barrier.arrive(2, keepRunning.get_token()),
              SweepBarrier::Outcome::leader);

    // Mid-merge, one waiter stops and leaves the gang.
    stopOne.request_stop();
    quitter.join();

    // The survivor must still be parked: nobody may pass the barrier
    // while the leader's merge is in flight.
    std::this_thread::sleep_for(20ms);
    EXPECT_EQ(survivorReleased.load(), 0);

    barrier.release();
    survivor.join();
    EXPECT_EQ(survivorReleased.load(), 1);
}

// ------------------------------------------------- partitioned diffusive

/** Sum-reduction source (a zero-input TransformStage with a
 *  PartitionedBody): version v must equal the sum of f(step) over all
 *  steps merged so far — independent of worker count. */
std::shared_ptr<TransformStage<std::uint64_t>>
makeSumStage(std::shared_ptr<VersionedBuffer<std::uint64_t>> out,
             std::uint64_t steps, std::uint64_t window,
             PartitionKind kind)
{
    SweepLayout layout;
    layout.steps = steps;
    layout.window = window;
    layout.kind = kind;
    layout.checkpointStride = 4;
    using Sum = std::uint64_t;
    const auto zero = [] { return Sum{0}; };
    return std::make_shared<TransformStage<Sum>>(
        "sum", std::move(out),
        PartitionedBody<Sum, Sum>{
            layout, zero, [](Sum &partial) { partial = 0; }, zero,
            [](std::uint64_t step, Sum &partial, StageContext &) {
                partial += step * step + 1;
            },
            [](Sum &state, std::vector<Sum> &partials, std::uint64_t,
               std::uint64_t) {
                for (const Sum partial : partials)
                    state += partial;
            }});
}

std::uint64_t
expectedSum(std::uint64_t steps)
{
    std::uint64_t sum = 0;
    for (std::uint64_t step = 0; step < steps; ++step)
        sum += step * step + 1;
    return sum;
}

struct RecordedVersion
{
    std::uint64_t version;
    std::uint64_t value;
    bool final;
};

std::vector<RecordedVersion>
runSumAutomaton(unsigned workers, std::uint64_t steps,
                std::uint64_t window, PartitionKind kind)
{
    Automaton automaton;
    auto out = automaton.makeBuffer<std::uint64_t>("sum.out");
    std::mutex mutex;
    std::vector<RecordedVersion> versions;
    out->addObserver([&](const Snapshot<std::uint64_t> &snapshot) {
        std::lock_guard lock(mutex);
        versions.push_back(
            {snapshot.version, *snapshot.value, snapshot.final});
    });
    automaton.addStage(makeSumStage(out, steps, window, kind), workers);
    automaton.start();
    automaton.waitUntilDone();
    automaton.shutdown();
    return versions;
}

TEST(PartitionedDiffusiveStage, EveryVersionBitIdenticalAcrossWorkers)
{
    constexpr std::uint64_t kSteps = 40;
    constexpr std::uint64_t kWindow = 5;
    for (const PartitionKind kind :
         {PartitionKind::cyclic, PartitionKind::block}) {
        const auto reference =
            runSumAutomaton(1, kSteps, kWindow, kind);
        ASSERT_EQ(reference.size(), kSteps / kWindow);
        EXPECT_TRUE(reference.back().final);
        EXPECT_EQ(reference.back().value, expectedSum(kSteps));
        for (const unsigned workers : {2u, 4u, 7u}) {
            const auto versions =
                runSumAutomaton(workers, kSteps, kWindow, kind);
            ASSERT_EQ(versions.size(), reference.size())
                << partitionKindName(kind) << " workers " << workers;
            for (std::size_t i = 0; i < versions.size(); ++i) {
                EXPECT_EQ(versions[i].version, reference[i].version);
                EXPECT_EQ(versions[i].value, reference[i].value)
                    << partitionKindName(kind) << " workers " << workers
                    << " version " << i;
                EXPECT_EQ(versions[i].final, reference[i].final);
            }
        }
    }
}

TEST(PartitionedDiffusiveStage, MoreWorkersThanWindowSteps)
{
    // Window of 1 step with 7 workers: six slices per window are empty
    // (the threadId >= n edge); the barrier must still publish every
    // version and the final result must be exact.
    const auto versions =
        runSumAutomaton(7, /*steps=*/5, /*window=*/1,
                        PartitionKind::cyclic);
    ASSERT_EQ(versions.size(), 5u);
    EXPECT_TRUE(versions.back().final);
    EXPECT_EQ(versions.back().value, expectedSum(5));
}

TEST(PartitionedDiffusiveStage, DisjointFillKeepsOrderSensitiveWritesExact)
{
    // Writes that collide (state[s % 7], later ordinal wins) are order
    // sensitive across partitions — exactly the tree block-fill
    // hazard. In the fill phase each worker writes only the slots its
    // own steps still own at the window end (no later step of the
    // window has the same residue), so the writes are disjoint and
    // every version must equal the sequential result at its window end
    // for any worker count.
    constexpr std::uint64_t kSteps = 33;
    constexpr std::uint64_t kWindow = 11;
    using State = std::vector<std::uint64_t>;
    using Partial = std::vector<std::uint64_t>;
    const auto value = [](std::uint64_t step) { return step * 13 + 1; };
    const auto run = [&](unsigned workers) {
        SweepLayout layout;
        layout.steps = kSteps;
        layout.window = kWindow;
        layout.kind = PartitionKind::cyclic;
        Automaton automaton;
        auto out = automaton.makeBuffer<State>("fill.out");
        std::vector<State> versions;
        out->addObserver([&](const Snapshot<State> &snapshot) {
            versions.push_back(*snapshot.value);
        });
        auto stage = std::make_shared<TransformStage<State>>(
            "fill", out,
            PartitionedBody<Partial, State>{
                layout, [] { return Partial{}; },
                [](Partial &partial) { partial.clear(); },
                [] { return State(7, 0); },
                [&](std::uint64_t step, Partial &partial, StageContext &) {
                    partial.push_back(value(step));
                },
                /*merge=*/{},
                [](State &state, const Partial &partial,
                   const SweepSlice &slice) {
                    for (std::uint64_t k = 0; k < slice.size; ++k) {
                        const std::uint64_t step = slice.step(k);
                        if (step + 7 >= slice.end)
                            state[step % 7] = partial[k];
                    }
                }});
        automaton.addStage(std::move(stage), workers);
        automaton.start();
        automaton.waitUntilDone();
        automaton.shutdown();
        return versions;
    };
    std::vector<State> sequential;
    State state(7, 0);
    for (std::uint64_t step = 0; step < kSteps; ++step) {
        state[step % 7] = value(step);
        if ((step + 1) % kWindow == 0 || step + 1 == kSteps)
            sequential.push_back(state);
    }
    for (const unsigned workers : {1u, 4u, 7u})
        EXPECT_EQ(run(workers), sequential) << "workers " << workers;
}

TEST(PartitionedDiffusiveStage, StopMidSweepLeavesValidNonFinalBuffer)
{
    SweepLayout layout;
    layout.steps = 10000;
    layout.window = 100;
    layout.checkpointStride = 1;
    Automaton automaton;
    auto out = automaton.makeBuffer<std::uint64_t>("slow.out");
    using Sum = std::uint64_t;
    const auto zero = [] { return Sum{0}; };
    auto stage = std::make_shared<TransformStage<Sum>>(
        "slow", out,
        PartitionedBody<Sum, Sum>{
            layout, zero, [](Sum &partial) { partial = 0; }, zero,
            [](std::uint64_t, Sum &partial, StageContext &) {
                partial += 1;
                std::this_thread::sleep_for(50us);
            },
            [](Sum &state, std::vector<Sum> &partials, std::uint64_t,
               std::uint64_t) {
                for (const Sum partial : partials)
                    state += partial;
            }});
    automaton.addStage(std::move(stage), 4);
    automaton.start();
    std::this_thread::sleep_for(20ms);
    automaton.stop();
    automaton.waitUntilDone(100ms);
    automaton.shutdown();
    // Whatever was published is a complete window prefix; an
    // interrupted window must never appear.
    const auto snapshot = out->read();
    EXPECT_FALSE(snapshot.final);
    if (snapshot.value)
        EXPECT_EQ(*snapshot.value % layout.window, 0u);
}

// ------------------------------------------------- partitioned transform

TEST(PartitionedTransformStage, FinalOutputMatchesPreciseForAnyWorkers)
{
    // square-each-element transform over the latest input version.
    using Vec = std::vector<std::int64_t>;
    using Partial = Vec;
    const Vec input_final{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7};
    const auto run = [&](unsigned workers) {
        Automaton automaton;
        auto in = automaton.makeBuffer<Vec>("in");
        auto out = automaton.makeBuffer<Vec>("out");
        PartitionedBody<Partial, Vec, Vec> body;
        body.layout.steps = input_final.size();
        body.layout.window = 4;
        body.layout.kind = PartitionKind::cyclic;
        body.layout.checkpointStride = 2;
        body.makePartial = [] { return Partial{}; };
        body.resetPartial = [](Partial &partial) { partial.clear(); };
        body.init = [](const Vec &in_value) {
            return Vec(in_value.size(), 0);
        };
        body.step = [](const Vec &in_value, std::uint64_t step,
                       Partial &partial, StageContext &) {
            partial.push_back(in_value[step] * in_value[step]);
        };
        // Every step owns its own element: disjoint writes.
        body.fill = [](Vec &state, const Partial &partial,
                       const SweepSlice &slice) {
            for (std::uint64_t k = 0; k < slice.size; ++k)
                state[slice.step(k)] = partial[k];
        };
        auto stage = std::make_shared<TransformStage<Vec, Vec>>(
            "square", in, out, std::move(body));
        automaton.addStage(std::move(stage), workers);

        // A non-final version first, the final one shortly after the
        // automaton is running (exercises the re-sweep/abandon path).
        Vec earlier(input_final.size(), 1);
        in->publish(std::move(earlier), false);
        automaton.start();
        std::this_thread::sleep_for(5ms);
        in->publish(input_final, true);
        automaton.waitUntilDone();
        automaton.shutdown();
        return *out->read().value;
    };

    Vec precise(input_final.size());
    for (std::size_t i = 0; i < input_final.size(); ++i)
        precise[i] = input_final[i] * input_final[i];
    for (const unsigned workers : {1u, 2u, 4u, 7u}) {
        EXPECT_EQ(run(workers), precise) << "workers " << workers;
    }
}

TEST(PartitionedTransformStage, EmitBodyStillRejectsMultipleWorkers)
{
    // The legacy emit-based body cannot be partitioned; placing it on
    // several workers must fail loudly, not race.
    auto in = std::make_shared<VersionedBuffer<int>>("in");
    auto out = std::make_shared<VersionedBuffer<int>>("out");
    TransformStage<int, int> stage(
        "legacy", in, out,
        [](const int &value, Emitter<int> &emitter, StageContext &) {
            emitter.emit(value, true);
        });
    PauseGate gate;
    StageStats stats;
    std::stop_source source;
    StageContext ctx(source.get_token(), gate, stats, 0, 2);
    EXPECT_THROW(stage.run(ctx), FatalError);
}

} // namespace
} // namespace anytime
