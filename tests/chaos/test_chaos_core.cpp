/**
 * @file
 * Core chaos suite: every injection mode (throw, stall, corrupt,
 * overrun) against a partitioned diffusive automaton at 1, 2, and 4
 * workers. The contract under fault is the paper's anytime guarantee
 * read as fault tolerance: the automaton always terminates with a
 * valid output in every buffer, and every version NOT touched by a
 * fault is bit-identical to the fault-free run.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "core/automaton.hpp"
#include "core/parallel_stage.hpp"
#include "core/transform_stage.hpp"
#include "core/worker_pool.hpp"
#include "fault/fault.hpp"

namespace anytime {
namespace {

using namespace std::chrono_literals;

struct Recorded
{
    std::uint64_t version;
    std::uint64_t value;
    bool final;
    bool degraded;
};

struct RunResult
{
    std::vector<Recorded> versions;
    bool failed = false;
    bool degraded = false;
    bool complete = false;
    bool bufferFinal = false;
    std::vector<std::string> quarantined;
};

constexpr std::uint64_t kSteps = 48;
constexpr std::uint64_t kWindow = 6;

/** The sum automaton from the determinism suite, chaos-instrumented. */
RunResult
runSum(unsigned workers, std::chrono::nanoseconds stall_timeout =
                             std::chrono::nanoseconds::zero())
{
    Automaton automaton;
    automaton.setFaultPolicy(FaultPolicy::quarantine);
    auto out = automaton.makeBuffer<std::uint64_t>("sum.out");
    std::mutex mutex;
    RunResult result;
    out->addObserver([&](const Snapshot<std::uint64_t> &snapshot) {
        std::lock_guard lock(mutex);
        result.versions.push_back({snapshot.version, *snapshot.value,
                                   snapshot.final, snapshot.degraded});
    });
    SweepLayout layout;
    layout.steps = kSteps;
    layout.window = kWindow;
    layout.kind = PartitionKind::cyclic;
    layout.checkpointStride = 1;
    layout.stallTimeout = stall_timeout;
    auto stage = std::make_shared<
        PartitionedDiffusiveStage<std::uint64_t, std::uint64_t>>(
        "sum", out, std::uint64_t{0}, layout,
        [] { return std::uint64_t{0}; },
        [](std::uint64_t &partial) { partial = 0; },
        [](std::uint64_t step, std::uint64_t &partial, StageContext &) {
            partial += step * step + 1;
        },
        [](std::uint64_t &state, std::vector<std::uint64_t> &partials,
           std::uint64_t, std::uint64_t) {
            for (const std::uint64_t partial : partials)
                state += partial;
        });
    automaton.addStage(std::move(stage), workers);
    automaton.start();
    // Generous bound: chaos runs must terminate, never hang.
    EXPECT_TRUE(automaton.waitUntilDone(30s));
    automaton.shutdown();
    result.failed = automaton.failed();
    result.degraded = automaton.degraded();
    result.complete = automaton.complete();
    result.bufferFinal = out->final();
    result.quarantined = automaton.quarantinedStages();
    return result;
}

/** Versions not flagged degraded must match the fault-free run. */
void
expectCleanPrefixBitIdentical(const RunResult &chaos,
                              const RunResult &reference)
{
    for (const Recorded &recorded : chaos.versions) {
        if (recorded.degraded)
            continue;
        ASSERT_LE(recorded.version, reference.versions.size());
        const Recorded &expected =
            reference.versions[recorded.version - 1];
        EXPECT_EQ(recorded.value, expected.value)
            << "version " << recorded.version;
    }
}

class ChaosCoreTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        if (!ANYTIME_FAULTS_ENABLED)
            GTEST_SKIP() << "built with ANYTIME_FAULTS=OFF";
    }
    void TearDown() override { fault::FaultInjector::disarm(); }
};

TEST_F(ChaosCoreTest, ThrowModeQuarantinesAndTerminatesDegraded)
{
    const RunResult reference = runSum(1);
    ASSERT_FALSE(reference.failed);
    ASSERT_TRUE(reference.complete);
    for (const unsigned workers : {1u, 2u, 4u}) {
        // Fire on a mid-sweep checkpoint so some clean versions exist.
        fault::FaultInjector::arm(
            fault::FaultPlan::parse("stage.body:sum=throw@20"));
        const RunResult chaos = runSum(workers);
        fault::FaultInjector::disarm();

        EXPECT_TRUE(chaos.failed) << "workers " << workers;
        EXPECT_TRUE(chaos.degraded) << "workers " << workers;
        EXPECT_FALSE(chaos.complete) << "workers " << workers;
        // Degradation contract: the buffer still reached a terminal
        // state — the last good version, closed degraded.
        EXPECT_TRUE(chaos.bufferFinal) << "workers " << workers;
        ASSERT_EQ(chaos.quarantined.size(), 1u) << "workers " << workers;
        EXPECT_EQ(chaos.quarantined[0], "sum");
        expectCleanPrefixBitIdentical(chaos, reference);
    }
}

TEST_F(ChaosCoreTest, StallModeWatchdogExpelsAndGangCompletes)
{
    const RunResult reference = runSum(1);
    for (const unsigned workers : {2u, 4u}) {
        // One worker sleeps 400 ms mid-window; the 40 ms watchdog
        // expels it and the surviving gang finishes every window.
        fault::FaultInjector::arm(
            fault::FaultPlan::parse("stage.body:sum=stall@20:400"));
        const RunResult chaos = runSum(workers, 40ms);
        fault::FaultInjector::disarm();

        EXPECT_FALSE(chaos.failed) << "workers " << workers;
        EXPECT_TRUE(chaos.degraded) << "workers " << workers;
        EXPECT_TRUE(chaos.bufferFinal) << "workers " << workers;
        EXPECT_TRUE(chaos.quarantined.empty());
        // Clean (pre-expulsion) versions are bit-identical; versions
        // merged without the expelled partition are flagged degraded.
        expectCleanPrefixBitIdentical(chaos, reference);
        bool sawDegraded = false;
        for (const Recorded &recorded : chaos.versions)
            sawDegraded = sawDegraded || recorded.degraded;
        EXPECT_TRUE(sawDegraded) << "workers " << workers;
    }
}

TEST_F(ChaosCoreTest, StallWithoutWatchdogOnlyDelays)
{
    // No watchdog armed: the stall is absorbed as latency, the result
    // stays precise and every version is bit-identical.
    const RunResult reference = runSum(1);
    for (const unsigned workers : {1u, 2u, 4u}) {
        fault::FaultInjector::arm(
            fault::FaultPlan::parse("stage.body:sum=stall@10:50"));
        const RunResult chaos = runSum(workers);
        fault::FaultInjector::disarm();
        EXPECT_FALSE(chaos.failed);
        EXPECT_FALSE(chaos.degraded);
        EXPECT_TRUE(chaos.complete);
        ASSERT_EQ(chaos.versions.size(), reference.versions.size());
        expectCleanPrefixBitIdentical(chaos, reference);
    }
}

TEST_F(ChaosCoreTest, CorruptModeScramblesExactlyTheTargetVersion)
{
    const RunResult reference = runSum(1);
    for (const unsigned workers : {1u, 2u, 4u}) {
        // Corrupt the 3rd approximate publish of sum.out.
        fault::FaultInjector::arm(fault::FaultPlan::parse(
            "seed=13, publish:sum.out=corrupt@3"));
        const RunResult chaos = runSum(workers);
        fault::FaultInjector::disarm();

        EXPECT_FALSE(chaos.failed);
        EXPECT_TRUE(chaos.complete); // corruption is in-flight only
        ASSERT_EQ(chaos.versions.size(), reference.versions.size());
        for (std::size_t i = 0; i < chaos.versions.size(); ++i) {
            if (chaos.versions[i].version == 3) {
                EXPECT_NE(chaos.versions[i].value,
                          reference.versions[i].value)
                    << "workers " << workers;
            } else {
                EXPECT_EQ(chaos.versions[i].value,
                          reference.versions[i].value)
                    << "workers " << workers << " version " << i + 1;
            }
        }
        // The final (precise) version is never corrupted.
        EXPECT_TRUE(chaos.versions.back().final);
        EXPECT_EQ(chaos.versions.back().value,
                  reference.versions.back().value);
    }
}

TEST_F(ChaosCoreTest, OverrunModeDelaysButStaysPrecise)
{
    const RunResult reference = runSum(1);
    for (const unsigned workers : {1u, 2u, 4u}) {
        // Overrun on the leader merge: blows the window's time budget
        // while the gang is parked at the barrier.
        fault::FaultInjector::arm(
            fault::FaultPlan::parse("sweep.merge:sum=overrun@2x2:30"));
        const RunResult chaos = runSum(workers);
        fault::FaultInjector::disarm();
        EXPECT_FALSE(chaos.failed);
        EXPECT_FALSE(chaos.degraded);
        EXPECT_TRUE(chaos.complete);
        ASSERT_EQ(chaos.versions.size(), reference.versions.size());
        expectCleanPrefixBitIdentical(chaos, reference);
    }
}

TEST_F(ChaosCoreTest, StopAllPolicyStillStopsEverything)
{
    // The historical policy is untouched by the containment work: a
    // throwing stage stops the pipeline, buffers keep their last
    // versions, nothing is marked final.
    fault::FaultInjector::arm(
        fault::FaultPlan::parse("stage.body:sum=throw@8"));
    Automaton automaton; // default policy: stopAll
    auto out = automaton.makeBuffer<std::uint64_t>("sum.out");
    SweepLayout layout;
    layout.steps = kSteps;
    layout.window = kWindow;
    layout.checkpointStride = 1;
    auto stage = std::make_shared<
        PartitionedDiffusiveStage<std::uint64_t, std::uint64_t>>(
        "sum", out, std::uint64_t{0}, layout,
        [] { return std::uint64_t{0}; },
        [](std::uint64_t &partial) { partial = 0; },
        [](std::uint64_t, std::uint64_t &partial, StageContext &) {
            partial += 1;
        },
        [](std::uint64_t &state, std::vector<std::uint64_t> &partials,
           std::uint64_t, std::uint64_t) {
            for (const std::uint64_t partial : partials)
                state += partial;
        });
    automaton.addStage(std::move(stage), 2);
    automaton.start();
    EXPECT_TRUE(automaton.waitUntilDone(30s));
    automaton.shutdown();
    fault::FaultInjector::disarm();
    EXPECT_TRUE(automaton.failed());
    EXPECT_TRUE(automaton.quarantinedStages().empty());
    EXPECT_FALSE(out->final());
}

TEST_F(ChaosCoreTest, QuarantineCascadesThroughEmptyUpstreamBuffer)
{
    // The source faults before its first publish; its reader can never
    // compute. The cascade must quarantine the reader too so the whole
    // pipeline drains (no hang) with both buffers closed degraded.
    fault::FaultInjector::arm(
        fault::FaultPlan::parse("stage.body:src=throw@1"));
    Automaton automaton;
    automaton.setFaultPolicy(FaultPolicy::quarantine);
    auto mid = automaton.makeBuffer<std::uint64_t>("mid");
    auto out = automaton.makeBuffer<std::uint64_t>("final");
    SweepLayout layout;
    layout.steps = 8;
    layout.window = 4;
    layout.checkpointStride = 1;
    auto source = std::make_shared<
        PartitionedDiffusiveStage<std::uint64_t, std::uint64_t>>(
        "src", mid, std::uint64_t{0}, layout,
        [] { return std::uint64_t{0}; },
        [](std::uint64_t &partial) { partial = 0; },
        [](std::uint64_t, std::uint64_t &partial, StageContext &) {
            partial += 1;
        },
        [](std::uint64_t &state, std::vector<std::uint64_t> &partials,
           std::uint64_t, std::uint64_t) {
            for (const std::uint64_t partial : partials)
                state += partial;
        });
    auto transform = std::make_shared<TransformStage<std::uint64_t,
                                                     std::uint64_t>>(
        "double", mid, out,
        [](const std::uint64_t &value, Emitter<std::uint64_t> &emitter,
           StageContext &) { emitter.emit(value * 2, true); });
    automaton.addStage(std::move(source), 1);
    automaton.addStage(std::move(transform), 1);
    automaton.start();
    EXPECT_TRUE(automaton.waitUntilDone(30s));
    automaton.shutdown();
    fault::FaultInjector::disarm();
    EXPECT_TRUE(automaton.failed());
    EXPECT_TRUE(automaton.degraded());
    EXPECT_TRUE(mid->final());
    EXPECT_TRUE(out->final());
    EXPECT_TRUE(mid->degraded());
    EXPECT_TRUE(out->degraded());
}

TEST_F(ChaosCoreTest, DownstreamFinishesOnQuarantinedUpstreamOutput)
{
    // The source faults after publishing some versions; the reader
    // must finish its transform on the degraded terminal input and
    // close its own buffer final, with the degraded bit propagated.
    fault::FaultInjector::arm(
        fault::FaultPlan::parse("stage.body:src=throw@6"));
    Automaton automaton;
    automaton.setFaultPolicy(FaultPolicy::quarantine);
    auto mid = automaton.makeBuffer<std::uint64_t>("mid");
    auto out = automaton.makeBuffer<std::uint64_t>("final");
    SweepLayout layout;
    layout.steps = 32;
    layout.window = 4;
    layout.checkpointStride = 1;
    auto source = std::make_shared<
        PartitionedDiffusiveStage<std::uint64_t, std::uint64_t>>(
        "src", mid, std::uint64_t{0}, layout,
        [] { return std::uint64_t{0}; },
        [](std::uint64_t &partial) { partial = 0; },
        [](std::uint64_t, std::uint64_t &partial, StageContext &) {
            partial += 1;
        },
        [](std::uint64_t &state, std::vector<std::uint64_t> &partials,
           std::uint64_t, std::uint64_t) {
            for (const std::uint64_t partial : partials)
                state += partial;
        });
    auto transform = std::make_shared<TransformStage<std::uint64_t,
                                                     std::uint64_t>>(
        "double", mid, out,
        [](const std::uint64_t &value, Emitter<std::uint64_t> &emitter,
           StageContext &) { emitter.emit(value * 2, true); });
    automaton.addStage(std::move(source), 1);
    automaton.addStage(std::move(transform), 1);
    automaton.start();
    EXPECT_TRUE(automaton.waitUntilDone(30s));
    automaton.shutdown();
    fault::FaultInjector::disarm();
    EXPECT_TRUE(automaton.failed());
    EXPECT_TRUE(automaton.degraded());
    ASSERT_TRUE(mid->final());
    ASSERT_TRUE(out->final());
    EXPECT_TRUE(mid->degraded());
    // The transform ran on a degraded terminal input: its output
    // carries the propagated degraded bit and the doubled value.
    const auto mid_snapshot = mid->read();
    const auto out_snapshot = out->read();
    ASSERT_TRUE(mid_snapshot.value != nullptr);
    ASSERT_TRUE(out_snapshot.value != nullptr);
    EXPECT_TRUE(out_snapshot.degraded);
    EXPECT_EQ(*out_snapshot.value, *mid_snapshot.value * 2);
}

TEST_F(ChaosCoreTest, PartitionedReaderFinishesOnQuarantinedUpstream)
{
    // Same shape as above with a partitioned-body transform reader on
    // two workers: its decision round must also treat the degraded
    // terminal close of an already-processed input as new input.
    fault::FaultInjector::arm(
        fault::FaultPlan::parse("stage.body:src=throw@6"));
    Automaton automaton;
    automaton.setFaultPolicy(FaultPolicy::quarantine);
    auto mid = automaton.makeBuffer<std::uint64_t>("mid");
    auto out = automaton.makeBuffer<std::uint64_t>("final");
    SweepLayout layout;
    layout.steps = 32;
    layout.window = 4;
    layout.checkpointStride = 1;
    auto source = std::make_shared<
        PartitionedDiffusiveStage<std::uint64_t, std::uint64_t>>(
        "src", mid, std::uint64_t{0}, layout,
        [] { return std::uint64_t{0}; },
        [](std::uint64_t &partial) { partial = 0; },
        [](std::uint64_t, std::uint64_t &partial, StageContext &) {
            partial += 1;
        },
        [](std::uint64_t &state, std::vector<std::uint64_t> &partials,
           std::uint64_t, std::uint64_t) {
            for (const std::uint64_t partial : partials)
                state += partial;
        });
    // Two steps, one per worker: each adds the input once.
    PartitionedBody<std::uint64_t, std::uint64_t, std::uint64_t> body;
    body.layout.steps = 2;
    body.layout.window = 2;
    body.layout.checkpointStride = 1;
    body.makePartial = [] { return std::uint64_t{0}; };
    body.resetPartial = [](std::uint64_t &partial) { partial = 0; };
    body.init = [](const std::uint64_t &) { return std::uint64_t{0}; };
    body.step = [](const std::uint64_t &value, std::uint64_t,
                   std::uint64_t &partial,
                   StageContext &) { partial += value; };
    body.merge = [](std::uint64_t &state,
                    std::vector<std::uint64_t> &partials, std::uint64_t,
                    std::uint64_t) {
        for (const std::uint64_t partial : partials)
            state += partial;
    };
    auto transform = std::make_shared<TransformStage<std::uint64_t,
                                                     std::uint64_t>>(
        "double", mid, out, std::move(body));
    automaton.addStage(std::move(source), 1);
    automaton.addStage(std::move(transform), 2);
    automaton.start();
    EXPECT_TRUE(automaton.waitUntilDone(30s));
    automaton.shutdown();
    fault::FaultInjector::disarm();
    EXPECT_TRUE(automaton.failed());
    EXPECT_TRUE(automaton.degraded());
    ASSERT_TRUE(mid->final());
    ASSERT_TRUE(out->final());
    EXPECT_TRUE(mid->degraded());
    const auto mid_snapshot = mid->read();
    const auto out_snapshot = out->read();
    ASSERT_TRUE(mid_snapshot.value != nullptr);
    ASSERT_TRUE(out_snapshot.value != nullptr);
    EXPECT_TRUE(out_snapshot.degraded);
    EXPECT_EQ(*out_snapshot.value, *mid_snapshot.value * 2);
}

TEST(ChaosCoreWatchdog, MidSweepExpulsionDegradesPartitionedTransform)
{
    // The watchdog expels worker 1 inside the first window of a
    // PartitionedBody sweep that has already started. Every version
    // published after that is missing worker 1's partition, so the
    // buffer must close degraded with the surviving fraction (1 of 2)
    // as its bound, never looking precise. No injector needed: the
    // stall is a plain sleep in the step function.
    Automaton automaton;
    auto in = automaton.makeBuffer<std::uint64_t>("in");
    auto out = automaton.makeBuffer<std::uint64_t>("out");
    in->publish(3, true); // final before start: one sweep, on final input
    std::atomic<bool> stalled{false};
    PartitionedBody<std::uint64_t, std::uint64_t, std::uint64_t> body;
    body.layout.steps = 8;
    body.layout.window = 2;
    body.layout.checkpointStride = 1;
    body.layout.stallTimeout = 50ms;
    body.makePartial = [] { return std::uint64_t{0}; };
    body.resetPartial = [](std::uint64_t &partial) { partial = 0; };
    body.init = [](const std::uint64_t &) { return std::uint64_t{0}; };
    body.step = [&stalled](const std::uint64_t &value, std::uint64_t,
                           std::uint64_t &partial, StageContext &ctx) {
        if (ctx.workerId() == 1 && !stalled.exchange(true))
            std::this_thread::sleep_for(500ms);
        partial += value;
    };
    body.merge = [](std::uint64_t &state,
                    std::vector<std::uint64_t> &partials, std::uint64_t,
                    std::uint64_t) {
        for (const std::uint64_t partial : partials)
            state += partial;
    };
    automaton.addStage(
        std::make_shared<TransformStage<std::uint64_t, std::uint64_t>>(
            "sum", in, out, std::move(body)),
        2);
    automaton.start();
    EXPECT_TRUE(automaton.waitUntilDone(30s));
    automaton.shutdown();
    ASSERT_TRUE(stalled.load());
    ASSERT_TRUE(out->final());
    const auto snapshot = out->read();
    ASSERT_TRUE(snapshot.value != nullptr);
    EXPECT_TRUE(snapshot.degraded);
    EXPECT_DOUBLE_EQ(snapshot.qorBound, 0.5);
}

TEST_F(ChaosCoreTest, PoolDispatchFaultIsAbsorbed)
{
    // A throw at the dispatch site must be absorbed by the pool: the
    // task still runs, nothing leaks, completion counting holds.
    fault::FaultInjector::arm(
        fault::FaultPlan::parse("pool.dispatch=throw@1x3"));
    WorkerPool pool(2);
    std::atomic<int> ran{0};
    for (int i = 0; i < 8; ++i)
        pool.submit([&] { ++ran; });
    while (pool.tasksCompleted() < 8)
        std::this_thread::sleep_for(1ms);
    pool.shutdown();
    fault::FaultInjector::disarm();
    EXPECT_EQ(ran.load(), 8);
}

} // namespace
} // namespace anytime
