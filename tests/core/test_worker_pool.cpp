/**
 * @file
 * Tests for the reusable WorkerPool and for automatons running on
 * borrowed pool workers instead of dedicated jthreads — the executor
 * substrate of the serving runtime.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "core/automaton.hpp"
#include "core/parallel_stage.hpp"
#include "core/transform_stage.hpp"
#include "core/worker_pool.hpp"
#include "support/error.hpp"

namespace anytime {
namespace {

using namespace std::chrono_literals;

/** Slow counting automaton on the given worker count: each worker
 *  counts its slice of every 8-step window, and the leader adds the
 *  counts (the gang's partitioned counter). */
struct CounterRig
{
    Automaton automaton;
    std::shared_ptr<VersionedBuffer<long>> out;

    explicit CounterRig(std::uint64_t steps, std::uint64_t step_us = 0,
                        unsigned workers = 1)
    {
        out = automaton.makeBuffer<long>("out");
        SweepLayout layout;
        layout.steps = steps;
        layout.window = 8;
        automaton.addStage(
            std::make_shared<TransformStage<long>>(
                "counter", out,
                PartitionedBody<long, long>{
                    layout, [] { return 0L; },
                    [](long &partial) { partial = 0; }, [] { return 0L; },
                    [step_us](std::uint64_t, long &partial,
                              StageContext &) {
                        partial += 1;
                        if (step_us > 0)
                            std::this_thread::sleep_for(
                                std::chrono::microseconds(step_us));
                    },
                    [](long &state, std::vector<long> &partials,
                       std::uint64_t, std::uint64_t) {
                        for (const long partial : partials)
                            state += partial;
                    }}),
            workers);
    }
};

TEST(WorkerPool, ExecutesSubmittedTasks)
{
    WorkerPool pool(2);
    std::atomic<int> counter{0};
    std::latch done(4);
    for (int i = 0; i < 4; ++i)
        pool.submit([&] {
            counter.fetch_add(1);
            done.count_down();
        });
    done.wait();
    EXPECT_EQ(counter.load(), 4);
    pool.shutdown(); // joins, so completion counts are settled
    EXPECT_EQ(pool.tasksCompleted(), 4u);
}

TEST(WorkerPool, RecyclesThreadsAcrossTasks)
{
    WorkerPool pool(2);
    std::mutex mutex;
    std::set<std::thread::id> ids;
    std::latch done(8);
    for (int i = 0; i < 8; ++i)
        pool.submit([&] {
            {
                std::lock_guard lock(mutex);
                ids.insert(std::this_thread::get_id());
            }
            done.count_down();
        });
    done.wait();
    // 8 tasks ran on at most the pool's 2 long-lived threads.
    EXPECT_LE(ids.size(), 2u);
    EXPECT_GE(ids.size(), 1u);
}

TEST(WorkerPool, ZeroThreadsIsFatal)
{
    EXPECT_THROW(WorkerPool(0), FatalError);
}

TEST(WorkerPool, SubmitAfterShutdownIsFatal)
{
    WorkerPool pool(1);
    pool.shutdown();
    EXPECT_THROW(pool.submit([] {}), FatalError);
}

TEST(PooledAutomaton, RunsToCompletionOnBorrowedWorkers)
{
    WorkerPool pool(2);
    CounterRig rig(128);
    rig.automaton.start(pool);
    EXPECT_TRUE(rig.automaton.waitUntilDone(10s));
    rig.automaton.shutdown();
    EXPECT_TRUE(rig.automaton.complete());
    EXPECT_EQ(*rig.out->read().value, 128);
}

TEST(PooledAutomaton, SequentialRunsReuseTheSamePool)
{
    WorkerPool pool(2);
    for (int run = 0; run < 5; ++run) {
        CounterRig rig(64);
        rig.automaton.start(pool);
        EXPECT_TRUE(rig.automaton.waitUntilDone(10s));
        rig.automaton.shutdown();
        EXPECT_TRUE(rig.out->final());
    }
    EXPECT_EQ(pool.size(), 2u);
    // The done callback fires inside the pool task, so the last
    // worker's completion bookkeeping can trail waitUntilDone briefly.
    const auto give_up = std::chrono::steady_clock::now() + 10s;
    while (pool.tasksCompleted() < 5u &&
           std::chrono::steady_clock::now() < give_up)
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    EXPECT_GE(pool.tasksCompleted(), 5u);
}

TEST(PooledAutomaton, StopYieldsValidApproximateOutput)
{
    WorkerPool pool(1);
    CounterRig rig(1u << 20, 20); // ~20 s if left alone
    rig.automaton.start(pool);
    std::this_thread::sleep_for(20ms);
    rig.automaton.stop();
    EXPECT_TRUE(rig.automaton.waitUntilDone(10s));
    rig.automaton.shutdown();
    EXPECT_FALSE(rig.automaton.complete());
    const auto snap = rig.out->read();
    ASSERT_TRUE(snap);
    EXPECT_GT(*snap.value, 0);
    // The pool survives the aborted run and stays usable.
    CounterRig next(32);
    next.automaton.start(pool);
    EXPECT_TRUE(next.automaton.waitUntilDone(10s));
    next.automaton.shutdown();
    EXPECT_TRUE(next.out->final());
}

TEST(PooledAutomaton, PauseAndStopJoinCleanly)
{
    WorkerPool pool(1);
    CounterRig rig(1u << 20, 20);
    rig.automaton.start(pool);
    std::this_thread::sleep_for(5ms);
    rig.automaton.pause();
    std::this_thread::sleep_for(5ms);
    rig.automaton.stop(); // must release the pause gate
    EXPECT_TRUE(rig.automaton.waitUntilDone(10s));
    rig.automaton.shutdown();
}

TEST(PooledAutomaton, GangLargerThanPoolIsRejected)
{
    WorkerPool pool(2);
    CounterRig rig(64, 0, /*workers=*/3);
    EXPECT_THROW(rig.automaton.start(pool), FatalError);
}

TEST(PooledAutomaton, DoneCallbackFiresOnceWhenAllWorkersExit)
{
    WorkerPool pool(2);
    CounterRig rig(64, 0, /*workers=*/2);
    std::atomic<int> fired{0};
    std::latch done(1);
    rig.automaton.setDoneCallback([&] {
        fired.fetch_add(1);
        done.count_down();
    });
    rig.automaton.start(pool);
    done.wait();
    EXPECT_EQ(fired.load(), 1);
    rig.automaton.shutdown();
    EXPECT_TRUE(rig.automaton.complete());
}

TEST(OwnedAutomaton, DoneCallbackAlsoFiresWithDedicatedThreads)
{
    CounterRig rig(64);
    std::latch done(1);
    rig.automaton.setDoneCallback([&] { done.count_down(); });
    rig.automaton.start();
    done.wait();
    rig.automaton.shutdown();
    EXPECT_TRUE(rig.automaton.complete());
}

} // namespace
} // namespace anytime
