/**
 * @file
 * Serving-runtime edge cases: failing pipelines, min-quality graceful
 * degradation under backlog, drain semantics, and shutdown with work
 * in flight.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <thread>

#include "service/server.hpp"
#include "service_test_util.hpp"

namespace anytime {
namespace {

using namespace std::chrono_literals;

/** A pipeline that publishes one version, then throws mid-sweep. */
ServiceRequest
boomRequest()
{
    ServiceRequest request;
    request.name = "boom";
    request.deadline = 5s;
    request.factory = [] {
        auto automaton = std::make_unique<Automaton>();
        auto out = automaton->makeBuffer<long>("out");
        automaton->addStage(makeDiffusiveSource<long>(
            "thrower", out, 0L, 100,
            [](std::uint64_t step, long &state, StageContext &) {
                if (step == 5)
                    throw std::runtime_error("stage exploded");
                state += 1;
            },
            /*publish_period=*/10));
        PreparedPipeline pipeline;
        pipeline.automaton = std::move(automaton);
        return pipeline;
    };
    return request;
}

TEST(ServerEdge, FailingPipelineSalvagedDegradedByDefault)
{
    // Under the default quarantine policy a faulting pipeline that
    // published is salvaged: the response carries the last good
    // snapshot flagged degraded, plus the failure diagnostics.
    AnytimeServer server({.workers = 1});
    auto future = server.submit(boomRequest());
    ASSERT_EQ(future.wait_for(10s), std::future_status::ready);
    const ServiceResponse response = future.get();
    EXPECT_EQ(response.status, ServiceStatus::degraded);
    EXPECT_TRUE(response.degraded);
    EXPECT_GT(response.versionsPublished, 0u);
    ASSERT_FALSE(response.failures.empty());
    EXPECT_NE(response.failures.front().find("stage exploded"),
              std::string::npos);
}

TEST(ServerEdge, FailingPipelineFailsFastUnderStopAllPolicy)
{
    // stopAll restores the strict semantics: any stage fault fails
    // the request, published versions notwithstanding.
    AnytimeServer server(
        {.workers = 1, .pipelineFaultPolicy = FaultPolicy::stopAll});
    auto future = server.submit(boomRequest());
    ASSERT_EQ(future.wait_for(10s), std::future_status::ready);
    const ServiceResponse response = future.get();
    EXPECT_EQ(response.status, ServiceStatus::failed);
    EXPECT_FALSE(response.degraded);
    ASSERT_FALSE(response.failures.empty());
    EXPECT_NE(response.failures.front().find("stage exploded"),
              std::string::npos);
}

TEST(ServerEdge, ThrowingFactoryReportsFailure)
{
    AnytimeServer server({.workers = 1});
    ServiceRequest request;
    request.name = "no-build";
    request.deadline = 5s;
    request.factory = []() -> PreparedPipeline {
        throw std::runtime_error("factory exploded");
    };
    auto future = server.submit(std::move(request));
    ASSERT_EQ(future.wait_for(10s), std::future_status::ready);
    const ServiceResponse response = future.get();
    EXPECT_EQ(response.status, ServiceStatus::failed);
    ASSERT_FALSE(response.failures.empty());
    EXPECT_NE(response.failures.front().find("factory exploded"),
              std::string::npos);
}

TEST(ServerEdge, MinQualityDegradesUnderBacklog)
{
    AnytimeServer server({.workers = 1});
    auto probe = std::make_shared<CounterProbe>();
    // ~200 ms of work, generous deadline, but a 0.2 quality floor.
    auto degradable = server.submit(counterRequest(
        "degradable", 20000, 10, 10s, /*min_quality=*/0.2, probe,
        /*publish_period=*/100));

    // Wait until it runs, then create a backlog behind it.
    const auto give_up = std::chrono::steady_clock::now() + 10s;
    while (server.runningCount() < 1 &&
           std::chrono::steady_clock::now() < give_up)
        std::this_thread::sleep_for(200us);
    ASSERT_GE(server.runningCount(), 1u);
    auto waiter = server.submit(counterRequest("waiter", 64, 2, 10s));

    ASSERT_EQ(degradable.wait_for(60s), std::future_status::ready);
    const ServiceResponse response = degradable.get();
    EXPECT_EQ(response.status, ServiceStatus::qualityStopped);
    EXPECT_FALSE(response.reachedPrecise);
    EXPECT_GE(response.quality, 0.2);
    EXPECT_TRUE(response.deadlineMet);

    ASSERT_EQ(waiter.wait_for(60s), std::future_status::ready);
    EXPECT_EQ(waiter.get().status, ServiceStatus::preciseCompleted);
}

TEST(ServerEdge, NoBacklogMeansNoDegradation)
{
    AnytimeServer server({.workers = 1});
    // Quality floor present but no one waiting: runs to precise.
    auto future = server.submit(
        counterRequest("alone", 2000, 10, 10s, /*min_quality=*/0.1));
    ASSERT_EQ(future.wait_for(60s), std::future_status::ready);
    EXPECT_EQ(future.get().status, ServiceStatus::preciseCompleted);
}

TEST(ServerEdge, DrainWaitsForEveryResponse)
{
    AnytimeServer server({.workers = 2});
    for (int i = 0; i < 5; ++i)
        (void)server.submit(
            counterRequest("d" + std::to_string(i), 128, 5, 10s));
    server.drain();
    EXPECT_EQ(server.pendingCount(), 0u);
    EXPECT_EQ(server.runningCount(), 0u);
    EXPECT_EQ(server.metricsSnapshot().total(), 5u);
}

TEST(ServerEdge, DestructionCancelsInFlightWork)
{
    std::vector<std::future<ServiceResponse>> futures;
    {
        AnytimeServer server({.workers = 1});
        futures.push_back(server.submit(
            counterRequest("running", 50000, 10, 30s)));
        for (int i = 0; i < 5; ++i)
            futures.push_back(server.submit(
                counterRequest("queued" + std::to_string(i), 50000, 10,
                               30s)));
        // Destructor: pending cancelled, running stopped and harvested.
    }
    for (auto &future : futures) {
        ASSERT_EQ(future.wait_for(10s), std::future_status::ready);
        const ServiceResponse response = future.get();
        EXPECT_TRUE(response.status == ServiceStatus::cancelled ||
                    servedStatus(response.status));
    }
}

TEST(ServerEdge, SlowFactoriesDoNotStarveDeadlineEnforcement)
{
    // Regression test: pipeline factories run on the scheduler thread
    // at dispatch time, and a burst of them used to keep the scheduler
    // inside its dispatch phase long enough for an already-running
    // request to blow through its deadline all the way to precise. The
    // scheduler must re-enforce deadlines after every factory build.
    AnytimeServer server({.workers = 2});

    // ~12 ms of work on a 4 ms deadline: must be stopped early. Short
    // enough that it would run to precise if deadline enforcement
    // waited out the whole build burst below (~32 ms).
    auto probe = std::make_shared<CounterProbe>();
    auto tight = server.submit(counterRequest("tight", 1200, 10, 4ms,
                                              0.0, probe,
                                              /*publish_period=*/50));

    // A queue of slow-to-build requests right behind it. The sleeping
    // factories model the multi-millisecond construction cost of the
    // real image pipelines without burning CPU the runner needs.
    std::vector<std::future<ServiceResponse>> slow;
    for (int i = 0; i < 4; ++i) {
        ServiceRequest request;
        request.name = "slowbuild" + std::to_string(i);
        request.deadline = 10s;
        request.factory = [] {
            std::this_thread::sleep_for(8ms);
            auto automaton = std::make_unique<Automaton>();
            auto out = automaton->makeBuffer<long>("out");
            automaton->addStage(
                makeDiffusiveSource<long>(
                    "quick", out, 0L, 8,
                    [](std::uint64_t, long &state, StageContext &) {
                        state += 1;
                    },
                    /*publish_period=*/4));
            PreparedPipeline pipeline;
            pipeline.automaton = std::move(automaton);
            return pipeline;
        };
        slow.push_back(server.submit(std::move(request)));
    }

    ASSERT_EQ(tight.wait_for(60s), std::future_status::ready);
    const ServiceResponse response = tight.get();
    // The deadline must have cut the run short while the scheduler was
    // busy building: an approximate snapshot, nowhere near precise.
    EXPECT_EQ(response.status, ServiceStatus::deadlineApprox);
    EXPECT_FALSE(response.reachedPrecise);
    ASSERT_TRUE(probe->out);
    const auto snapshot = probe->out->read();
    ASSERT_TRUE(snapshot);
    EXPECT_LT(*snapshot.value, 1200);

    for (auto &future : slow)
        ASSERT_EQ(future.wait_for(60s), std::future_status::ready);
}

TEST(ServerEdge, SubmitAfterHeavyChurnStillServes)
{
    AnytimeServer server({.workers = 2, .maxQueueDepth = 4});
    // Churn: bursts that alternately saturate and drain the server.
    for (int round = 0; round < 3; ++round) {
        std::vector<std::future<ServiceResponse>> futures;
        for (int i = 0; i < 8; ++i)
            futures.push_back(server.submit(counterRequest(
                "churn" + std::to_string(round * 8 + i), 500, 5, 100ms)));
        for (auto &future : futures)
            ASSERT_EQ(future.wait_for(60s), std::future_status::ready);
    }
    auto final_request = server.submit(counterRequest("final", 64, 2, 10s));
    ASSERT_EQ(final_request.wait_for(10s), std::future_status::ready);
    EXPECT_EQ(final_request.get().status,
              ServiceStatus::preciseCompleted);
}

} // namespace
} // namespace anytime
