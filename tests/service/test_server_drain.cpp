/**
 * @file
 * Graceful-drain tests (the SIGTERM path): new submissions are
 * rejected promptly, finishers finish precise, leftovers at grace
 * expiry salvage as `degraded` when they published (the anytime
 * contract applied to shutdown) and `cancelled` only when they never
 * produced output — with the accounting identity intact throughout.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <string>
#include <thread>

#include "obs/metrics.hpp"
#include "service/server.hpp"
#include "service_test_util.hpp"

namespace anytime {
namespace {

using namespace std::chrono_literals;

double
counterValue(const obs::MetricsRegistry &registry,
             const std::string &name)
{
    for (const auto &row : registry.snapshot())
        if (row.name == name)
            return row.value;
    return -1.0;
}

void
expectAccountingIdentity(const ServiceMetrics &metrics)
{
    EXPECT_EQ(metrics.total(),
              metrics.served() + metrics.shed() + metrics.expired() +
                  metrics.failed() + metrics.cancelled() +
                  metrics.degraded());
}

TEST(ServerDrain, RejectsSubmissionsOnceDraining)
{
    obs::MetricsRegistry registry;
    ServerConfig config;
    config.workers = 1;
    config.metricsRegistry = &registry;
    AnytimeServer server(config);

    server.beginDrain(1s);
    auto future = server.submit(counterRequest("late", 64, 5, 10s));
    ASSERT_EQ(future.wait_for(5s), std::future_status::ready);
    EXPECT_EQ(future.get().status, ServiceStatus::cancelled);

    // Nothing was ever accepted, so the drain is already complete.
    EXPECT_TRUE(server.drainComplete());
    server.drain();
    const ServiceMetrics metrics = server.metricsSnapshot();
    EXPECT_EQ(metrics.total(), 1u);
    EXPECT_EQ(metrics.cancelled(), 1u);
    expectAccountingIdentity(metrics);
    EXPECT_DOUBLE_EQ(
        counterValue(registry, "anytime_drain_rejected_total"), 1.0);
    EXPECT_DOUBLE_EQ(
        counterValue(registry, "anytime_drain_begun_total"), 1.0);
}

TEST(ServerDrain, GraceExpirySalvagesPublishedWorkAsDegraded)
{
    obs::MetricsRegistry registry;
    ServerConfig config;
    config.workers = 1;
    config.metricsRegistry = &registry;
    AnytimeServer server(config);

    // ~5 s pipeline publishing every ~50 ms: by the time the drain's
    // 100 ms grace expires it has published versions but is nowhere
    // near precise — the harvest must keep them.
    auto probe = std::make_shared<CounterProbe>();
    auto future = server.submit(counterRequest(
        "salvage", 5000, 1000, 30s, 0.0, probe, /*publish_period=*/50));
    const auto start = std::chrono::steady_clock::now();
    while ((!probe->out || probe->out->version() == 0) &&
           std::chrono::steady_clock::now() - start < 10s)
        std::this_thread::sleep_for(2ms);
    ASSERT_TRUE(probe->out);
    ASSERT_GT(probe->out->version(), 0u);

    EXPECT_FALSE(server.drainComplete()); // not draining yet
    server.beginDrain(100ms);
    server.beginDrain(100ms); // idempotent
    ASSERT_EQ(future.wait_for(10s), std::future_status::ready);
    const ServiceResponse response = future.get();
    EXPECT_EQ(response.status, ServiceStatus::degraded);
    EXPECT_GT(response.versionsPublished, 0u);
    EXPECT_TRUE(response.deadlineMet);

    server.drain(); // blocking wait pairs with beginDrain()
    EXPECT_TRUE(server.drainComplete());
    const ServiceMetrics metrics = server.metricsSnapshot();
    EXPECT_EQ(metrics.total(), 1u);
    EXPECT_EQ(metrics.degraded(), 1u);
    expectAccountingIdentity(metrics);
    EXPECT_DOUBLE_EQ(
        counterValue(registry, "anytime_drain_begun_total"), 1.0);
    EXPECT_DOUBLE_EQ(
        counterValue(registry, "anytime_drain_salvaged_total"), 1.0);
}

TEST(ServerDrain, AcceptedWorkFinishesPreciseWithinTheGrace)
{
    AnytimeServer server({.workers = 1});
    // ~50 ms pipeline, 5 s grace: the drain must not cut short work
    // that can still finish precise in time.
    auto future = server.submit(counterRequest("finisher", 50, 1000, 10s));
    server.beginDrain(5s);
    ASSERT_EQ(future.wait_for(10s), std::future_status::ready);
    EXPECT_EQ(future.get().status, ServiceStatus::preciseCompleted);
    server.drain();
    EXPECT_TRUE(server.drainComplete());
    const ServiceMetrics metrics = server.metricsSnapshot();
    EXPECT_EQ(metrics.served(), 1u);
    expectAccountingIdentity(metrics);
}

/**
 * Stage that works silently for @c runtime and only publishes its
 * (final) output at the very end. A diffusive source cannot model
 * this: its first step always publishes, so a drain-stop can always
 * salvage something. Here a stop before completion leaves
 * the output buffer at version 0.
 */
class MuteStage : public Stage
{
  public:
    MuteStage(std::shared_ptr<VersionedBuffer<long>> out,
              std::chrono::milliseconds runtime)
        : Stage("mute"), out(std::move(out)), runtime(runtime)
    {
    }

    void
    run(StageContext &ctx) override
    {
        const auto start = std::chrono::steady_clock::now();
        while (std::chrono::steady_clock::now() - start < runtime) {
            if (!ctx.checkpoint())
                return; // stopped with nothing ever published
            ctx.addWork(1);
            std::this_thread::sleep_for(1ms);
        }
        out->publish(1L, /*final=*/true);
    }

    std::vector<const BufferBase *> reads() const override { return {}; }
    const BufferBase *writes() const override { return out.get(); }

  private:
    std::shared_ptr<VersionedBuffer<long>> out;
    std::chrono::milliseconds runtime;
};

ServiceRequest
muteRequest(std::string name, std::chrono::milliseconds runtime,
            std::chrono::nanoseconds deadline)
{
    ServiceRequest request;
    request.name = std::move(name);
    request.deadline = deadline;
    request.factory = [runtime] {
        auto automaton = std::make_unique<Automaton>();
        auto out = automaton->makeBuffer<long>("mute");
        automaton->addStage(std::make_shared<MuteStage>(out, runtime));
        PreparedPipeline pipeline;
        pipeline.progress = [out] {
            return out->version() > 0 ? 1.0 : 0.0;
        };
        pipeline.versionCount = [out] { return out->version(); };
        pipeline.automaton = std::move(automaton);
        return pipeline;
    };
    return request;
}

TEST(ServerDrain, UnpublishedWorkCancelsAtGraceExpiry)
{
    obs::MetricsRegistry registry;
    ServerConfig config;
    config.workers = 1;
    config.metricsRegistry = &registry;
    AnytimeServer server(config);

    // An all-or-nothing pipeline: nothing lands until the (never
    // reached) precise output, so the grace-expiry harvest has no
    // snapshot to salvage and the request cancels.
    auto future = server.submit(muteRequest("mute", 5000ms, 30s));
    const auto start = std::chrono::steady_clock::now();
    while (server.runningCount() == 0 &&
           std::chrono::steady_clock::now() - start < 10s)
        std::this_thread::sleep_for(2ms);
    ASSERT_EQ(server.runningCount(), 1u);

    server.beginDrain(50ms);
    ASSERT_EQ(future.wait_for(10s), std::future_status::ready);
    const ServiceResponse response = future.get();
    EXPECT_EQ(response.status, ServiceStatus::cancelled);
    EXPECT_EQ(response.versionsPublished, 0u);

    server.drain();
    const ServiceMetrics metrics = server.metricsSnapshot();
    EXPECT_EQ(metrics.cancelled(), 1u);
    EXPECT_DOUBLE_EQ(
        counterValue(registry, "anytime_drain_salvaged_total"), 0.0);
    expectAccountingIdentity(metrics);
}

TEST(ServerDrain, MixedBacklogLandsEveryRequestInOneBucket)
{
    // A drain over a mixed backlog: a finisher, two slow publishers,
    // and a post-drain submission. Wherever each lands, the books
    // must balance and every future must resolve.
    obs::MetricsRegistry registry;
    ServerConfig config;
    config.workers = 2;
    config.metricsRegistry = &registry;
    AnytimeServer server(config);

    auto quick = server.submit(counterRequest("quick", 30, 1000, 10s));
    auto slowA = server.submit(counterRequest(
        "slowA", 5000, 1000, 30s, 0.0, nullptr, /*publish_period=*/50));
    auto slowB = server.submit(counterRequest(
        "slowB", 5000, 1000, 30s, 0.0, nullptr, /*publish_period=*/50));
    std::this_thread::sleep_for(100ms);
    server.beginDrain(200ms);
    auto late = server.submit(counterRequest("late", 30, 1000, 10s));

    for (auto *future : {&quick, &slowA, &slowB, &late})
        ASSERT_EQ(future->wait_for(15s), std::future_status::ready);
    EXPECT_EQ(late.get().status, ServiceStatus::cancelled);
    server.drain();
    EXPECT_TRUE(server.drainComplete());

    const ServiceMetrics metrics = server.metricsSnapshot();
    EXPECT_EQ(metrics.total(), 4u);
    expectAccountingIdentity(metrics);
    EXPECT_DOUBLE_EQ(
        counterValue(registry, "anytime_drain_begun_total"), 1.0);
}

} // namespace
} // namespace anytime
