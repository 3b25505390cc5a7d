/**
 * @file
 * Loopback end-to-end tests of the network front-end: progressive
 * streaming bit-identical to the in-process run, deadline/min-quality
 * transport, disconnect-as-cancel with the accounting identity intact,
 * request coalescing, and accept-time admission control.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "support/sync.hpp"

namespace anytime::net {
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

/** Poll until the service has recorded @p total responses. */
bool
awaitTotal(AnytimeServer &service, std::size_t total,
           std::chrono::milliseconds budget)
{
    const auto start = std::chrono::steady_clock::now();
    while (std::chrono::steady_clock::now() - start < budget) {
        if (service.metricsSnapshot().total() >= total)
            return true;
        std::this_thread::sleep_for(5ms);
    }
    return service.metricsSnapshot().total() >= total;
}

struct Rig
{
    obs::MetricsRegistry registry;
    std::unique_ptr<NetServer> server;

    explicit Rig(std::function<void(NetServerConfig &)> tune = nullptr)
    {
        NetServerConfig config;
        config.catalog = std::make_shared<PipelineCatalog>();
        registerCounterPipeline(*config.catalog);
        config.metricsRegistry = &registry;
        config.service.workers = 2;
        if (tune)
            tune(config);
        server = std::make_unique<NetServer>(std::move(config));
    }

    ClientOptions
    client(std::chrono::milliseconds timeout = 10000ms) const
    {
        ClientOptions options;
        options.port = server->port();
        options.timeout = timeout;
        return options;
    }
};

RequestFrame
counterRequestFrame(std::string input, std::uint64_t deadline_us,
                    double min_quality = 0.0)
{
    RequestFrame frame;
    frame.pipeline = "counter";
    frame.input = std::move(input);
    frame.deadlineMicros = deadline_us;
    frame.minQuality = min_quality;
    return frame;
}

/**
 * Run the same catalog pipeline in process, capturing every version
 * the sink publishes — the ground truth the wire stream must match.
 */
std::map<std::uint64_t, std::string>
inProcessVersions(const std::string &input, std::uint64_t deadline_us)
{
    obs::MetricsRegistry registry;
    ServerConfig config;
    config.workers = 2;
    config.metricsRegistry = &registry;
    AnytimeServer server(config);

    PipelineCatalog catalog;
    registerCounterPipeline(catalog);
    NetRequestParams params;
    params.input = input;
    params.deadline = std::chrono::microseconds(deadline_us);

    std::map<std::uint64_t, std::string> versions;
    Mutex mutex;
    ServiceRequest request;
    request.name = "counter";
    request.factory = catalog.build("counter", params).factory;
    request.deadline = params.deadline;
    request.versionSink = [&versions,
                           &mutex](const VersionUpdate &update) {
        MutexLock lock(mutex);
        if (update.payload)
            versions[update.version] = *update.payload;
    };
    auto future = server.submit(std::move(request));
    EXPECT_EQ(future.wait_for(20s), std::future_status::ready);
    EXPECT_EQ(future.get().status, ServiceStatus::preciseCompleted);
    return versions;
}

TEST(NetServer, StreamsProgressiveVersionsBitIdenticalToInProcess)
{
    const std::string input = "64:500:8"; // 8 versions, ~32 ms run
    const auto expected = inProcessVersions(input, 10000000);
    ASSERT_GE(expected.size(), 2u);

    Rig rig;
    const auto result =
        runRequest(rig.client(), counterRequestFrame(input, 10000000));
    ASSERT_TRUE(result.ok) << result.error;
    ASSERT_TRUE(result.accepted.has_value());
    EXPECT_GT(result.accepted->requestId, 0u);
    ASSERT_TRUE(result.done.has_value());
    EXPECT_EQ(result.done->status,
              static_cast<std::uint8_t>(
                  ServiceStatus::preciseCompleted));
    EXPECT_TRUE(result.done->reachedPrecise);
    EXPECT_TRUE(result.done->deadlineMet);

    // The anytime contract over the wire: at least two progressive
    // versions, strictly monotone in version number and quality, the
    // last one final — and every payload bit-identical to what the
    // in-process sink observed for the same version number.
    ASSERT_GE(result.versions.size(), 2u);
    for (std::size_t i = 0; i < result.versions.size(); ++i) {
        const VersionFrame &version = result.versions[i];
        if (i > 0) {
            EXPECT_GT(version.version, result.versions[i - 1].version);
            EXPECT_GE(version.quality, result.versions[i - 1].quality);
        }
        const auto it = expected.find(version.version);
        ASSERT_NE(it, expected.end())
            << "wire version " << version.version
            << " never published in process";
        EXPECT_EQ(version.payload, it->second);
    }
    EXPECT_TRUE(result.versions.back().final);
    EXPECT_EQ(result.versions.back().payload, "64");
    EXPECT_DOUBLE_EQ(result.versions.back().quality, 1.0);
    EXPECT_FALSE(std::isnan(result.firstVersionSeconds));
    // The server measured its half of first-version latency too.
    EXPECT_GE(result.done->firstVersionSeconds, 0.0);
}

TEST(NetServer, DeadlineTravelsInTheRequestHeader)
{
    Rig rig;
    // ~100 s of work against a 300 ms deadline, publishing every
    // 50 ms: the server must stop it at the deadline and still have
    // streamed intermediate versions.
    const auto result = runRequest(
        rig.client(), counterRequestFrame("100000:1000:50", 300000));
    ASSERT_TRUE(result.ok) << result.error;
    ASSERT_TRUE(result.done.has_value());
    EXPECT_EQ(result.done->status,
              static_cast<std::uint8_t>(ServiceStatus::deadlineApprox));
    EXPECT_FALSE(result.done->reachedPrecise);
    EXPECT_GE(result.versions.size(), 1u);
    EXPECT_FALSE(result.versions.back().final);
    EXPECT_LT(result.done->totalSeconds, 5.0);
}

TEST(NetServer, MinQualityTravelsAndStopsEarlyUnderBacklog)
{
    Rig rig([](NetServerConfig &config) {
        config.service.workers = 1;
        config.coalesce = false; // two distinct live requests
    });
    // Two requests on one worker: the first declares minQuality 0.25,
    // so once the second is backlogged the first stops near a quarter
    // of its 4 s run instead of hogging the worker to the deadline.
    std::thread second([&] {
        std::this_thread::sleep_for(150ms);
        const auto result = runRequest(
            rig.client(), counterRequestFrame("200:1000:20", 10000000));
        EXPECT_TRUE(result.ok) << result.error;
    });
    const auto result =
        runRequest(rig.client(),
                   counterRequestFrame("4000:1000:50", 10000000, 0.25));
    second.join();
    ASSERT_TRUE(result.ok) << result.error;
    ASSERT_TRUE(result.done.has_value());
    EXPECT_EQ(result.done->status,
              static_cast<std::uint8_t>(ServiceStatus::qualityStopped));
    EXPECT_GE(result.done->quality, 0.25);
    EXPECT_LT(result.done->totalSeconds, 3.5);
}

TEST(NetServer, ClientDisconnectCancelsTheRequest)
{
    Rig rig;
    // ~8 s of work; the client severs after the first version. The
    // server must translate the hangup into a cancel — and account it.
    const auto started = std::chrono::steady_clock::now();
    const auto result = runRequest(
        rig.client(), counterRequestFrame("8000:1000:100", 30000000),
        [](const VersionFrame &) { return false; });
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_TRUE(result.severed);
    EXPECT_FALSE(result.done.has_value());

    ASSERT_TRUE(awaitTotal(rig.server->service(), 1, 5000ms))
        << "request never reached a terminal state after disconnect";
    const auto elapsed = std::chrono::steady_clock::now() - started;
    EXPECT_LT(elapsed, 6s) << "cancel did not stop the pipeline early";
    const ServiceMetrics metrics =
        rig.server->service().metricsSnapshot();
    EXPECT_EQ(metrics.total(), 1u);
    EXPECT_EQ(metrics.cancelled(), 1u);
    EXPECT_EQ(metrics.served(), 0u);
    expectAccountingIdentity(metrics);
}

TEST(NetServer, IdenticalRequestsCoalesceOntoOneBuild)
{
    Rig rig;
    const RequestFrame frame =
        counterRequestFrame("2000:1000:50", 20000000);

    ClientResult first;
    std::thread early([&] {
        first = runRequest(rig.client(), frame);
    });
    std::this_thread::sleep_for(300ms); // let the first one dispatch
    const auto second = runRequest(rig.client(), frame);
    early.join();

    ASSERT_TRUE(first.ok) << first.error;
    ASSERT_TRUE(second.ok) << second.error;
    ASSERT_TRUE(first.done.has_value());
    ASSERT_TRUE(second.done.has_value());
    EXPECT_EQ(first.versions.back().payload, "2000");
    EXPECT_EQ(second.versions.back().payload, "2000");
    // Both clients share one request id and one pipeline execution.
    ASSERT_TRUE(first.accepted.has_value());
    ASSERT_TRUE(second.accepted.has_value());
    EXPECT_EQ(first.accepted->requestId, second.accepted->requestId);
    EXPECT_TRUE(awaitTotal(rig.server->service(), 1, 5000ms));
    EXPECT_EQ(rig.server->service().metricsSnapshot().total(), 1u);
    EXPECT_GE(counterValue(rig.registry, "anytime_net_coalesced_total"),
              1.0);
}

TEST(NetServer, ConnectionCapRejectsAtAccept)
{
    Rig rig([](NetServerConfig &config) {
        config.maxConnections = 0; // reject everything
    });
    const auto result = runRequest(
        rig.client(2000ms), counterRequestFrame("32:200:8", 1000000));
    EXPECT_FALSE(result.ok);
    EXPECT_GE(counterValue(rig.registry,
                           "anytime_net_connections_rejected_total"),
              1.0);
}

TEST(NetServer, PerIpAcceptThrottleClosesConnectsPastTheBurst)
{
    Rig rig([](NetServerConfig &config) {
        config.perIpAcceptBurst = 2.0;
        config.perIpAcceptRate = 1e-6; // no refill within the test
    });
    // Two connects from 127.0.0.1 spend the burst: one stream, then
    // the /statusz read that reports the single per-IP bucket.
    const auto first = runRequest(rig.client(),
                                  counterRequestFrame("32:200:8", 1000000));
    EXPECT_TRUE(first.ok) << first.error;
    const auto status = httpGet(rig.client(), "/statusz");
    ASSERT_TRUE(status.ok) << status.error;
    EXPECT_NE(status.body.find("\"accept_buckets\":1,"), std::string::npos)
        << status.body;
    // The third connect finds the bucket empty and is closed at accept.
    const auto third = runRequest(rig.client(2000ms),
                                  counterRequestFrame("32:200:8", 1000000));
    EXPECT_FALSE(third.ok);
    EXPECT_EQ(counterValue(rig.registry,
                           "anytime_net_accept_throttled_total"),
              1.0);
}

TEST(NetServer, UnknownPipelineGetsAnErrorFrame)
{
    Rig rig;
    RequestFrame frame;
    frame.pipeline = "no-such-pipeline";
    frame.deadlineMicros = 1000000;
    const auto result = runRequest(rig.client(), frame);
    EXPECT_FALSE(result.ok);
    ASSERT_TRUE(result.serverError.has_value());
    EXPECT_NE(result.serverError->find("unknown pipeline"),
              std::string::npos);
}

TEST(NetServer, BadInputSpecGetsAnErrorFrame)
{
    Rig rig;
    const auto result = runRequest(
        rig.client(), counterRequestFrame("not-a-number", 1000000));
    EXPECT_FALSE(result.ok);
    ASSERT_TRUE(result.serverError.has_value());
    EXPECT_NE(result.serverError->find("bad input spec"),
              std::string::npos);
}

TEST(NetServer, HostileRequestParamsAreRejectedWithAnErrorFrame)
{
    Rig rig;
    // minQuality and deadlineMicros arrive as raw client-controlled
    // wire values. Each hostile value must bounce off the protocol
    // boundary as an ERROR frame on its own connection — out-of-range
    // minQuality used to reach submitTracked's fatalIf and throw
    // through the reactor thread (std::terminate: a one-frame remote
    // kill), and a NaN key would poison the coalesce map's ordering.
    std::vector<std::pair<RequestFrame, const char *>> hostile;
    hostile.emplace_back(counterRequestFrame("8:100:2", 1000000, 7.0),
                         "min_quality");
    hostile.emplace_back(counterRequestFrame("8:100:2", 1000000, -0.5),
                         "min_quality");
    hostile.emplace_back(
        counterRequestFrame("8:100:2", 1000000,
                            std::numeric_limits<double>::quiet_NaN()),
        "min_quality");
    hostile.emplace_back(
        counterRequestFrame("8:100:2", 1000000,
                            std::numeric_limits<double>::infinity()),
        "min_quality");
    hostile.emplace_back(
        counterRequestFrame(
            "8:100:2", std::numeric_limits<std::uint64_t>::max()),
        "deadline");
    RequestFrame zeroGang = counterRequestFrame("8:100:2", 1000000);
    zeroGang.stageWorkers = 0;
    hostile.emplace_back(zeroGang, "workers");

    for (const auto &[frame, needle] : hostile) {
        const auto result = runRequest(rig.client(), frame);
        EXPECT_FALSE(result.ok) << needle;
        ASSERT_TRUE(result.serverError.has_value()) << needle;
        EXPECT_NE(result.serverError->find(needle), std::string::npos)
            << *result.serverError;
    }

    // The reactor survived every attempt: a sane request still runs
    // to completion and the hostile ones never reached the service.
    const auto sane = runRequest(rig.client(),
                                 counterRequestFrame("8:100:2", 5000000));
    ASSERT_TRUE(sane.ok) << sane.error;
    ASSERT_TRUE(sane.done.has_value());
    EXPECT_EQ(rig.server->service().metricsSnapshot().total(), 1u);
}

TEST(NetServer, ShedRequestStillGetsAcceptedThenDone)
{
    Rig rig([](NetServerConfig &config) {
        config.service.workers = 1;
        config.service.maxQueueDepth = 1;
        config.coalesce = false;
    });
    // Saturate the single worker and the one queue slot, then submit
    // more: the overflow requests shed at admission, and the wire
    // still delivers ACCEPTED followed by a DONE carrying the shed
    // status — never a hang, never a dropped connection.
    std::vector<std::thread> busy;
    std::vector<ClientResult> results(3);
    for (int i = 0; i < 3; ++i)
        busy.emplace_back([&, i] {
            results[static_cast<std::size_t>(i)] = runRequest(
                rig.client(),
                counterRequestFrame("1500:1000:5" + std::to_string(i),
                                    20000000));
        });
    for (auto &thread : busy)
        thread.join();

    int sheds = 0;
    for (const auto &result : results) {
        ASSERT_TRUE(result.ok) << result.error;
        ASSERT_TRUE(result.done.has_value());
        if (result.done->status ==
                static_cast<std::uint8_t>(
                    ServiceStatus::shedQueueFull) ||
            result.done->status ==
                static_cast<std::uint8_t>(
                    ServiceStatus::shedPredictedMiss))
            ++sheds;
    }
    EXPECT_GE(sheds, 1);
    expectAccountingIdentity(rig.server->service().metricsSnapshot());
}

} // namespace
} // namespace anytime::net
