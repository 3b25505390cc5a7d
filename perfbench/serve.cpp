/**
 * @file
 * serve_loopback: an open loop of small conv2d and kmeans requests over
 * the binary protocol into an in-process NetServer.
 *
 * The schedule (send times, app, scene, deadline class) comes from the
 * workload seed. At most `senders` threads send, one connection each;
 * each request is timed from its scheduled send time, so a stalled
 * sender charges its wait to the requests behind it, and the sender's
 * lateness is reported as gen.late_ms. The benchmark registers the
 * catalog itself: its factories build the automaton with the public
 * make*Automaton calls, stream each version's raw pixels, and
 * timestamp every publish so delivery can be split from compute.
 */

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <thread>

#include "apps/conv2d.hpp"
#include "apps/kmeans.hpp"
#include "common.hpp"
#include "image/generate.hpp"
#include "net/catalog.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/trace.hpp"
#include "service/metrics.hpp"
#include "service/request.hpp"
#include "support/rng.hpp"
#include "support/sync.hpp"

using namespace anytime;
using namespace anytime::net;

namespace perfbench {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr std::size_t kMaxVersions = 64;
/** Setups per run; setup_s is their median. */
constexpr std::uint64_t kSetupRepeats = 7;
/** Length of the unrecorded warm-up phase before any timed phase. */
constexpr double kWarmupSeconds = 2.0;
/** Cap on the traced phase's requests (few enough that no trace ring
 *  wraps). */
constexpr std::size_t kTracedRequests = 300;

enum class App : int
{
    conv2d = 0,
    kmeans = 1,
};

/** Nanoseconds on the steady clock (shared by server and client side:
 *  both run in this process). */
std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/** One input of the scene pool with its precomputed ladder. */
struct PoolEntry
{
    GrayImage gray;
    RgbImage color;
    Ladder ladder;
    std::string precise;
};

/** Server-side stamps of one request, written by the factory and the
 *  publishing worker, read by the sender after the stream ends. */
struct Stamps
{
    std::atomic<std::int64_t> factoryNs{-1};
    std::atomic<std::int64_t> buildNs{-1};
    /** kmeans: assignment versions the sweep stage published. */
    std::atomic<std::uint64_t> assignments{0};
    std::array<std::atomic<std::int64_t>, kMaxVersions> publishNs{};
};

/** Everything the catalog factories share with the benchmark. */
struct ServeState
{
    std::vector<PoolEntry> conv;
    std::vector<PoolEntry> kmeans;
    std::unique_ptr<Kernel> kernel;
    std::uint64_t convVersions = 0;
    std::uint64_t kmeansVersions = 0;
    unsigned clusters = 8;
    std::vector<std::unique_ptr<Stamps>> stamps;
};

/** One scheduled request. */
struct Planned
{
    double dueMs = 0.0;
    App app = App::conv2d;
    std::size_t scene = 0;
    double deadlineMs = 0.0;
};

/** What one request produced (times in ms from its due time). */
struct Served
{
    double lateMs = kNaN;
    double firstMs = kNaN;
    double t90Ms = kNaN;
    double finalMs = kNaN;
    bool deadlineHit = false;
    double qualityAtDeadline = 0.0;
    std::string status;
    bool refused = false;
    bool ok = false;
    double queueMs = kNaN;
    double buildMs = kNaN;
    double serviceFirstMs = kNaN;
    double firstOverheadMs = kNaN;
    std::vector<double> deliveryMs;
    std::uint64_t received = 0;
    std::uint64_t published = 0;
    double bytes = 0.0;
    /** kmeans: output versions published per assignment version. */
    double consumeRatio = kNaN;
};

std::string
imageBytes(const GrayImage &image)
{
    return std::string(reinterpret_cast<const char *>(image.data().data()),
                       image.size());
}

std::string
imageBytes(const RgbImage &image)
{
    return std::string(reinterpret_cast<const char *>(image.data().data()),
                       image.size() * sizeof(RgbPixel));
}

/** Parse "<c|k>:<scene>:<tag>"; throws on anything else. */
void
parseInput(const std::string &input, const ServeState &state, App &app,
           std::size_t &scene, std::size_t &tag)
{
    const std::size_t a = input.find(':');
    const std::size_t b = a == std::string::npos ? a : input.find(':', a + 1);
    if (a != 1 || b == std::string::npos ||
        (input[0] != 'c' && input[0] != 'k'))
        throw std::invalid_argument("perfbench: bad input '" + input + "'");
    app = input[0] == 'c' ? App::conv2d : App::kmeans;
    scene = std::stoul(input.substr(a + 1, b - a - 1));
    tag = std::stoul(input.substr(b + 1));
    const auto &pool = app == App::conv2d ? state.conv : state.kmeans;
    if (scene >= pool.size() || tag >= state.stamps.size())
        throw std::invalid_argument("perfbench: input out of range '" +
                                    input + "'");
}

/** Wire an output buffer to the stream: stamp, then hand on raw pixels. */
template <typename T, typename Render>
std::function<void(VersionSink)>
streamOutput(std::shared_ptr<VersionedBuffer<T>> out, Stamps *stamps,
             std::uint64_t versions, const char *stage, Render render)
{
    return [out, stamps, versions, stage, render](VersionSink sink) {
        out->addObserver([sink = std::move(sink), stamps, versions, stage,
                          render](const Snapshot<T> &snap) {
            if (!snap.value)
                return;
            if (snap.version <= kMaxVersions)
                stamps->publishNs[snap.version - 1].store(
                    nowNs(), std::memory_order_release);
            VersionUpdate update;
            update.version = snap.version;
            update.final = snap.final;
            update.degraded = snap.degraded;
            update.quality = std::min(
                1.0, static_cast<double>(snap.version) /
                         static_cast<double>(versions));
            update.payload =
                std::make_shared<const std::string>(render(*snap.value));
            update.stage = stage;
            sink(update);
        });
    };
}

void
registerPipelines(PipelineCatalog &catalog,
                  const std::shared_ptr<ServeState> &state)
{
    catalog.add("perfbench", [state](const NetRequestParams &params) {
        App app = App::conv2d;
        std::size_t scene = 0;
        std::size_t tag = 0;
        parseInput(params.input, *state, app, scene, tag);
        NetPipeline net;
        net.factory = [state, app, scene, tag] {
            Stamps *stamps = state->stamps[tag].get();
            const std::int64_t entry = nowNs();
            stamps->factoryNs.store(entry, std::memory_order_release);
            PreparedPipeline pipeline;
            if (app == App::conv2d) {
                const std::uint64_t n = state->convVersions;
                auto bundle = makeConv2dAutomaton(state->conv[scene].gray,
                                                  *state->kernel, {n, 1, 8});
                stamps->buildNs.store(nowNs() - entry,
                                      std::memory_order_release);
                auto out = bundle.output;
                pipeline.automaton = std::move(bundle.automaton);
                pipeline.versionCount = [out] { return out->version(); };
                pipeline.attachSink = streamOutput(
                    out, stamps, n, "conv2d",
                    [](const GrayImage &image) { return imageBytes(image); });
            } else {
                const std::uint64_t n = state->kmeansVersions;
                auto bundle = makeKmeansAutomaton(state->kmeans[scene].color,
                                                  {state->clusters, n, 1});
                stamps->buildNs.store(nowNs() - entry,
                                      std::memory_order_release);
                bundle.assignment->addObserver(
                    [stamps](const Snapshot<KmeansAssignment> &) {
                        stamps->assignments.fetch_add(
                            1, std::memory_order_release);
                    });
                auto out = bundle.output;
                pipeline.automaton = std::move(bundle.automaton);
                pipeline.versionCount = [out] { return out->version(); };
                pipeline.attachSink = streamOutput(
                    out, stamps, n, "reduce", [](const KmeansResult &result) {
                        return imageBytes(result.image);
                    });
            }
            return pipeline;
        };
        return net;
    });
}

/** Scene pool and ladders (stage workers = 1, as served). */
void
buildPool(const Options &options, ServeState &state)
{
    const std::size_t extent = options.integer("extent");
    const std::size_t pool = options.integer("pool");
    state.kernel = std::make_unique<Kernel>(Kernel::gaussianBlur(
        static_cast<unsigned>(options.integer("radius"))));
    state.convVersions = options.integer("conv2d_versions");
    state.kmeansVersions = options.integer("kmeans_versions");
    state.clusters = static_cast<unsigned>(options.integer("clusters"));
    state.conv.clear();
    state.kmeans.clear();
    SplitMix64 seeds(options.seed);
    for (std::size_t i = 0; i < pool; ++i) {
        PoolEntry conv;
        conv.gray = generateScene(extent, extent, seeds.next());
        const GrayImage precise = convolve(conv.gray, *state.kernel);
        conv.precise = imageBytes(precise);
        conv.ladder = conv2dLadder(conv.gray, *state.kernel, precise,
                                   state.convVersions, 1);
        state.conv.push_back(std::move(conv));

        PoolEntry km;
        km.color = generateColorScene(extent, extent, seeds.next());
        const KmeansResult exact = kmeansCluster(km.color, state.clusters);
        km.precise = imageBytes(exact.image);
        km.ladder = kmeansLadder(km.color, exact, state.clusters,
                                 state.kmeansVersions, 1);
        state.kmeans.push_back(std::move(km));
    }
}

/** Fisher-Yates shuffle driven by the workload's generator. */
template <typename T>
void
shuffle(std::vector<T> &items, Xoshiro256 &rng)
{
    for (std::size_t i = items.size(); i > 1; --i)
        std::swap(items[i - 1], items[rng.nextBelow(i)]);
}

/**
 * The seeded open-loop schedule for one phase: about rate x seconds
 * requests (at most @p cap), in whole cycles of 2 x the deadline
 * classes. The gaps are the n strata midpoints of the exponential
 * distribution, and the apps and scenes come in their exact shares, each
 * list in a seeded order. Gaps below the median alternate with gaps
 * above it, so short gaps never come in a row, and the deadline classes
 * cycle in a fixed order. A request's place in the cycle thus fixes
 * whether its gap is short, its class and its predecessor's class (a
 * tight request is refused at once and does not load the builder), and
 * each place gets an equal share of every stratum of its half of the
 * gaps. Every seed thus offers the same load and the same short gaps
 * between built requests, in another order: the tails show the queueing
 * those cause, and do not swing with how many pile-ups a seed draws.
 */
std::vector<Planned>
plan(const Options &options, std::uint64_t stream, double seconds,
     std::size_t cap)
{
    const double rate = options.number("rate_per_s");
    const double conv_share = options.number("conv2d_share");
    const std::vector<double> deadlines = options.numbers("deadlines_ms");
    const std::size_t pool = options.integer("pool");
    const std::size_t classes = deadlines.size();
    const std::size_t cycle = 2 * classes;
    const std::size_t wanted = std::min<std::size_t>(
        cap, static_cast<std::size_t>(std::llround(rate * seconds)));
    const std::size_t n = std::max(cycle, wanted / cycle * cycle);
    Xoshiro256 rng(options.seed * 0x9e3779b97f4a7c15ull + stream);
    std::vector<std::vector<double>> places(cycle);
    std::vector<App> apps;
    std::vector<std::size_t> scenes;
    const auto conv = static_cast<std::size_t>(
        std::llround(conv_share * static_cast<double>(n)));
    for (std::size_t j = 0; j < n; ++j) {
        const double stratum =
            (static_cast<double>(j) + 0.5) / static_cast<double>(n);
        const double gap = -std::log(1.0 - stratum) / rate * 1e3;
        // Strata ascend: the first half is below the median and goes to
        // the odd places, the second half to the even ones.
        const bool shorter = j < n / 2;
        const std::size_t k = shorter ? j : j - n / 2;
        places[2 * (k % classes) + (shorter ? 1 : 0)].push_back(gap);
        apps.push_back(j < conv ? App::conv2d : App::kmeans);
        scenes.push_back(j % pool);
    }
    for (auto &gaps : places)
        shuffle(gaps, rng);
    shuffle(apps, rng);
    shuffle(scenes, rng);
    std::vector<Planned> out(n);
    double t = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        t += places[i % cycle][i / cycle];
        out[i] = {t, apps[i], scenes[i], deadlines[i % classes]};
    }
    return out;
}

/** Send one request and check everything it streamed back. */
Served
serveOne(const ServeState &state, const ClientOptions &client,
         const Planned &planned, std::size_t tag, Clock::time_point due,
         double threshold_db, Outcome &outcome, Mutex &outcome_mutex)
{
    Served served;
    const PoolEntry &entry = planned.app == App::conv2d
                                 ? state.conv[planned.scene]
                                 : state.kmeans[planned.scene];
    std::this_thread::sleep_until(due);
    const Clock::time_point sent = Clock::now();
    served.lateMs = msBetween(due, sent);

    RequestFrame frame;
    frame.pipeline = "perfbench";
    frame.input = std::string(planned.app == App::conv2d ? "c:" : "k:") +
                  std::to_string(planned.scene) + ":" + std::to_string(tag);
    const double remaining_ms = planned.deadlineMs - served.lateMs;
    frame.deadlineMicros =
        remaining_ms > 0 ? static_cast<std::uint64_t>(remaining_ms * 1e3)
                         : 0;
    frame.stageWorkers = 1;
    std::vector<std::int64_t> receipts;
    receipts.reserve(kMaxVersions);
    const ClientResult result =
        runRequest(client, frame, [&receipts](const VersionFrame &) {
            receipts.push_back(nowNs());
            return true;
        });

    const std::int64_t due_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            due.time_since_epoch())
            .count();
    const auto since_due = [due_ns](std::int64_t ns) {
        return static_cast<double>(ns - due_ns) / 1e6;
    };

    // Versions: strictly increasing, each one a rung of the ladder, a
    // precise final byte-identical to the precomputed output.
    bool increasing = true;
    bool on_ladder = true;
    bool final_ok = true;
    long floor = 0;
    const Stamps &stamps = *state.stamps[tag];
    for (std::size_t i = 0; i < result.versions.size(); ++i) {
        const VersionFrame &version = result.versions[i];
        if (i > 0 && version.version <= result.versions[i - 1].version)
            increasing = false;
        const std::uint64_t hash =
            hashBytes(version.payload.data(), version.payload.size());
        long rung = -1;
        if (planned.app == App::conv2d) {
            if (version.version >= 1 &&
                version.version <= entry.ladder.rungs.size() &&
                entry.ladder.rungs[version.version - 1].hash == hash)
                rung = static_cast<long>(version.version - 1);
        } else {
            rung = entry.ladder.find(hash, static_cast<std::size_t>(floor));
        }
        if (rung < 0) {
            on_ladder = false;
        } else {
            floor = rung;
        }
        if (version.final && !version.degraded &&
            version.payload != entry.precise)
            final_ok = false;
        const double at = since_due(receipts[i]);
        const double snr = rung >= 0 ? entry.ladder.rungs[rung].snrDb : -1.0;
        if (i == 0)
            served.firstMs = at;
        if (std::isnan(served.t90Ms) && snr >= threshold_db)
            served.t90Ms = at;
        if (version.final)
            served.finalMs = at;
        if (at <= planned.deadlineMs) {
            served.deadlineHit = true;
            served.qualityAtDeadline = qualityOf(snr, threshold_db);
        }
        if (version.version >= 1 && version.version <= kMaxVersions) {
            const std::int64_t published =
                stamps.publishNs[version.version - 1].load(
                    std::memory_order_acquire);
            if (published > 0) {
                const double delivery =
                    static_cast<double>(receipts[i] - published) / 1e6;
                served.deliveryMs.push_back(delivery);
                if (i == 0 && version.version == 1)
                    served.firstOverheadMs = delivery;
            }
        }
        served.bytes += static_cast<double>(version.payload.size());
    }
    served.received = result.versions.size();

    const std::int64_t factory =
        stamps.factoryNs.load(std::memory_order_acquire);
    if (factory > 0)
        served.queueMs = since_due(factory);
    const std::int64_t build = stamps.buildNs.load(std::memory_order_acquire);
    if (build >= 0)
        served.buildMs = static_cast<double>(build) / 1e6;
    const std::uint64_t assignments =
        stamps.assignments.load(std::memory_order_acquire);

    bool status_ok = false;
    if (result.done) {
        const auto status = static_cast<ServiceStatus>(result.done->status);
        served.status = serviceStatusName(status);
        served.published = result.done->versionsPublished;
        if (planned.app == App::kmeans && assignments > 0)
            served.consumeRatio = static_cast<double>(served.published) /
                                  static_cast<double>(assignments);
        served.serviceFirstMs = result.done->firstVersionSeconds * 1e3;
        switch (status) {
          case ServiceStatus::preciseCompleted:
            status_ok = !result.versions.empty() &&
                        result.versions.back().final;
            break;
          case ServiceStatus::deadlineApprox:
            status_ok = true;
            break;
          case ServiceStatus::shedQueueFull:
          case ServiceStatus::shedPredictedMiss:
          case ServiceStatus::shedCircuitOpen:
          case ServiceStatus::shedBrownout:
          case ServiceStatus::expired:
            served.refused = true;
            status_ok = true;
            break;
          default:
            break;
        }
    } else if (result.serverError) {
        served.status = "error";
        served.refused = true;
        status_ok = true;
    } else {
        served.status = "transport";
    }
    served.ok = status_ok && increasing && on_ladder && final_ok;

    MutexLock lock(outcome_mutex);
    outcome.check("serve: every request ends in DONE or an admission ERROR",
                  status_ok,
                  "status " + served.status + ": " + result.error);
    outcome.check("serve: versions arrive strictly increasing", increasing);
    outcome.check("serve: every streamed payload is a rung of its ladder",
                  on_ladder, frame.input);
    outcome.check("serve: a precise final equals the precomputed bytes",
                  final_ok, frame.input);
    return served;
}

/**
 * Run one open-loop phase; returns one Served per scheduled request.
 * With @p busy_ratio set, a sampler thread also reads the pool's
 * occupancy every millisecond (the timed run leaves it out, so that no
 * extra thread wakes during it).
 */
std::vector<Served>
runPhase(const Options &options, ServeState &state, NetServer &server,
         const std::vector<Planned> &schedule, double *busy_ratio,
         Outcome &outcome)
{
    const auto senders = static_cast<unsigned>(options.integer("senders"));
    const double conv_threshold = options.number("conv2d_t90_snr_db");
    const double kmeans_threshold = options.number("kmeans_t90_snr_db");
    state.stamps.clear();
    for (std::size_t i = 0; i < schedule.size(); ++i)
        state.stamps.push_back(std::make_unique<Stamps>());

    ClientOptions client;
    client.port = server.port();
    std::vector<Served> served(schedule.size());
    std::atomic<std::size_t> next{0};
    Mutex outcome_mutex;
    const Clock::time_point origin =
        Clock::now() + std::chrono::milliseconds(20);

    const ServiceMetrics before = server.service().metricsSnapshot();
    std::atomic<bool> sampling{true};
    double busy_sum = 0.0;
    std::uint64_t busy_samples = 0;
    const double pool_size = server.service().config().workers;
    std::thread sampler;
    if (busy_ratio)
        sampler = std::thread([&] {
            std::this_thread::sleep_until(origin);
            while (sampling.load(std::memory_order_relaxed)) {
                busy_sum += server.service().workersInUse() / pool_size;
                ++busy_samples;
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
        });
    std::vector<std::thread> threads;
    for (unsigned s = 0; s < senders; ++s) {
        threads.emplace_back([&] {
            for (;;) {
                const std::size_t i = next.fetch_add(1);
                if (i >= schedule.size())
                    return;
                const Planned &planned = schedule[i];
                const auto due =
                    origin + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double, std::milli>(
                                     planned.dueMs));
                served[i] = serveOne(state, client, planned, i, due,
                                     planned.app == App::conv2d
                                         ? conv_threshold
                                         : kmeans_threshold,
                                     outcome, outcome_mutex);
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    sampling.store(false);
    if (sampler.joinable()) {
        sampler.join();
        *busy_ratio = busy_samples
                          ? busy_sum / static_cast<double>(busy_samples)
                          : kNaN;
    }

    // Every DONE the clients saw is one response in the server's own
    // accounting, and the precise ones agree too.
    std::uint64_t done = 0;
    std::uint64_t precise = 0;
    for (const Served &one : served) {
        ++outcome.attempted;
        if (!one.ok)
            ++outcome.failed;
        else if (one.refused)
            ++outcome.refused;
        else
            ++outcome.succeeded;
        done += one.status != "error" && one.status != "transport";
        precise += one.status == "precise";
    }
    const ServiceMetrics after = server.service().metricsSnapshot();
    outcome.check("serve: status counts sum to the server's responses",
                  after.total() - before.total() == done &&
                      after.precise() - before.precise() == precise,
                  std::to_string(done) + " DONE frames, " +
                      std::to_string(after.total() - before.total()) +
                      " server responses");
    return served;
}

NetServerConfig
serverConfig(const Options &options, std::shared_ptr<PipelineCatalog> catalog)
{
    NetServerConfig config;
    config.catalog = std::move(catalog);
    config.service.workers =
        static_cast<unsigned>(options.integer("pool_workers"));
    return config;
}

} // namespace

void
runServeLoopback(const Options &options, Report &report)
{
    Outcome &outcome = report.outcome;
    auto state = std::make_shared<ServeState>();
    auto catalog = std::make_shared<PipelineCatalog>();
    registerPipelines(*catalog, state);
    std::unique_ptr<NetServer> server;
    std::vector<std::uint64_t> first_hashes;
    for (std::uint64_t i = 0; i < kSetupRepeats; ++i) {
        const Clock::time_point begin = Clock::now();
        server.reset();
        buildPool(options, *state);
        server = std::make_unique<NetServer>(serverConfig(options, catalog));
        report.samples["setup_s"].push_back(
            msBetween(begin, Clock::now()) / 1e3);
        std::vector<std::uint64_t> hashes;
        for (const auto *pool : {&state->conv, &state->kmeans})
            for (const PoolEntry &entry : *pool)
                for (const Rung &rung : entry.ladder.rungs)
                    hashes.push_back(rung.hash);
        if (i == 0)
            first_hashes = hashes;
        else
            outcome.check("setup: ladders are identical on every setup",
                          hashes == first_hashes);
    }
    bool monotone = true;
    bool precise_end = true;
    for (const auto *pool : {&state->conv, &state->kmeans}) {
        for (const PoolEntry &entry : *pool) {
            monotone = monotone && entry.ladder.monotone();
            precise_end = precise_end && !entry.ladder.rungs.empty() &&
                          std::isinf(entry.ladder.rungs.back().snrDb);
        }
    }
    outcome.check("setup: SNR ladder is monotone", monotone);
    outcome.check("setup: ladder ends on the precise output", precise_end);
    for (const auto &[name, pool, key] :
         {std::tuple{"conv2d", &state->conv, "conv2d_t90_snr_db"},
          std::tuple{"kmeans", &state->kmeans, "kmeans_t90_snr_db"}}) {
        const Ladder &ladder = (*pool)[0].ladder;
        const std::size_t n90 = (ladder.rungs.size() * 9 + 9) / 10;
        report.info[std::string(name) + ".ladder.rungs"] =
            static_cast<double>(ladder.rungs.size());
        report.info[std::string(name) + ".ladder.snr_db_at_ceil_0.9N"] =
            ladder.rungs[n90 - 1].snrDb;
        const long t90 = ladder.firstReaching(options.number(key));
        report.info[std::string(name) + ".ladder.t90_rung"] =
            static_cast<double>(t90 + 1);
    }

    const auto record = [&](const std::vector<Served> &served,
                            const std::string &prefix) {
        auto &samples = prefix.empty() ? report.samples : report.layerSamples;
        for (const Served &one : served)
            recordLadder(one, samples, prefix);
    };

    // Warm-up: the server's connections, admission estimates and
    // allocator arenas settle before anything is recorded. Its requests
    // are checked and counted like any other.
    runPhase(options, *state, *server,
             plan(options, 0, kWarmupSeconds, std::size_t(-1)), nullptr,
             outcome);

    double busy = kNaN;
    if (!options.trace) {
        const auto schedule =
            plan(options, 1, options.seconds, std::size_t(-1));
        record(runPhase(options, *state, *server, schedule, nullptr, outcome),
               "");
        return;
    }

    // Traced run: an untraced phase for the layer split, then a short
    // traced phase (few enough requests that no trace ring wraps).
    const auto untraced_schedule =
        plan(options, 2, options.seconds * 0.6, std::size_t(-1));
    const std::vector<Served> untraced =
        runPhase(options, *state, *server, untraced_schedule, &busy, outcome);
    record(untraced, "untraced.");
    auto &layer = report.layerSamples;
    std::map<std::string, double> statuses;
    double received = 0, published = 0, bytes = 0;
    for (const Served &one : untraced) {
        layer["service.queue_ms"].push_back(one.queueMs);
        layer["apps.build_ms"].push_back(one.buildMs);
        layer["service.first_version_ms"].push_back(one.serviceFirstMs);
        layer["net.first_version_overhead_ms"].push_back(one.firstOverheadMs);
        layer["gen.late_ms"].push_back(one.lateMs);
        layer["core.pipeline.consume_ratio"].push_back(one.consumeRatio);
        for (const double ms : one.deliveryMs)
            layer["net.version_delivery_ms"].push_back(ms);
        statuses[one.status] += 1;
        received += static_cast<double>(one.received);
        published += static_cast<double>(one.published);
        bytes += one.bytes;
    }
    const double attempted = static_cast<double>(untraced.size());
    report.layerValues["service.pool_busy_ratio"] = busy;
    for (const auto &[name, count] : statuses)
        report.layerValues["service.status." + name] = count / attempted;
    report.layerValues["net.versions_delivered_ratio"] = received / published;
    report.layerValues["net.bytes_per_request"] = bytes / attempted;

    const auto traced_schedule =
        plan(options, 3, options.seconds * 0.3, kTracedRequests);
    obs::clearTrace();
    obs::setTracingEnabled(true);
    std::vector<Served> traced;
    {
        obs::TraceSpan span("perfbench.phase", "perfbench");
        traced = runPhase(options, *state, *server, traced_schedule, nullptr,
                          outcome);
    }
    obs::setTracingEnabled(false);
    record(traced, "traced.");
    report.layerValues["obs.trace_dropped_records"] =
        static_cast<double>(obs::droppedRecords());
    outcome.check("trace: no record dropped", obs::droppedRecords() == 0);
    report.info["trace.requests"] = static_cast<double>(traced.size());
    outcome.check("trace: written", obs::writeChromeTrace(options.traceFile));
    server.reset();

    measureKernelLayers(options, report);
    for (const char *name :
         {"core.run_ms", "core.shutdown_ms", "core.publish_gap_ms_p50",
          "core.versions_published", "core.gang_speedup"})
        report.notMeasured[name] =
            "the server owns start/wait/shutdown and the gang is bypassed";
    report.notMeasured["apps.t90_norm"] =
        "its t90 mixes two apps and queueing; no single precise baseline";
}

} // namespace perfbench
