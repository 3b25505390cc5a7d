/**
 * @file
 * Serving-runtime load generator over the conv2d and kmeans automata.
 *
 * Drives an AnytimeServer in the two canonical load-testing modes:
 *
 *  - closed loop: a fixed set of clients, each submitting its next
 *    request only after the previous response arrives (latency-bound,
 *    models interactive sessions);
 *  - open loop: requests arrive on a fixed-rate exponential schedule
 *    regardless of completions (throughput-bound, models front-end
 *    fan-out; drives the server into admission control at high rates).
 *
 * Each request carries a deadline drawn from a tight/medium/loose mix.
 * Reported per scenario: deadline-hit rate, p50/p95/p99 latency, shed
 * counts, and mean quality at deadline — the QoS surface the anytime
 * model exposes (every response is valid; slack buys accuracy).
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <random>
#include <thread>
#include <vector>

#include "core/parallel_stage.hpp"

#include "apps/conv2d.hpp"
#include "apps/kmeans.hpp"
#include "bench_common.hpp"
#include "fault/fault.hpp"
#include "harness/report.hpp"
#include "image/generate.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/server.hpp"

using namespace anytime;
using namespace std::chrono_literals;

namespace {

const std::chrono::nanoseconds kDeadlineMix[] = {5ms, 20ms, 80ms};

ServiceRequest
conv2dRequest(const GrayImage &scene, std::chrono::nanoseconds deadline,
              unsigned stage_workers, unsigned precision_bits = 8)
{
    ServiceRequest request;
    request.name = "conv2d";
    request.deadline = deadline;
    request.stageWorkers = stage_workers;
    request.factory = [&scene, stage_workers, precision_bits] {
        Conv2dConfig config;
        config.publishCount = 32;
        config.workers = stage_workers;
        config.precisionBits = precision_bits;
        auto bundle = makeConv2dAutomaton(scene, Kernel::gaussianBlur(3),
                                          config);
        PreparedPipeline pipeline;
        auto out = bundle.output;
        const double publish_count =
            static_cast<double>(config.publishCount);
        pipeline.progress = [out, publish_count] {
            return std::min(
                1.0, static_cast<double>(out->read().version) /
                         publish_count);
        };
        pipeline.versionCount = [out] { return out->version(); };
        // Metadata-only sink wiring: with attachSink present the
        // server timestamps the first published version, so the
        // t90_first_ms column in the report tables is live.
        pipeline.attachSink = [out, publish_count](VersionSink sink) {
            out->addObserver([sink = std::move(sink), publish_count](
                                 const Snapshot<GrayImage> &snap) {
                VersionUpdate update;
                update.version = snap.version;
                update.final = snap.final;
                update.degraded = snap.degraded;
                update.quality = std::min(
                    1.0,
                    static_cast<double>(snap.version) / publish_count);
                sink(update);
            });
        };
        pipeline.automaton = std::move(bundle.automaton);
        return pipeline;
    };
    return request;
}

ServiceRequest
kmeansRequest(const RgbImage &scene, std::chrono::nanoseconds deadline,
              unsigned stage_workers)
{
    ServiceRequest request;
    request.name = "kmeans";
    request.deadline = deadline;
    request.stageWorkers = stage_workers;
    request.factory = [&scene, stage_workers] {
        KmeansConfig config;
        config.clusters = 6;
        config.publishCount = 32;
        config.workers = stage_workers;
        auto bundle = makeKmeansAutomaton(scene, config);
        PreparedPipeline pipeline;
        auto out = bundle.output;
        const double publish_count =
            static_cast<double>(config.publishCount);
        pipeline.progress = [out, publish_count] {
            return std::min(
                1.0, static_cast<double>(out->read().version) /
                         publish_count);
        };
        pipeline.versionCount = [out] { return out->version(); };
        pipeline.attachSink = [out, publish_count](VersionSink sink) {
            out->addObserver([sink = std::move(sink), publish_count](
                                 const Snapshot<KmeansResult> &snap) {
                VersionUpdate update;
                update.version = snap.version;
                update.final = snap.final;
                update.degraded = snap.degraded;
                update.quality = std::min(
                    1.0,
                    static_cast<double>(snap.version) / publish_count);
                sink(update);
            });
        };
        pipeline.automaton = std::move(bundle.automaton);
        return pipeline;
    };
    return request;
}

using RequestMaker =
    std::function<ServiceRequest(std::chrono::nanoseconds)>;

/** Closed loop: @p clients sessions of @p per_client requests each. */
void
runClosedLoop(const std::string &workload, const RequestMaker &make,
              unsigned clients, unsigned per_client)
{
    AnytimeServer server({.workers = 4, .maxQueueDepth = 32});
    std::vector<std::thread> sessions;
    for (unsigned client = 0; client < clients; ++client) {
        sessions.emplace_back([&, client] {
            for (unsigned i = 0; i < per_client; ++i) {
                const auto deadline =
                    kDeadlineMix[(client + i) % std::size(kDeadlineMix)];
                server.submit(make(deadline)).wait();
            }
        });
    }
    for (auto &session : sessions)
        session.join();
    server.drain();
    printTable(server.metricsSnapshot().table(
        workload + " closed loop (" + std::to_string(clients) +
        " clients x " + std::to_string(per_client) + " requests)"));
}

/** Open loop: @p total arrivals, exponential @p mean_gap spacing. */
void
runOpenLoop(const std::string &workload, const RequestMaker &make,
            unsigned total, std::chrono::nanoseconds mean_gap,
            std::uint64_t arrival_seed)
{
    AnytimeServer server({.workers = 4, .maxQueueDepth = 16});
    std::mt19937_64 rng(arrival_seed);
    std::exponential_distribution<double> gap(
        1.0 / std::chrono::duration<double>(mean_gap).count());

    std::vector<std::future<ServiceResponse>> futures;
    futures.reserve(total);
    for (unsigned i = 0; i < total; ++i) {
        futures.push_back(server.submit(
            make(kDeadlineMix[i % std::size(kDeadlineMix)])));
        std::this_thread::sleep_for(
            std::chrono::duration<double>(gap(rng)));
    }
    for (auto &future : futures)
        future.wait();
    server.drain();
    printTable(server.metricsSnapshot().table(
        workload + " open loop (" + std::to_string(total) +
        " arrivals, mean gap " +
        formatDouble(
            std::chrono::duration<double, std::milli>(mean_gap).count(),
            1) +
        " ms)"));
}

// ---- Overload curves: brownout vs shed-only ------------------------

/**
 * The overload workload: a build-cheap, execution-dominated spin
 * pipeline so the *executor pool*, not the (serial) pipeline builder,
 * is the saturated resource — the regime where trading quality for
 * capacity pays. One loose uniform deadline: under overload the EDF
 * hard-stop converts excess load into partial-quality answers instead
 * of queue expiries. The progress probe is concave (sqrt of step
 * fraction), modelling the paper's refinement curves (Figs. 16-18):
 * the first versions buy most of the answer, so an early stop costs
 * far less quality than the capacity it frees.
 */
ServiceRequest
overloadRequest(unsigned stage_workers, double min_quality)
{
    ServiceRequest request;
    request.name = "spin-overload";
    request.deadline = 80ms;
    request.stageWorkers = stage_workers;
    request.minQuality = min_quality;
    request.factory = [stage_workers] {
        constexpr std::uint64_t steps = 32;
        auto automaton = std::make_unique<Automaton>();
        auto out = automaton->makeBuffer<long>("spin");
        SweepLayout layout;
        layout.steps = steps;
        layout.window = 1;
        automaton->addStage(
            std::make_shared<PartitionedDiffusiveStage<long, long>>(
                "spin", out, 0L, layout, [] { return 0L; },
                [](long &partial) { partial = 0; },
                [](std::uint64_t, long &partial, StageContext &) {
                    partial += 1;
                    std::this_thread::sleep_for(750us);
                },
                [](long &state, std::vector<long> &partials,
                   std::uint64_t, std::uint64_t) {
                    for (const long partial : partials)
                        state += partial;
                }),
            stage_workers);
        PreparedPipeline pipeline;
        pipeline.progress = [out] {
            const auto snap = out->read();
            return snap ? std::sqrt(static_cast<double>(*snap.value) /
                                    static_cast<double>(steps))
                        : 0.0;
        };
        pipeline.versionCount = [out] { return out->version(); };
        pipeline.automaton = std::move(automaton);
        return pipeline;
    };
    return request;
}

/** One (load multiplier, admission mode) measurement. */
struct OverloadStats
{
    double multiplier = 0.0;
    std::size_t total = 0;
    std::size_t served = 0;
    std::size_t shedTotal = 0;
    /** (served + degraded) / total — answers with real output. */
    double usefulFraction = 0.0;
    /** Mean progress quality over served requests. */
    double meanQuality = 0.0;
    /** Quality amortized over *all* requests (sheds count as zero):
     *  the quality-vs-load curve the brownout must keep above the
     *  shed-only baseline. */
    double usefulQuality = 0.0;
    double hitRate = 0.0;
    int maxLevel = 0;
    std::uint64_t transitions = 0;
    bool identityHolds = false;
};

/**
 * Drive one open-loop burst at @p multiplier times the base arrival
 * rate. With @p use_brownout the request maker consults the live
 * brownout policy at submit time — gang capped, precision ceiling
 * applied — so degradation reaches the pipelines, not just admission.
 */
OverloadStats
runOverloadPoint(unsigned stage_workers, bool use_brownout,
                 double multiplier, unsigned total,
                 std::chrono::nanoseconds base_gap,
                 std::uint64_t arrival_seed)
{
    ServerConfig config{.workers = 4, .maxQueueDepth = 16};
    config.brownout.enabled = use_brownout;
    // The bench bursts are short; evaluate every scheduler pass so the
    // ladder can engage within the burst.
    config.brownout.evalInterval = 1ms;
    AnytimeServer server(config);

    const auto make = [&] {
        unsigned gang = stage_workers;
        double min_quality = 0.0;
        if (use_brownout) {
            const BrownoutLevelPolicy policy = server.brownoutPolicy();
            if (policy.maxStageWorkers != 0)
                gang = std::min(gang, policy.maxStageWorkers);
            // The in-process realization of the precision ceiling: a
            // progress-quality target of ceiling/8. The server stops
            // the request there *only while a backlog exists*, so
            // surplus accuracy is traded exactly when someone waiting
            // would otherwise get nothing.
            if (policy.precisionBitsCeiling < 8)
                min_quality =
                    static_cast<double>(policy.precisionBitsCeiling) /
                    8.0;
        }
        return overloadRequest(gang, min_quality);
    };

    std::mt19937_64 rng(arrival_seed);
    std::exponential_distribution<double> gap(
        multiplier /
        std::chrono::duration<double>(base_gap).count());

    OverloadStats stats;
    stats.multiplier = multiplier;
    std::vector<std::future<ServiceResponse>> futures;
    futures.reserve(total);
    for (unsigned i = 0; i < total; ++i) {
        futures.push_back(server.submit(make()));
        stats.maxLevel =
            std::max(stats.maxLevel, server.brownoutLevel());
        std::this_thread::sleep_for(
            std::chrono::duration<double>(gap(rng)));
    }
    for (auto &future : futures)
        future.wait();
    server.drain();
    stats.maxLevel = std::max(stats.maxLevel, server.brownoutLevel());
    stats.transitions = server.brownoutControl().transitions();

    const ServiceMetrics metrics = server.metricsSnapshot();
    stats.total = metrics.total();
    stats.served = metrics.served();
    stats.shedTotal = metrics.shed();
    stats.usefulFraction =
        metrics.total() == 0
            ? 0.0
            : static_cast<double>(metrics.served() +
                                  metrics.degraded()) /
                  static_cast<double>(metrics.total());
    stats.meanQuality = metrics.meanQuality();
    stats.usefulQuality = stats.meanQuality * stats.usefulFraction;
    stats.hitRate = metrics.hitRate();
    stats.identityHolds =
        metrics.total() == metrics.served() + metrics.shed() +
                               metrics.expired() + metrics.failed() +
                               metrics.cancelled() + metrics.degraded();
    return stats;
}

/** Quality-vs-load comparison; returns EXIT_SUCCESS when the brownout
 *  curve dominates shed-only at every multiplier >= 2. */
int
runBrownoutCurves(unsigned stage_workers, std::uint64_t arrival_seed,
                  const std::string &json_path)
{
    // The base gap approximates one-server-capacity arrivals for the
    // bench scene; multipliers express overload relative to it.
    const auto base_gap = 12ms;
    const double multipliers[] = {1.0, 2.0, 3.0};
    // Enough arrivals per point that the post-engage steady state,
    // not the controller's ramp-up transient, dominates the averages.
    const unsigned total = 96;

    std::vector<OverloadStats> shed_only;
    std::vector<OverloadStats> brownout;
    for (const double multiplier : multipliers) {
        shed_only.push_back(runOverloadPoint(stage_workers, false,
                                             multiplier, total,
                                             base_gap, arrival_seed));
        brownout.push_back(runOverloadPoint(stage_workers, true,
                                            multiplier, total,
                                            base_gap, arrival_seed));
    }

    std::printf("%-6s %-10s %8s %8s %8s %10s %10s %6s\n", "load",
                "mode", "served", "shed", "useful", "quality",
                "q*useful", "maxL");
    bool dominates = true;
    bool identity = true;
    for (std::size_t i = 0; i < shed_only.size(); ++i) {
        for (const OverloadStats *stats :
             {&shed_only[i], &brownout[i]}) {
            std::printf(
                "%-6.1f %-10s %8zu %8zu %8.3f %10.3f %10.3f %6d\n",
                stats->multiplier,
                stats == &brownout[i] ? "brownout" : "shed-only",
                stats->served, stats->shedTotal,
                stats->usefulFraction, stats->meanQuality,
                stats->usefulQuality, stats->maxLevel);
            identity = identity && stats->identityHolds;
        }
        if (shed_only[i].multiplier >= 2.0 &&
            brownout[i].usefulQuality < shed_only[i].usefulQuality)
            dominates = false;
    }
    std::printf("\nbrownout %s the shed-only baseline at >=2x "
                "capacity (quality amortized over all requests)\n",
                dominates ? "dominates" : "DOES NOT dominate");
    if (!identity)
        std::printf("ACCOUNTING IDENTITY VIOLATED\n");

    if (!json_path.empty()) {
        std::FILE *out = std::fopen(json_path.c_str(), "w");
        if (!out) {
            std::cerr << "cannot write " << json_path << "\n";
            return EXIT_FAILURE;
        }
        std::fprintf(out, "{\n");
        std::fprintf(out,
                     "  \"bench\": \"service_load_brownout\",\n");
        std::fprintf(out, "  \"arrival_seed\": %llu,\n",
                     static_cast<unsigned long long>(arrival_seed));
        std::fprintf(out, "  \"points\": [\n");
        for (std::size_t i = 0; i < shed_only.size(); ++i) {
            const auto emit = [&](const char *mode,
                                  const OverloadStats &stats) {
                std::fprintf(
                    out,
                    "    {\"multiplier\": %.1f, \"mode\": \"%s\", "
                    "\"total\": %zu, \"served\": %zu, \"shed\": %zu, "
                    "\"useful_fraction\": %.6f, "
                    "\"mean_quality\": %.6f, "
                    "\"useful_quality\": %.6f, \"hit_rate\": %.6f, "
                    "\"max_level\": %d, \"transitions\": %llu}%s\n",
                    stats.multiplier, mode, stats.total, stats.served,
                    stats.shedTotal, stats.usefulFraction,
                    stats.meanQuality, stats.usefulQuality,
                    stats.hitRate, stats.maxLevel,
                    static_cast<unsigned long long>(stats.transitions),
                    mode == std::string("brownout") &&
                            i + 1 == shed_only.size()
                        ? ""
                        : ",");
            };
            emit("shed_only", shed_only[i]);
            emit("brownout", brownout[i]);
        }
        std::fprintf(out, "  ],\n");
        std::fprintf(out, "  \"dominates_at_2x\": %s,\n",
                     dominates ? "true" : "false");
        std::fprintf(out, "  \"identity_holds\": %s\n",
                     identity ? "true" : "false");
        std::fprintf(out, "}\n");
        std::fclose(out);
        std::cout << "json written to " << json_path << "\n";
    }
    return identity && dominates ? EXIT_SUCCESS : EXIT_FAILURE;
}

/** CI overload soak: sustained ~2x-capacity arrivals with brownout on;
 *  the accounting identity must hold at the end. The spin workload
 *  keeps the overload factor stable regardless of --scale or
 *  sanitizer slowdown. */
int
runSoak(unsigned stage_workers, double seconds,
        std::uint64_t arrival_seed)
{
    ServerConfig config{.workers = 4, .maxQueueDepth = 16};
    config.brownout.enabled = true;
    config.brownout.evalInterval = 1ms;
    AnytimeServer server(config);

    // Spin exec is ~24 ms over a 4-slot pool => capacity is one
    // arrival per 6 ms; a 3 ms mean gap holds ~2x capacity.
    const auto base_gap = 3ms;
    std::mt19937_64 rng(arrival_seed);
    std::exponential_distribution<double> gap(
        1.0 / std::chrono::duration<double>(base_gap).count());

    std::vector<std::future<ServiceResponse>> futures;
    const auto until =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(seconds));
    unsigned submitted = 0;
    while (std::chrono::steady_clock::now() < until) {
        unsigned gang = stage_workers;
        double min_quality = 0.0;
        const BrownoutLevelPolicy policy = server.brownoutPolicy();
        if (policy.maxStageWorkers != 0)
            gang = std::min(gang, policy.maxStageWorkers);
        if (policy.precisionBitsCeiling < 8)
            min_quality =
                static_cast<double>(policy.precisionBitsCeiling) / 8.0;
        futures.push_back(
            server.submit(overloadRequest(gang, min_quality)));
        ++submitted;
        std::this_thread::sleep_for(
            std::chrono::duration<double>(gap(rng)));
    }
    for (auto &future : futures)
        future.wait();
    server.drain();

    const ServiceMetrics metrics = server.metricsSnapshot();
    const bool identity =
        metrics.total() == metrics.served() + metrics.shed() +
                               metrics.expired() + metrics.failed() +
                               metrics.cancelled() + metrics.degraded();
    std::printf("soak: %u submitted over %.1f s — served %zu, shed "
                "%zu, expired %zu, failed %zu, cancelled %zu, "
                "degraded %zu; brownout transitions %llu, final level "
                "L%d\n",
                submitted, seconds, metrics.served(), metrics.shed(),
                metrics.expired(), metrics.failed(),
                metrics.cancelled(), metrics.degraded(),
                static_cast<unsigned long long>(
                    server.brownoutControl().transitions()),
                server.brownoutLevel());
    if (!identity) {
        std::printf("ACCOUNTING IDENTITY VIOLATED: total %zu != sum "
                    "of buckets\n",
                    metrics.total());
        return EXIT_FAILURE;
    }
    std::printf("accounting identity holds: total %zu == sum of "
                "buckets\n",
                metrics.total());
    return EXIT_SUCCESS;
}

} // namespace

int
main(int argc, char **argv)
{
    const double scale = parseScale(argc, argv);
    const std::size_t extent = scaledExtent(160, scale);
    // --trace <path>: capture a Chrome trace-event JSON of the whole
    // run (open in Perfetto / chrome://tracing). --metrics <path>:
    // dump the live registry as Prometheus text at exit.
    const std::string trace_path =
        parseStringOption(argc, argv, "--trace");
    const std::string metrics_path =
        parseStringOption(argc, argv, "--metrics");
    // --stage-workers <k>: partition each request's diffusive stage
    // among k workers (Section IV-C1); the request declares the gang
    // so admission prediction accounts for the wider footprint.
    const unsigned stage_workers =
        parseUnsignedOption(argc, argv, "--stage-workers", 1);
    // --arrival-seed <n>: reseed the open-loop arrival schedule for a
    // different but equally reproducible interleaving (the default
    // replays the historical fixed schedule).
    const std::string arrival_seed_arg =
        parseStringOption(argc, argv, "--arrival-seed");
    const std::uint64_t arrival_seed =
        arrival_seed_arg.empty() ? 0x5eed5eedULL
                                 : std::stoull(arrival_seed_arg);
    // --brownout: run the overload quality-vs-load comparison instead
    // of the standard scenarios — identical arrival schedules replayed
    // against a shed-only server and a brownout-enabled one at 1x/2x/3x
    // capacity; exits nonzero unless the brownout curve dominates at
    // >=2x. --json <path>: dump the curves as bench JSON.
    bool brownout_mode = false;
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--brownout")
            brownout_mode = true;
    const std::string json_path =
        parseStringOption(argc, argv, "--json");
    // --soak-seconds <s>: CI overload soak — sustained ~2x-capacity
    // arrivals with brownout enabled; exits nonzero if the accounting
    // identity breaks.
    const std::string soak_text =
        parseStringOption(argc, argv, "--soak-seconds");
    // --fault-plan <file|spec>: arm the deterministic fault injector
    // for the whole run (chaos mode; see DESIGN.md section 12 for the
    // grammar, e.g. "stage.body:conv2d.sweep=throw@3"). --chaos-seed
    // <n>: override the plan's corruption seed for a different but
    // equally reproducible schedule.
    const std::string fault_plan_arg =
        parseStringOption(argc, argv, "--fault-plan");
    const std::string chaos_seed_arg =
        parseStringOption(argc, argv, "--chaos-seed");
    if (!fault_plan_arg.empty()) {
        fault::FaultPlan plan =
            fault::FaultPlan::fromSpecOrFile(fault_plan_arg);
        if (!chaos_seed_arg.empty())
            plan.seed = std::stoull(chaos_seed_arg);
        if (!ANYTIME_FAULTS_ENABLED)
            std::cerr << "warning: built with ANYTIME_FAULTS=OFF — "
                         "fault sites are compiled out, the plan will "
                         "inject nothing\n";
        std::cout << "chaos: " << plan.describe() << "\n";
        fault::FaultInjector::arm(std::move(plan));
    }
    if (!trace_path.empty())
        obs::setTracingEnabled(true);
    printBanner("anytime serving runtime under load",
                "no paper figure: serving-layer extension; every "
                "response is a valid snapshot, slack buys accuracy");

    const GrayImage gray_scene = generateScene(extent, extent, 11);

    if (!soak_text.empty())
        return runSoak(stage_workers, std::atof(soak_text.c_str()),
                       arrival_seed);
    if (brownout_mode)
        return runBrownoutCurves(stage_workers, arrival_seed,
                                 json_path);

    const RgbImage color_scene = generateColorScene(extent, extent, 13);
    std::cout << "scene: " << extent << "x" << extent
              << ", deadline mix 5/20/80 ms, pool of 4 workers, "
              << stage_workers << " worker(s) per stage, arrival seed "
              << arrival_seed << "\n\n";

    const RequestMaker conv = [&](std::chrono::nanoseconds deadline) {
        return conv2dRequest(gray_scene, deadline, stage_workers);
    };
    const RequestMaker kmeans = [&](std::chrono::nanoseconds deadline) {
        return kmeansRequest(color_scene, deadline, stage_workers);
    };

    runClosedLoop("conv2d", conv, /*clients=*/4, /*per_client=*/8);
    runClosedLoop("kmeans", kmeans, /*clients=*/4, /*per_client=*/8);
    runOpenLoop("conv2d", conv, /*total=*/48, /*mean_gap=*/4ms,
                arrival_seed);
    runOpenLoop("kmeans", kmeans, /*total=*/48, /*mean_gap=*/4ms,
                arrival_seed);

    std::cout << "\nopen-loop arrivals outpace the pool on purpose: "
                 "admission control converts most of the overload into "
                 "prompt sheds, and every request — served, shed, or "
                 "expired — gets an answer\n";

    if (!fault_plan_arg.empty()) {
        std::cout << "chaos: "
                  << fault::FaultInjector::instance().injectedTotal()
                  << " fault(s) injected\n";
        fault::FaultInjector::disarm();
    }

    if (!metrics_path.empty()) {
        std::cout << '\n';
        printTable(metricsTable(obs::defaultRegistry(),
                                "live metrics registry"));
        if (obs::defaultRegistry().writePrometheus(metrics_path))
            std::cout << "\nmetrics snapshot written to " << metrics_path
                      << " (Prometheus text format)\n";
        else
            std::cerr << "cannot write metrics to " << metrics_path
                      << "\n";
    }
    if (!trace_path.empty()) {
        if (obs::writeChromeTrace(trace_path))
            std::cout << "trace written to " << trace_path << " ("
                      << obs::retainedRecords() << " events, "
                      << obs::droppedRecords()
                      << " dropped); open in Perfetto or "
                         "chrome://tracing\n";
        else
            std::cerr << "cannot write trace to " << trace_path << "\n";
    }
    return 0;
}
