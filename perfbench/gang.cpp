/**
 * @file
 * The in-process gang workload: conv2d_gang.
 *
 * One automaton at a time, built by the public makeConv2dAutomaton call and
 * run with a gang of `gang` workers on its sweep stage. Each
 * operation's clock starts just before the build, so build cost is
 * part of every end-to-end number. An observer on the output buffer
 * records (version, arrival time) pairs; quality is looked up in the
 * ladder computed once at setup.
 */

#include <cmath>
#include <limits>
#include <memory>

#include "apps/conv2d.hpp"
#include "common.hpp"
#include "image/generate.hpp"
#include "obs/trace.hpp"

using namespace anytime;

namespace perfbench {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/** Setups per run; setup_s is their median. */
constexpr std::uint64_t kSetupRepeats = 5;
/** Timed operations per phase, however short the phase. */
constexpr std::uint64_t kMinOps = 3;
/** Operations in the traced phase (few enough that no trace ring
 *  wraps). */
constexpr std::uint64_t kTracedOps = 4;

/** Observer-side record of one published output version. */
struct Arrival
{
    std::uint64_t version = 0;
    Clock::time_point at{};
    bool final = false;
};

/** What one timed operation produced (times in ms from the build). */
struct OpResult
{
    double buildMs = kNaN;
    double firstMs = kNaN;
    double t90Ms = kNaN;
    double finalMs = kNaN;
    double runMs = kNaN;
    double shutdownMs = kNaN;
    bool deadlineHit = false;
    double qualityAtDeadline = 0.0;
    std::uint64_t versions = 0;
    std::vector<double> publishGapsMs;
    bool ok = false;
};

/**
 * Time one operation: build with @p make (the clock starts just before
 * it), attach observers with @p attach, then start, wait and shut down,
 * each phase in its own span. Fills the build/run/shutdown times of
 * @p result and returns the clock's start.
 */
template <typename Make, typename Attach>
Clock::time_point
timeOp(Make &&make, Attach &&attach, OpResult &result)
{
    const Clock::time_point t0 = Clock::now();
    decltype(make()) bundle;
    {
        obs::TraceSpan span("perfbench.build", "perfbench");
        bundle = make();
    }
    const Clock::time_point built = Clock::now();
    attach(bundle);
    const Clock::time_point started = Clock::now();
    {
        obs::TraceSpan span("perfbench.run", "perfbench");
        bundle.automaton->start();
        bundle.automaton->waitUntilDone();
    }
    const Clock::time_point done = Clock::now();
    {
        obs::TraceSpan span("perfbench.shutdown", "perfbench");
        bundle.automaton->shutdown();
    }
    result.buildMs = msBetween(t0, built);
    result.runMs = msBetween(started, done);
    result.shutdownMs = msBetween(done, Clock::now());
    return t0;
}

/**
 * Fill the ladder-derived fields of @p result from the arrivals and
 * their rungs (-1 = a version not on the ladder, reported as a failure
 * by the caller).
 */
void
scoreLadder(const std::vector<Arrival> &arrivals,
            const std::vector<long> &rungs, const Ladder &ladder,
            double threshold_db, Clock::time_point t0, double deadline_ms,
            OpResult &result)
{
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
        const double at = msBetween(t0, arrivals[i].at);
        const double snr = rungs[i] >= 0 ? ladder.rungs[rungs[i]].snrDb : -1.0;
        if (i == 0)
            result.firstMs = at;
        if (std::isnan(result.t90Ms) && snr >= threshold_db)
            result.t90Ms = at;
        if (at <= deadline_ms) {
            result.deadlineHit = true;
            result.qualityAtDeadline = qualityOf(snr, threshold_db);
        }
        if (i > 0)
            result.publishGapsMs.push_back(
                msBetween(arrivals[i - 1].at, arrivals[i].at));
    }
    result.versions = arrivals.size();
    if (!arrivals.empty() && arrivals.back().final)
        result.finalMs = msBetween(t0, arrivals.back().at);
}

/** conv2d: Gaussian blur of a grayscale scene, tree output sampling. */
class Conv2dApp
{
  public:
    Conv2dApp(const Options &options, Outcome &outcome)
        : outcome(outcome),
          extent(options.integer("extent")),
          radius(static_cast<unsigned>(options.integer("radius"))),
          versions(options.integer("versions")),
          gang(static_cast<unsigned>(options.integer("gang"))),
          threshold(options.number("t90_snr_db")),
          seed(options.seed)
    {
    }

    /** Generate the scene, the precise output and the ladder. */
    void
    setup()
    {
        scene = generateScene(extent, extent, seed);
        kernel = std::make_unique<Kernel>(Kernel::gaussianBlur(radius));
        precise = convolve(scene, *kernel);
        Ladder built = conv2dLadder(scene, *kernel, precise, versions, gang);
        outcome.check("setup: ladder ends on the precise output",
                      !built.rungs.empty() &&
                          std::isinf(built.rungs.back().snrDb));
        if (!ladder.rungs.empty())
            outcome.check("setup: ladder is identical on every setup",
                          sameRungs(ladder, built));
        ladder = std::move(built);
    }

    const Ladder &steps() const { return ladder; }
    std::uint64_t expectedVersions() const { return ladder.rungs.size(); }
    double thresholdDb() const { return threshold; }

    OpResult
    run(unsigned workers, double deadline_ms)
    {
        OpResult result;
        std::vector<Arrival> arrivals;
        arrivals.reserve(versions + 8);
        std::shared_ptr<const GrayImage> last;
        const Clock::time_point t0 = timeOp(
            [&] {
                return makeConv2dAutomaton(scene, *kernel,
                                           {versions, workers, 8});
            },
            [&](Conv2dAutomaton &bundle) {
                bundle.output->addObserver(
                    [&](const Snapshot<GrayImage> &snap) {
                        arrivals.push_back(
                            {snap.version, Clock::now(), snap.final});
                        if (snap.final)
                            last = snap.value;
                    });
            },
            result);

        // The ladder is bit-identical across worker counts and ISAs, so
        // version v is rung v-1; only the final is compared in full.
        std::vector<long> rungs;
        bool in_order = true;
        for (std::size_t i = 0; i < arrivals.size(); ++i) {
            in_order = in_order && arrivals[i].version == i + 1;
            rungs.push_back(arrivals[i].version <= ladder.rungs.size()
                                ? static_cast<long>(arrivals[i].version - 1)
                                : -1);
        }
        scoreLadder(arrivals, rungs, ladder, threshold, t0, deadline_ms,
                    result);
        const bool final_ok = !arrivals.empty() && arrivals.back().final &&
                              last && last->data() == precise.data();
        const bool count_ok = arrivals.size() == expectedVersions();
        outcome.check("conv2d: final is bit-identical to convolve()",
                      final_ok);
        outcome.check("conv2d: version count is as expected",
                      count_ok,
                      std::to_string(arrivals.size()) + " versions, want " +
                          std::to_string(expectedVersions()));
        outcome.check("conv2d: versions arrive in order", in_order);
        result.ok = final_ok && count_ok && in_order;
        return result;
    }

  private:
    Outcome &outcome;
    std::size_t extent;
    unsigned radius;
    std::uint64_t versions;
    unsigned gang;
    double threshold;
    std::uint64_t seed;
    GrayImage scene{1, 1};
    std::unique_ptr<Kernel> kernel;
    GrayImage precise{1, 1};
    Ladder ladder;
};

/** Append one op's ladder samples; no prefix means end to end. */
void
recordOp(const OpResult &op, Report &report, const std::string &prefix)
{
    recordLadder(op, prefix.empty() ? report.samples : report.layerSamples,
                 prefix);
}

} // namespace

void
runConv2dGang(const Options &options, Report &report)
{
    Outcome &outcome = report.outcome;
    const unsigned gang = static_cast<unsigned>(options.integer("gang"));
    const double deadline_ms = options.number("deadline_ms");

    Conv2dApp app(options, outcome);
    for (std::uint64_t i = 0; i < kSetupRepeats; ++i) {
        const Clock::time_point begin = Clock::now();
        app.setup();
        report.samples["setup_s"].push_back(
            msBetween(begin, Clock::now()) / 1e3);
    }
    const Ladder &ladder = app.steps();
    outcome.check("setup: SNR ladder is monotone", ladder.monotone());
    const long v90 = ladder.firstReaching(app.thresholdDb());
    report.info["ladder.rungs"] = static_cast<double>(ladder.rungs.size());
    report.info["ladder.t90_rung"] = static_cast<double>(v90 + 1);
    const std::size_t n90 = (ladder.rungs.size() * 9 + 9) / 10;
    report.info["ladder.snr_db_at_ceil_0.9N"] =
        n90 >= 1 && n90 <= ladder.rungs.size()
            ? ladder.rungs[n90 - 1].snrDb
            : kNaN;

    const auto count = [&](const OpResult &op) {
        ++outcome.attempted;
        ++(op.ok ? outcome.succeeded : outcome.failed);
    };
    // Runs timed ops at @p workers until @p seconds pass (at least
    // kMinOps), handing each to @p sink.
    const auto timed = [&](unsigned workers, double seconds, auto &&sink) {
        const Clock::time_point begin = Clock::now();
        std::uint64_t ops = 0;
        while (ops < kMinOps || msBetween(begin, Clock::now()) <
                                    seconds * 1e3) {
            const OpResult op = app.run(workers, deadline_ms);
            count(op);
            sink(op);
            ++ops;
        }
    };

    if (!options.trace) {
        timed(gang, options.seconds,
              [&](const OpResult &op) { recordOp(op, report, ""); });
        return;
    }

    // Traced run. Untraced phases first (layer timings, the k=1 gang
    // speedup baseline), then a short traced phase whose spans give the
    // sweep split, then the kernel microbenchmarks.
    auto &layer = report.layerSamples;
    timed(gang, options.seconds * 0.4, [&](const OpResult &op) {
        recordOp(op, report, "untraced.");
        layer["apps.build_ms"].push_back(op.buildMs);
        layer["core.run_ms"].push_back(op.runMs);
        layer["core.shutdown_ms"].push_back(op.shutdownMs);
        layer["core.versions_published"].push_back(
            static_cast<double>(op.versions));
        for (const double gap : op.publishGapsMs)
            layer["core.publish_gap_ms"].push_back(gap);
    });
    // Build cost does not depend on the gang width, so apps.build_ms
    // pools every phase.
    timed(1, options.seconds * 0.3, [&](const OpResult &op) {
        recordOp(op, report, "k1.");
        layer["apps.build_ms"].push_back(op.buildMs);
    });

    obs::clearTrace();
    obs::setTracingEnabled(true);
    for (std::uint64_t i = 0; i < kTracedOps; ++i) {
        OpResult op;
        {
            obs::TraceSpan span("perfbench.op", "perfbench");
            op = app.run(gang, deadline_ms);
        }
        count(op);
        recordOp(op, report, "traced.");
        layer["apps.build_ms"].push_back(op.buildMs);
    }
    obs::setTracingEnabled(false);
    report.layerValues["obs.trace_dropped_records"] =
        static_cast<double>(obs::droppedRecords());
    outcome.check("trace: no record dropped", obs::droppedRecords() == 0);
    outcome.check("trace: written",
                  obs::writeChromeTrace(options.traceFile));

    measureKernelLayers(options, report);
    report.notMeasured["core.pipeline.consume_ratio"] =
        "single-stage pipeline";
    for (const char *prefix : {"service.", "net.", "gen."})
        report.notMeasured[prefix] =
            "no server, wire or load generator on this workload";
}

} // namespace perfbench
