/**
 * @file
 * Shared pieces of the anytime-ladder benchmark binary.
 *
 * The binary runs one workload, checks every output, and prints one
 * raw report (JSON) on stdout: raw samples, counts, output checks and
 * the host record. All statistics (medians, tails, ratios) are taken
 * from those raw samples by run.py, so there is one place that turns
 * samples into metrics.
 */

#ifndef PERFBENCH_COMMON_HPP
#define PERFBENCH_COMMON_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "apps/conv2d.hpp"
#include "apps/kmeans.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Milliseconds between two steady-clock points. */
inline double
msBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
}

/** Options shared by every workload; run.py passes the frozen
 *  workload constants of workloads.json as `--name value` flags. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Where the traced run writes its Chrome trace. */
    std::string traceFile;
    std::map<std::string, std::string> values;

    double number(const std::string &name) const;
    std::uint64_t integer(const std::string &name) const;
    std::vector<double> numbers(const std::string &name) const;
};

/** 64-bit content hash of a byte range (ladder identity, not crypto). */
std::uint64_t hashBytes(const void *data, std::size_t size);

/**
 * Quality of one version on the benchmark's scale: its SNR against the
 * precise output divided by the workload's t90 threshold, capped at 1
 * (precise = 1; no version = 0).
 */
double qualityOf(double snr_db, double threshold_db);

/** One rung of an anytime ladder, computed once at setup. */
struct Rung
{
    std::uint64_t hash = 0;
    double snrDb = 0.0;
};

/**
 * The ladder of one input: every value the automaton's output can hold,
 * in order, identified by content hash. Timed runs only record
 * (version, time) pairs or content hashes and look quality up here.
 */
struct Ladder
{
    std::vector<Rung> rungs;

    /** Index of the rung with @p hash at or after @p from; -1 if none. */
    long find(std::uint64_t hash, std::size_t from = 0) const;

    /** First rung whose SNR reaches @p threshold_db; -1 if none. */
    long firstReaching(double threshold_db) const;

    /** True iff SNR never decreases along the ladder. */
    bool monotone() const;
};

/** Content hash of an image's pixels. */
std::uint64_t hashImage(const anytime::GrayImage &image);
std::uint64_t hashImage(const anytime::RgbImage &image);

/** True iff two ladders hold the same rungs. */
bool sameRungs(const Ladder &a, const Ladder &b);

/**
 * Ladder of the conv2d automaton on @p scene: one rung per published
 * version (bit-identical across worker counts and ISAs).
 */
Ladder conv2dLadder(const anytime::GrayImage &scene,
                    const anytime::Kernel &kernel,
                    const anytime::GrayImage &precise,
                    std::uint64_t versions, unsigned workers);

/**
 * Ladder of the kmeans automaton on @p scene: one rung per assignment
 * version, holding the image the reduce stage publishes for it (the
 * benchmark's oracle re-derives it from the assignment's sums and
 * labels). The output buffer may skip rungs but can hold nothing else.
 */
Ladder kmeansLadder(const anytime::RgbImage &scene,
                    const anytime::KmeansResult &precise, unsigned clusters,
                    std::uint64_t versions, unsigned workers);

/** Peak resident set size of this process, in MiB. */
double peakRssMb();

/** Minimal JSON emitter for the raw report. */
class Json
{
  public:
    Json &beginObject(const std::string &key = "");
    Json &endObject();
    Json &beginArray(const std::string &key = "");
    Json &endArray();
    Json &field(const std::string &key, double value);
    Json &field(const std::string &key, const std::string &value);
    Json &field(const std::string &key, bool value);
    Json &field(const std::string &key, const std::vector<double> &values);
    const std::string &text() const { return out; }

  private:
    void key(const std::string &name);
    std::string out;
    std::vector<bool> first{true};
};

/** Output check results and operation counts of one workload run. */
struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t succeeded = 0;
    /** Refused by admission (sheds, admission ERROR frames). */
    std::uint64_t refused = 0;
    /** Wrong output, transport error, or unexpected status. */
    std::uint64_t failed = 0;
    struct Check
    {
        std::string name;
        bool ok = true;
        std::string detail;
    };
    std::vector<Check> checks;

    /** Record a check; a failed check is also printed to stderr. */
    void check(const std::string &name, bool ok,
               const std::string &detail = "");
};

/** Raw report of one run: what run.py turns into metrics. */
struct Report
{
    Outcome outcome;
    /** End-to-end raw samples (one entry per operation). */
    std::map<std::string, std::vector<double>> samples;
    /** Per-layer raw samples (run.py takes exact p50/tail). */
    std::map<std::string, std::vector<double>> layerSamples;
    /** Per-layer single values. */
    std::map<std::string, double> layerValues;
    /** Setup facts (ladder length, thresholds) for the log. */
    std::map<std::string, double> info;
    /**
     * Per-layer metrics this workload cannot measure, with the reason.
     * A key ending in '.' covers every metric under that prefix.
     */
    std::map<std::string, std::string> notMeasured;
};

/**
 * Append one operation's ladder samples (first version, t90, final,
 * deadline hit and quality at the deadline) under @p prefix.
 */
template <typename Op>
void
recordLadder(const Op &op,
             std::map<std::string, std::vector<double>> &samples,
             const std::string &prefix)
{
    samples[prefix + "first_version_ms"].push_back(op.firstMs);
    samples[prefix + "t90_ms"].push_back(op.t90Ms);
    samples[prefix + "final_ms"].push_back(op.finalMs);
    samples[prefix + "deadline_hit"].push_back(op.deadlineHit ? 1.0 : 0.0);
    samples[prefix + "quality_at_deadline"].push_back(op.qualityAtDeadline);
}

/** Workload entry points (gang.cpp, serve.cpp). */
void runConv2dGang(const Options &options, Report &report);
void runServeLoopback(const Options &options, Report &report);

/**
 * Kernel-level per-layer metrics at the workload's extent, radius and
 * cluster count (layers.cpp): simd.*, sampling.tree_plan_ms and the
 * precise baseline of apps.t90_norm (baseline.conv2d_reference_ms).
 */
void measureKernelLayers(const Options &options, Report &report);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HPP
