/**
 * @file
 * anytime_perfbench: runs one workload of the anytime-ladder benchmark
 * and prints its raw report as one JSON line on stdout.
 *
 *   anytime_perfbench --workload <name> --seed <n> --seconds <s>
 *                     --trace <0|1> --trace-file <path> [--<constant> <v>]...
 *
 * run.py passes the workload's frozen constants (extent, rate, deadlines,
 * thresholds, ...) from workloads.json and turns the raw report into
 * metrics.
 */

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "common.hpp"
#include "obs/trace.hpp"
#include "simd/simd.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif

namespace {

using namespace perfbench;

Options
parseArgs(int argc, char **argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag.rfind("--", 0) != 0 || i + 1 >= argc)
            throw std::invalid_argument("expected --name value, got " + flag);
        const std::string value = argv[++i];
        const std::string name = flag.substr(2);
        if (name == "workload")
            options.workload = value;
        else if (name == "seed")
            options.seed = std::stoull(value);
        else if (name == "seconds")
            options.seconds = std::stod(value);
        else if (name == "trace")
            options.trace = value == "1";
        else if (name == "trace-file")
            options.traceFile = value;
        else
            options.values[name] = value;
    }
    if (options.workload.empty() || options.seconds <= 0)
        throw std::invalid_argument("--workload and --seconds are required");
    if (options.trace && options.traceFile.empty())
        throw std::invalid_argument("--trace 1 needs --trace-file");
    return options;
}

bool
sanitizedBuild()
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
    return true;
#else
    return false;
#endif
#else
    return false;
#endif
}

std::string
compiler()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

bool
optimizedBuild()
{
#if defined(__OPTIMIZE__)
    return true;
#else
    return false;
#endif
}

void
writeHost(Json &json, const Options &options)
{
    const std::string build_type = PERFBENCH_BUILD_TYPE;
    const bool suspect =
        build_type == "Debug" || sanitizedBuild() || !optimizedBuild();
    const auto gang = options.values.count("gang")
                          ? options.values.at("gang")
                          : options.values.count("pool_workers")
                                ? options.values.at("pool_workers")
                                : std::string("1");
    const char *simd_env = std::getenv("ANYTIME_SIMD");
    json.beginObject("host")
        .field("nproc",
               static_cast<double>(std::thread::hardware_concurrency()))
        .field("isa", std::string(anytime::simd::isaName(
                          anytime::simd::activeIsa())))
        .field("isa_env_override", std::string(simd_env ? simd_env : ""))
        .field("compiler", compiler())
        .field("build_type", build_type)
        .field("cxx_flags", std::string(PERFBENCH_CXX_FLAGS))
        .field("gang_width", std::stod(gang))
        .field("debug_or_sanitizer_build", suspect)
        .endObject();
}

template <typename Value>
void
writeMap(Json &json, const std::string &key,
         const std::map<std::string, Value> &values)
{
    json.beginObject(key);
    for (const auto &[name, value] : values)
        json.field(name, value);
    json.endObject();
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Options options = parseArgs(argc, argv);
        Report report;
        if (options.workload == "conv2d_gang")
            runConv2dGang(options, report);
        else if (options.workload == "serve_loopback")
            runServeLoopback(options, report);
        else
            throw std::invalid_argument("unknown workload " +
                                        options.workload);
        report.layerValues["peak_rss_mb"] = peakRssMb();

        Json json;
        json.beginObject();
        json.field("workload", options.workload);
        json.field("seed", static_cast<double>(options.seed));
        json.field("trace", options.trace);
        writeHost(json, options);
        const Outcome &outcome = report.outcome;
        json.beginObject("counts")
            .field("attempted", static_cast<double>(outcome.attempted))
            .field("succeeded", static_cast<double>(outcome.succeeded))
            .field("refused", static_cast<double>(outcome.refused))
            .field("failed", static_cast<double>(outcome.failed))
            .endObject();
        json.beginArray("checks");
        for (const Outcome::Check &check : outcome.checks)
            json.beginObject()
                .field("name", check.name)
                .field("ok", check.ok)
                .field("detail", check.detail)
                .endObject();
        json.endArray();
        writeMap(json, "samples", report.samples);
        writeMap(json, "layer_samples", report.layerSamples);
        writeMap(json, "layer_values", report.layerValues);
        writeMap(json, "info", report.info);
        writeMap(json, "not_measured", report.notMeasured);
        json.endObject();
        std::cout << json.text() << std::endl;
        return 0;
    } catch (const std::exception &error) {
        std::cerr << "anytime_perfbench: " << error.what() << "\n";
        return 2;
    }
}
