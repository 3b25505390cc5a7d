/**
 * @file
 * Section IV-C2 ablation: pipeline scheduling. For the paper's Figure 2
 * pipeline (f -> g, h -> i with anytime stages), thread allocation
 * trades off time-to-first-output against inter-output gap: giving
 * threads to the longest *upstream* stage (f) accelerates the first
 * approximate output O_1111, while giving them to the *final* stage (i)
 * tightens the gap between consecutive outputs.
 *
 * We run the diamond with different worker allocations for f and i and
 * report first-output latency and the mean gap between sink versions.
 */

#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "core/automaton.hpp"
#include "core/parallel_stage.hpp"
#include "core/transform_stage.hpp"
#include "harness/profiler.hpp"
#include "harness/report.hpp"

using namespace anytime;

namespace {

volatile std::uint64_t workSink = 0;

void
spin(std::uint64_t units)
{
    // Serially dependent LCG chain: cannot be strength-reduced to a
    // closed form, so the loop really burns `units` of work.
    std::uint64_t acc = workSink + 1;
    for (std::uint64_t i = 0; i < units; ++i)
        acc = acc * 6364136223846793005ULL + 1442695040888963407ULL;
    workSink = acc;
}

struct SchedResult
{
    unsigned fWorkers;
    unsigned iWorkers;
    double firstOutput;
    double meanGap;
    double total;
};

/** Run the Figure 2 diamond with the given worker allocation. */
SchedResult
runDiamond(unsigned f_workers, unsigned i_workers)
{
    Automaton automaton;
    auto f_out = automaton.makeBuffer<long>("f");
    auto g_out = automaton.makeBuffer<long>("g");
    auto h_out = automaton.makeBuffer<long>("h");
    auto i_out = automaton.makeBuffer<long>("i");

    // f: the longest stage (diffusive, parallelizable): each worker
    // counts its slice of every 32-step window, the leader adds them.
    SweepLayout f_layout;
    f_layout.steps = 256;
    f_layout.window = 32;
    automaton.addStage(
        std::make_shared<TransformStage<long>>(
            "f", f_out,
            PartitionedBody<long, long>{
                f_layout, [] { return 0L; },
                [](long &partial) { partial = 0; }, [] { return 0L; },
                [](std::uint64_t, long &partial, StageContext &) {
                    spin(60'000);
                    partial += 1;
                },
                [](long &state, std::vector<long> &partials,
                   std::uint64_t, std::uint64_t) {
                    for (const long partial : partials)
                        state += partial;
                }}),
        f_workers);

    // g and h: medium anytime children (2 internal levels each).
    const auto make_child = [](long scale) {
        return [scale](const long &v, Emitter<long> &emitter,
                       StageContext &) {
            spin(1'500'000);
            emitter.emit(v * scale / 2, false);
            spin(1'500'000);
            emitter.emit(v * scale, true);
        };
    };
    automaton.addStage(std::make_shared<TransformStage<long, long>>(
        "g", f_out, g_out, make_child(2)));
    automaton.addStage(std::make_shared<TransformStage<long, long>>(
        "h", f_out, h_out, make_child(3)));

    // i: the final stage joining g and h.
    automaton.addStage(
        std::make_shared<TransformStage<long, long, long>>(
            "i", g_out, h_out, i_out,
            [](const long &g, const long &h, Emitter<long> &emitter,
               StageContext &) {
                spin(3'000'000);
                emitter.emit(g + h, true);
            }),
        i_workers);

    TimelineRecorder<long> recorder(*i_out);
    recorder.startClock();
    automaton.start();
    automaton.waitUntilDone();
    automaton.shutdown();

    const auto entries = recorder.entries();
    SchedResult result{f_workers, i_workers, 0, 0, 0};
    if (!entries.empty()) {
        result.firstOutput = entries.front().seconds;
        result.total = entries.back().seconds;
        if (entries.size() > 1) {
            result.meanGap = (entries.back().seconds -
                              entries.front().seconds) /
                             static_cast<double>(entries.size() - 1);
        }
    }
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    (void)parseScale(argc, argv);
    printBanner("Section IV-C2: pipeline scheduling ablation",
                "more threads on the longest stage f -> earlier first "
                "output; more on the final stage i -> smaller gap "
                "between consecutive outputs");
    std::cout << "hardware threads: "
              << std::thread::hardware_concurrency()
              << " (allocations only separate cleanly with >= 4)\n";
    std::cout << "note: stage i is single-consumer in this model, so "
                 "extra i workers are capped at 1; the i-heavy row "
                 "instead leaves cores free for g/h\n";

    const std::vector<std::pair<unsigned, unsigned>> allocations{
        {1, 1}, {2, 1}, {4, 1}};

    SeriesTable table;
    table.title = "sched_ablation";
    table.columns = {"f_workers", "i_workers", "first_output_s",
                     "mean_gap_s", "total_s"};
    for (const auto &[f_workers, i_workers] : allocations) {
        const SchedResult r = runDiamond(f_workers, i_workers);
        table.rows.push_back({std::to_string(r.fWorkers),
                              std::to_string(r.iWorkers),
                              formatDouble(r.firstOutput, 4),
                              formatDouble(r.meanGap, 4),
                              formatDouble(r.total, 4)});
    }
    printTable(table);
    std::cout << '\n';
    return 0;
}
