/**
 * @file
 * Quickstart: build a tiny anytime automaton by hand, watch accuracy
 * increase over time, interrupt it early, and then let it run to the
 * precise output.
 *
 * The application is the paper's motivating shape: a diffusive source
 * stage (a sampled mean over a large data set) feeding a non-anytime
 * child (formatting the estimate). Every published version of the
 * child's output is a valid whole-application output.
 *
 * Run: ./quickstart
 */

#include <chrono>
#include <iostream>
#include <thread>
#include <vector>

#include "core/automaton.hpp"
#include "core/controller.hpp"
#include "core/source_stage.hpp"
#include "core/transform_stage.hpp"
#include "sampling/lfsr_permutation.hpp"
#include "sampling/reducer.hpp"
#include "support/rng.hpp"

using namespace anytime;

namespace {

/** Running mean over sampled elements. */
struct MeanEstimate
{
    double sum = 0;
    std::uint64_t samples = 0;
    std::uint64_t population = 0;

    double
    value() const
    {
        return samples ? sum / static_cast<double>(samples) : 0.0;
    }
};

} // namespace

int
main()
{
    // A large data set whose mean we want "well enough, soon".
    const std::uint64_t n = 1u << 22;
    std::vector<float> data(n);
    Xoshiro256 rng(2016);
    for (auto &v : data)
        v = static_cast<float>(rng.nextDouble() * 100.0);

    Automaton automaton;
    auto mean_buf = automaton.makeBuffer<MeanEstimate>("mean");
    auto text_buf = automaton.makeBuffer<std::string>("report");

    // Stage 1 (diffusive): sample the data in pseudo-random (LFSR)
    // order — the paper's input sampling for unordered data sets. Every
    // element is visited exactly once, so the final mean is exact.
    auto perm = std::make_shared<const LfsrPermutation>(n, 7);
    auto shared_data = std::make_shared<const std::vector<float>>(
        std::move(data));
    automaton.addStage(makeDiffusiveSource<MeanEstimate>(
        "sampled-mean", mean_buf, MeanEstimate{0, 0, n}, n,
        [shared_data, perm](std::uint64_t step, MeanEstimate &state,
                            StageContext &) {
            state.sum += (*shared_data)[perm->map(step)];
            ++state.samples;
        },
        /*publish_period=*/n / 64));

    // Stage 2 (non-anytime): format whichever estimate is current.
    automaton.addStage(makeFunctionStage<std::string, MeanEstimate>(
        "format", mean_buf, text_buf, [](const MeanEstimate &estimate) {
            return "mean ~= " + std::to_string(estimate.value()) +
                   " (from " + std::to_string(estimate.samples) + "/" +
                   std::to_string(estimate.population) + " samples)";
        }));

    // Run, peeking at the anytime output as it improves.
    automaton.start();
    for (int peek = 0; peek < 3; ++peek) {
        std::this_thread::sleep_for(std::chrono::milliseconds(3));
        const auto snap = text_buf->read();
        if (snap)
            std::cout << "[t+" << (peek + 1) * 3 << "ms] " << *snap.value
                      << (snap.final ? "  <- precise" : "") << '\n';
    }

    // The anytime contract: we could stop here with a valid output...
    automaton.pause();
    std::cout << "(paused — the current output stays valid)\n";
    automaton.resume();

    // ...or let it run to the guaranteed-precise end.
    automaton.waitUntilDone();
    automaton.shutdown();
    std::cout << "final:   " << *text_buf->read().value << '\n';
    std::cout << "final version is precise: "
              << (text_buf->read().final ? "yes" : "no") << '\n';
    return 0;
}
