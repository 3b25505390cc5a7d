/**
 * @file
 * "Hold-the-enter-key" search (the paper's introduction): a query runs
 * as an anytime automaton over a document corpus; the longer the user
 * "holds the key", the more precise the result list. We simulate hold
 * durations and show how the top-k stabilizes toward the exact answer.
 *
 * Structure: a diffusive source scores documents in pseudo-random
 * (LFSR) order — input sampling over an unordered data set — and a
 * non-anytime child extracts the current top-k list.
 *
 * Run: ./hold_to_search [hold_ms ...]
 */

#include <algorithm>
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "core/automaton.hpp"
#include "core/controller.hpp"
#include "core/source_stage.hpp"
#include "core/transform_stage.hpp"
#include "sampling/lfsr_permutation.hpp"
#include "support/rng.hpp"

using namespace anytime;

namespace {

struct ScoreBoard
{
    /** score per document; -1 means not scored yet. */
    std::vector<float> scores;
    std::uint64_t scored = 0;
};

using TopK = std::vector<std::pair<int, float>>; // (doc id, score)

/** Deterministic "relevance" of a document to the query. */
float
relevance(std::uint64_t doc, std::uint64_t query_hash)
{
    SplitMix64 mix(doc * 0x9e3779b97f4a7c15ULL ^ query_hash);
    // A heavy-tailed score so there are clear winners to find.
    const double u = static_cast<double>(mix.next() >> 11) * 0x1.0p-53;
    return static_cast<float>(1.0 / (1.0 - 0.999999 * u));
}

TopK
topK(const ScoreBoard &board, std::size_t k)
{
    TopK top;
    for (std::size_t i = 0; i < board.scores.size(); ++i) {
        if (board.scores[i] >= 0)
            top.emplace_back(static_cast<int>(i), board.scores[i]);
    }
    std::partial_sort(top.begin(),
                      top.begin() + std::min(k, top.size()), top.end(),
                      [](const auto &a, const auto &b) {
                          return a.second > b.second;
                      });
    if (top.size() > k)
        top.resize(k);
    return top;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<double> holds_ms;
    for (int i = 1; i < argc; ++i)
        holds_ms.push_back(std::atof(argv[i]));
    if (holds_ms.empty())
        holds_ms = {3.0, 30.0, 5000.0};

    const std::uint64_t corpus = 1u << 18;
    const std::uint64_t query_hash = 0xfeedULL;
    const std::size_t k = 5;

    // The exact answer, for comparison.
    ScoreBoard exact{std::vector<float>(corpus, -1.f), corpus};
    for (std::uint64_t doc = 0; doc < corpus; ++doc)
        exact.scores[doc] = relevance(doc, query_hash);
    const TopK truth = topK(exact, k);

    for (double hold_ms : holds_ms) {
        Automaton automaton;
        auto board_buf = automaton.makeBuffer<ScoreBoard>("scores");
        auto top_buf = automaton.makeBuffer<TopK>("topk");

        auto perm = std::make_shared<const LfsrPermutation>(corpus, 31);
        automaton.addStage(
            std::make_shared<DiffusiveSourceStage<ScoreBoard>>(
                "score", board_buf,
                ScoreBoard{std::vector<float>(corpus, -1.f), 0}, corpus,
                [perm, query_hash](std::uint64_t step, ScoreBoard &board,
                                   StageContext &) {
                    const std::uint64_t doc = perm->map(step);
                    board.scores[doc] = relevance(doc, query_hash);
                    ++board.scored;
                },
                /*publish_period=*/corpus / 64));

        automaton.addStage(makeFunctionStage<TopK, ScoreBoard>(
            "topk", board_buf, top_buf,
            [k](const ScoreBoard &board) { return topK(board, k); }));

        const RunOutcome outcome = runWithTimeBudget(
            automaton,
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::duration<double, std::milli>(hold_ms)));

        const auto snap = top_buf->read();
        std::cout << "held for " << hold_ms << " ms -> ";
        if (!snap) {
            std::cout << "(no results yet)\n";
            continue;
        }
        std::size_t overlap = 0;
        for (const auto &[doc, score] : *snap.value) {
            for (const auto &[true_doc, true_score] : truth)
                overlap += (doc == true_doc) ? 1 : 0;
        }
        std::cout << overlap << "/" << k << " of the true top-" << k
                  << (outcome.reachedPrecise ? " (exact: full corpus "
                                               "scored)"
                                             : " (approximate)")
                  << '\n';
    }
    std::cout << "holding longer never makes the answer worse, and a "
                 "long enough hold is guaranteed exact\n";
    return 0;
}
