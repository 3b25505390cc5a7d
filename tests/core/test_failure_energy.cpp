/**
 * @file
 * Failure-injection tests (a throwing stage must stop the automaton
 * gracefully, not the process) and energy-model tests.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <vector>

#include "core/automaton.hpp"
#include "core/energy.hpp"
#include "core/parallel_stage.hpp"
#include "core/source_stage.hpp"
#include "core/transform_stage.hpp"

namespace anytime {
namespace {

using namespace std::chrono_literals;

TEST(AutomatonFailure, ThrowingStageStopsPipelineGracefully)
{
    Automaton automaton;
    auto out = automaton.makeBuffer<long>("out");
    automaton.addStage(makeDiffusiveSource<long>(
        "faulty", out, 0L, 1000,
        [](std::uint64_t step, long &state, StageContext &) {
            state += 1;
            if (step == 300)
                throw std::runtime_error("injected fault");
        },
        /*publish_period=*/100));

    automaton.start();
    ASSERT_TRUE(automaton.waitUntilDone(5s));
    automaton.shutdown();

    EXPECT_TRUE(automaton.failed());
    const auto failures = automaton.failures();
    ASSERT_EQ(failures.size(), 1u);
    EXPECT_NE(failures[0].find("faulty"), std::string::npos);
    EXPECT_NE(failures[0].find("injected fault"), std::string::npos);

    // The anytime guarantee degrades gracefully: the last version
    // published before the fault is still readable and non-final.
    const auto snap = out->read();
    ASSERT_TRUE(snap);
    EXPECT_FALSE(snap.final);
    EXPECT_GT(*snap.value, 0);
}

TEST(AutomatonFailure, DownstreamStagesAreStoppedToo)
{
    Automaton automaton;
    auto f_out = automaton.makeBuffer<long>("f");
    auto g_out = automaton.makeBuffer<long>("g");
    automaton.addStage(makeDiffusiveSource<long>(
        "faulty", f_out, 0L, 10000,
        [](std::uint64_t step, long &state, StageContext &) {
            state += 1;
            if (step == 50)
                throw std::runtime_error("boom");
        },
        /*publish_period=*/10));
    automaton.addStage(makeFunctionStage<long, long>(
        "child", f_out, g_out, [](const long &v) { return v; }));

    automaton.start();
    ASSERT_TRUE(automaton.waitUntilDone(5s))
        << "child did not unblock after upstream failure";
    automaton.shutdown();
    EXPECT_TRUE(automaton.failed());
    EXPECT_FALSE(automaton.complete());
}

TEST(AutomatonFailure, CleanRunReportsNoFailure)
{
    Automaton automaton;
    auto out = automaton.makeBuffer<long>("out");
    automaton.addStage(makeDiffusiveSource<long>(
        "ok", out, 0L, 10,
        [](std::uint64_t, long &state, StageContext &) { state += 1; },
        5));
    automaton.start();
    automaton.waitUntilDone();
    automaton.shutdown();
    EXPECT_FALSE(automaton.failed());
    EXPECT_TRUE(automaton.failures().empty());
}

TEST(EnergyModel, DynamicEnergyTracksWorkDone)
{
    Automaton automaton;
    auto out = automaton.makeBuffer<long>("out");
    automaton.addStage(makeDiffusiveSource<long>(
        "worker", out, 0L, 500,
        [](std::uint64_t, long &state, StageContext &) { state += 1; },
        100));
    automaton.start();
    automaton.waitUntilDone();
    automaton.shutdown();

    EnergyModel model(StageEnergyCost{2.0, 0.0});
    const EnergyReport report = model.estimate(automaton, 0.1);
    // A diffusive source records one work unit per step.
    EXPECT_DOUBLE_EQ(report.dynamicNanojoules.at("worker"), 1000.0);
    EXPECT_DOUBLE_EQ(report.totalDynamicNanojoules, 1000.0);
    EXPECT_DOUBLE_EQ(report.totalStaticNanojoules, 0.0);
}

TEST(EnergyModel, EarlyStopSpendsProportionallyLess)
{
    // "Hold-the-power-button": stopping at ~30% of the sweep should
    // spend ~30% of the dynamic energy.
    const auto run_for_steps = [](std::uint64_t stop_after) {
        Automaton automaton;
        auto out = automaton.makeBuffer<long>("out");
        auto stage = makeDiffusiveSource<long>(
            "sweep", out, 0L, 1000,
            [&automaton, stop_after](std::uint64_t step, long &state,
                                     StageContext &) {
                state += 1;
                if (step == stop_after)
                    automaton.stop();
            },
            /*publish_period=*/50);
        automaton.addStage(stage);
        automaton.start();
        automaton.waitUntilDone();
        automaton.shutdown();
        EnergyModel model(StageEnergyCost{1.0, 0.0});
        return model.estimate(automaton, 0.0).totalDynamicNanojoules;
    };

    const double partial = run_for_steps(299);
    const double full = run_for_steps(999'999); // never fires: full run
    EXPECT_DOUBLE_EQ(full, 1000.0);
    EXPECT_GE(partial, 300.0);
    EXPECT_LE(partial, 320.0); // stop lands at the next step
}

TEST(EnergyModel, StaticEnergyScalesWithWorkersAndTime)
{
    Automaton automaton;
    auto out = automaton.makeBuffer<long>("out");
    SweepLayout layout;
    layout.steps = 10;
    layout.window = 5;
    automaton.addStage(
        std::make_shared<TransformStage<long>>(
            "sweep", out,
            PartitionedBody<long, long>{
                layout, [] { return 0L; },
                [](long &partial) { partial = 0; }, [] { return 0L; },
                [](std::uint64_t, long &partial, StageContext &) {
                    partial += 1;
                },
                [](long &state, std::vector<long> &partials,
                   std::uint64_t, std::uint64_t) {
                    for (const long partial : partials)
                        state += partial;
                }}),
        /*workers=*/2);
    automaton.start();
    automaton.waitUntilDone();
    automaton.shutdown();

    EnergyModel model(StageEnergyCost{0.0, 100.0}); // 100 mW per worker
    const EnergyReport report = model.estimate(automaton, 2.0);
    // 100 mW * 2 workers * 2 s = 400 mJ = 4e8 nJ.
    EXPECT_DOUBLE_EQ(report.totalStaticNanojoules, 4e8);
}

TEST(EnergyModel, PerStageOverridesApply)
{
    Automaton automaton;
    auto a = automaton.makeBuffer<long>("a");
    auto b = automaton.makeBuffer<long>("b");
    automaton.addStage(makeDiffusiveSource<long>(
        "cheap", a, 0L, 100,
        [](std::uint64_t, long &state, StageContext &) { state += 1; },
        50));
    automaton.addStage(makeDiffusiveSource<long>(
        "pricey", b, 0L, 100,
        [](std::uint64_t, long &state, StageContext &) { state += 1; },
        50));
    automaton.start();
    automaton.waitUntilDone();
    automaton.shutdown();

    EnergyModel model(StageEnergyCost{1.0, 0.0});
    model.setStageCost("pricey", StageEnergyCost{10.0, 0.0});
    const EnergyReport report = model.estimate(automaton, 0.0);
    EXPECT_DOUBLE_EQ(report.dynamicNanojoules.at("cheap"), 100.0);
    EXPECT_DOUBLE_EQ(report.dynamicNanojoules.at("pricey"), 1000.0);
    EXPECT_DOUBLE_EQ(report.totalDynamicNanojoules, 1100.0);
}

} // namespace
} // namespace anytime
