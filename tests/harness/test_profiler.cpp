/**
 * @file
 * Tests for the profiling harness and report formatting.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/source_stage.hpp"
#include "harness/profiler.hpp"
#include "harness/report.hpp"
#include "harness/stats_report.hpp"

namespace anytime {
namespace {

TEST(TimelineRecorder, CapturesEveryVersionWithTimestamps)
{
    Automaton automaton;
    auto out = automaton.makeBuffer<long>("out");
    automaton.addStage(makeDiffusiveSource<long>(
        "counter", out, 0L, 100,
        [](std::uint64_t, long &state, StageContext &) { state += 1; },
        /*publish_period=*/10));

    TimelineRecorder<long> recorder(*out);
    recorder.startClock();
    automaton.start();
    automaton.waitUntilDone();
    automaton.shutdown();

    const auto entries = recorder.entries();
    ASSERT_GE(entries.size(), 10u);
    for (std::size_t i = 1; i < entries.size(); ++i) {
        EXPECT_GE(entries[i].seconds, entries[i - 1].seconds);
        EXPECT_EQ(entries[i].version, entries[i - 1].version + 1);
    }
    EXPECT_TRUE(entries.back().final);
    EXPECT_EQ(*entries.back().value, 100);
}

TEST(Profiler, ProfileToCompletionScoresEveryVersion)
{
    Automaton automaton;
    auto out = automaton.makeBuffer<long>("out");
    automaton.addStage(makeDiffusiveSource<long>(
        "counter", out, 0L, 64,
        [](std::uint64_t, long &state, StageContext &) { state += 1; },
        /*publish_period=*/8));

    const auto profile = profileToCompletion<long>(
        automaton, *out,
        [](const long &v) { return static_cast<double>(v); },
        /*baseline_seconds=*/2.0);

    ASSERT_GE(profile.size(), 8u);
    EXPECT_EQ(profile.back().accuracyDb, 64.0);
    EXPECT_TRUE(profile.back().final);
    for (const auto &point : profile) {
        EXPECT_DOUBLE_EQ(point.normalizedRuntime, point.seconds / 2.0);
        EXPECT_GE(point.version, 1u);
    }
}

TEST(Profiler, TimeBestOfRunsAndReturnsPositive)
{
    int calls = 0;
    const double t = timeBestOf([&] { ++calls; }, 3);
    EXPECT_EQ(calls, 3);
    EXPECT_GE(t, 0.0);
}

TEST(Report, FormatDouble)
{
    EXPECT_EQ(formatDouble(1.23456, 3), "1.235");
    EXPECT_EQ(formatDouble(2.0, 1), "2.0");
    EXPECT_EQ(
        formatDouble(std::numeric_limits<double>::infinity(), 3), "inf");
    EXPECT_EQ(formatDouble(-std::numeric_limits<double>::infinity(), 3),
              "-inf");
    EXPECT_EQ(formatDouble(std::nan(""), 3), "nan");
}

TEST(Report, ProfileTableHasExpectedShape)
{
    std::vector<ProfilePoint> profile(2);
    profile[0] = {0.1, 0.5, 1, 12.5, false};
    profile[1] = {0.2, 1.0, 2,
                  std::numeric_limits<double>::infinity(), true};
    const SeriesTable table = profileTable("fig", profile);
    ASSERT_EQ(table.rows.size(), 2u);
    EXPECT_EQ(table.columns.size(), 5u);
    EXPECT_EQ(table.rows[0][0], "0.500");
    EXPECT_EQ(table.rows[1][3], "inf");
    EXPECT_EQ(table.rows[1][4], "yes");
}

TEST(Report, StageStatsTableSummarizesARun)
{
    Automaton automaton;
    auto out = automaton.makeBuffer<long>("out");
    automaton.addStage(makeDiffusiveSource<long>(
        "counter", out, 0L, 100,
        [](std::uint64_t, long &state, StageContext &) { state += 1; },
        /*publish_period=*/25));
    automaton.start();
    automaton.waitUntilDone();
    automaton.shutdown();

    const SeriesTable table = stageStatsTable(automaton);
    ASSERT_EQ(table.rows.size(), 1u);
    EXPECT_EQ(table.rows[0][0], "counter");
    EXPECT_EQ(table.rows[0][1], "1");
    EXPECT_EQ(table.rows[0][2], "100"); // steps
    EXPECT_EQ(table.rows[0][5], "yes"); // final
}

TEST(Report, WriteCsvRoundTrips)
{
    SeriesTable table;
    table.title = "t";
    table.columns = {"a", "b"};
    table.rows = {{"1", "2"}, {"3", "4"}};
    const std::string path =
        (std::filesystem::temp_directory_path() / "anytime_report.csv")
            .string();
    writeCsv(table, path);
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line, "a,b");
    std::getline(in, line);
    EXPECT_EQ(line, "1,2");
    std::getline(in, line);
    EXPECT_EQ(line, "3,4");
    std::remove(path.c_str());
}

} // namespace
} // namespace anytime
