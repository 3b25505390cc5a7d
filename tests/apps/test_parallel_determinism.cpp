/**
 * @file
 * Determinism suite for the multi-worker application automatons
 * (Section IV-C1). Each app runs at 1, 2, 4, and 7 workers; the
 * partitioned merge is deterministic, so intra-stage versions must be
 * bit-identical to the single-worker run, and the final output must be
 * the precise baseline result. Covers all three permutation families:
 * tree (conv2d, debayer, kmeans assign, histeq apply), LFSR (histeq
 * histogram, both cyclic and block partitions), and sequential (matmul
 * planes).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "apps/conv2d.hpp"
#include "apps/debayer.hpp"
#include "apps/histeq.hpp"
#include "apps/kmeans.hpp"
#include "apps/matmul.hpp"
#include "harness/profiler.hpp"
#include "image/generate.hpp"
#include "image/metrics.hpp"

namespace anytime {
namespace {

constexpr unsigned kWorkerCounts[] = {1, 2, 4, 7};

/** Record every version of @p buffer while the automaton runs dry. */
template <typename T>
std::vector<typename TimelineRecorder<T>::Entry>
recordRun(Automaton &automaton, VersionedBuffer<T> &buffer)
{
    TimelineRecorder<T> recorder(buffer);
    automaton.start();
    automaton.waitUntilDone();
    automaton.shutdown();
    return recorder.entries();
}

template <typename T>
void
expectSameVersions(
    const std::vector<typename TimelineRecorder<T>::Entry> &reference,
    const std::vector<typename TimelineRecorder<T>::Entry> &versions,
    const char *what, unsigned workers)
{
    ASSERT_EQ(versions.size(), reference.size())
        << what << " workers " << workers;
    for (std::size_t i = 0; i < versions.size(); ++i) {
        EXPECT_EQ(versions[i].version, reference[i].version)
            << what << " workers " << workers << " entry " << i;
        EXPECT_EQ(versions[i].final, reference[i].final)
            << what << " workers " << workers << " entry " << i;
        EXPECT_TRUE(*versions[i].value == *reference[i].value)
            << what << " workers " << workers << " version "
            << versions[i].version << " diverged from single-worker";
    }
}

TEST(ParallelDeterminism, Conv2dTreeSampling)
{
    const GrayImage scene = generateScene(64, 48, 7);
    const Kernel kernel = Kernel::gaussianBlur(2);
    const GrayImage precise = convolve(scene, kernel);

    std::vector<TimelineRecorder<GrayImage>::Entry> reference;
    for (const unsigned workers : kWorkerCounts) {
        Conv2dConfig config;
        config.publishCount = 16;
        config.workers = workers;
        auto bundle = makeConv2dAutomaton(scene, kernel, config);
        const auto versions = recordRun(*bundle.automaton, *bundle.output);
        ASSERT_FALSE(versions.empty());
        EXPECT_TRUE(versions.back().final);
        EXPECT_TRUE(*versions.back().value == precise)
            << "workers " << workers;
        if (workers == 1)
            reference = versions;
        else
            expectSameVersions<GrayImage>(reference, versions, "conv2d",
                                          workers);
    }
}

TEST(ParallelDeterminism, DebayerTreeSampling)
{
    // Non-power-of-two extents: the padded tree walk skips samples.
    const GrayImage mosaic = bayerMosaic(generateColorScene(45, 38, 9));
    const RgbImage precise = debayer(mosaic);

    std::vector<TimelineRecorder<RgbImage>::Entry> reference;
    for (const unsigned workers : kWorkerCounts) {
        DebayerConfig config;
        config.publishCount = 16;
        config.workers = workers;
        auto bundle = makeDebayerAutomaton(mosaic, config);
        const auto versions = recordRun(*bundle.automaton, *bundle.output);
        ASSERT_FALSE(versions.empty());
        EXPECT_TRUE(versions.back().final);
        EXPECT_TRUE(*versions.back().value == precise)
            << "workers " << workers;
        if (workers == 1)
            reference = versions;
        else
            expectSameVersions<RgbImage>(reference, versions, "debayer",
                                         workers);
    }
}

TEST(ParallelDeterminism, Conv2dIntermediateQualityMonotone)
{
    const GrayImage scene = generateScene(64, 64, 21);
    const Kernel kernel = Kernel::gaussianBlur(2);
    const GrayImage precise = convolve(scene, kernel);

    Conv2dConfig config;
    config.publishCount = 16;
    config.workers = 4;
    auto bundle = makeConv2dAutomaton(scene, kernel, config);
    const auto versions = recordRun(*bundle.automaton, *bundle.output);
    ASSERT_GE(versions.size(), 2u);
    // Tree output sampling refines resolution monotonically; each
    // version must be at least as close to the precise image as the
    // previous one (tiny epsilon for SNR arithmetic noise).
    double previous = -1e9;
    for (const auto &entry : versions) {
        const double snr = signalToNoiseDb(precise, *entry.value);
        EXPECT_GE(snr, previous - 1e-9)
            << "version " << entry.version << " lost quality";
        previous = snr;
    }
}

TEST(ParallelDeterminism, KmeansAssignTreeSampling)
{
    const RgbImage scene = generateColorScene(48, 40, 3);
    constexpr unsigned kClusters = 6;
    const KmeansResult precise = kmeansCluster(scene, kClusters);

    std::vector<TimelineRecorder<KmeansAssignment>::Entry> reference;
    for (const unsigned workers : kWorkerCounts) {
        KmeansConfig config;
        config.clusters = kClusters;
        config.publishCount = 8;
        config.workers = workers;
        auto bundle = makeKmeansAutomaton(scene, config);
        TimelineRecorder<KmeansAssignment> assigns(*bundle.assignment);
        bundle.automaton->start();
        bundle.automaton->waitUntilDone();
        bundle.automaton->shutdown();

        const auto final_result = bundle.output->read();
        ASSERT_TRUE(final_result.final);
        EXPECT_TRUE(*final_result.value == precise)
            << "workers " << workers;

        const auto versions = assigns.entries();
        ASSERT_FALSE(versions.empty());
        if (workers == 1)
            reference = versions;
        else
            expectSameVersions<KmeansAssignment>(reference, versions,
                                                 "kmeans", workers);
    }
}

TEST(ParallelDeterminism, MatmulSequentialBitPlanes)
{
    IntMatrix a(12, 9, 0);
    IntMatrix b(10, 12, 0);
    for (std::size_t i = 0; i < a.size(); ++i)
        a[i] = static_cast<std::int32_t>((i * 2654435761u) % 9973) - 4986;
    for (std::size_t i = 0; i < b.size(); ++i)
        b[i] = static_cast<std::int32_t>((i * 40503u) % 7919) - 3959;
    const LongMatrix precise = matmulExact(a, b);

    std::vector<TimelineRecorder<LongMatrix>::Entry> reference;
    for (const unsigned workers : kWorkerCounts) {
        MatmulConfig config;
        config.planesPerPublish = 4; // window of 4 commuting planes
        config.workers = workers;
        auto bundle = makeMatmulAutomaton(a, b, config);
        const auto versions = recordRun(*bundle.automaton, *bundle.output);
        ASSERT_FALSE(versions.empty());
        EXPECT_TRUE(versions.back().final);
        EXPECT_TRUE(*versions.back().value == precise)
            << "workers " << workers;
        if (workers == 1)
            reference = versions;
        else
            expectSameVersions<LongMatrix>(reference, versions, "matmul",
                                           workers);
    }
}

TEST(ParallelDeterminism, HisteqLfsrHistogramBothPartitionKinds)
{
    const GrayImage scene = generateScene(56, 42, 13);
    const GrayImage precise = histogramEqualize(scene);

    for (const PartitionKind kind :
         {PartitionKind::block, PartitionKind::cyclic}) {
        std::vector<TimelineRecorder<PixelHistogram>::Entry> reference;
        for (const unsigned workers : kWorkerCounts) {
            HisteqConfig config;
            config.histogramVersions = 6;
            config.applyVersions = 8;
            config.histogramWorkers = workers;
            config.applyWorkers = workers;
            config.histogramPartition = kind;
            auto bundle = makeHisteqAutomaton(scene, config);
            TimelineRecorder<PixelHistogram> hists(*bundle.histogram);
            bundle.automaton->start();
            bundle.automaton->waitUntilDone();
            bundle.automaton->shutdown();

            // The downstream pipeline's version *timing* depends on
            // scheduling, but the histogram stage's sequence and the
            // final equalized image are fully deterministic.
            const auto final_image = bundle.output->read();
            ASSERT_TRUE(final_image.final);
            EXPECT_TRUE(*final_image.value == precise)
                << partitionKindName(kind) << " workers " << workers;

            const auto versions = hists.entries();
            ASSERT_FALSE(versions.empty());
            if (workers == 1)
                reference = versions;
            else
                expectSameVersions<PixelHistogram>(
                    reference, versions, partitionKindName(kind), workers);
        }
    }
}

} // namespace
} // namespace anytime
