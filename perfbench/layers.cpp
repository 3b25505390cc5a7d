/**
 * @file
 * Kernel-level per-layer metrics at the workload's extent: the SIMD
 * kernels (best ISA and forced scalar), the tree sampling plan, and the
 * precise baselines that apps.t90_norm divides by. Each call is timed
 * on its own, repeated, and reported as raw samples.
 */

#include "apps/conv2d.hpp"
#include "apps/kmeans.hpp"
#include "common.hpp"
#include "image/generate.hpp"
#include "image/progressive.hpp"
#include "sampling/tree_permutation.hpp"
#include "simd/simd.hpp"

using namespace anytime;

namespace perfbench {
namespace {

/** Time @p body at least 5 times and for at least @p budget_ms. */
template <typename Body>
std::vector<double>
repeat(double budget_ms, Body &&body)
{
    std::vector<double> samples;
    const Clock::time_point begin = Clock::now();
    while (samples.size() < 5 || msBetween(begin, Clock::now()) < budget_ms) {
        const Clock::time_point start = Clock::now();
        body();
        samples.push_back(msBetween(start, Clock::now()));
    }
    return samples;
}

} // namespace

void
measureKernelLayers(const Options &options, Report &report)
{
    const std::size_t extent = options.integer("extent");
    const auto radius = static_cast<unsigned>(options.integer("radius"));
    const auto clusters =
        static_cast<unsigned>(options.integer("clusters"));
    auto &layer = report.layerSamples;
    const GrayImage gray = generateScene(extent, extent, options.seed);
    const RgbImage color = generateColorScene(extent, extent, options.seed);
    const Kernel kernel = Kernel::gaussianBlur(radius);
    const double budget_ms = 300.0;

    simd::resetIsa();
    const GrayImage best = convolve(gray, kernel);
    layer["simd.conv2d_ms"] =
        repeat(budget_ms, [&] { (void)convolve(gray, kernel); });
    simd::forceIsa(simd::Isa::scalar);
    const GrayImage scalar = convolve(gray, kernel);
    layer["simd.conv2d_scalar_ms"] =
        repeat(budget_ms, [&] { (void)convolve(gray, kernel); });
    simd::resetIsa();
    report.outcome.check("simd: scalar convolve() is bit-identical to the "
                         "active ISA",
                         scalar.data() == best.data());

    layer["simd.kmeans_ms"] =
        repeat(budget_ms, [&] { (void)kmeansCluster(color, clusters); });
    layer["sampling.tree_plan_ms"] = repeat(budget_ms, [&] {
        (void)TreeSweepPlan(TreePermutation::twoDim(extent, extent));
    });
    layer["baseline.conv2d_reference_ms"] =
        repeat(budget_ms, [&] { (void)convolveReference(gray, kernel); });

    // Computed, not counted: one multiply-add and one byte read per tap
    // per output pixel, plus one byte written per pixel.
    const double side = 2.0 * radius + 1.0;
    const double taps = side * side;
    const double pixels = static_cast<double>(extent * extent);
    report.layerValues["simd.conv2d_ops"] = taps * pixels;
    report.layerValues["simd.conv2d_bytes"] = taps * pixels + pixels;
    report.info["kernel.pixels"] = pixels;
}

} // namespace perfbench
