#include "apps/histeq.hpp"

#include <cmath>

#include "core/parallel_stage.hpp"
#include "core/transform_stage.hpp"
#include "image/progressive.hpp"
#include "sampling/lfsr_permutation.hpp"
#include "sampling/replay.hpp"
#include "simd/simd.hpp"
#include "support/error.hpp"

namespace anytime {

PixelHistogram
buildHistogram(const GrayImage &src)
{
    PixelHistogram histogram;
    // Four interleaved sub-counters break the same-bin dependency
    // chain; exact by commutativity of u64 sums.
    simd::histogram256(src.data().data(), src.size(),
                       histogram.bins.data());
    histogram.samples = src.size();
    return histogram;
}

PixelCdf
buildCdf(const PixelHistogram &histogram)
{
    fatalIf(histogram.samples == 0, "buildCdf: empty histogram");
    PixelCdf cdf{};
    std::uint64_t running = 0;
    for (std::size_t v = 0; v < cdf.size(); ++v) {
        running += histogram.bins[v];
        cdf[v] = static_cast<double>(running) /
                 static_cast<double>(histogram.samples);
    }
    return cdf;
}

PixelLut
buildLut(const PixelCdf &cdf)
{
    // Classic histogram-equalization remap anchored at the first
    // occupied intensity: values map to 255 * (cdf - cdf_min) /
    // (1 - cdf_min), which stretches the occupied range to full scale.
    double cdf_min = 1.0;
    for (double value : cdf) {
        if (value > 0.0) {
            cdf_min = value;
            break;
        }
    }
    PixelLut lut{};
    const double denom = 1.0 - cdf_min;
    for (std::size_t v = 0; v < lut.size(); ++v) {
        double mapped = 255.0;
        if (denom > 0.0)
            mapped = 255.0 * (cdf[v] - cdf_min) / denom;
        if (mapped < 0.0)
            mapped = 0.0;
        if (mapped > 255.0)
            mapped = 255.0;
        lut[v] = static_cast<std::uint8_t>(mapped + 0.5);
    }
    return lut;
}

GrayImage
applyLut(const GrayImage &src, const PixelLut &lut)
{
    GrayImage out(src.width(), src.height());
    simd::ops().applyLutU8(src.data().data(), src.size(), lut.data(),
                           out.data().data());
    return out;
}

GrayImage
histogramEqualize(const GrayImage &src)
{
    return applyLut(src, buildLut(buildCdf(buildHistogram(src))));
}

HisteqAutomaton
makeHisteqAutomaton(GrayImage src, const HisteqConfig &config)
{
    fatalIf(src.empty(), "histeq: empty input");
    auto automaton = std::make_unique<Automaton>();
    auto hist_buf =
        automaton->makeBuffer<PixelHistogram>("histeq.histogram");
    auto cdf_buf = automaton->makeBuffer<PixelCdf>("histeq.cdf");
    auto lut_buf = automaton->makeBuffer<PixelLut>("histeq.lut");
    auto out_buf = automaton->makeBuffer<GrayImage>("histeq.out");

    auto input = std::make_shared<const GrayImage>(std::move(src));
    const std::uint64_t pixels = input->size();

    // Stage 1: anytime histogram via pseudo-random input sampling.
    // Chunked steps amortize the per-step dispatch over real work.
    constexpr std::uint64_t chunk = 32;
    const std::uint64_t hist_steps = (pixels + chunk - 1) / chunk;
    auto lfsr = std::make_shared<const LfsrPermutation>(pixels,
                                                        config.lfsrSeed);
    const std::uint64_t hist_period = std::max<std::uint64_t>(
        1, hist_steps /
               std::max<std::uint64_t>(1, config.histogramVersions));
    // Histograms are pure commutative counting, so the partial is just
    // another histogram and the merge adds bins in partition order
    // (bit-identical to single-worker by commutativity of u64 sums).
    // The LFSR permits block or cyclic distribution (Section IV-C1).
    SweepLayout hist_layout;
    hist_layout.steps = hist_steps;
    hist_layout.window = hist_period;
    hist_layout.kind = config.histogramPartition;
    hist_layout.checkpointStride = 16;
    auto hist_stage = std::make_shared<
        PartitionedDiffusiveStage<PixelHistogram, PixelHistogram>>(
        "histogram", hist_buf, PixelHistogram{}, hist_layout,
        [] { return PixelHistogram{}; },
        [](PixelHistogram &partial) { partial = PixelHistogram{}; },
        [input, lfsr, pixels](std::uint64_t step, PixelHistogram &partial,
                              StageContext &) {
            const std::uint64_t end = std::min(pixels, (step + 1) * chunk);
            for (std::uint64_t s = step * chunk; s < end; ++s) {
                const std::uint64_t index = lfsr->map(s);
                ++partial.bins[(*input)[static_cast<std::size_t>(index)]];
                ++partial.samples;
            }
        },
        [](PixelHistogram &state, std::vector<PixelHistogram> &partials,
           std::uint64_t, std::uint64_t) {
            for (const PixelHistogram &partial : partials) {
                for (std::size_t v = 0; v < state.bins.size(); ++v)
                    state.bins[v] += partial.bins[v];
                state.samples += partial.samples;
            }
        });

    // Stage 2 (non-anytime): normalized CDF.
    auto cdf_stage = makeFunctionStage<PixelCdf, PixelHistogram>(
        "cdf", hist_buf, cdf_buf,
        [](const PixelHistogram &histogram) {
            return buildCdf(histogram);
        });

    // Stage 3 (non-anytime): remap table.
    auto lut_stage = makeFunctionStage<PixelLut, PixelCdf>(
        "lut", cdf_buf, lut_buf,
        [](const PixelCdf &cdf) { return buildLut(cdf); });

    // Stage 4: anytime apply via tree-permuted output sampling. Each
    // consumed LUT version triggers a fresh full sweep (asynchronous
    // pipeline semantics: the paper's source of histeq's 6x tail).
    auto plan = std::make_shared<const TreeSweepPlan>(input->height(),
                                                      input->width());
    const std::uint64_t apply_period = std::max<std::uint64_t>(
        1, pixels / std::max<std::uint64_t>(1, config.applyVersions));
    // Partitioned body: each consumed LUT version triggers a fresh
    // sweep; windows are sliced cyclically (tree permutation) and
    // worker write logs are replayed in global sample order, so the
    // output matches the single-worker sweep bit for bit. A sweep over
    // a non-final LUT is abandoned when a fresher LUT lands (never
    // possible for the final LUT — the precise output is guaranteed).
    using ApplyPartial = OrdinalLog<std::uint8_t>;
    PartitionedBody<ApplyPartial, GrayImage, PixelLut> apply_body;
    apply_body.layout.steps = pixels;
    apply_body.layout.window = apply_period;
    apply_body.layout.kind = PartitionKind::cyclic;
    apply_body.layout.checkpointStride = 256;
    apply_body.makePartial = [] { return ApplyPartial{}; };
    apply_body.resetPartial = [](ApplyPartial &partial) {
        partial.clear();
    };
    apply_body.init = [input](const PixelLut &) {
        return GrayImage(input->width(), input->height());
    };
    apply_body.step = [input, plan](const PixelLut &lut,
                                    std::uint64_t step,
                                    ApplyPartial &partial, StageContext &) {
        partial.push_back(
            {step, lut[input->at(plan->x(step), plan->y(step))]});
    };
    apply_body.merge = [plan](GrayImage &state,
                              std::vector<ApplyPartial> &partials,
                              std::uint64_t, std::uint64_t) {
        std::vector<const ApplyPartial *> logs;
        logs.reserve(partials.size());
        for (const ApplyPartial &partial : partials)
            logs.push_back(&partial);
        replayOrdinalLogs<std::uint8_t>(
            logs, [&](std::uint64_t s, std::uint8_t value) {
                plan->fill(state, s, value);
            });
    };
    auto apply_stage = std::make_shared<TransformStage<GrayImage, PixelLut>>(
        "apply", lut_buf, out_buf, std::move(apply_body));

    automaton->addStage(std::move(hist_stage), config.histogramWorkers);
    automaton->addStage(std::move(cdf_stage));
    automaton->addStage(std::move(lut_stage));
    automaton->addStage(std::move(apply_stage), config.applyWorkers);
    return HisteqAutomaton{std::move(automaton), std::move(out_buf),
                           std::move(hist_buf), std::move(lut_buf)};
}

} // namespace anytime
