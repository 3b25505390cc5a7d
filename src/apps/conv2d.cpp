#include "apps/conv2d.hpp"

#include <algorithm>
#include <cmath>

#include "approx/fixed_point.hpp"
#include "apps/tree_fill.hpp"
#include "core/parallel_stage.hpp"
#include "core/transform_stage.hpp"
#include "image/progressive.hpp"
#include "simd/simd.hpp"
#include "support/error.hpp"

namespace anytime {

Kernel::Kernel(unsigned radius, std::vector<float> taps_in)
    : r(radius), taps(std::move(taps_in))
{
    const unsigned side = 2 * radius + 1;
    fatalIf(taps.size() != static_cast<std::size_t>(side) * side,
            "Kernel: expected ", side * side, " taps, got ", taps.size());
    lanes = (side + 7u) & ~std::size_t{7};
    padded.assign(static_cast<std::size_t>(side) * lanes, 0.0f);
    for (unsigned row = 0; row < side; ++row) {
        for (unsigned col = 0; col < side; ++col)
            padded[row * lanes + col] =
                taps[static_cast<std::size_t>(row) * side + col];
    }
}

Kernel
Kernel::boxBlur(unsigned radius)
{
    const unsigned side = 2 * radius + 1;
    const float weight = 1.0f / static_cast<float>(side * side);
    return Kernel(radius, std::vector<float>(
                              static_cast<std::size_t>(side) * side,
                              weight));
}

Kernel
Kernel::gaussianBlur(unsigned radius)
{
    const unsigned side = 2 * radius + 1;
    const double sigma = std::max(0.5, radius / 2.0);
    std::vector<float> taps(static_cast<std::size_t>(side) * side);
    double sum = 0.0;
    for (int dy = -static_cast<int>(radius);
         dy <= static_cast<int>(radius); ++dy) {
        for (int dx = -static_cast<int>(radius);
             dx <= static_cast<int>(radius); ++dx) {
            const double v =
                std::exp(-(dx * dx + dy * dy) / (2.0 * sigma * sigma));
            taps[static_cast<std::size_t>(dy + static_cast<int>(radius)) *
                     side +
                 static_cast<std::size_t>(dx + static_cast<int>(radius))] =
                static_cast<float>(v);
            sum += v;
        }
    }
    for (auto &tap : taps)
        tap = static_cast<float>(tap / sum);
    return Kernel(radius, std::move(taps));
}

Kernel
Kernel::sharpen3x3()
{
    return Kernel(1, {0.f, -1.f, 0.f, -1.f, 5.f, -1.f, 0.f, -1.f, 0.f});
}

namespace {

std::uint8_t
clampToByte(float v)
{
    return static_cast<std::uint8_t>(
        v <= 0.f ? 0 : (v >= 255.f ? 255 : v + 0.5f));
}

/** Q16.16 rounding of the integer bit-plane accumulator to a byte. */
std::uint8_t
clampAccToByte(std::int64_t acc)
{
    if (acc <= 0)
        return 0;
    const std::int64_t v = (acc + 32768) >> 16;
    return v >= 255 ? 255 : static_cast<std::uint8_t>(v);
}

} // namespace

std::uint8_t
convolvePixel(const GrayImage &src, const Kernel &kernel, std::size_t x,
              std::size_t y)
{
    const std::size_t r = kernel.radius();
    const std::size_t side = 2 * r + 1;
    const std::size_t lanes = kernel.paddedLanes();
    const std::size_t w = src.width();
    const std::size_t h = src.height();
    const auto &ops = simd::ops();

    // Interior fast path: every row segment [x-r, x-r+lanes) is in
    // bounds, so the kernel reads the image rows directly. The padded
    // lanes read real (ignored) bytes against 0.0f taps — exactly what
    // the gather path feeds them, so both paths are bit-identical.
    if (x >= r && y >= r && y + r < h && x - r + lanes <= w) {
        const std::uint8_t *base =
            src.data().data() + (y - r) * w + (x - r);
        return clampToByte(
            ops.convDotU8(base, w, side, lanes, kernel.paddedTaps()));
    }

    // Border path: gather the clamped neighborhood into the padded
    // layout and run the same 8-lane FMA specification over it.
    thread_local std::vector<float> scratch;
    scratch.assign(side * lanes, 0.0f);
    for (std::size_t row = 0; row < side; ++row) {
        const std::ptrdiff_t sy = static_cast<std::ptrdiff_t>(y) +
                                  static_cast<std::ptrdiff_t>(row) -
                                  static_cast<std::ptrdiff_t>(r);
        for (std::size_t col = 0; col < side; ++col) {
            const std::ptrdiff_t sx = static_cast<std::ptrdiff_t>(x) +
                                      static_cast<std::ptrdiff_t>(col) -
                                      static_cast<std::ptrdiff_t>(r);
            scratch[row * lanes + col] =
                static_cast<float>(src.clampedAt(sx, sy));
        }
    }
    return clampToByte(ops.dotPadded8(kernel.paddedTaps(), scratch.data(),
                                      side * lanes));
}

QuantizedKernel::QuantizedKernel(const Kernel &kernel)
    : r(kernel.radius())
{
    const std::size_t side = 2 * static_cast<std::size_t>(r) + 1;
    count = (side * side + 7u) & ~std::size_t{7};
    qtaps.assign(count, 0);
    std::size_t idx = 0;
    for (int dy = -static_cast<int>(r); dy <= static_cast<int>(r); ++dy) {
        for (int dx = -static_cast<int>(r); dx <= static_cast<int>(r);
             ++dx, ++idx) {
            const double scaled =
                std::round(static_cast<double>(kernel.tap(dx, dy)) *
                           65536.0);
            const double clamped =
                std::min(std::max(scaled, -16777216.0), 16777216.0);
            const std::int32_t q = static_cast<std::int32_t>(clamped);
            qtaps[idx] = q;
            if (q > 0)
                sumPos += q;
            else
                sumNeg += q;
        }
    }
}

std::uint8_t
QuantizedKernel::convolvePixel(const GrayImage &src, std::size_t x,
                               std::size_t y, unsigned precisionBits,
                               ElisionStats *stats) const
{
    const unsigned bits =
        precisionBits < 1 ? 1 : (precisionBits > 8 ? 8 : precisionBits);
    const unsigned lo = 8 - bits;

    // Gather the clamped neighborhood as plane selectors; the running
    // OR is the per-pixel digit-elision mask.
    thread_local std::vector<std::uint32_t> selectors;
    selectors.assign(count, 0);
    std::uint32_t seen = 0;
    const std::size_t side = 2 * static_cast<std::size_t>(r) + 1;
    const std::size_t w = src.width();
    if (x >= r && y >= r && x + r < w && y + r < src.height()) {
        // Interior: straight row reads, no border clamping.
        const std::uint8_t *base =
            src.data().data() + (y - r) * w + (x - r);
        std::size_t idx = 0;
        for (std::size_t row = 0; row < side; ++row) {
            const std::uint8_t *line = base + row * w;
            for (std::size_t col = 0; col < side; ++col, ++idx) {
                const std::uint8_t pixel = line[col];
                selectors[idx] = pixel;
                seen |= pixel;
            }
        }
    } else {
        std::size_t idx = 0;
        for (int dy = -static_cast<int>(r); dy <= static_cast<int>(r);
             ++dy) {
            for (int dx = -static_cast<int>(r); dx <= static_cast<int>(r);
                 ++dx, ++idx) {
                const std::uint8_t pixel = src.clampedAt(
                    static_cast<std::ptrdiff_t>(x) + dx,
                    static_cast<std::ptrdiff_t>(y) + dy);
                selectors[idx] = pixel;
                seen |= pixel;
            }
        }
    }

    const auto &ops = simd::ops();
    std::int64_t acc = 0;
    for (unsigned plane = 8; plane-- > lo;) {
        if (stats != nullptr)
            ++stats->planesConsidered;
        // Elision 1: a plane set in no neighborhood pixel sums to zero.
        if (((seen >> plane) & 1u) == 0)
            continue;
        if (stats != nullptr)
            ++stats->planesRun;
        const std::int64_t plane_sum = ops.maskedSumI32(
            qtaps.data(), selectors.data(), count, plane);
        acc += plane_sum << plane;
        // Elision 2: stop once the remaining planes' contribution range
        // cannot move the rounded output byte.
        if (plane > lo) {
            const std::int64_t span = (std::int64_t{1} << plane) -
                                      (std::int64_t{1} << lo);
            if (clampAccToByte(acc + span * sumNeg) ==
                clampAccToByte(acc + span * sumPos)) {
                if (stats != nullptr)
                    ++stats->pixelsEarlyExit;
                break;
            }
        }
    }
    return clampAccToByte(acc);
}

std::uint8_t
convolvePixelQuantized(const GrayImage &src, const Kernel &kernel,
                       std::size_t x, std::size_t y,
                       unsigned precision_bits)
{
    if (precision_bits >= 8)
        return convolvePixel(src, kernel, x, y);
    const QuantizedKernel quantized(kernel);
    return quantized.convolvePixel(src, x, y, precision_bits);
}

GrayImage
convolve(const GrayImage &src, const Kernel &kernel)
{
    GrayImage out(src.width(), src.height());
    for (std::size_t y = 0; y < src.height(); ++y) {
        for (std::size_t x = 0; x < src.width(); ++x)
            out.at(x, y) = convolvePixel(src, kernel, x, y);
    }
    return out;
}

GrayImage
convolveReference(const GrayImage &src, const Kernel &kernel)
{
    const int r = static_cast<int>(kernel.radius());
    GrayImage out(src.width(), src.height());
    for (std::size_t y = 0; y < src.height(); ++y) {
        for (std::size_t x = 0; x < src.width(); ++x) {
            float acc = 0.f;
            for (int dy = -r; dy <= r; ++dy) {
                for (int dx = -r; dx <= r; ++dx) {
                    acc += kernel.tap(dx, dy) *
                           static_cast<float>(src.clampedAt(
                               static_cast<std::ptrdiff_t>(x) + dx,
                               static_cast<std::ptrdiff_t>(y) + dy));
                }
            }
            out.at(x, y) = clampToByte(acc);
        }
    }
    return out;
}

Conv2dAutomaton
makeConv2dAutomaton(GrayImage src, Kernel kernel,
                    const Conv2dConfig &config)
{
    fatalIf(src.empty(), "conv2d: empty input");
    auto automaton = std::make_unique<Automaton>();
    auto output = automaton->makeBuffer<GrayImage>("conv2d.out");

    const std::uint64_t pixels = src.size();
    // Each diffusive step handles a small run of samples so the
    // per-step dispatch overhead amortizes over real convolution work.
    constexpr std::uint64_t chunk = 16;
    const std::uint64_t steps = (pixels + chunk - 1) / chunk;
    const std::uint64_t period = std::max<std::uint64_t>(
        1, steps / std::max<std::uint64_t>(1, config.publishCount));

    // Shared, immutable inputs for the stage closure (Property 1: the
    // stage reads only these and writes only its output buffer).
    auto input = std::make_shared<const GrayImage>(std::move(src));
    auto plan = std::make_shared<const TreeSweepPlan>(input->height(),
                                                      input->width());
    auto blur = std::make_shared<const Kernel>(std::move(kernel));
    const unsigned precision = config.precisionBits;
    // Reduced precision runs the integer MSB-first digit-elision path;
    // build its Q16 kernel once, outside the per-step closure.
    auto quantized = precision < 8
                         ? std::make_shared<const QuantizedKernel>(*blur)
                         : std::shared_ptr<const QuantizedKernel>{};

    // Partitioned sweep (Section IV-C1): the tree permutation demands
    // cyclic distribution. Each worker keeps its slice's values in
    // slice order and, after the window barrier, writes them over
    // their disjoint tree regions (apps/tree_fill.hpp), so the gang
    // reproduces the resolution-ordered block fill of a single-worker
    // sweep — every published version is bit-identical.
    using Partial = std::vector<std::uint8_t>;
    SweepLayout layout;
    layout.steps = steps;
    layout.window = period;
    layout.kind = PartitionKind::cyclic;
    layout.checkpointStride = 16;
    auto stage = std::make_shared<TransformStage<GrayImage>>(
        "conv2d", output,
        PartitionedBody<Partial, GrayImage>{
            layout, [] { return Partial{}; },
            [](Partial &partial) { partial.clear(); },
            [input] { return GrayImage(input->width(), input->height()); },
            [input, plan, blur, quantized, precision,
             pixels](std::uint64_t step, Partial &partial,
                     StageContext &) {
                const std::uint64_t end =
                    std::min(pixels, (step + 1) * chunk);
                for (std::uint64_t s = step * chunk; s < end; ++s) {
                    const std::size_t x = plan->x(s), y = plan->y(s);
                    partial.push_back(
                        (precision >= 8)
                            ? convolvePixel(*input, *blur, x, y)
                            : quantized->convolvePixel(*input, x, y,
                                                       precision));
                }
            },
            /*merge=*/{},
            [plan](GrayImage &state, const Partial &partial,
                   const SweepSlice &slice) {
                fillTreeSlice(state, *plan, chunk, slice, partial);
            }});

    automaton->addStage(std::move(stage), config.workers);
    return Conv2dAutomaton{std::move(automaton), std::move(output)};
}

} // namespace anytime
