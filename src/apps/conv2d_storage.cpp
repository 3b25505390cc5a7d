#include "apps/conv2d_storage.hpp"

#include "core/source_stage.hpp"
#include "simd/simd.hpp"
#include "support/error.hpp"

#include <vector>

namespace anytime {

namespace {

std::size_t
clampIndex(std::ptrdiff_t k, std::size_t n)
{
    if (k < 0)
        return 0;
    if (k >= static_cast<std::ptrdiff_t>(n))
        return n - 1;
    return static_cast<std::size_t>(k);
}

std::uint8_t
clampToByte(float v)
{
    return static_cast<std::uint8_t>(
        v <= 0.f ? 0 : (v >= 255.f ? 255 : v + 0.5f));
}

} // namespace

GrayImage
convolveFromStorage(ApproxStorage<std::uint8_t> &storage,
                    std::size_t width, std::size_t height,
                    const Kernel &kernel)
{
    fatalIf(storage.size() != width * height,
            "convolveFromStorage: storage size mismatch");
    const std::size_t r = kernel.radius();
    const std::size_t side = 2 * r + 1;
    const std::size_t lanes = kernel.paddedLanes();
    const auto &ops = simd::ops();
    GrayImage out(width, height);
    // Gather each clamped neighborhood into the padded SIMD layout and
    // reduce through the ops table. The storage read sequence is the
    // same as a scalar taps loop (side^2 reads per pixel, row-major),
    // so the deterministic fault stream lands on the same words; the
    // reduction follows the same 8-lane FMA specification as
    // convolvePixel, so precise storage reproduces the plain
    // convolution bit for bit. Padded lanes keep 0.0f values against
    // 0.0f taps and never touch the storage device.
    std::vector<float> scratch(side * lanes, 0.0f);
    for (std::size_t y = 0; y < height; ++y) {
        for (std::size_t x = 0; x < width; ++x) {
            for (std::size_t row = 0; row < side; ++row) {
                const std::size_t sy = clampIndex(
                    static_cast<std::ptrdiff_t>(y + row) -
                        static_cast<std::ptrdiff_t>(r),
                    height);
                for (std::size_t col = 0; col < side; ++col) {
                    const std::size_t sx = clampIndex(
                        static_cast<std::ptrdiff_t>(x + col) -
                            static_cast<std::ptrdiff_t>(r),
                        width);
                    scratch[row * lanes + col] = static_cast<float>(
                        storage.read(sy * width + sx));
                }
            }
            out.at(x, y) = clampToByte(ops.dotPadded8(
                kernel.paddedTaps(), scratch.data(), side * lanes));
        }
    }
    return out;
}

Conv2dStorageAutomaton
makeConv2dStorageAutomaton(GrayImage src, Kernel kernel,
                           const Conv2dStorageConfig &config)
{
    fatalIf(src.empty(), "conv2d_storage: empty input");
    auto automaton = std::make_unique<Automaton>();
    auto output = automaton->makeBuffer<GrayImage>("conv2d_storage.out");

    const std::size_t width = src.width();
    const std::size_t height = src.height();
    auto precise_input =
        std::make_shared<const GrayImage>(std::move(src));
    auto blur = std::make_shared<const Kernel>(std::move(kernel));
    auto schedule =
        std::make_shared<const StorageSchedule>(config.schedule);
    // The storage device persists across levels (it models one physical
    // array); Property 1 still holds at the automaton level because the
    // flush at the top of each level erases all cross-level state.
    auto storage = std::make_shared<ApproxStorage<std::uint8_t>>(
        width * height, config.faultSeed);

    auto stage = makeIterativeSource<GrayImage>(
        "conv2d_storage", output, schedule->levels(),
        [precise_input, blur, schedule, storage, width,
         height](std::size_t level, GrayImage &out, StageContext &ctx) {
            const StorageLevel &voltage = schedule->level(level);
            // Flush: reinitialize to precise contents so corruption
            // from the previous (lower-voltage) level does not degrade
            // this one (data-destructive semantics, paper §III-B1).
            storage->flush(precise_input->data());
            storage->setUpsetProbability(voltage.readUpsetProbability);
            out = convolveFromStorage(*storage, width, height, *blur);
            ctx.addWork(width * height);
        });

    automaton->addStage(std::move(stage));
    return Conv2dStorageAutomaton{std::move(automaton),
                                  std::move(output)};
}

} // namespace anytime
