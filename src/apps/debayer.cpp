#include "apps/debayer.hpp"

#include "apps/tree_fill.hpp"
#include "core/parallel_stage.hpp"
#include "core/transform_stage.hpp"
#include "image/progressive.hpp"
#include "support/error.hpp"

namespace anytime {

namespace {

/**
 * Whole-sample mirror reflection into [0, n). Unlike clamping, mirror
 * reflection preserves Bayer parity at the borders (offset -1 reflects
 * to +1, same color site), so uniform scenes demosaic exactly.
 */
std::size_t
mirrorIndex(std::ptrdiff_t k, std::size_t n)
{
    if (k < 0)
        k = -k;
    if (k >= static_cast<std::ptrdiff_t>(n))
        k = 2 * (static_cast<std::ptrdiff_t>(n) - 1) - k;
    return static_cast<std::size_t>(k);
}

/** Average of the mosaic samples at the given offsets (mirrored). */
std::uint8_t
averageAt(const GrayImage &mosaic, std::size_t x, std::size_t y,
          const int (*offsets)[2], unsigned count)
{
    unsigned sum = 0;
    for (unsigned i = 0; i < count; ++i) {
        const std::size_t sx = mirrorIndex(
            static_cast<std::ptrdiff_t>(x) + offsets[i][0],
            mosaic.width());
        const std::size_t sy = mirrorIndex(
            static_cast<std::ptrdiff_t>(y) + offsets[i][1],
            mosaic.height());
        sum += mosaic.at(sx, sy);
    }
    return static_cast<std::uint8_t>((sum + count / 2) / count);
}

constexpr int crossOffsets[4][2] = {{-1, 0}, {1, 0}, {0, -1}, {0, 1}};
constexpr int diagOffsets[4][2] = {{-1, -1}, {1, -1}, {-1, 1}, {1, 1}};
constexpr int horizOffsets[2][2] = {{-1, 0}, {1, 0}};
constexpr int vertOffsets[2][2] = {{0, -1}, {0, 1}};

} // namespace

RgbPixel
debayerPixel(const GrayImage &mosaic, std::size_t x, std::size_t y)
{
    // RGGB pattern: even rows R G R G ..., odd rows G B G B ...
    const bool even_row = (y % 2 == 0);
    const bool even_col = (x % 2 == 0);
    const std::uint8_t here = mosaic.at(x, y);

    RgbPixel out;
    if (even_row && even_col) {
        // Red site: green from the cross, blue from the diagonals.
        out.r = here;
        out.g = averageAt(mosaic, x, y, crossOffsets, 4);
        out.b = averageAt(mosaic, x, y, diagOffsets, 4);
    } else if (even_row && !even_col) {
        // Green site on a red row: red horizontal, blue vertical.
        out.r = averageAt(mosaic, x, y, horizOffsets, 2);
        out.g = here;
        out.b = averageAt(mosaic, x, y, vertOffsets, 2);
    } else if (!even_row && even_col) {
        // Green site on a blue row: red vertical, blue horizontal.
        out.r = averageAt(mosaic, x, y, vertOffsets, 2);
        out.g = here;
        out.b = averageAt(mosaic, x, y, horizOffsets, 2);
    } else {
        // Blue site: green from the cross, red from the diagonals.
        out.r = averageAt(mosaic, x, y, diagOffsets, 4);
        out.g = averageAt(mosaic, x, y, crossOffsets, 4);
        out.b = here;
    }
    return out;
}

RgbImage
debayer(const GrayImage &mosaic)
{
    RgbImage out(mosaic.width(), mosaic.height());
    for (std::size_t y = 0; y < mosaic.height(); ++y) {
        for (std::size_t x = 0; x < mosaic.width(); ++x)
            out.at(x, y) = debayerPixel(mosaic, x, y);
    }
    return out;
}

DebayerAutomaton
makeDebayerAutomaton(GrayImage mosaic, const DebayerConfig &config)
{
    fatalIf(mosaic.empty(), "debayer: empty input");
    auto automaton = std::make_unique<Automaton>();
    auto output = automaton->makeBuffer<RgbImage>("debayer.out");

    auto input = std::make_shared<const GrayImage>(std::move(mosaic));
    auto plan = std::make_shared<const TreeSweepPlan>(input->height(),
                                                      input->width());
    const std::uint64_t pixels = input->size();
    // Chunked steps amortize the per-step dispatch over real work.
    constexpr std::uint64_t chunk = 16;
    const std::uint64_t steps = (pixels + chunk - 1) / chunk;
    const std::uint64_t period = std::max<std::uint64_t>(
        1, steps / std::max<std::uint64_t>(1, config.publishCount));

    // Partitioned sweep (Section IV-C1), as in conv2d: each worker
    // keeps its slice's values and writes them over their disjoint tree
    // regions after the window barrier — every published version is
    // bit-identical to the single-worker run.
    using Partial = std::vector<RgbPixel>;
    SweepLayout layout;
    layout.steps = steps;
    layout.window = period;
    layout.kind = PartitionKind::cyclic;
    layout.checkpointStride = 16;
    auto stage = std::make_shared<TransformStage<RgbImage>>(
        "debayer", output,
        PartitionedBody<Partial, RgbImage>{
            layout, [] { return Partial{}; },
            [](Partial &partial) { partial.clear(); },
            [input] { return RgbImage(input->width(), input->height()); },
            [input, plan, pixels](std::uint64_t step, Partial &partial,
                                  StageContext &) {
                const std::uint64_t end =
                    std::min(pixels, (step + 1) * chunk);
                for (std::uint64_t s = step * chunk; s < end; ++s)
                    partial.push_back(
                        debayerPixel(*input, plan->x(s), plan->y(s)));
            },
            /*merge=*/{},
            [plan](RgbImage &state, const Partial &partial,
                   const SweepSlice &slice) {
                fillTreeSlice(state, *plan, chunk, slice, partial);
            }});

    automaton->addStage(std::move(stage), config.workers);
    return DebayerAutomaton{std::move(automaton), std::move(output)};
}

} // namespace anytime
