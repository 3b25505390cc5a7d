#include "apps/dwt53.hpp"

#include <vector>

#include "core/source_stage.hpp"
#include "simd/simd.hpp"
#include "support/error.hpp"

namespace anytime {

namespace {

/**
 * 1-D forward 5/3 lifting of @p line into deinterleaved (low | high)
 * layout, on the src/simd/ lifting kernels (predict: d[i] = x[2i+1] -
 * floor((x[2i] + x[2i+2]) / 2); update: s[i] = x[2i] + floor((d[i-1] +
 * d[i] + 2) / 4); whole-sample mirroring at the edges). All arithmetic
 * is exact int32 — C++20 guarantees arithmetic right shift == floor
 * division — so every backend produces identical coefficients.
 */
void
lift53Forward(std::vector<std::int32_t> &line)
{
    const std::size_t n = line.size();
    if (n < 2)
        return;
    const std::size_t n_high = n / 2;
    const std::size_t n_low = n - n_high;

    thread_local std::vector<std::int32_t> high, low;
    high.resize(n_high);
    low.resize(n_low);

    const auto &ops = simd::ops();
    ops.dwtPredict53(line.data(), n, high.data());
    ops.dwtUpdate53(line.data(), high.data(), n, low.data());

    std::copy(low.begin(), low.end(), line.begin());
    std::copy(high.begin(), high.end(), line.begin() + n_low);
}

/** 1-D inverse 5/3 lifting from deinterleaved layout back to samples. */
void
lift53Inverse(std::vector<std::int32_t> &line)
{
    const std::size_t n = line.size();
    if (n < 2)
        return;
    const std::size_t n_high = n / 2;
    const std::size_t n_low = n - n_high;

    thread_local std::vector<std::int32_t> even, out;
    even.resize(n_low);
    out.resize(n);

    const auto &ops = simd::ops();
    ops.dwtRecoverEven53(line.data(), n, even.data());
    ops.dwtInterleave53(even.data(), line.data() + n_low, n, out.data());

    std::copy(out.begin(), out.end(), line.begin());
}

/** Forward transform with optional row/column perforation stride. */
WaveletImage
forwardWithStride(const GrayImage &src, std::uint32_t stride)
{
    panicIf(stride == 0, "dwt53: zero stride");
    const std::size_t w = src.width();
    const std::size_t h = src.height();
    WaveletImage coeffs(w, h);
    std::int32_t *out = coeffs.data().data();
    const std::uint8_t *in = src.data().data();

    // Row pass: lift every stride-th row; skipped rows replicate the
    // most recent lifted row (classic perforation "reuse last value").
    std::vector<std::int32_t> line(w);
    const std::int32_t *last_row = nullptr;
    for (std::size_t y = 0; y < h; ++y) {
        std::int32_t *row = out + y * w;
        if (y % stride == 0 || last_row == nullptr) {
            const std::uint8_t *src_row = in + y * w;
            for (std::size_t x = 0; x < w; ++x)
                line[x] = src_row[x];
            lift53Forward(line);
            std::copy(line.begin(), line.end(), row);
        } else {
            std::copy(last_row, last_row + w, row);
        }
        last_row = row;
    }

    // Column pass: lift every stride-th column in place, then fill the
    // skipped columns row-major (one sequential sweep, unlike a
    // per-column copy which would cost a cache-hostile O(w*h) even for
    // large strides).
    std::vector<std::int32_t> column(h);
    for (std::size_t x = 0; x < w; x += stride) {
        for (std::size_t y = 0; y < h; ++y)
            column[y] = out[y * w + x];
        lift53Forward(column);
        for (std::size_t y = 0; y < h; ++y)
            out[y * w + x] = column[y];
    }
    if (stride > 1) {
        for (std::size_t y = 0; y < h; ++y) {
            std::int32_t *row = out + y * w;
            for (std::size_t x = 0; x < w; ++x) {
                if (x % stride != 0)
                    row[x] = row[x - (x % stride)];
            }
        }
    }
    return coeffs;
}

} // namespace

WaveletImage
dwt53Forward(const GrayImage &src)
{
    return forwardWithStride(src, 1);
}

WaveletImage
dwt53ForwardPerforated(const GrayImage &src, std::uint32_t stride)
{
    return forwardWithStride(src, stride);
}

GrayImage
dwt53Inverse(const WaveletImage &coefficients)
{
    const std::size_t w = coefficients.width();
    const std::size_t h = coefficients.height();
    WaveletImage work = coefficients;

    std::vector<std::int32_t> column(h);
    for (std::size_t x = 0; x < w; ++x) {
        for (std::size_t y = 0; y < h; ++y)
            column[y] = work.at(x, y);
        lift53Inverse(column);
        for (std::size_t y = 0; y < h; ++y)
            work.at(x, y) = column[y];
    }

    std::vector<std::int32_t> line(w);
    GrayImage out(w, h);
    for (std::size_t y = 0; y < h; ++y) {
        for (std::size_t x = 0; x < w; ++x)
            line[x] = work.at(x, y);
        lift53Inverse(line);
        for (std::size_t x = 0; x < w; ++x) {
            const std::int32_t v = line[x];
            out.at(x, y) = static_cast<std::uint8_t>(
                v <= 0 ? 0 : (v >= 255 ? 255 : v));
        }
    }
    return out;
}

Dwt53Automaton
makeDwt53Automaton(GrayImage src, const Dwt53Config &config)
{
    fatalIf(src.empty(), "dwt53: empty input");
    auto automaton = std::make_unique<Automaton>();
    auto output = automaton->makeBuffer<WaveletImage>("dwt53.out");

    auto input = std::make_shared<const GrayImage>(std::move(src));
    auto schedule =
        std::make_shared<const PerforationSchedule>(config.schedule);

    auto stage = makeIterativeSource<WaveletImage>(
        "dwt53", output, schedule->levels(),
        [input, schedule](std::size_t level, WaveletImage &out,
                          StageContext &ctx) {
            const std::uint32_t stride = schedule->stride(level);
            out = dwt53ForwardPerforated(*input, stride);
            ctx.addWork(input->size());
        });

    automaton->addStage(std::move(stage));
    return Dwt53Automaton{std::move(automaton), std::move(output)};
}

} // namespace anytime
