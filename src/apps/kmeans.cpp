#include "apps/kmeans.hpp"

#include "apps/tree_fill.hpp"
#include "core/parallel_stage.hpp"
#include "core/transform_stage.hpp"
#include "image/progressive.hpp"
#include "simd/simd.hpp"
#include "support/error.hpp"

namespace anytime {

std::vector<RgbPixel>
kmeansSeeds(const RgbImage &src, unsigned k)
{
    fatalIf(k == 0, "kmeans: zero clusters");
    fatalIf(k > 255, "kmeans: labels are 8-bit, k must be <= 255");
    std::vector<RgbPixel> seeds;
    seeds.reserve(k);
    // Evenly strided deterministic sampling; the +i term staggers the
    // picks so uniform regions still yield distinct seeds.
    const std::size_t stride = src.size() / k;
    for (unsigned i = 0; i < k; ++i) {
        const std::size_t index =
            std::min(src.size() - 1, i * stride + stride / 2);
        seeds.push_back(src[index]);
    }
    return seeds;
}

unsigned
nearestCentroid(const std::vector<RgbPixel> &centroids,
                const RgbPixel &pixel)
{
    panicIf(centroids.empty(), "nearestCentroid: no centroids");
    unsigned best = 0;
    std::int64_t best_dist = -1;
    for (unsigned c = 0; c < centroids.size(); ++c) {
        const std::int64_t dr =
            static_cast<std::int64_t>(pixel.r) - centroids[c].r;
        const std::int64_t dg =
            static_cast<std::int64_t>(pixel.g) - centroids[c].g;
        const std::int64_t db =
            static_cast<std::int64_t>(pixel.b) - centroids[c].b;
        const std::int64_t dist = dr * dr + dg * dg + db * db;
        if (best_dist < 0 || dist < best_dist) {
            best_dist = dist;
            best = c;
        }
    }
    return best;
}

CentroidIndex::CentroidIndex(const std::vector<RgbPixel> &centroids)
    : k(centroids.size())
{
    panicIf(k == 0, "CentroidIndex: no centroids");
    padded = (k + 7u) & ~std::size_t{7};
    red.assign(padded, 0);
    green.assign(padded, 0);
    blue.assign(padded, 0);
    for (std::size_t c = 0; c < k; ++c) {
        red[c] = centroids[c].r;
        green[c] = centroids[c].g;
        blue[c] = centroids[c].b;
    }
}

unsigned
CentroidIndex::nearest(const RgbPixel &pixel) const
{
    thread_local std::vector<std::int32_t> dist;
    dist.resize(padded);
    simd::ops().squaredDistancesRgb(red.data(), green.data(), blue.data(),
                                    padded, pixel.r, pixel.g, pixel.b,
                                    dist.data());
    unsigned best = 0;
    std::int32_t best_dist = dist[0];
    for (std::size_t c = 1; c < k; ++c) {
        if (dist[c] < best_dist) {
            best_dist = dist[c];
            best = static_cast<unsigned>(c);
        }
    }
    return best;
}

namespace {

/** Reduce accumulated sums into centroid colors (seed on empties). */
std::vector<RgbPixel>
reduceCentroids(const std::vector<ClusterSum> &sums,
                const std::vector<RgbPixel> &seeds)
{
    std::vector<RgbPixel> centroids(sums.size());
    for (std::size_t c = 0; c < sums.size(); ++c) {
        if (sums[c].count == 0) {
            centroids[c] = seeds[c];
            continue;
        }
        const std::uint64_t n = sums[c].count;
        centroids[c] = RgbPixel{
            static_cast<std::uint8_t>((sums[c].r + n / 2) / n),
            static_cast<std::uint8_t>((sums[c].g + n / 2) / n),
            static_cast<std::uint8_t>((sums[c].b + n / 2) / n)};
    }
    return centroids;
}

/** Recolor a label map with centroid colors. */
RgbImage
recolor(const Image<std::uint8_t> &labels,
        const std::vector<RgbPixel> &centroids)
{
    RgbImage out(labels.width(), labels.height());
    for (std::size_t i = 0; i < labels.size(); ++i)
        out[i] = centroids[labels[i]];
    return out;
}

} // namespace

KmeansResult
kmeansCluster(const RgbImage &src, unsigned k)
{
    const std::vector<RgbPixel> seeds = kmeansSeeds(src, k);
    const CentroidIndex index(seeds);
    Image<std::uint8_t> labels(src.width(), src.height());
    std::vector<ClusterSum> sums(k);
    for (std::size_t i = 0; i < src.size(); ++i) {
        const unsigned c = index.nearest(src[i]);
        labels[i] = static_cast<std::uint8_t>(c);
        sums[c].r += src[i].r;
        sums[c].g += src[i].g;
        sums[c].b += src[i].b;
        ++sums[c].count;
    }
    const std::vector<RgbPixel> centroids = reduceCentroids(sums, seeds);
    return KmeansResult{recolor(labels, centroids), centroids};
}

KmeansAutomaton
makeKmeansAutomaton(RgbImage src, const KmeansConfig &config)
{
    fatalIf(src.empty(), "kmeans: empty input");
    auto automaton = std::make_unique<Automaton>();
    auto assign_buf =
        automaton->makeBuffer<KmeansAssignment>("kmeans.assign");
    auto out_buf = automaton->makeBuffer<KmeansResult>("kmeans.out");

    auto input = std::make_shared<const RgbImage>(std::move(src));
    auto seeds = std::make_shared<const std::vector<RgbPixel>>(
        kmeansSeeds(*input, config.clusters));
    auto index = std::make_shared<const CentroidIndex>(*seeds);
    auto plan = std::make_shared<const TreeSweepPlan>(input->height(),
                                                      input->width());

    const std::uint64_t pixels = input->size();
    // Chunked steps amortize the per-step dispatch over real work.
    constexpr std::uint64_t chunk = 16;
    const std::uint64_t steps = (pixels + chunk - 1) / chunk;
    const std::uint64_t period = std::max<std::uint64_t>(
        1, steps / std::max<std::uint64_t>(1, config.publishCount));

    // Stage 1: diffusive assignment with tree output sampling. Labels
    // are block-filled so every intermediate version covers the whole
    // image; sums accumulate only truly sampled pixels. Partitioned
    // per Section IV-C1 (tree -> cyclic): workers keep their slice's
    // labels and private cluster sums; each worker writes its labels
    // over their disjoint tree regions, and the window leader adds the
    // sums in fixed partition order, keeping every version
    // bit-identical to a single-worker sweep (integer sums commute
    // exactly).
    struct AssignPartial
    {
        std::vector<std::uint8_t> labels;
        std::vector<ClusterSum> sums;
    };
    const unsigned clusters = config.clusters;
    SweepLayout layout;
    layout.steps = steps;
    layout.window = period;
    layout.kind = PartitionKind::cyclic;
    layout.checkpointStride = 16;
    auto assign_stage = std::make_shared<TransformStage<KmeansAssignment>>(
        "assign", assign_buf,
        PartitionedBody<AssignPartial, KmeansAssignment>{
            layout,
            [clusters] {
                return AssignPartial{{}, std::vector<ClusterSum>(clusters)};
            },
            [](AssignPartial &partial) {
                partial.labels.clear();
                partial.sums.assign(partial.sums.size(), ClusterSum{});
            },
            [input, clusters] {
                return KmeansAssignment{
                    Image<std::uint8_t>(input->width(), input->height()),
                    std::vector<ClusterSum>(clusters)};
            },
            [input, index, plan, pixels](std::uint64_t step,
                                         AssignPartial &partial,
                                         StageContext &) {
                const std::uint64_t end =
                    std::min(pixels, (step + 1) * chunk);
                for (std::uint64_t s = step * chunk; s < end; ++s) {
                    const RgbPixel &pixel =
                        input->at(plan->x(s), plan->y(s));
                    const unsigned c = index->nearest(pixel);
                    partial.labels.push_back(static_cast<std::uint8_t>(c));
                    partial.sums[c].r += pixel.r;
                    partial.sums[c].g += pixel.g;
                    partial.sums[c].b += pixel.b;
                    ++partial.sums[c].count;
                }
            },
            [](KmeansAssignment &state,
               std::vector<AssignPartial> &partials, std::uint64_t,
               std::uint64_t) {
                for (const AssignPartial &partial : partials) {
                    for (std::size_t c = 0; c < partial.sums.size(); ++c) {
                        state.sums[c].r += partial.sums[c].r;
                        state.sums[c].g += partial.sums[c].g;
                        state.sums[c].b += partial.sums[c].b;
                        state.sums[c].count += partial.sums[c].count;
                    }
                }
            },
            [plan](KmeansAssignment &state, const AssignPartial &partial,
                   const SweepSlice &slice) {
                fillTreeSlice(state.labels, *plan, chunk, slice,
                              partial.labels);
            }});

    // Stage 2 (non-anytime): reduce sums to centroids and recolor.
    auto reduce_stage = makeFunctionStage<KmeansResult, KmeansAssignment>(
        "reduce", assign_buf, out_buf,
        [seeds](const KmeansAssignment &assignment) {
            const std::vector<RgbPixel> centroids =
                reduceCentroids(assignment.sums, *seeds);
            return KmeansResult{recolor(assignment.labels, centroids),
                                centroids};
        });

    automaton->addStage(std::move(assign_stage), config.workers);
    automaton->addStage(std::move(reduce_stage));
    return KmeansAutomaton{std::move(automaton), std::move(out_buf),
                           std::move(assign_buf)};
}

} // namespace anytime
