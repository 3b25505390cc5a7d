#include "apps/matmul.hpp"

#include "approx/fixed_point.hpp"
#include "core/parallel_stage.hpp"
#include "core/transform_stage.hpp"
#include "simd/simd.hpp"
#include "support/error.hpp"

namespace anytime {

namespace {

/**
 * Wraparound int64 addition. Plane contributions are accumulated MSB
 * first, so intermediate sums can transiently exceed the int64 range
 * even when the telescoped final product fits (and on adversarial
 * inputs the product itself may wrap); two's-complement wraparound
 * keeps every path — exact, truncated, single- and multi-worker —
 * bit-identical instead of UB.
 */
inline std::int64_t
wrapAdd(std::int64_t lhs, std::int64_t rhs)
{
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(lhs) +
                                     static_cast<std::uint64_t>(rhs));
}

void
checkShapes(const IntMatrix &a, const IntMatrix &b)
{
    // Image<T> is (width, height); treat height as rows.
    fatalIf(a.width() != b.height(), "matmul: inner dimensions differ (",
            a.width(), " vs ", b.height(), ")");
}

/**
 * Per-plane occupancy masks of B for MSB-first digit elision: a bit
 * plane set nowhere (globally, or within one row of B) adds exactly
 * zero, so it can be skipped without touching the accumulator.
 */
struct PlaneMasks
{
    std::uint32_t all = 0;
    std::vector<std::uint32_t> rows; // OR over each row kk of B
};

PlaneMasks
buildPlaneMasks(const IntMatrix &b)
{
    PlaneMasks masks;
    masks.rows.assign(b.height(), 0);
    for (std::size_t kk = 0; kk < b.height(); ++kk) {
        for (std::size_t j = 0; j < b.width(); ++j)
            masks.rows[kk] |= static_cast<std::uint32_t>(b.at(j, kk));
        masks.all |= masks.rows[kk];
    }
    return masks;
}

/**
 * Add the contribution of bit plane `bit` of B into the accumulator:
 * C += scale * (A x plane(B, bit)), where plane entries are 0/1 and the
 * top plane carries the two's-complement weight -2^31. Wraparound int64
 * sums commute, so the vectorized masked adds and the elision skips
 * leave every accumulator value bit-identical to the naive loop.
 */
void
addPlane(const IntMatrix &a, const IntMatrix &b, unsigned bit,
         LongMatrix &acc, const PlaneMasks *masks = nullptr)
{
    if (masks != nullptr && ((masks->all >> bit) & 1u) == 0)
        return; // digit elision: plane set nowhere in B
    const std::size_t m = a.height();
    const std::size_t k = a.width();
    const std::size_t n = b.width();
    const std::int64_t scale = (bit == 31)
                                   ? -(std::int64_t(1) << 31)
                                   : (std::int64_t(1) << bit);
    const auto &ops = simd::ops();
    for (std::size_t kk = 0; kk < k; ++kk) {
        if (masks != nullptr && ((masks->rows[kk] >> bit) & 1u) == 0)
            continue; // digit elision: plane empty in this row of B
        const std::int32_t *b_row = b.data().data() + kk * n;
        for (std::size_t i = 0; i < m; ++i) {
            const std::int64_t aik = a.at(kk, i);
            if (aik == 0)
                continue;
            const std::int64_t contribution = static_cast<std::int64_t>(
                static_cast<std::uint64_t>(aik) *
                static_cast<std::uint64_t>(scale));
            ops.maskedAddI64(acc.data().data() + i * n, b_row, n, bit,
                             contribution);
        }
    }
}

} // namespace

LongMatrix
matmulExact(const IntMatrix &a, const IntMatrix &b)
{
    checkShapes(a, b);
    LongMatrix c(b.width(), a.height(), 0);
    for (std::size_t i = 0; i < a.height(); ++i) {
        for (std::size_t kk = 0; kk < a.width(); ++kk) {
            const std::int64_t aik = a.at(kk, i);
            if (aik == 0)
                continue;
            for (std::size_t j = 0; j < b.width(); ++j)
                c.at(j, i) = wrapAdd(
                    c.at(j, i),
                    static_cast<std::int64_t>(
                        static_cast<std::uint64_t>(aik) *
                        static_cast<std::uint64_t>(b.at(j, kk))));
        }
    }
    return c;
}

LongMatrix
matmulTruncated(const IntMatrix &a, const IntMatrix &b,
                unsigned keep_bits)
{
    checkShapes(a, b);
    IntMatrix truncated(b.width(), b.height());
    for (std::size_t i = 0; i < b.size(); ++i)
        truncated[i] = maskLowBits(b[i], 32 - std::min(32u, keep_bits));
    return matmulExact(a, truncated);
}

MatmulAutomaton
makeMatmulAutomaton(IntMatrix a, IntMatrix b, const MatmulConfig &config)
{
    checkShapes(a, b);
    fatalIf(config.planesPerPublish == 0, "matmul: zero publish period");

    auto automaton = std::make_unique<Automaton>();
    auto output = automaton->makeBuffer<LongMatrix>("matmul.out");

    auto lhs = std::make_shared<const IntMatrix>(std::move(a));
    auto rhs = std::make_shared<const IntMatrix>(std::move(b));
    auto masks = std::make_shared<const PlaneMasks>(buildPlaneMasks(*rhs));

    // One diffusive step per bit plane, MSB first (sequential
    // permutation over planes: most significant bits are prioritized).
    // Partitioned cyclically: each worker accumulates its planes of
    // the window into a private matrix, and the leader adds the
    // partials in fixed partition order — int64 sums commute exactly,
    // so every version matches the single-worker run bit for bit.
    // Intra-window parallelism is bounded by planesPerPublish.
    SweepLayout layout;
    layout.steps = 32;
    layout.window = config.planesPerPublish;
    layout.kind = PartitionKind::cyclic;
    layout.checkpointStride = 1;
    const std::size_t rows = lhs->height();
    const std::size_t cols = rhs->width();
    const auto zero = [cols, rows] { return LongMatrix(cols, rows, 0); };
    auto stage = std::make_shared<TransformStage<LongMatrix>>(
        "matmul", output,
        PartitionedBody<LongMatrix, LongMatrix>{
            layout, zero, [](LongMatrix &partial) { partial.fill(0); },
            zero,
            [lhs, rhs, masks](std::uint64_t step, LongMatrix &partial,
                              StageContext &ctx) {
                addPlane(*lhs, *rhs, 31 - static_cast<unsigned>(step),
                         partial, masks.get());
                ctx.addWork(lhs->size());
            },
            [](LongMatrix &state, std::vector<LongMatrix> &partials,
               std::uint64_t, std::uint64_t) {
                for (const LongMatrix &partial : partials) {
                    for (std::size_t i = 0; i < state.size(); ++i)
                        state[i] = wrapAdd(state[i], partial[i]);
                }
            }});

    automaton->addStage(std::move(stage), config.workers);
    return MatmulAutomaton{std::move(automaton), std::move(output)};
}

} // namespace anytime
