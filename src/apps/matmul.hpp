/**
 * @file
 * Anytime fixed-point matrix multiplication (extension app).
 *
 * Generalizes the paper's Figure 6 reduced-precision dot product to a
 * whole matrix product: C = A x B is computed bit plane by bit plane of
 * B, most significant first (input sampling over the bits of the
 * operand with a sequential permutation, Section III-B2). Each plane's
 * contribution adds usefully to the accumulator — a diffusive stage
 * with no redundant work relative to classic bit-serial / distributed
 * arithmetic — and after all 32 planes the product is exact, including
 * the two's-complement sign plane.
 *
 * This is the library's demonstration that the anytime constructions
 * are not image-specific: the same partitioned diffusive machinery
 * hosts a linear-algebra kernel.
 */

#ifndef ANYTIME_APPS_MATMUL_HPP
#define ANYTIME_APPS_MATMUL_HPP

#include <cstdint>
#include <memory>

#include "core/automaton.hpp"
#include "image/image.hpp"

namespace anytime {

/** Dense row-major integer matrices (reusing the 2-D container). */
using IntMatrix = Image<std::int32_t>;
using LongMatrix = Image<std::int64_t>;

/** Exact product C = A x B (A is m x k, B is k x n, C is m x n). */
LongMatrix matmulExact(const IntMatrix &a, const IntMatrix &b);

/**
 * Product with B truncated to its top @p keep_bits bits (two's
 * complement; keep_bits == 32 is exact). The iterative counterpart of
 * the diffusive bit-plane refinement.
 */
LongMatrix matmulTruncated(const IntMatrix &a, const IntMatrix &b,
                           unsigned keep_bits);

/** Anytime matmul automaton configuration. */
struct MatmulConfig
{
    /** Publish the accumulator every this many bit planes. */
    unsigned planesPerPublish = 1;
    /** Worker threads for the plane stage (planes commute). */
    unsigned workers = 1;
};

/** Automaton bundle for the anytime matrix product. */
struct MatmulAutomaton
{
    std::unique_ptr<Automaton> automaton;
    std::shared_ptr<VersionedBuffer<LongMatrix>> output;
};

/**
 * Build the single-diffusive-stage anytime matmul: 32 steps, one bit
 * plane of B each, MSB first.
 */
MatmulAutomaton makeMatmulAutomaton(IntMatrix a, IntMatrix b,
                                    const MatmulConfig &config = {});

} // namespace anytime

#endif // ANYTIME_APPS_MATMUL_HPP
