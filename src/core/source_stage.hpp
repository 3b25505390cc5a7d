/**
 * @file
 * Source (parentless) anytime stages.
 *
 * A source is a TransformStage with no inputs (core/transform_stage.hpp):
 * its empty input set is present and final from the start, so its body
 * runs once and the body's own final version closes the buffer final.
 * The two factories below build the paper's two source constructions
 * as such single-worker emit bodies:
 *
 *  - makeIterativeSource (Section III-B1): the computation is
 *    re-executed at n accuracy levels, each level overwriting the
 *    previous output; the last level is precise.
 *  - makeDiffusiveSource (Section III-B2): each step f_i(I, O_{i-1})
 *    builds on the running output, so no work is redundant. Steps are
 *    indexed by a sample ordinal and applied in ordinal order, so the
 *    step function may mutate a running state that does not commute.
 *
 * A sweep that should scale across workers (Section IV-C1) is a
 * TransformStage<O> constructed with a PartitionedBody instead.
 */

#ifndef ANYTIME_CORE_SOURCE_STAGE_HPP
#define ANYTIME_CORE_SOURCE_STAGE_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "core/buffer.hpp"
#include "core/stage.hpp"
#include "core/transform_stage.hpp"
#include "support/error.hpp"

namespace anytime {

/**
 * Iterative anytime source: n levels, each recomputing the whole output
 * at increasing accuracy (level n-1 must be precise). Each level is
 * preceded by a checkpoint; a level interrupted by a stop is not
 * published.
 *
 * @tparam O        Output value type.
 * @param name      Stage name.
 * @param out       Output buffer (this stage is its sole writer).
 * @param levels    Number of accuracy levels n (>= 1).
 * @param fn        Level body fn(level, out, ctx); must honor
 *                  ctx.checkpoint().
 * @param prototype Initial value each level starts from (sizes the
 *                  output; levels always overwrite, per the iterative
 *                  construction).
 */
template <typename O>
std::shared_ptr<TransformStage<O>>
makeIterativeSource(
    std::string name, std::shared_ptr<VersionedBuffer<O>> out,
    std::size_t levels,
    std::function<void(std::size_t level, O &out, StageContext &ctx)> fn,
    O prototype = O{})
{
    fatalIf(levels == 0, "makeIterativeSource: zero levels");
    return std::make_shared<TransformStage<O>>(
        std::move(name), std::move(out),
        [levels, fn = std::move(fn), prototype = std::move(prototype)](
            Emitter<O> &emitter, StageContext &ctx) {
            for (std::size_t level = 0; level < levels; ++level) {
                if (!ctx.checkpoint())
                    return;
                O work = prototype;
                fn(level, work, ctx);
                // A level interrupted mid-computation is not a valid
                // version; the buffer keeps the previous one (anytime
                // validity).
                if (ctx.stopRequested())
                    return;
                emitter.emit(std::move(work), level + 1 == levels);
            }
        });
}

/**
 * Diffusive anytime source: @p steps incremental updates applied in
 * step order to a running output state, each preceded by a checkpoint
 * and counted as one work unit; published after step 0, every
 * @p publish_period steps after that, and once more (final) after the
 * last step.
 *
 * @tparam O             Output value type.
 * @param name           Stage name.
 * @param out            Output buffer (sole writer: this stage).
 * @param initial        O_0, the initial output value.
 * @param steps          Total number of diffusive steps n (>= 1).
 * @param fn             Step body fn(step, state, ctx): applies update
 *                       x_{p(step)} to the running state.
 * @param publish_period Steps between published versions (>= 1).
 */
template <typename O>
std::shared_ptr<TransformStage<O>>
makeDiffusiveSource(
    std::string name, std::shared_ptr<VersionedBuffer<O>> out, O initial,
    std::uint64_t steps,
    std::function<void(std::uint64_t step, O &state, StageContext &ctx)> fn,
    std::uint64_t publish_period)
{
    fatalIf(steps == 0, "makeDiffusiveSource: zero steps");
    fatalIf(publish_period == 0, "makeDiffusiveSource: zero publish period");
    return std::make_shared<TransformStage<O>>(
        std::move(name), std::move(out),
        [initial = std::move(initial), steps, fn = std::move(fn),
         publish_period](Emitter<O> &emitter, StageContext &ctx) {
            O state = initial;
            for (std::uint64_t step = 0; step < steps; ++step) {
                if (!ctx.checkpoint())
                    return;
                fn(step, state, ctx);
                ctx.addWork();
                const bool is_final = (step + 1 == steps);
                if (is_final || step % publish_period == 0)
                    emitter.emit(state, is_final);
            }
        });
}

} // namespace anytime

#endif // ANYTIME_CORE_SOURCE_STAGE_HPP
