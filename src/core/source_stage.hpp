/**
 * @file
 * Source (parentless) anytime stage templates.
 *
 * IterativeSourceStage implements the paper's general construction
 * (Section III-B1): the computation is re-executed at n accuracy levels,
 * each level overwriting the previous output; the last level is precise.
 *
 * DiffusiveSourceStage implements the refinement of Section III-B2: each
 * step f_i(I, O_{i-1}) builds on the running output, so no work is
 * redundant. Steps are indexed by a sample ordinal and applied in
 * ordinal order on a single worker, so the step function may mutate a
 * running state that does not commute. A sweep that should scale
 * across workers (Section IV-C1) is a PartitionedDiffusiveStage
 * (core/parallel_stage.hpp) instead.
 */

#ifndef ANYTIME_CORE_SOURCE_STAGE_HPP
#define ANYTIME_CORE_SOURCE_STAGE_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

#include "core/buffer.hpp"
#include "core/stage.hpp"
#include "support/error.hpp"

namespace anytime {

/**
 * Iterative anytime source: n levels, each recomputing the whole output
 * at increasing accuracy (level n-1 must be precise).
 *
 * @tparam O Output value type.
 */
template <typename O>
class IterativeSourceStage : public Stage
{
  public:
    /** Computes one accuracy level into a fresh output value. */
    using LevelFn =
        std::function<void(std::size_t level, O &out, StageContext &ctx)>;

    /**
     * @param name      Stage name.
     * @param out       Output buffer (this stage is its sole writer).
     * @param levels    Number of accuracy levels n (>= 1).
     * @param fn        Level body; must honor ctx.checkpoint().
     * @param prototype Initial value each level starts from (sizes the
     *                  output; levels always overwrite, per the
     *                  iterative construction).
     */
    IterativeSourceStage(std::string name,
                         std::shared_ptr<VersionedBuffer<O>> out,
                         std::size_t levels, LevelFn fn, O prototype = O{})
        : Stage(std::move(name)), out(std::move(out)), levels(levels),
          fn(std::move(fn)), prototype(std::move(prototype))
    {
        fatalIf(levels == 0, "IterativeSourceStage: zero levels");
    }

    void
    run(StageContext &ctx) override
    {
        fatalIf(ctx.workerCount() != 1,
                "IterativeSourceStage supports a single worker");
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
            out->publish(std::move(work), level + 1 == levels);
        }
    }

    std::vector<const BufferBase *>
    reads() const override
    {
        return {};
    }

    const BufferBase *writes() const override { return out.get(); }

  private:
    std::shared_ptr<VersionedBuffer<O>> out;
    std::size_t levels;
    LevelFn fn;
    O prototype;
};

/**
 * Diffusive anytime source: @c steps incremental updates applied in
 * step order to a running output state, published after step 0, every
 * @c publishPeriod steps after that, and once more (final) after the
 * last step. Single-worker by contract.
 *
 * @tparam O Output value type.
 */
template <typename O>
class DiffusiveSourceStage : public Stage
{
  public:
    /** Applies update x_{p(step)} to the running output state. */
    using StepFn = std::function<void(std::uint64_t step, O &state,
                                      StageContext &ctx)>;

    /**
     * @param name           Stage name.
     * @param out            Output buffer (sole writer: this stage).
     * @param initial        O_0, the initial output value.
     * @param steps          Total number of diffusive steps n.
     * @param fn             Step body.
     * @param publish_period Steps between published versions (>= 1).
     */
    DiffusiveSourceStage(std::string name,
                         std::shared_ptr<VersionedBuffer<O>> out,
                         O initial, std::uint64_t steps, StepFn fn,
                         std::uint64_t publish_period)
        : Stage(std::move(name)), out(std::move(out)),
          state(std::move(initial)), steps(steps), fn(std::move(fn)),
          publishPeriod(publish_period)
    {
        fatalIf(steps == 0, "DiffusiveSourceStage: zero steps");
        fatalIf(publish_period == 0,
                "DiffusiveSourceStage: zero publish period");
    }

    void
    run(StageContext &ctx) override
    {
        fatalIf(ctx.workerCount() != 1,
                "DiffusiveSourceStage supports a single worker; use a "
                "PartitionedDiffusiveStage to run a sweep on multiple "
                "workers");
        for (std::uint64_t step = 0; step < steps; ++step) {
            if (!ctx.checkpoint())
                return;
            fn(step, state, ctx);
            ctx.addWork();
            const bool is_final = (step + 1 == steps);
            if (is_final || step % publishPeriod == 0)
                out->publish(state, is_final);
        }
    }

    std::vector<const BufferBase *>
    reads() const override
    {
        return {};
    }

    const BufferBase *writes() const override { return out.get(); }

  private:
    std::shared_ptr<VersionedBuffer<O>> out;
    O state;
    std::uint64_t steps;
    StepFn fn;
    std::uint64_t publishPeriod;
};

} // namespace anytime

#endif // ANYTIME_CORE_SOURCE_STAGE_HPP
