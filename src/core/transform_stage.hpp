/**
 * @file
 * The asynchronous-pipeline stage: zero or more typed inputs, one
 * output buffer.
 *
 * Paper Section III-C1: a child stage g simply processes whichever
 * parent output version is currently in the buffer. No synchronization
 * with the parent is needed for correctness; the only requirement is
 * that g eventually runs on the parent's final version F_n, which the
 * run loop guarantees by re-processing until all inputs are final.
 * Child stages may themselves be anytime: the body can emit several
 * output versions per input version, with the buffer-final flag set only
 * when the inputs were final AND the body emitted its own final level.
 *
 * A source (Section III-A: a stage with no parents) is the same class
 * with an empty input set, which is present and final from the start:
 * its body runs once, on final inputs. The source factories in
 * core/source_stage.hpp build the iterative and diffusive sources this
 * way, and a PartitionedBody makes any stage, source or transform, a
 * Section IV-C1 gang through the one partitioned runner below.
 */

#ifndef ANYTIME_CORE_TRANSFORM_STAGE_HPP
#define ANYTIME_CORE_TRANSFORM_STAGE_HPP

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <tuple>
#include <utility>

#include "core/buffer.hpp"
#include "core/parallel_stage.hpp"
#include "core/signal.hpp"
#include "core/stage.hpp"
#include "support/error.hpp"

namespace anytime {

/**
 * Partitioned (multi-worker) transform body: the stage's anytime sweep
 * expressed as a partitionable diffusive computation instead of an
 * opaque emit loop, so the run loop can slice each publish window among
 * k workers per Section IV-C1 and merge deterministically.
 *
 * Per consumed input-version set: the leader creates a fresh output
 * state with init(); every window of layout.steps is sliced among the
 * workers, each folding step() results into its private partial; with
 * a fill(), every worker then writes its own results into the state;
 * the leader merges any reduction in fixed order with merge() and
 * publishes the state. A sweep over non-final inputs is abandoned as
 * soon as fresher inputs supersede it (the re-run on final inputs
 * always completes, so the precise output is still guaranteed). With no inputs (a source)
 * there is one input-version set, so init() runs once and the stage
 * sweeps once.
 *
 * @tparam P  Per-worker partial type.
 * @tparam O  Output value type.
 * @tparam Is Input value types (possibly none).
 */
template <typename P, typename O, typename... Is>
struct PartitionedBody
{
    /** Sweep shape; steps and window are per input-version set. */
    SweepLayout layout;
    /** Construct one (empty) per-worker partial. */
    std::function<P()> makePartial;
    /** Recycle a partial at the start of a window. */
    std::function<void(P &)> resetPartial;
    /** Fresh output state for one consumed input-version set. */
    std::function<O(const Is &...)> init;
    /** Fold diffusive step @c step into this worker's partial. */
    std::function<void(const Is &..., std::uint64_t step, P &partial,
                       StageContext &ctx)>
        step;
    /**
     * Leader: merge partials (order 0..k-1) into the output state
     * before each publish. Optional: a body whose results all go
     * through fill() has no reduction to merge.
     */
    std::function<void(O &state, std::vector<P> &partials,
                       std::uint64_t begin, std::uint64_t end)>
        merge;
    /**
     * Optional region fill: every worker writes the results of its own
     * slice of a window into the output state, each worker a disjoint
     * part, so no leader replays them. Runs after the window barrier,
     * on the workers still in the gang, before merge() and the publish.
     */
    std::function<void(O &state, const P &partial, const SweepSlice &slice)>
        fill = {};
};

/**
 * Publication handle passed to transform bodies. Combines the stage's
 * own anytime finality with the finality of the inputs the version was
 * computed from (only g_m(F_n) may be buffer-final).
 *
 * @tparam O Output value type.
 */
template <typename O>
class Emitter
{
  public:
    Emitter(VersionedBuffer<O> &buffer, bool inputs_final,
            std::function<bool()> stale_check = {})
        : buffer(&buffer), finalInputs(inputs_final),
          staleCheck(std::move(stale_check))
    {
    }

    /**
     * Publish one output version.
     *
     * @param value       The output version.
     * @param stage_final True iff this is the body's own final
     *                    (most accurate) version for this input.
     */
    void
    emit(O value, bool stage_final)
    {
        buffer->publish(std::move(value), finalInputs && stage_final);
        ++emitted;
    }

    /** True iff the inputs this body invocation saw were all final. */
    bool inputsFinal() const { return finalInputs; }

    /**
     * True iff newer input versions have been published since this
     * body invocation started. A long anytime body may abandon its
     * sweep when stale (and not final): the run loop will re-invoke it
     * on the fresher inputs, and the precise output is still guaranteed
     * because the final inputs are never stale.
     */
    bool
    stale() const
    {
        return staleCheck && staleCheck();
    }

    /** Versions emitted by this body invocation so far. */
    std::uint64_t count() const { return emitted; }

  private:
    VersionedBuffer<O> *buffer;
    bool finalInputs;
    std::function<bool()> staleCheck;
    std::uint64_t emitted = 0;
};

/**
 * Asynchronous-pipeline stage with zero or more typed inputs.
 *
 * The body is invoked with the *latest* snapshot of every input each
 * time any input changes; intermediate input versions may be skipped if
 * the body is still busy (by design — data diffuses, it does not queue).
 * With no inputs the body runs exactly once, with inputsFinal() true.
 *
 * @tparam O  Output value type.
 * @tparam Is Input value types (possibly none).
 */
template <typename O, typename... Is>
class TransformStage : public Stage
{
  public:
    /** Body: consume input values, emit output versions. */
    using ProcessFn = std::function<void(const Is &..., Emitter<O> &,
                                         StageContext &)>;

    TransformStage(std::string name,
                   std::shared_ptr<VersionedBuffer<Is>>... inputs,
                   std::shared_ptr<VersionedBuffer<O>> output,
                   ProcessFn fn)
        : Stage(std::move(name)), ins(std::move(inputs)...),
          out(std::move(output)), fn(std::move(fn))
    {
        observeInputs();
    }

    /**
     * Partitioned-body constructor: the sweep runs on however many
     * workers the stage is placed with, each window divided per
     * Section IV-C1 and merged deterministically (every published
     * version is bit-identical to a single-worker run).
     */
    template <typename P>
    TransformStage(std::string name,
                   std::shared_ptr<VersionedBuffer<Is>>... inputs,
                   std::shared_ptr<VersionedBuffer<O>> output,
                   PartitionedBody<P, O, Is...> body)
        : Stage(std::move(name)), ins(std::move(inputs)...),
          out(std::move(output))
    {
        fatalIf(body.layout.steps == 0, "TransformStage: zero sweep steps");
        fatalIf(body.layout.window == 0,
                "TransformStage: zero publish window");
        fatalIf(body.layout.checkpointStride == 0,
                "TransformStage: zero checkpoint stride");
        observeInputs();
        auto core = std::make_shared<PartitionedCore<P>>(
            std::move(body), detail::makeSweepObs(this->name()));
        partitionedRun = [this, core](StageContext &ctx) {
            core->run(*this, ctx);
        };
    }

    void
    run(StageContext &ctx) override
    {
        // The multi-worker dispatch: a partitioned body coordinates any
        // worker count through its gang barrier.
        if (partitionedRun) {
            partitionedRun(ctx);
            return;
        }
        fatalIf(ctx.workerCount() != 1,
                "TransformStage with an emit-based body is single-worker; "
                "construct it with a PartitionedBody to run on multiple "
                "workers");
        std::uint64_t seen_signal = 0;
        InputMark processed;
        for (;;) {
            if (!roundCheckpoint(ctx))
                return;
            const InputRound round = inputRound(processed);
            if (round.action == InputAction::finish)
                return;
            if (round.action == InputAction::wait) {
                seen_signal = signal.wait(seen_signal, ctx.stopToken());
                continue;
            }
            const std::uint64_t version_sum = round.mark.versionSum;
            Emitter<O> emitter(*out, round.mark.final, [this, version_sum] {
                return inputVersionSum() > version_sum;
            });
            std::apply(
                [&](const auto &...s) { fn(*s.value..., emitter, ctx); },
                round.snaps);
            if (ctx.stopRequested())
                return;
            if (round.mark.final)
                return; // g(F_n) done: precise output published
            processed = round.mark;
        }
    }

    std::vector<const BufferBase *>
    reads() const override
    {
        std::vector<const BufferBase *> result;
        std::apply([&](const auto &...in) { (result.push_back(in.get()), ...); },
                   ins);
        return result;
    }

    const BufferBase *writes() const override { return out.get(); }

  private:
    /**
     * The checkpoint before an input round. A stage without inputs has
     * a single round, and its body or sweep checkpoints before its
     * first unit of work, so the round adds none: a source's checkpoint
     * ordinals (which fault plans count) are its body's own.
     */
    static bool
    roundCheckpoint(StageContext &ctx)
    {
        if constexpr (sizeof...(Is) == 0)
            return !ctx.stopRequested();
        else
            return ctx.checkpoint();
    }

    /** Wake this stage whenever any input publishes. */
    void
    observeInputs()
    {
        std::apply(
            [this](auto &...in) {
                (in->addObserver([this](const auto &) { signal.notify(); }),
                 ...);
            },
            ins);
    }

    /** Version sum and finality of one input-version set. */
    struct InputMark
    {
        std::uint64_t versionSum = 0;
        bool final = false;
    };

    /** What one look at the inputs calls for. */
    enum class InputAction
    {
        /** New input: run the body (or sweep) on @c snaps. */
        process,
        /** Nothing new yet: sleep on the input change signal. */
        wait,
        /** Done: the final inputs were processed, or no input will
         *  ever arrive and the output was closed degraded. */
        finish,
    };

    struct InputRound
    {
        InputAction action = InputAction::wait;
        std::tuple<Snapshot<Is>...> snaps;
        InputMark mark;
    };

    /**
     * The one input rule both run paths share: snapshot every input
     * and compare against the @p processed input set. A finality
     * change at an unchanged version sum is new input too — a degraded
     * close (markDegradedFinal) makes an input final without a new
     * version, and that terminal transition must still be processed.
     * On process, input degradation is propagated to the output first.
     */
    InputRound
    inputRound(const InputMark &processed)
    {
        InputRound round;
        round.snaps = std::apply(
            [](auto &...in) { return std::make_tuple(in->read()...); }, ins);
        const bool all_present = std::apply(
            [](const auto &...s) { return ((s.value != nullptr) && ...); },
            round.snaps);
        round.mark.versionSum = std::apply(
            [](const auto &...s) {
                return (std::uint64_t{0} + ... + s.version);
            },
            round.snaps);
        round.mark.final = std::apply(
            [](const auto &...s) { return (s.final && ...); }, round.snaps);
        if (all_present && (round.mark.versionSum != processed.versionSum ||
                            round.mark.final != processed.final)) {
            // Degradation is sticky upstream, so it is sticky here:
            // anything computed from a degraded input is itself
            // degraded, bounded by the weakest input.
            propagateInputDegradation(round.snaps);
            round.action = InputAction::process;
        } else if (!all_present && round.mark.final) {
            // Containment cascade: a quarantined upstream stage closed
            // its buffer with no version ever published. No input will
            // ever arrive, so this stage can't compute anything either
            // — close our own output in degraded mode (keeping whatever
            // we already published) instead of waiting forever.
            out->markDegradedFinal(0.0);
            round.action = InputAction::finish;
        } else {
            round.action = (all_present && round.mark.final)
                               ? InputAction::finish
                               : InputAction::wait;
        }
        return round;
    }

    /** Sum of the current input buffer versions. */
    std::uint64_t
    inputVersionSum() const
    {
        return std::apply(
            [](const auto &...in) {
                return (std::uint64_t{0} + ... + in->version());
            },
            ins);
    }

    /** Mark the output degraded if any input snapshot is. */
    void
    propagateInputDegradation(const std::tuple<Snapshot<Is>...> &snaps)
    {
        bool any_degraded = false;
        double bound = 1.0;
        std::apply(
            [&](const auto &...s) {
                (..., (s.degraded
                           ? (any_degraded = true,
                              bound = std::min(bound, s.qorBound))
                           : bound));
            },
            snaps);
        if (any_degraded)
            out->markDegraded(bound);
    }

    /**
     * Gang-coordinated run loop for a PartitionedBody. All workers move
     * in lockstep through decision rounds: a barrier elects a leader
     * that snapshots the inputs and decides whether to sweep, wait for
     * fresher input, or finish; the sweep itself reuses the shared
     * partitioned window loop. All cross-worker state below is written
     * only by the momentary leader between its election and release(),
     * and read by the others after wake-up — the barrier mutex orders
     * every handoff.
     */
    template <typename P>
    class PartitionedCore
    {
      public:
        PartitionedCore(PartitionedBody<P, O, Is...> body_in,
                        SweepObs obs_handles)
            : body(std::move(body_in)), obsHandles(obs_handles)
        {
        }

        void
        run(TransformStage &stage, StageContext &ctx)
        {
            std::call_once(gangOnce, [&] {
                gang = std::make_unique<SweepGang<P>>(
                    ctx.workerCount(), body.makePartial, obsHandles);
            });
            detail::WorkerGaugeGuard guard(obsHandles.workers);
            const unsigned worker = ctx.workerId();
            std::uint64_t seen_signal = 0;
            for (;;) {
                if (!roundCheckpoint(ctx)) {
                    gang->barrier.leave(worker);
                    return;
                }
                // Decision rounds never use the stall watchdog: worker
                // 0 legitimately sleeps on the input signal here, and
                // expelling it for that would be a false positive. The
                // watchdog applies inside the bounded sweep windows.
                switch (gang->barrier.arrive(worker, ctx.stopToken())) {
                case SweepBarrier::Outcome::stopped:
                    gang->barrier.leave(worker);
                    return;
                case SweepBarrier::Outcome::expelled:
                    return; // watchdog removed us during a sweep
                case SweepBarrier::Outcome::leader:
                    decide(stage);
                    gang->barrier.release();
                    break;
                case SweepBarrier::Outcome::released:
                    break;
                }

                if (decision == InputAction::finish)
                    return; // g(F_n) done: precise output published
                if (decision == InputAction::wait) {
                    // One worker sleeps on the change signal; the rest
                    // park at the next barrier until it arrives there.
                    if (worker == waiterId)
                        seen_signal = stage.signal.wait(seen_signal,
                                                        ctx.stopToken());
                    continue;
                }

                std::function<void(P &, const SweepSlice &)> fill;
                if (body.fill)
                    fill = [&](P &partial, const SweepSlice &slice) {
                        body.fill(*state, partial, slice);
                    };
                const SweepStatus status = runPartitionedSweep(
                    ctx, *gang, body.layout, body.resetPartial,
                    [&](std::uint64_t s, P &partial, StageContext &c) {
                        std::apply(
                            [&](const auto &...snap) {
                                body.step(*snap.value..., s, partial, c);
                            },
                            snaps);
                    },
                    fill,
                    [&](std::vector<P> &partials, std::uint64_t begin,
                        std::uint64_t end) {
                        gang->markExpelled(*stage.out);
                        if (body.merge)
                            body.merge(*state, partials, begin, end);
                        const bool last = (end == body.layout.steps);
                        stage.out->publish(*state, last && sweep.final);
                        if (last) {
                            processed = sweep;
                            return true;
                        }
                        // Fresher (non-final) inputs supersede this
                        // sweep: abandon it after the publish; the
                        // next round re-reads the inputs.
                        return sweep.final ||
                               stage.inputVersionSum() == sweep.versionSum;
                    });
                if (status == SweepStatus::stopped)
                    return; // the sweep already left the barrier
                if (status == SweepStatus::expelled)
                    return; // expelled workers never rejoin the gang
                if (status == SweepStatus::completed && sweep.final)
                    return; // g(F_n) done: precise output published
                // Otherwise decide again on fresh input.
            }
        }

      private:
        /** Leader only: run the input round and prepare the sweep. */
        void
        decide(TransformStage &stage)
        {
            InputRound round = stage.inputRound(processed);
            decision = round.action;
            if (decision == InputAction::wait) {
                // The waiter is the lowest *active* worker, so an
                // expelled worker 0 can't leave the round spinning
                // with nobody asleep.
                const auto active = gang->barrier.activeWorkers();
                waiterId = static_cast<unsigned>(
                    std::find(active.begin(), active.end(), 1) -
                    active.begin());
            }
            if (decision != InputAction::process)
                return;
            snaps = std::move(round.snaps);
            sweep = round.mark;
            state.emplace(std::apply(
                [&](const auto &...s) { return body.init(*s.value...); },
                snaps));
        }

        PartitionedBody<P, O, Is...> body;
        SweepObs obsHandles;
        std::once_flag gangOnce;
        std::unique_ptr<SweepGang<P>> gang;
        // Leader-owned round state (barrier-ordered handoffs).
        InputAction decision = InputAction::wait;
        unsigned waiterId = 0;
        std::tuple<Snapshot<Is>...> snaps;
        InputMark sweep;
        InputMark processed;
        std::optional<O> state;
    };

    std::tuple<std::shared_ptr<VersionedBuffer<Is>>...> ins;
    std::shared_ptr<VersionedBuffer<O>> out;
    ProcessFn fn;
    std::function<void(StageContext &)> partitionedRun;
    ChangeSignal signal;
};

/**
 * Convenience non-anytime transform: a pure function applied once per
 * consumed input version (n = 1 in the paper's terms; the pipeline
 * supports non-anytime stages transparently).
 */
template <typename O, typename... Is>
std::shared_ptr<TransformStage<O, Is...>>
makeFunctionStage(std::string name,
                  std::shared_ptr<VersionedBuffer<Is>>... inputs,
                  std::shared_ptr<VersionedBuffer<O>> output,
                  std::function<O(const Is &...)> fn)
{
    return std::make_shared<TransformStage<O, Is...>>(
        std::move(name), std::move(inputs)..., std::move(output),
        [fn = std::move(fn)](const Is &...in, Emitter<O> &emitter,
                             StageContext &) {
            emitter.emit(fn(in...), true);
        });
}

} // namespace anytime

#endif // ANYTIME_CORE_TRANSFORM_STAGE_HPP
