/**
 * @file
 * Intra-stage data parallelism: partitioned anytime sweeps.
 *
 * Paper Section IV-C1: a diffusive sweep's permutation sequence can be
 * divided among worker threads — cyclically for the tree permutation
 * (so low-resolution whole-output versions still complete as early as
 * possible), cyclically or in blocks for the LFSR — while keeping the
 * anytime property. This file supplies the pieces the stages build on:
 *
 *  - SweepBarrier: a reusable per-version completion barrier. The last
 *    worker to arrive is elected leader and merges the partials while
 *    the rest block; a version is published only after every partition
 *    has drained its slice of the window (Property 3 is preserved: the
 *    buffer's single writer is the momentary leader, and publishes stay
 *    atomic).
 *  - runPartitionedSweep(): the window loop of the one gang runner,
 *    TransformStage's PartitionedCore (core/transform_stage.hpp), which
 *    runs every PartitionedBody stage, sources and transforms alike.
 *    Each publish period ("window") is sliced with a
 *    CyclicPartition/BlockPartition (SweepSlice), each worker folds its
 *    slice into a private partial, optionally writes its own results
 *    into the shared state in a fill phase (disjoint writes, e.g. tree
 *    regions), and the leader merges any reduction in fixed partition
 *    order — so the published version sequence is bit-identical to a
 *    single-worker run, for every version.
 *
 * All blocking waits take the automaton's stop token, so stop/pause
 * never deadlocks a gang: a worker that exits early leaves the barrier,
 * and departing workers promote any fully-arrived remainder so nobody
 * waits for a leader that will never come.
 */

#ifndef ANYTIME_CORE_PARALLEL_STAGE_HPP
#define ANYTIME_CORE_PARALLEL_STAGE_HPP

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <stop_token>
#include <string>
#include <utility>
#include <vector>

#include "core/buffer.hpp"
#include "core/stage.hpp"
#include "fault/fault.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sampling/partition.hpp"
#include "sampling/permutation.hpp"
#include "support/error.hpp"
#include "support/sync.hpp"
#include "support/thread_annotations.hpp"

namespace anytime {

/**
 * Reusable completion barrier for one gang of stage workers, with an
 * optional stall watchdog.
 *
 * Protocol per window: every worker calls arrive(id, stop); the last
 * arriver returns Outcome::leader *without* blocking, merges the
 * partials, and calls release() to wake the rest (who return
 * Outcome::released). A worker exiting the gang for good calls
 * leave(id); arrive() returning Outcome::stopped has already retracted
 * the arrival, so the caller only needs leave(id) before returning.
 *
 * Watchdog (fault containment): when arrive() is given a nonzero
 * stall timeout and the barrier is still incomplete after it expires,
 * the timed-out waiter *expels* every worker that has not arrived —
 * removing it from the gang exactly as leave() would — and, now being
 * the last arriver, becomes leader so the window completes without
 * the stalled workers. An expelled worker's next arrive()/leave()
 * returns Outcome::expelled / does nothing: it must exit its sweep
 * without touching the gang again. The watchdog never fires while a
 * leader is mid-merge (the barrier must stay closed), and a worker
 * id can only be expelled while it is absent, so the expelled
 * worker's partial is simply excluded from this and later merges.
 */
class SweepBarrier
{
  public:
    enum class Outcome
    {
        /** Last to arrive: merge, then call release(). */
        leader,
        /** Woken by the leader's release(). */
        released,
        /** Woken by a stop request; arrival already retracted. */
        stopped,
        /** This worker was expelled by the watchdog; exit the sweep
         *  without calling leave(). */
        expelled,
    };

    explicit SweepBarrier(unsigned count)
        : participants(count), activeFlags(count, 1), arrivedFlags(count, 0)
    {
        fatalIf(count == 0, "SweepBarrier: zero participants");
    }

    /**
     * Rendezvous; blocks until leader release, stop, or — with a
     * nonzero @p stall_timeout — watchdog expulsion of the laggards.
     */
    Outcome
    arrive(unsigned worker, const std::stop_token &stop,
           std::chrono::nanoseconds stall_timeout =
               std::chrono::nanoseconds::zero())
    {
        MutexLock lock(mutex);
        panicIf(worker >= arrivedFlags.size(),
                "SweepBarrier: worker id out of range");
        if (!activeFlags[worker])
            return Outcome::expelled;
        arrivedFlags[worker] = 1;
        if (++arrivedCount == participants) {
            leaderActive = true;
            return Outcome::leader;
        }
        const std::uint64_t my_generation = generation;
        const auto opened = [&]() ANYTIME_REQUIRES(mutex) {
            return generation != my_generation || promotedLeader;
        };
        bool released;
        if (stall_timeout <= std::chrono::nanoseconds::zero()) {
            released = wake.wait(lock, stop, opened);
        } else {
            for (;;) {
                const auto deadline =
                    std::chrono::steady_clock::now() + stall_timeout;
                released = wake.waitUntil(lock, stop, deadline, opened);
                if (released || stop.stop_requested())
                    break;
                if (!activeFlags[worker])
                    break; // expelled while waiting (spurious path)
                // Timed out. Never expel under an active leader: the
                // barrier must stay closed during its merge.
                if (leaderActive)
                    continue;
                expelAbsentLocked();
                if (arrivedCount == participants) {
                    leaderActive = true;
                    return Outcome::leader;
                }
            }
        }
        if (promotedLeader) {
            // leave() completed this window's arrivals: the first
            // waiter to wake leads it (a stopping leader skips the
            // merge, as any leader does).
            promotedLeader = false;
            return Outcome::leader;
        }
        if (!activeFlags[worker]) {
            // Raced with an expulsion of this very worker: it was not
            // absent (we arrived), so this only happens when a stop
            // retracted us first; treat as expelled to be safe.
            return Outcome::expelled;
        }
        if (!released) {
            // Stop while waiting: retract so a later leader election
            // among the survivors still counts correctly.
            arrivedFlags[worker] = 0;
            --arrivedCount;
            return Outcome::stopped;
        }
        return Outcome::released;
    }

    /** Leader: open the barrier for the next window. */
    void
    release() noexcept
    {
        {
            MutexLock lock(mutex);
            leaderActive = false;
            arrivedCount = 0;
            std::fill(arrivedFlags.begin(), arrivedFlags.end(), 0);
            ++generation;
        }
        wake.notifyAll();
    }

    /**
     * Permanently exit the gang (stop path). If every remaining worker
     * is already blocked in arrive(), no future arrival can elect a
     * leader — promote the first of them to wake to leader, so the
     * window still has exactly one; the rest are released by its
     * release() and observe the stop themselves at their next
     * checkpoint. A no-op for workers the watchdog already expelled.
     */
    void
    leave(unsigned worker)
    {
        MutexLock lock(mutex);
        panicIf(worker >= arrivedFlags.size(),
                "SweepBarrier: worker id out of range");
        if (!activeFlags[worker])
            return; // already expelled; the watchdog did the bookkeeping
        activeFlags[worker] = 0;
        panicIf(participants == 0, "SweepBarrier: leave with no "
                                   "participants");
        --participants;
        if (arrivedFlags[worker]) {
            arrivedFlags[worker] = 0;
            --arrivedCount;
        }
        // While an elected leader is merging outside the lock, the
        // barrier must stay closed: promoting here would release the
        // blocked workers into a race with the leader's merge and its
        // verdict write. The leader's own release() opens the barrier.
        if (!leaderActive && participants > 0 &&
            arrivedCount == participants) {
            leaderActive = true;
            promotedLeader = true;
            lock.unlock();
            wake.notifyAll();
        }
    }

    /** Workers expelled by the watchdog so far. */
    unsigned
    expelledCount() const
    {
        MutexLock lock(mutex);
        return expelledTotal;
    }

    /** Snapshot of which worker ids are still in the gang. */
    std::vector<char>
    activeWorkers() const
    {
        MutexLock lock(mutex);
        return activeFlags;
    }

  private:
    /** Expel every active worker that has not arrived (lock held). */
    void
    expelAbsentLocked() ANYTIME_REQUIRES(mutex)
    {
        bool expelled = false;
        for (std::size_t w = 0; w < activeFlags.size(); ++w) {
            if (activeFlags[w] && !arrivedFlags[w]) {
                activeFlags[w] = 0;
                --participants;
                ++expelledTotal;
                expelled = true;
            }
        }
        // Losing a gang member permanently degrades every later
        // version — exactly the anomaly the flight recorder exists
        // for. The expelling waiter runs under the automaton's trace
        // scope, so the artifact carries the request's trace id.
        if (expelled)
            obs::flightRecorderTrigger("watchdog_expel", 0,
                                       obs::currentTraceContext().traceId);
    }

    mutable Mutex mutex;
    CondVar wake;
    unsigned participants ANYTIME_GUARDED_BY(mutex);
    unsigned arrivedCount ANYTIME_GUARDED_BY(mutex) = 0;
    /** True from leader election in arrive() until its release(). */
    bool leaderActive ANYTIME_GUARDED_BY(mutex) = false;
    /** Set by leave() when it completes the arrivals; the first
     *  waiter to wake clears it and leads the window. */
    bool promotedLeader ANYTIME_GUARDED_BY(mutex) = false;
    std::uint64_t generation ANYTIME_GUARDED_BY(mutex) = 0;
    /** Gang membership by worker id (0 = left or expelled). */
    std::vector<char> activeFlags ANYTIME_GUARDED_BY(mutex);
    /** Arrival state for the current window, by worker id. */
    std::vector<char> arrivedFlags ANYTIME_GUARDED_BY(mutex);
    unsigned expelledTotal ANYTIME_GUARDED_BY(mutex) = 0;
};

/** Shape of a partitioned sweep. */
struct SweepLayout
{
    /** Total diffusive steps n. */
    std::uint64_t steps = 0;
    /** Steps per published version (the publish period). */
    std::uint64_t window = 1;
    /** How each window is sliced among workers (Section IV-C1). */
    PartitionKind kind = PartitionKind::cyclic;
    /** Steps between cooperative checkpoints inside a slice. */
    std::uint64_t checkpointStride = 64;
    /**
     * Watchdog: how long a worker may keep the window barrier
     * incomplete before the waiters expel it and finish without it
     * (fault containment). Zero disables the watchdog (default —
     * identical behavior to the pre-watchdog barrier). Set this well
     * above the worst-case slice time: expulsion is permanent and
     * degrades every later version of the stage's output.
     */
    std::chrono::nanoseconds stallTimeout{0};
};

/**
 * One worker's slice of one window [begin, end) of steps (Section
 * IV-C1): its k-th step, for k < size, is first + k * stride. The
 * window loop runs the slice's steps in that order, and a region fill
 * walks them again in the same order.
 */
struct SweepSlice
{
    /** The window's end (its first step past the window). */
    std::uint64_t end = 0;
    std::uint64_t size = 0;
    std::uint64_t first = 0;
    std::uint64_t stride = 1;

    /** The slice of worker @p worker of @p workers. */
    static SweepSlice
    of(std::uint64_t begin, std::uint64_t end, PartitionKind kind,
       unsigned workers, unsigned worker)
    {
        // Workers beyond the window length get an empty slice but
        // still take part in the window's barriers.
        const SequentialPermutation ordinals(end - begin);
        if (kind == PartitionKind::cyclic) {
            const CyclicPartition part(ordinals, workers, worker);
            return {end, part.size(), begin + part.ordinal(0), workers};
        }
        const BlockPartition part(ordinals, workers, worker);
        return {end, part.size(), begin + part.ordinal(0), 1};
    }

    /** The slice's @p k-th step. */
    std::uint64_t step(std::uint64_t k) const { return first + k * stride; }
};

/** Cached observability handles for one partitioned stage. */
struct SweepObs
{
    /** Interned span names (nullptr disables the span). */
    const char *sliceSpan = nullptr;
    const char *mergeSpan = nullptr;
    /** Registry metrics (nullptr disables the metric). */
    obs::Counter *windows = nullptr;
    obs::Counter *steps = nullptr;
    obs::Gauge *workers = nullptr;
};

/**
 * Shared state of one stage's worker gang: the barrier, one private
 * partial per worker (merged in fixed index order for determinism),
 * and the leader's verdict channel for the just-merged window.
 */
template <typename P>
struct SweepGang
{
    SweepGang(unsigned workers, const std::function<P()> &make,
              SweepObs obs_handles = {})
        : barrier(workers), obs(obs_handles)
    {
        slots.reserve(workers);
        for (unsigned w = 0; w < workers; ++w)
            slots.push_back(Slot{make()});
    }

    /**
     * Degradation contract (DESIGN §12): a worker the watchdog
     * expelled is missing its partition from this and every later
     * window, so every publish after an expulsion must carry the
     * surviving fraction as its QoR bound. Window callbacks call this
     * (leader only) before they publish; the mark is sticky.
     */
    template <typename O>
    void
    markExpelled(VersionedBuffer<O> &out) const
    {
        const unsigned expelled = barrier.expelledCount();
        if (expelled > 0)
            out.markDegraded(1.0 - static_cast<double>(expelled) /
                                       static_cast<double>(slots.size()));
    }

    /**
     * One worker's partial, alone on its cache line(s). A step updates
     * the partial (a running sum, a vector's end pointer); partials
     * packed side by side would bounce one line between the workers'
     * cores on every update, which made each worker of a 4-gang about
     * as slow as one worker doing the whole sweep.
     */
    struct alignas(64) Slot
    {
        P partial;
    };

    SweepBarrier barrier;
    std::vector<Slot> slots;
    SweepObs obs;
    /**
     * Leader verdict for the just-merged window: true when the sweep
     * should be abandoned (stale inputs, or stop). Written by the
     * leader before release(), read by the others after wake-up; the
     * barrier mutex orders both.
     */
    bool abandoned = false;
};

/** How a partitioned sweep ended. */
enum class SweepStatus
{
    /** All windows merged and published; final version out. */
    completed,
    /** Stop requested; this worker has already left the barrier. */
    stopped,
    /** Leader abandoned the sweep (stale inputs); gang still joined. */
    abandoned,
    /** This worker was expelled by the stall watchdog; the rest of
     *  the gang carries the sweep on without it (degraded). */
    expelled,
};

/**
 * The shared window loop: run @p layout.steps diffusive steps on this
 * worker's slice of every window, with a completion barrier and a
 * leader-side merge per window.
 *
 * @param reset   reset(partial): recycle this worker's partial at the
 *                start of each window (capacity is reused).
 * @param step    step(global_step, partial, ctx): fold one diffusive
 *                step into the private partial.
 * @param fill    Optional region fill, fill(partial, slice): after the
 *                window barrier, every worker still in the gang writes
 *                its slice's results into the shared stage state. The
 *                writes of different workers must be disjoint. A second
 *                barrier then closes the window; an empty @p fill skips
 *                this phase and its barrier.
 * @param window  Leader only — window(partials, begin, end): merge all
 *                partials (fixed order 0..k-1) into the stage state
 *                and publish; return false to abandon the sweep.
 *
 * Returns SweepStatus::stopped only after leaving the barrier; on
 * SweepStatus::abandoned the caller is still a barrier participant.
 */
template <typename P, typename ResetFn, typename StepFn, typename WindowFn>
SweepStatus
runPartitionedSweep(
    StageContext &ctx, SweepGang<P> &gang, const SweepLayout &layout,
    ResetFn &&reset, StepFn &&step,
    const std::function<void(P &, const SweepSlice &)> &fill,
    WindowFn &&window)
{
    const unsigned worker = ctx.workerId();
    P &partial = gang.slots[worker].partial;
    for (std::uint64_t begin = 0; begin < layout.steps;
         begin += layout.window) {
        const std::uint64_t end =
            std::min(begin + layout.window, layout.steps);
        const double window_index =
            static_cast<double>(begin / layout.window);
        if (!ctx.checkpoint()) {
            gang.barrier.leave(worker);
            return SweepStatus::stopped;
        }

        reset(partial);
        // This worker's slice of the window (Section IV-C1).
        const SweepSlice slice = SweepSlice::of(
            begin, end, layout.kind, ctx.workerCount(), worker);
        std::uint64_t done = 0;
        bool alive = true;
        {
            std::optional<obs::TraceSpan> span;
            if (obs::tracingEnabled() && gang.obs.sliceSpan)
                span.emplace(gang.obs.sliceSpan, "partition",
                             obs::TraceArg{"worker",
                                           static_cast<double>(worker)},
                             obs::TraceArg{"window", window_index});
            for (std::uint64_t k = 0; k < slice.size && alive; ++k) {
                step(slice.step(k), partial, ctx);
                alive = (++done % layout.checkpointStride != 0) ||
                        ctx.checkpoint();
            }
        }
        if (done > 0) {
            ctx.addWork(done);
            if (gang.obs.steps)
                gang.obs.steps->add(done);
        }
        if (!alive) {
            gang.barrier.leave(worker);
            return SweepStatus::stopped;
        }

        if (fill) {
            // Fill phase. Only workers past this barrier write shared
            // state: a worker the watchdog expels here is still inside
            // its slice and never reaches the fill, so the survivors'
            // writes (and the publish after them) can't race with it.
            switch (gang.barrier.arrive(worker, ctx.stopToken(),
                                        layout.stallTimeout)) {
            case SweepBarrier::Outcome::stopped:
                gang.barrier.leave(worker);
                return SweepStatus::stopped;
            case SweepBarrier::Outcome::expelled:
                return SweepStatus::expelled;
            case SweepBarrier::Outcome::leader:
                gang.barrier.release();
                break;
            case SweepBarrier::Outcome::released:
                break;
            }
            // The fill is short, bounded work with no checkpoint. It
            // is this worker's own work on its slice, so it is traced
            // as a slice span (its window arg is "fill_window").
            std::optional<obs::TraceSpan> span;
            if (obs::tracingEnabled() && gang.obs.sliceSpan)
                span.emplace(gang.obs.sliceSpan, "partition",
                             obs::TraceArg{"worker",
                                           static_cast<double>(worker)},
                             obs::TraceArg{"fill_window", window_index});
            fill(partial, slice);
        }

        // The window barrier. After a fill phase it has no watchdog:
        // every member has passed the first barrier and runs only its
        // bounded fill, and expelling a worker mid-fill would let it
        // write the state while the leader publishes.
        switch (gang.barrier.arrive(
            worker, ctx.stopToken(),
            fill ? std::chrono::nanoseconds::zero() : layout.stallTimeout)) {
        case SweepBarrier::Outcome::stopped:
            gang.barrier.leave(worker);
            return SweepStatus::stopped;
        case SweepBarrier::Outcome::expelled:
            // The watchdog removed this worker while it was stalled;
            // the bookkeeping is done, so just exit the sweep.
            return SweepStatus::expelled;
        case SweepBarrier::Outcome::leader: {
            // An incomplete gang must never publish: skip the merge
            // when stopping (the buffer keeps its previous version,
            // which stays valid — the anytime guarantee).
            bool keep = false;
            if (!ctx.stopRequested()) {
                // Injection site `sweep.merge:<stage>`: a fault in
                // the leader's merge exercises Property 3 under the
                // worst conditions (barrier closed, gang blocked).
                ANYTIME_FAULT_POINT("sweep.merge", ctx.stageName(),
                                    begin / layout.window);
                std::optional<obs::TraceSpan> span;
                if (obs::tracingEnabled() && gang.obs.mergeSpan)
                    span.emplace(
                        gang.obs.mergeSpan, "partition",
                        obs::TraceArg{"window", window_index},
                        obs::TraceArg{"steps",
                                      static_cast<double>(end - begin)});
                // Merge the surviving partials, moved out of their
                // slots and back in ascending worker order. Expelled
                // workers may still be scribbling on their own
                // partials, so the merge never reads those.
                const auto active = gang.barrier.activeWorkers();
                std::vector<P> survivors;
                std::vector<std::size_t> indices;
                survivors.reserve(gang.slots.size());
                indices.reserve(gang.slots.size());
                for (std::size_t w = 0; w < gang.slots.size(); ++w) {
                    if (active[w]) {
                        survivors.push_back(std::move(gang.slots[w].partial));
                        indices.push_back(w);
                    }
                }
                keep = window(survivors, begin, end);
                for (std::size_t i = 0; i < indices.size(); ++i)
                    gang.slots[indices[i]].partial = std::move(survivors[i]);
            }
            gang.abandoned = !keep;
            gang.barrier.release();
            if (ctx.stopRequested()) {
                gang.barrier.leave(worker);
                return SweepStatus::stopped;
            }
            if (!keep)
                return SweepStatus::abandoned;
            if (gang.obs.windows)
                gang.obs.windows->add(1);
            break;
        }
        case SweepBarrier::Outcome::released:
            if (gang.abandoned)
                return SweepStatus::abandoned;
            break;
        }
    }
    return SweepStatus::completed;
}

namespace detail {

/** Intern the stage's span names and look up the shared metrics. */
inline SweepObs
makeSweepObs(const std::string &stage_name)
{
    SweepObs handles;
    handles.sliceSpan = obs::internName(stage_name + ".slice");
    handles.mergeSpan = obs::internName(stage_name + ".merge");
    auto &registry = obs::defaultRegistry();
    handles.windows = &registry.counter(
        "anytime_partition_windows_total",
        "Partitioned sweep windows merged and published");
    handles.steps = &registry.counter(
        "anytime_partition_steps_total",
        "Diffusive steps executed by partition workers");
    handles.workers = &registry.gauge(
        "anytime_partition_workers",
        "Worker threads currently inside partitioned sweeps");
    return handles;
}

/** Scope guard bumping the partition-worker gauge. */
class WorkerGaugeGuard
{
  public:
    explicit WorkerGaugeGuard(obs::Gauge *gauge) : gauge(gauge)
    {
        if (gauge)
            gauge->add(1.0);
    }
    ~WorkerGaugeGuard()
    {
        if (gauge)
            gauge->add(-1.0);
    }
    WorkerGaugeGuard(const WorkerGaugeGuard &) = delete;
    WorkerGaugeGuard &operator=(const WorkerGaugeGuard &) = delete;

  private:
    obs::Gauge *gauge;
};

} // namespace detail

} // namespace anytime

#endif // ANYTIME_CORE_PARALLEL_STAGE_HPP
