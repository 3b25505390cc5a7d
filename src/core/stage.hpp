/**
 * @file
 * Computation stages and their execution context.
 *
 * An anytime automaton breaks an application into computation stages
 * connected in a directed acyclic graph (paper Figure 1). Each stage's
 * run() owns the full lifetime of one worker thread: it reads input
 * snapshots, performs its (possibly anytime) computation, and publishes
 * output versions. Stage bodies must be pure in the sense of Property 1:
 * no semantic state outside their input and output buffers.
 *
 * Interruptibility and pause are cooperative: stage bodies call
 * StageContext::checkpoint() between units of work; it returns false
 * once the automaton is being stopped and blocks while paused.
 */

#ifndef ANYTIME_CORE_STAGE_HPP
#define ANYTIME_CORE_STAGE_HPP

#include <atomic>
#include <cstdint>
#include <memory>
#include <stop_token>
#include <string>
#include <vector>

#include "core/buffer.hpp"
#include "fault/fault.hpp"
#include "support/sync.hpp"
#include "support/thread_annotations.hpp"

namespace anytime {

/**
 * Shared pause/resume gate. The paper's model allows the automaton to be
 * "stopped (or paused)" at any moment while the current output stays
 * valid; pause freezes all stages at their next checkpoint without
 * losing any published version.
 */
class PauseGate
{
  public:
    /** Freeze all stages at their next checkpoint. */
    void
    pause()
    {
        MutexLock lock(mutex);
        paused.store(true, std::memory_order_release);
    }

    /** Release paused stages. */
    void
    resume()
    {
        {
            MutexLock lock(mutex);
            paused.store(false, std::memory_order_release);
        }
        resumed.notifyAll();
    }

    /**
     * True while the gate is closed. Lock-free: every checkpoint asks,
     * and wait() re-checks under the mutex before it blocks.
     */
    bool
    isPaused() const
    {
        return paused.load(std::memory_order_acquire);
    }

    /**
     * Block while paused; wake on resume() or stop.
     * @return False iff @p stop was requested.
     */
    bool
    wait(std::stop_token stop) const
    {
        MutexLock lock(mutex);
        resumed.wait(lock, stop, [&]() ANYTIME_REQUIRES(mutex) {
            return !paused.load(std::memory_order_relaxed);
        });
        return !stop.stop_requested();
    }

  private:
    mutable Mutex mutex;
    mutable CondVar resumed;
    /** Written only under @c mutex, so wait() cannot miss a resume. */
    std::atomic<bool> paused{false};
};

/** Per-stage execution statistics (work-done proxy for energy). */
struct StageStats
{
    /** Fine-grained work units completed (stage-defined meaning). */
    std::atomic<std::uint64_t> steps{0};
    /** Checkpoints taken (cooperative-cancellation granularity). */
    std::atomic<std::uint64_t> checkpoints{0};
};

/**
 * Execution context handed to Stage::run() on each worker thread.
 */
class StageContext
{
  public:
    StageContext(std::stop_token stop, const PauseGate &gate,
                 StageStats &stats, unsigned worker_id,
                 unsigned worker_count, std::string stage_name = "")
        : stop(std::move(stop)), gate(&gate), stats(&stats),
          workerIdValue(worker_id), workerCountValue(worker_count),
          stageNameValue(std::move(stage_name))
    {
    }

    /** Cooperative stop token for blocking waits. */
    const std::stop_token &stopToken() const { return stop; }

    /** True once the automaton is being stopped. */
    bool stopRequested() const { return stop.stop_requested(); }

    /**
     * Checkpoint between units of work: honors pause, counts progress.
     * @return False iff the stage should exit (stop requested).
     */
    bool
    checkpoint()
    {
        const std::uint64_t ordinal =
            stats->checkpoints.fetch_add(1, std::memory_order_relaxed) +
            1;
        // Injection site `stage.body:<stage>`: a checkpoint is the
        // natural fault boundary — it is exactly where the paper lets
        // execution be interrupted, so an injected fault here models
        // an involuntary interruption mid-body.
        ANYTIME_FAULT_POINT("stage.body", stageNameValue, ordinal);
        if (stop.stop_requested())
            return false;
        if (gate->isPaused())
            return gate->wait(stop);
        return true;
    }

    /** Record @p count completed work units (energy proxy). */
    void
    addWork(std::uint64_t count = 1)
    {
        stats->steps.fetch_add(count, std::memory_order_relaxed);
    }

    /** This worker's index within the stage, in [0, workerCount()). */
    unsigned workerId() const { return workerIdValue; }

    /** Number of worker threads running this stage. */
    unsigned workerCount() const { return workerCountValue; }

    /** Name of the stage this context executes ("" for ad-hoc rigs). */
    const std::string &stageName() const { return stageNameValue; }

  private:
    std::stop_token stop;
    const PauseGate *gate;
    StageStats *stats;
    unsigned workerIdValue;
    unsigned workerCountValue;
    std::string stageNameValue;
};

/**
 * Abstract computation stage.
 *
 * run() is invoked once per worker thread and owns the stage's whole
 * execution; multi-worker stages coordinate internally (see the
 * sampling partitions). A stage must publish its final output version
 * before returning (unless stopped early).
 */
class Stage
{
  public:
    explicit Stage(std::string name) : stageName(std::move(name)) {}
    virtual ~Stage() = default;

    Stage(const Stage &) = delete;
    Stage &operator=(const Stage &) = delete;

    /** Stage name for diagnostics and scheduling reports. */
    const std::string &name() const { return stageName; }

    /** Execute this stage on one worker thread. */
    virtual void run(StageContext &ctx) = 0;

    /** Buffers this stage reads (graph edges; may be empty). */
    virtual std::vector<const BufferBase *> reads() const = 0;

    /** The single buffer this stage writes (Property 2). */
    virtual const BufferBase *writes() const = 0;

    /** Execution statistics (shared across this stage's workers). */
    StageStats &stats() { return stageStats; }
    const StageStats &stats() const { return stageStats; }

  private:
    std::string stageName;
    StageStats stageStats;
};

} // namespace anytime

#endif // ANYTIME_CORE_STAGE_HPP
