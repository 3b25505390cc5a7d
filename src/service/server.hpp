/**
 * @file
 * AnytimeServer: an in-process anytime serving runtime.
 *
 * Accepts many concurrent requests — each a (pipeline factory, input,
 * deadline, min quality) tuple — and multiplexes them over a bounded
 * WorkerPool of recyclable executor threads instead of spawning fresh
 * threads per request. One scheduler thread owns all service state and
 * runs an event loop over five event sources: submissions, pipeline
 * completions (Automaton done callbacks), finished pipeline builds,
 * deadline expiry, and quality-probe polls. Pipeline factories run on
 * a dedicated builder thread, never on the scheduler: a factory takes
 * real time (milliseconds for the image pipelines), and building
 * inline would starve deadline enforcement for everything already
 * running — under a dispatch storm a tight-deadline request could run
 * all the way to precise before the scheduler got to stop it.
 *
 * Scheduling policy:
 *  - dispatch is earliest-deadline-first; a request only starts when
 *    its whole stage-worker gang fits in the free pool slots (partial
 *    gangs could stall forever, see worker_pool.hpp);
 *  - every running request is hard-stopped at its deadline; thanks to
 *    the anytime model the response always carries a valid snapshot
 *    (possibly empty-quality when the deadline precedes the first
 *    publish);
 *  - a request with a positive minQuality is stopped as soon as its
 *    progress probe reaches that floor while a backlog exists —
 *    graceful degradation that trades its surplus accuracy for the
 *    backlog's latency;
 *  - admission control sheds at submission when the queue is at
 *    capacity or when the EWMA service-time model predicts the request
 *    would still be queued at its deadline, so overload degrades into
 *    prompt shed responses, never into hangs or silent misses.
 */

#ifndef ANYTIME_SERVICE_SERVER_HPP
#define ANYTIME_SERVICE_SERVER_HPP

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/worker_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "service/brownout.hpp"
#include "service/metrics.hpp"
#include "service/request.hpp"
#include "support/stopwatch.hpp"
#include "support/sync.hpp"
#include "support/thread_annotations.hpp"

namespace anytime {

/** Serving-runtime tuning knobs. */
struct ServerConfig
{
    /** Executor pool size (stage-worker slots shared by all requests). */
    unsigned workers = 4;
    /** Admission: maximum queued (accepted, undispatched) requests. */
    std::size_t maxQueueDepth = 64;
    /** Admission: shed when the EWMA model predicts a deadline miss. */
    bool predictiveShedding = true;
    /** Registry the server publishes live counters/gauges/histograms
     *  into; nullptr means obs::defaultRegistry(). */
    obs::MetricsRegistry *metricsRegistry = nullptr;

    // --- Fault tolerance (see DESIGN.md section 12) ---

    /**
     * Stage-failure policy applied to every dispatched pipeline.
     * Quarantine (the default) lets a faulting pipeline terminate with
     * its last good versions so the degradation policy below can
     * salvage the request; stopAll restores the strict fail-fast
     * behavior (any stage fault fails the request).
     */
    FaultPolicy pipelineFaultPolicy = FaultPolicy::quarantine;
    /** Retries of a *failed pipeline build* before the request fails
     *  (the factory threw or returned no automaton). */
    unsigned buildRetryLimit = 2;
    /**
     * Circuit breaker: consecutive failures of one pipeline name
     * before its circuit opens and submissions are shed for
     * circuitCooldown. 0 disables the breaker. After the cooldown the
     * circuit is implicitly half-open: the next submission is
     * admitted, a success closes the circuit, a failure re-opens it
     * immediately.
     */
    unsigned circuitFailureBudget = 5;
    /** How long an open circuit sheds before admitting a probe. */
    std::chrono::nanoseconds circuitCooldown =
        std::chrono::milliseconds(250);

    // --- Overload robustness (see DESIGN.md section 17) ---

    /**
     * Brownout controller: discrete quality-degradation levels that
     * absorb overload before any request is hard-shed. While enabled
     * and below L2, EWMA predictive shedding is suppressed — the
     * degradation knobs are the first line of defense, the shed the
     * last. Disabled by default (binary EWMA shedding as before).
     */
    BrownoutConfig brownout;
};

/** A submitted request's handle: its id (for cancel()) + response. */
struct Submission
{
    /** Server-assigned request id (nonzero; stable for the request's
     *  lifetime). Feed to AnytimeServer::cancel(). */
    std::uint64_t id = 0;
    std::future<ServiceResponse> response;
};

/** In-process anytime serving runtime. */
class AnytimeServer
{
  public:
    explicit AnytimeServer(ServerConfig config = {});

    /** Cancels pending requests, stops running ones, joins everything. */
    ~AnytimeServer();

    AnytimeServer(const AnytimeServer &) = delete;
    AnytimeServer &operator=(const AnytimeServer &) = delete;

    /**
     * Submit a request. Always returns a future that will be fulfilled
     * — immediately for shed/expired requests, at stop/completion for
     * dispatched ones. Never blocks on pipeline execution.
     */
    std::future<ServiceResponse> submit(ServiceRequest request);

    /** submit() that also hands back the request id for cancel(). */
    Submission submitTracked(ServiceRequest request);

    /**
     * Cancel request @p id (the disconnect-as-cancel path). A queued
     * request is answered `cancelled` immediately (a pipeline being
     * built for it is discarded when the builder finishes); a running
     * one is cooperatively stopped and harvested as `cancelled`. Either
     * way the accounting identity holds — a cancelled request lands in
     * exactly one bucket.
     *
     * @return True iff the id was found queued or running (false: never
     *         existed, already responded, or already stopping).
     */
    bool cancel(std::uint64_t id);

    /** Block until every accepted request has been responded to. */
    void drain();

    /**
     * Begin a graceful drain (the SIGTERM path): new submissions are
     * rejected promptly (`cancelled`), accepted work keeps dispatching
     * and running, and when @p grace expires every leftover pipeline is
     * stopped and harvested — precise if it finished, `degraded` if it
     * published anything (the anytime salvage), `cancelled` only when
     * it never produced output. Non-blocking and idempotent; pair with
     * drain() to wait for the queue to empty. The accounting identity
     * holds throughout: every request lands in exactly one bucket.
     */
    void beginDrain(std::chrono::nanoseconds grace);

    /** True once beginDrain() ran and everything has been answered. */
    bool drainComplete() const;

    /** Current brownout level (0 when the controller is disabled). */
    int brownoutLevel() const;

    /** The active brownout level's degradation policy (by value). */
    BrownoutLevelPolicy brownoutPolicy() const;

    /** The brownout controller (level/pressure reads, shed/cap
     *  accounting from the network door). */
    BrownoutController &brownoutControl() { return *brownout; }
    const BrownoutController &brownoutControl() const
    {
        return *brownout;
    }

    /** Copy of the aggregate metrics so far. */
    ServiceMetrics metricsSnapshot() const;

    /** Accepted requests waiting for dispatch. */
    std::size_t pendingCount() const;

    /** Requests currently executing on the pool. */
    std::size_t runningCount() const;

    /** Worker slots currently occupied by dispatched gangs. */
    unsigned workersInUse() const;

    const ServerConfig &config() const { return configuration; }

    /** The executor pool (exposed for recycling/occupancy stats). */
    const WorkerPool &pool() const { return workers; }

    /** Per-request QoR timelines (the /requestz data source). */
    const obs::TimelineStore &timelines() const { return timelineStore; }

    /** One pipeline's circuit-breaker state, as /requestz shows it. */
    struct CircuitInfo
    {
        std::string pipeline;
        unsigned consecutiveFailures = 0;
        /** Seconds until the circuit admits again; 0 = closed. */
        double openForSeconds = 0.0;
    };

    /** Snapshot of every tracked circuit breaker. */
    std::vector<CircuitInfo> circuitSnapshot() const;

  private:
    using Clock = Stopwatch::Clock;

    /** Why a running request was told to stop. */
    enum class StopReason
    {
        none,
        deadline,
        quality,
        shutdown,
        /** Explicit cancel() — e.g. the streaming client disconnected. */
        client,
        /** Graceful-drain grace expired; harvest salvages published
         *  output as `degraded` instead of discarding it. */
        drain,
    };

    struct PendingEntry
    {
        std::uint64_t id = 0;
        ServiceRequest request;
        std::promise<ServiceResponse> promise;
        Clock::time_point submitted;
        Clock::time_point deadline;
        /** Built by the builder thread once this entry reaches the
         *  queue head; may then wait head-of-line for free slots. */
        PreparedPipeline pipeline;
        /** Failed build attempts so far (retry-with-backoff). */
        unsigned buildAttempts = 0;
        /** Earliest instant the next build attempt may start (the
         *  jittered backoff); epoch = no constraint. */
        Clock::time_point notBefore{};
    };

    /** Factory handed to the builder thread. */
    struct BuildJob
    {
        std::uint64_t id = 0;
        std::string name;
        std::function<PreparedPipeline()> factory;
        /** Trace context the build span is stamped with. */
        std::uint64_t traceId = 0;
    };

    /** Builder thread's answer; delivered back under the mutex. */
    struct BuildResult
    {
        std::uint64_t id = 0;
        PreparedPipeline pipeline;
        std::string error;
        /** Wall time the factory took (feeds the admission model). */
        double seconds = 0.0;
    };

    struct RunningEntry
    {
        std::uint64_t id = 0;
        std::string name;
        std::promise<ServiceResponse> promise;
        Clock::time_point submitted;
        Clock::time_point dispatched;
        Clock::time_point deadline;
        PreparedPipeline pipeline;
        unsigned gang = 0;
        double minQuality = 0.0;
        /** Request trace context (stamped onto harvest-side spans). */
        std::uint64_t traceId = 0;
        StopReason stopReason = StopReason::none;
        /** Completion hook carried over from the request. */
        std::function<void(const ServiceResponse &)> onComplete;
        /** Nanoseconds from dispatch to the first streamed version,
         *  written by the sink wrapper on a worker thread (-1 = none
         *  yet). Null when the pipeline has no attachSink. */
        std::shared_ptr<std::atomic<std::int64_t>> firstVersionNanos;
    };

    void schedulerLoop(std::stop_token stop);

    /** Runs pipeline factories off the scheduler thread. */
    void builderLoop(std::stop_token stop);

    /** Respond without dispatching (shed/expired/cancelled/failed).
     *  @p id closes the request's trace span (0 = no span open);
     *  @p trace_id stamps the closing events with the request's trace
     *  context and finalizes its QoR timeline; @p on_complete is the
     *  request's completion hook (may be null), invoked after the
     *  promise is fulfilled. */
    void respondImmediately(
        std::promise<ServiceResponse> &promise, ServiceStatus status,
        Clock::time_point submitted, std::uint64_t id = 0,
        std::uint64_t trace_id = 0,
        std::vector<std::string> failures = {},
        const std::function<void(const ServiceResponse &)> *on_complete =
            nullptr) ANYTIME_REQUIRES(mutex);

    /** Harvest a finished pipeline and fulfill its promise (caller
     *  locked: folds the response into the EWMA admission model). */
    void harvest(RunningEntry entry) ANYTIME_REQUIRES(mutex);

    /** Stop every running pipeline whose deadline has passed (caller
     *  locked). */
    void stopOverdueLocked(Clock::time_point now) ANYTIME_REQUIRES(mutex);

    /** Attach finished builds to their pending entries (caller locked);
     *  results for entries that expired or were cancelled while being
     *  built are discarded (their automatons were never started). */
    void integrateBuildResultsLocked() ANYTIME_REQUIRES(mutex);

    /**
     * Admission-control verdict for a new request (caller locked):
     * nullopt admits; a shed status rejects. @p declared_gang is the
     * request's stageWorkers hint (gangs wider than the pool can never
     * dispatch; wide gangs narrow the predicted drain lanes).
     */
    std::optional<ServiceStatus>
    admissionVerdict(Clock::time_point now, Clock::time_point deadline,
                     unsigned declared_gang) const ANYTIME_REQUIRES(mutex);

    /** Per-pipeline-name circuit breaker state. */
    struct CircuitState
    {
        /** Failures since the last success (build or run). */
        unsigned consecutiveFailures = 0;
        /** Submissions are shed until this instant. */
        Clock::time_point openUntil{};
    };

    /** True if @p name's circuit is open at @p now (caller locked). */
    bool circuitOpenLocked(const std::string &name,
                           Clock::time_point now) const
        ANYTIME_REQUIRES(mutex);

    /** Count one failure of @p name; open the circuit at budget. */
    void recordPipelineFailureLocked(const std::string &name,
                                     Clock::time_point now)
        ANYTIME_REQUIRES(mutex);

    /** A success closes @p name's circuit and zeroes its failures. */
    void recordPipelineSuccessLocked(const std::string &name)
        ANYTIME_REQUIRES(mutex);

    /** Deterministic jittered exponential backoff for @p entry's next
     *  build attempt (attempt count already incremented). */
    Clock::duration retryBackoffLocked(const PendingEntry &entry) const
        ANYTIME_REQUIRES(mutex);

    /** Fold one terminal response into the deadline-miss EWMA that
     *  feeds the brownout pressure score (caller locked). */
    void recordMissSignalLocked(const ServiceResponse &response)
        ANYTIME_REQUIRES(mutex);

    /** p99 over the recent-build-latency ring (caller locked). */
    double p99BuildSecondsLocked() const ANYTIME_REQUIRES(mutex);

    /** Sample the load signals and let the brownout controller move
     *  (caller locked). */
    void evaluateBrownoutLocked(Clock::time_point now)
        ANYTIME_REQUIRES(mutex);

    ServerConfig configuration;

    mutable Mutex mutex;
    CondVar wake;
    CondVar idleCv;

    std::multimap<Clock::time_point, PendingEntry>
        pending ANYTIME_GUARDED_BY(mutex);
    std::map<std::uint64_t, RunningEntry>
        running ANYTIME_GUARDED_BY(mutex);
    std::vector<std::uint64_t> finishedIds ANYTIME_GUARDED_BY(mutex);
    /** One factory in flight at a time (builder thread input/output). */
    std::optional<BuildJob> buildJob ANYTIME_GUARDED_BY(mutex);
    std::vector<BuildResult> buildResults ANYTIME_GUARDED_BY(mutex);
    /** Request id being built; 0 = none. */
    std::uint64_t buildInFlight ANYTIME_GUARDED_BY(mutex) = 0;
    CondVar buildCv;
    unsigned slotsUsed ANYTIME_GUARDED_BY(mutex) = 0;
    std::uint64_t nextId ANYTIME_GUARDED_BY(mutex) = 1;
    bool stopping ANYTIME_GUARDED_BY(mutex) = false;
    /** Set by submit(), cleared by the scheduler each iteration. */
    bool pendingDirty ANYTIME_GUARDED_BY(mutex) = false;

    /** Graceful drain: reject new work, run down the accepted queue,
     *  salvage whatever is still running at drainDeadline. */
    bool draining ANYTIME_GUARDED_BY(mutex) = false;
    Clock::time_point drainDeadline ANYTIME_GUARDED_BY(mutex){};
    /** Grace-expiry stops already issued (idempotence guard). */
    bool drainExpired ANYTIME_GUARDED_BY(mutex) = false;

    /** EWMA model of observed service behavior (admission control). */
    double ewmaExecSeconds ANYTIME_GUARDED_BY(mutex) = 0.0;
    double ewmaGang ANYTIME_GUARDED_BY(mutex) = 0.0;
    bool ewmaValid ANYTIME_GUARDED_BY(mutex) = false;
    /** EWMA of factory build time: dispatch throughput is bounded by
     *  the single builder, so queueing delay is too. */
    double ewmaBuildSeconds ANYTIME_GUARDED_BY(mutex) = 0.0;
    bool ewmaBuildValid ANYTIME_GUARDED_BY(mutex) = false;

    /** Brownout load signals: deadline-miss EWMA and a bounded ring of
     *  recent build wall times (p99 source). */
    double ewmaMissRate ANYTIME_GUARDED_BY(mutex) = 0.0;
    static constexpr std::size_t kBuildRingSize = 64;
    std::array<double, kBuildRingSize>
        buildRing ANYTIME_GUARDED_BY(mutex){};
    std::size_t buildRingNext ANYTIME_GUARDED_BY(mutex) = 0;
    std::size_t buildRingCount ANYTIME_GUARDED_BY(mutex) = 0;

    /** Circuit breaker per pipeline name. */
    std::map<std::string, CircuitState>
        circuits ANYTIME_GUARDED_BY(mutex);

    ServiceMetrics metrics ANYTIME_GUARDED_BY(mutex);

    /** Live exposition metrics (owned by the configured registry). */
    struct LiveMetrics
    {
        obs::Counter *submitted = nullptr;
        obs::Counter *served = nullptr;
        obs::Counter *precise = nullptr;
        obs::Counter *shed = nullptr;
        obs::Counter *expired = nullptr;
        obs::Counter *failed = nullptr;
        obs::Counter *cancelled = nullptr;
        obs::Counter *degraded = nullptr;
        obs::Counter *buildRetries = nullptr;
        obs::Counter *circuitOpened = nullptr;
        obs::Gauge *pendingDepth = nullptr;
        obs::Gauge *runningDepth = nullptr;
        obs::LogHistogram *latency = nullptr;
        obs::LogHistogram *queueDelay = nullptr;
        obs::LogHistogram *execTime = nullptr;
        obs::LogHistogram *buildTime = nullptr;
        obs::LogHistogram *firstVersion = nullptr;
        /** QoR summaries fed from the timeline recorder at finish,
         *  annotated with trace-id exemplars. */
        obs::LogHistogram *qualityAtDeadline = nullptr;
        obs::LogHistogram *timeToQ50 = nullptr;
        obs::LogHistogram *timeToQ90 = nullptr;
        obs::LogHistogram *timeToQ99 = nullptr;
        /** Graceful-drain accounting (see beginDrain()). */
        obs::Counter *drainBegun = nullptr;
        obs::Counter *drainSalvaged = nullptr;
        obs::Counter *drainRejected = nullptr;
    };

    /** Fold a terminal response into the live registry metrics. */
    void updateLiveMetrics(const ServiceResponse &response);

    /** Refresh the queue-depth gauges (caller locked). */
    void updateDepthGaugesLocked() ANYTIME_REQUIRES(mutex);

    LiveMetrics live;

    /** Per-request QoR staircases (own internal lock; safe from the
     *  publishing worker threads and the debug endpoints alike). */
    obs::TimelineStore timelineStore;

    /** Brownout state machine (constructed before the scheduler thread
     *  starts; its reads are lock-free, its mutations scheduler-only). */
    std::unique_ptr<BrownoutController> brownout;

    WorkerPool workers;
    std::jthread builder;
    std::jthread scheduler;
};

} // namespace anytime

#endif // ANYTIME_SERVICE_SERVER_HPP
