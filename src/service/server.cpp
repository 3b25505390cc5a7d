#include "service/server.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "fault/fault.hpp"
#include "obs/flight.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"

namespace anytime {

namespace {

/** How often running minQuality probes are sampled. */
constexpr std::chrono::nanoseconds kQualityPollInterval =
    std::chrono::milliseconds(1);
/** Base of the build-retry backoff (doubles per attempt, plus a
 *  deterministic jitter in [0, base)). */
constexpr std::chrono::nanoseconds kRetryBackoffBase =
    std::chrono::milliseconds(2);
/** Seed of the deterministic backoff jitter sequence. */
constexpr std::uint64_t kRetryJitterSeed = 1;

double
secondsBetween(Stopwatch::Clock::time_point from,
               Stopwatch::Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

/** Fallback version probe: most-published buffer in the automaton. */
std::uint64_t
maxBufferVersion(const Automaton &automaton)
{
    std::uint64_t best = 0;
    for (const auto &buffer : automaton.allBuffers())
        best = std::max(best, buffer->version());
    return best;
}

} // namespace

AnytimeServer::AnytimeServer(ServerConfig config)
    : configuration(config), workers(config.workers)
{
    fatalIf(configuration.maxQueueDepth == 0,
            "AnytimeServer: zero queue depth admits nothing");
    obs::MetricsRegistry &registry =
        configuration.metricsRegistry != nullptr
            ? *configuration.metricsRegistry
            : obs::defaultRegistry();
    live.submitted = &registry.counter(
        "anytime_requests_submitted_total", "Requests submitted.");
    live.served = &registry.counter(
        "anytime_responses_served_total",
        "Requests that were dispatched and ran.");
    live.precise = &registry.counter(
        "anytime_responses_precise_total",
        "Served requests that reached the precise output.");
    live.shed = &registry.counter(
        "anytime_responses_shed_total",
        "Requests shed by admission control.");
    live.expired = &registry.counter(
        "anytime_responses_expired_total",
        "Requests whose deadline passed before dispatch.");
    live.failed = &registry.counter(
        "anytime_responses_failed_total",
        "Requests whose pipeline failed.");
    live.cancelled = &registry.counter(
        "anytime_responses_cancelled_total",
        "Requests cancelled by server shutdown.");
    live.degraded = &registry.counter(
        "anytime_requests_degraded_total",
        "Requests salvaged degraded after a pipeline fault.");
    live.buildRetries = &registry.counter(
        "anytime_build_retries_total",
        "Pipeline build attempts retried after a factory failure.");
    live.circuitOpened = &registry.counter(
        "anytime_circuit_open_total",
        "Times a pipeline's circuit breaker opened.");
    live.pendingDepth = &registry.gauge(
        "anytime_requests_pending",
        "Accepted requests waiting for dispatch.");
    live.runningDepth = &registry.gauge(
        "anytime_requests_running",
        "Requests currently executing on the pool.");
    live.latency = &registry.histogram(
        "anytime_request_latency_seconds",
        "Submission-to-response latency of served requests.");
    live.queueDelay = &registry.histogram(
        "anytime_request_queue_seconds",
        "Submission-to-dispatch delay of served requests.");
    live.execTime = &registry.histogram(
        "anytime_request_exec_seconds",
        "Pipeline execution time of served requests.");
    live.buildTime = &registry.histogram(
        "anytime_build_seconds",
        "Pipeline factory (build) wall time.");
    live.firstVersion = &registry.histogram(
        "anytime_first_version_seconds",
        "Dispatch-to-first-streamed-version latency.");
    // QoR summaries: quality lives in [0, 1], so power-of-two bounds
    // (0.125, 0.25, 0.5, 1.0, +Inf) keep the exposition readable.
    live.qualityAtDeadline = &registry.histogram(
        "anytime_quality_at_deadline",
        "Quality of the answer the client held at its deadline.",
        {.firstBound = 0.125, .growth = 2.0, .buckets = 5});
    live.timeToQ50 = &registry.histogram(
        "anytime_time_to_quality_q50_seconds",
        "Seconds from submission to the first version with quality "
        ">= 0.5.");
    live.timeToQ90 = &registry.histogram(
        "anytime_time_to_quality_q90_seconds",
        "Seconds from submission to the first version with quality "
        ">= 0.9.");
    live.timeToQ99 = &registry.histogram(
        "anytime_time_to_quality_q99_seconds",
        "Seconds from submission to the first version with quality "
        ">= 0.99.");
    live.drainBegun = &registry.counter(
        "anytime_drain_begun_total",
        "Graceful drains begun (beginDrain()).");
    live.drainSalvaged = &registry.counter(
        "anytime_drain_salvaged_total",
        "Running requests salvaged degraded at drain-grace expiry.");
    live.drainRejected = &registry.counter(
        "anytime_drain_rejected_total",
        "Submissions rejected because the server was draining.");
    brownout =
        std::make_unique<BrownoutController>(configuration.brownout,
                                             registry);
    // ANYTIME_FLIGHT_DIR=<dir> arms the flight recorder without code
    // changes — how CI collects anomaly artifacts from chaos runs.
    // Only arm, never re-arm: test rigs construct many servers and
    // configureFlightRecorder restarts the writer thread each call.
    if (const char *flight_dir = std::getenv("ANYTIME_FLIGHT_DIR");
        flight_dir != nullptr && flight_dir[0] != '\0' &&
        !obs::flightRecorderEnabled())
        obs::configureFlightRecorder({.directory = flight_dir});
    // Flight-recorder hook: anomaly artifacts embed the affected
    // request's timeline. Last server wins when several coexist (a
    // test rig); the destructor unhooks before the store dies.
    obs::setFlightTimelineSource([this](std::uint64_t requestId) {
        const auto snap = timelineStore.snapshot(requestId);
        return snap ? obs::TimelineStore::toJson(*snap)
                    : std::string();
    });
    builder = std::jthread(
        [this](std::stop_token stop) { builderLoop(std::move(stop)); });
    scheduler = std::jthread(
        [this](std::stop_token stop) { schedulerLoop(std::move(stop)); });
}

AnytimeServer::~AnytimeServer()
{
    // Unhook the flight recorder's timeline source before the store it
    // reads is torn down (no-op for whichever server did not own it).
    obs::setFlightTimelineSource(nullptr);
    {
        MutexLock lock(mutex);
        stopping = true;
    }
    scheduler.request_stop();
    wake.notifyAll();
    if (scheduler.joinable())
        scheduler.join();
    // The builder may still be inside a factory; its result is simply
    // discarded (the automaton was never started, so destruction is
    // safe). Join before members are torn down.
    builder.request_stop();
    buildCv.notifyAll();
    if (builder.joinable())
        builder.join();
    workers.shutdown();
}

void
AnytimeServer::builderLoop(std::stop_token stop)
{
    MutexLock lock(mutex);
    for (;;) {
        buildCv.wait(lock, stop, [&]() ANYTIME_REQUIRES(mutex) {
            return buildJob.has_value();
        });
        if (stop.stop_requested())
            return;
        BuildJob job = std::move(*buildJob);
        buildJob.reset();

        lock.unlock();
        BuildResult result;
        result.id = job.id;
        const auto build_begin = Clock::now();
        {
            obs::TraceContextScope context({job.traceId, 0});
            obs::TraceSpan span(
                "build", "service",
                {"request", static_cast<double>(job.id)});
            try {
                // Injection site `service.build`: a thrown fault here
                // exercises the same retry/backoff/circuit path as a
                // genuinely failing factory.
                ANYTIME_FAULT_POINT("service.build", job.name, job.id);
                result.pipeline = job.factory();
                if (!result.pipeline.automaton)
                    result.error =
                        "pipeline factory returned no automaton";
            } catch (const std::exception &exception) {
                result.error = exception.what();
            }
        }
        result.seconds = secondsBetween(build_begin, Clock::now());
        live.buildTime->observe(result.seconds);
        lock.lock();

        buildResults.push_back(std::move(result));
        wake.notifyAll();
    }
}

std::future<ServiceResponse>
AnytimeServer::submit(ServiceRequest request)
{
    return submitTracked(std::move(request)).response;
}

Submission
AnytimeServer::submitTracked(ServiceRequest request)
{
    fatalIf(!request.factory, "submit: request '", request.name,
            "' has no pipeline factory");
    fatalIf(request.minQuality < 0.0 || request.minQuality > 1.0,
            "submit: minQuality out of [0, 1]: ", request.minQuality);

    std::promise<ServiceResponse> promise;
    Submission submission;
    submission.response = promise.get_future();
    const auto now = Clock::now();
    const auto deadline = now + request.deadline;

    MutexLock lock(mutex);
    const std::uint64_t id = nextId++;
    submission.id = id;
    // Trace context: adopt the caller's id (e.g. propagated off the
    // wire) or mint one, then stamp every event this request emits.
    if (request.traceId == 0)
        request.traceId = obs::newTraceId();
    const std::uint64_t trace_id = request.traceId;
    obs::TraceContextScope context({trace_id, 0});
    live.submitted->add();
    timelineStore.begin(
        id, trace_id, request.name,
        std::chrono::duration<double>(request.deadline).count());
    obs::traceAsyncBegin(
        "request", "service", id,
        {"deadline_ms",
         std::chrono::duration<double, std::milli>(request.deadline)
             .count()},
        {"min_quality", request.minQuality});
    if (stopping) {
        respondImmediately(promise, ServiceStatus::cancelled, now, id,
                           trace_id, {}, &request.onComplete);
        return submission;
    }
    // Graceful drain: the door is closed but the answer is prompt —
    // a client that races SIGTERM gets `cancelled` immediately, never
    // a hang or a silently dropped connection.
    if (draining) {
        live.drainRejected->add();
        respondImmediately(promise, ServiceStatus::cancelled, now, id,
                           trace_id, {}, &request.onComplete);
        return submission;
    }
    // A deadline at or before "now" can never be met by dispatching:
    // answer immediately (empty quality) instead of queueing a request
    // that would only ever expire. This is the zero-deadline guarantee.
    if (request.deadline <= std::chrono::nanoseconds::zero()) {
        respondImmediately(promise, ServiceStatus::expired, now, id,
                           trace_id, {}, &request.onComplete);
        return submission;
    }
    // Circuit breaker: a pipeline name that keeps failing is shed up
    // front during its cooldown, so a poisoned factory can't burn the
    // builder and the retry budget on every submission.
    if (circuitOpenLocked(request.name, now)) {
        respondImmediately(promise, ServiceStatus::shedCircuitOpen, now,
                           id, trace_id, {}, &request.onComplete);
        return submission;
    }
    // Brownout survival mode (L3): a deterministic fraction of new
    // requests is hard-shed at the door. This is the last degradation
    // rung — every cheaper knob (gangs, precision, coalescing,
    // intermediate fan-out) is already turned by the lower levels.
    if (configuration.brownout.enabled && brownout->shouldShed(id)) {
        brownout->noteShed();
        respondImmediately(promise, ServiceStatus::shedBrownout, now,
                           id, trace_id, {}, &request.onComplete);
        return submission;
    }
    if (const auto shed =
            admissionVerdict(now, deadline, request.stageWorkers)) {
        respondImmediately(promise, *shed, now, id, trace_id, {},
                           &request.onComplete);
        return submission;
    }

    PendingEntry entry;
    entry.id = id;
    entry.request = std::move(request);
    entry.promise = std::move(promise);
    entry.submitted = now;
    entry.deadline = deadline;
    pending.emplace(deadline, std::move(entry));
    updateDepthGaugesLocked();
    pendingDirty = true;
    wake.notifyAll();
    return submission;
}

bool
AnytimeServer::cancel(std::uint64_t id)
{
    MutexLock lock(mutex);
    if (stopping)
        return false; // shutdown already cancels everything
    const auto queued = std::find_if(
        pending.begin(), pending.end(),
        [&](const auto &kv) { return kv.second.id == id; });
    if (queued != pending.end()) {
        // A pipeline the builder is producing for this entry right now
        // is discarded by integrateBuildResultsLocked() (its automaton
        // was never started), exactly like an expired entry's.
        PendingEntry &entry = queued->second;
        obs::TraceContextScope context({entry.request.traceId, 0});
        obs::traceInstant("client.cancel", "service",
                          {"request", static_cast<double>(id)},
                          {"queued", 1.0});
        respondImmediately(entry.promise, ServiceStatus::cancelled,
                           entry.submitted, entry.id,
                           entry.request.traceId, {},
                           &entry.request.onComplete);
        pending.erase(queued);
        updateDepthGaugesLocked();
        return true;
    }
    const auto it = running.find(id);
    if (it != running.end() &&
        it->second.stopReason == StopReason::none) {
        it->second.stopReason = StopReason::client;
        obs::TraceContextScope context({it->second.traceId, 0});
        obs::traceInstant("client.cancel", "service",
                          {"request", static_cast<double>(id)},
                          {"queued", 0.0});
        it->second.pipeline.automaton->stop();
        return true;
    }
    return false;
}

std::optional<ServiceStatus>
AnytimeServer::admissionVerdict(Clock::time_point now,
                                Clock::time_point deadline,
                                unsigned declared_gang) const
{
    if (pending.size() >= configuration.maxQueueDepth)
        return ServiceStatus::shedQueueFull;
    // A gang wider than the pool can never fit: shed at submit rather
    // than build a pipeline the dispatcher must fail.
    if (declared_gang > workers.size()) {
        obs::traceInstant("admission.gang-too-wide", "service",
                          {"declared", static_cast<double>(declared_gang)},
                          {"pool", static_cast<double>(workers.size())});
        return ServiceStatus::shedQueueFull;
    }
    if (!configuration.predictiveShedding)
        return std::nullopt;
    // With brownout enabled, the quality-degradation ladder is the
    // first line of defense: below L2 the predictive shed stays
    // holstered (the queue-full shed above always applies). From L2 up
    // the knobs are maxed and prediction resumes as the backstop.
    if (configuration.brownout.enabled && brownout->level() < 2)
        return std::nullopt;
    // EDF position: everything running plus every queued request with
    // an earlier-or-equal deadline runs before this one. Queued entries
    // that still lack a pipeline also occupy the single builder first.
    std::size_t ahead = running.size();
    std::size_t unbuilt_ahead = 0;
    for (const auto &[queued_deadline, entry] : pending) {
        if (queued_deadline > deadline)
            break; // multimap is deadline-ordered
        ++ahead;
        if (!entry.pipeline.automaton)
            ++unbuilt_ahead;
    }
    double predicted_wait = 0.0;
    if (ewmaValid) {
        // Predicted queueing delay from the EWMA service model:
        // requests drain in "lanes" of gang-sized worker groups. The
        // declared gang floors the learned average — a request that
        // announces a wide intra-stage partition occupies at least
        // that many workers regardless of history.
        const double gang = std::max(
            {1.0, ewmaGang, static_cast<double>(declared_gang)});
        const double lanes = std::max(
            1.0, std::floor(static_cast<double>(workers.size()) / gang));
        predicted_wait =
            ewmaExecSeconds * (static_cast<double>(ahead) / lanes);
    }
    if (ewmaBuildValid) {
        // Builds serialize on the one builder thread, so dispatch can
        // be build-bound: this request waits for every unbuilt entry
        // ahead of it, plus its own build.
        const double build_wait =
            ewmaBuildSeconds * static_cast<double>(unbuilt_ahead + 1);
        predicted_wait = std::max(predicted_wait, build_wait);
    }
    if (predicted_wait <= 0.0)
        return std::nullopt;
    const auto wait = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(predicted_wait));
    if (now + wait >= deadline) {
        obs::traceInstant(
            "admission.predicted-miss", "service",
            {"predicted_wait_ms", predicted_wait * 1e3},
            {"slack_ms", std::chrono::duration<double, std::milli>(
                             deadline - now)
                             .count()});
        return ServiceStatus::shedPredictedMiss;
    }
    return std::nullopt;
}

void
AnytimeServer::respondImmediately(
    std::promise<ServiceResponse> &promise, ServiceStatus status,
    Clock::time_point submitted, std::uint64_t id,
    std::uint64_t trace_id, std::vector<std::string> failures,
    const std::function<void(const ServiceResponse &)> *on_complete)
{
    obs::TraceContextScope context({trace_id, 0});
    ServiceResponse response;
    response.status = status;
    response.totalSeconds = secondsBetween(submitted, Clock::now());
    response.failures = std::move(failures);
    recordMissSignalLocked(response);
    metrics.record(response);
    updateLiveMetrics(response);
    if (id != 0)
        timelineStore.finish(id, serviceStatusName(status),
                             response.degraded, response.totalSeconds,
                             response.quality);
    if (id != 0)
        obs::traceAsyncEnd("request", "service", id,
                           {"served", 0.0});
    obs::traceInstant(serviceStatusName(status), "service",
                      {"request", static_cast<double>(id)});
    if (on_complete != nullptr && *on_complete) {
        promise.set_value(response);
        (*on_complete)(response);
    } else {
        promise.set_value(std::move(response));
    }
    idleCv.notifyAll();
}

bool
AnytimeServer::circuitOpenLocked(const std::string &name,
                                 Clock::time_point now) const
{
    if (configuration.circuitFailureBudget == 0)
        return false;
    const auto it = circuits.find(name);
    return it != circuits.end() && now < it->second.openUntil;
}

void
AnytimeServer::recordPipelineFailureLocked(const std::string &name,
                                           Clock::time_point now)
{
    if (configuration.circuitFailureBudget == 0)
        return;
    CircuitState &circuit = circuits[name];
    ++circuit.consecutiveFailures;
    if (circuit.consecutiveFailures < configuration.circuitFailureBudget)
        return;
    // Open (or re-open after a failed half-open probe). The failure
    // count stays at the budget so the next post-cooldown failure
    // re-opens immediately; only a success closes the circuit.
    circuit.consecutiveFailures = configuration.circuitFailureBudget;
    circuit.openUntil = now + configuration.circuitCooldown;
    live.circuitOpened->add();
    obs::traceInstant(
        "circuit.open", "service",
        {"failures", static_cast<double>(circuit.consecutiveFailures)},
        {"cooldown_ms", std::chrono::duration<double, std::milli>(
                            configuration.circuitCooldown)
                            .count()});
    obs::flightRecorderTrigger("circuit_open", 0,
                               obs::currentTraceContext().traceId);
}

void
AnytimeServer::recordPipelineSuccessLocked(const std::string &name)
{
    circuits.erase(name);
}

AnytimeServer::Clock::duration
AnytimeServer::retryBackoffLocked(const PendingEntry &entry) const
{
    // Exponential backoff with deterministic jitter: base * 2^(n-1)
    // plus a jitter in [0, base) drawn from a seeded hash of the
    // request id and attempt number — reproducible under a fixed
    // submission order, uncorrelated across requests (no retry
    // convoys).
    const auto base = kRetryBackoffBase;
    const auto scaled = base * (1LL << (entry.buildAttempts - 1));
    const std::uint64_t jitter_hash = fault::mix64(
        kRetryJitterSeed ^ (entry.id << 16) ^ entry.buildAttempts);
    const auto jitter = Clock::duration(std::chrono::nanoseconds(
        static_cast<std::int64_t>(jitter_hash) % base.count()));
    return std::chrono::duration_cast<Clock::duration>(scaled) +
           std::chrono::abs(jitter);
}

void
AnytimeServer::stopOverdueLocked(Clock::time_point now)
{
    for (auto &[id, entry] : running) {
        if (entry.stopReason == StopReason::none &&
            entry.deadline <= now) {
            entry.stopReason = StopReason::deadline;
            obs::traceInstant("deadline.stop", "service",
                              {"request", static_cast<double>(id)});
            entry.pipeline.automaton->stop();
        }
    }
}

void
AnytimeServer::integrateBuildResultsLocked()
{
    while (!buildResults.empty()) {
        BuildResult result = std::move(buildResults.back());
        buildResults.pop_back();
        if (buildInFlight == result.id)
            buildInFlight = 0;
        const double alpha = ewmaBuildValid ? 0.2 : 1.0;
        ewmaBuildSeconds =
            (1.0 - alpha) * ewmaBuildSeconds + alpha * result.seconds;
        ewmaBuildValid = true;
        // Brownout p99 source: a bounded ring of recent build wall
        // times (the EWMA hides tail latency, p99 is the signal).
        buildRing[buildRingNext] = result.seconds;
        buildRingNext = (buildRingNext + 1) % kBuildRingSize;
        buildRingCount = std::min(buildRingCount + 1, kBuildRingSize);
        obs::traceInstant(
            "ewma.build", "service",
            {"build_ms", result.seconds * 1e3},
            {"ewma_ms", ewmaBuildSeconds * 1e3});
        const auto it = std::find_if(
            pending.begin(), pending.end(),
            [&](const auto &kv) { return kv.second.id == result.id; });
        if (it == pending.end())
            continue; // expired or cancelled while being built
        if (!result.error.empty()) {
            PendingEntry &entry = it->second;
            const auto now = Clock::now();
            if (entry.buildAttempts < configuration.buildRetryLimit &&
                now < entry.deadline) {
                // Retry with jittered exponential backoff: the entry
                // stays at the EDF head (pipeline still absent) and the
                // dispatcher re-hands it to the builder once notBefore
                // passes. Deadline enforcement keeps running meanwhile.
                ++entry.buildAttempts;
                const auto backoff = retryBackoffLocked(entry);
                entry.notBefore = now + backoff;
                live.buildRetries->add();
                timelineStore.recordBuildAttempt(entry.id,
                                                 entry.buildAttempts);
                obs::traceInstant(
                    "build.retry", "service",
                    {"request", static_cast<double>(entry.id)},
                    {"backoff_ms",
                     std::chrono::duration<double, std::milli>(backoff)
                         .count()});
                continue;
            }
            obs::TraceContextScope context({entry.request.traceId, 0});
            recordPipelineFailureLocked(entry.request.name, now);
            respondImmediately(entry.promise, ServiceStatus::failed,
                               entry.submitted, entry.id,
                               entry.request.traceId,
                               {std::move(result.error)},
                               &entry.request.onComplete);
            pending.erase(it);
            updateDepthGaugesLocked();
        } else {
            it->second.pipeline = std::move(result.pipeline);
        }
    }
}

void
AnytimeServer::harvest(RunningEntry entry)
{
    obs::TraceContextScope context({entry.traceId, 0});
    Automaton &automaton = *entry.pipeline.automaton;
    automaton.shutdown(); // workers already drained; joins bookkeeping

    const auto now = Clock::now();
    ServiceResponse response;
    response.queueSeconds =
        secondsBetween(entry.submitted, entry.dispatched);
    response.execSeconds = secondsBetween(entry.dispatched, now);
    response.totalSeconds = secondsBetween(entry.submitted, now);
    response.reachedPrecise = automaton.complete();
    response.versionsPublished = entry.pipeline.versionCount
                                     ? entry.pipeline.versionCount()
                                     : maxBufferVersion(automaton);
    if (entry.pipeline.progress)
        response.quality = entry.pipeline.progress();
    // A precise result is by definition full quality, even when the
    // progress probe is a conservative proxy that undercounts.
    if (response.reachedPrecise)
        response.quality = 1.0;

    if (entry.firstVersionNanos != nullptr) {
        const std::int64_t first_ns = entry.firstVersionNanos->load(
            std::memory_order_acquire);
        if (first_ns >= 0) {
            response.firstVersionSeconds =
                static_cast<double>(first_ns) * 1e-9;
            live.firstVersion->observe(response.firstVersionSeconds);
        }
    }

    response.degraded = automaton.degraded();
    if (automaton.failed()) {
        response.failures = automaton.failures();
        // Degradation policy: under quarantine the pipeline still
        // terminated with its last good versions in every buffer —
        // serve that snapshot flagged degraded when there is output
        // and it clears the client's stated quality floor (a floor
        // with no probe cannot be verified); otherwise fail fast.
        const bool meets_floor =
            entry.minQuality <= 0.0 ||
            (!std::isnan(response.quality) &&
             response.quality >= entry.minQuality);
        if (automaton.faultPolicy() == FaultPolicy::quarantine &&
            response.versionsPublished > 0 && meets_floor) {
            response.status = ServiceStatus::degraded;
            response.degraded = true;
        } else {
            response.status = ServiceStatus::failed;
            // Fail-fast carries no usable snapshot: the flag is about
            // the answer the client got, not the pipeline's state.
            response.degraded = false;
        }
    } else if (entry.stopReason == StopReason::client) {
        // The client went away (disconnect-as-cancel): even if the
        // pipeline happened to finish in the stop window, nobody is
        // listening — account it cancelled, not served.
        response.status = ServiceStatus::cancelled;
    } else if (response.reachedPrecise) {
        response.status = ServiceStatus::preciseCompleted;
    } else if (entry.stopReason == StopReason::quality) {
        response.status = ServiceStatus::qualityStopped;
    } else if (entry.stopReason == StopReason::drain) {
        // Drain-grace expiry: the anytime salvage. Whatever the
        // pipeline published before the stop is a valid snapshot —
        // serve it flagged degraded rather than discard paid-for work;
        // only a pipeline that never produced output is cancelled.
        if (response.versionsPublished > 0) {
            response.status = ServiceStatus::degraded;
            response.degraded = true;
            live.drainSalvaged->add();
        } else {
            response.status = ServiceStatus::cancelled;
        }
    } else if (entry.stopReason == StopReason::shutdown) {
        response.status = ServiceStatus::cancelled;
    } else {
        response.status = ServiceStatus::deadlineApprox;
    }
    response.deadlineMet = (servedStatus(response.status) ||
                            response.status ==
                                ServiceStatus::degraded) &&
                           response.versionsPublished > 0;

    // Circuit breaker accounting: any stage fault counts against the
    // pipeline's failure budget (even when the degradation policy
    // salvaged the response); a clean run closes the circuit.
    if (automaton.failed())
        recordPipelineFailureLocked(entry.name, now);
    else
        recordPipelineSuccessLocked(entry.name);

    if (servedStatus(response.status)) {
        const double alpha = ewmaValid ? 0.2 : 1.0;
        ewmaExecSeconds = (1.0 - alpha) * ewmaExecSeconds +
                          alpha * response.execSeconds;
        ewmaGang = (1.0 - alpha) * ewmaGang +
                   alpha * static_cast<double>(entry.gang);
        ewmaValid = true;
        obs::traceInstant("ewma.exec", "service",
                          {"exec_ms", response.execSeconds * 1e3},
                          {"ewma_ms", ewmaExecSeconds * 1e3});
    }

    // QoR timeline: close the staircase record and summarize it into
    // the exemplar-annotated quality/time-to-quality histograms. Only
    // answers a client actually held count (served or salvaged).
    const auto qor = timelineStore.finish(
        entry.id, serviceStatusName(response.status), response.degraded,
        response.totalSeconds, response.quality);
    if (servedStatus(response.status) ||
        response.status == ServiceStatus::degraded) {
        if (!std::isnan(response.quality))
            live.qualityAtDeadline->observeWithExemplar(
                response.quality, entry.traceId);
        if (qor.has_value()) {
            if (!std::isnan(qor->timeToQ50))
                live.timeToQ50->observeWithExemplar(qor->timeToQ50,
                                                    entry.traceId);
            if (!std::isnan(qor->timeToQ90))
                live.timeToQ90->observeWithExemplar(qor->timeToQ90,
                                                    entry.traceId);
            if (!std::isnan(qor->timeToQ99))
                live.timeToQ99->observeWithExemplar(qor->timeToQ99,
                                                    entry.traceId);
        }
    }
    // A served request whose client got nothing by its deadline is an
    // anomaly worth a flight artifact (sheds and cancels are not).
    if (servedStatus(response.status) && !response.deadlineMet)
        obs::flightRecorderTrigger("deadline_miss", entry.id,
                                   entry.traceId);

    recordMissSignalLocked(response);
    metrics.record(response);
    updateLiveMetrics(response);
    if (obs::tracingEnabled()) {
        obs::traceInstant(serviceStatusName(response.status), "service",
                          {"request", static_cast<double>(entry.id)},
                          {"quality", response.quality});
        obs::traceAsyncEnd(
            "request", "service", entry.id,
            {"versions",
             static_cast<double>(response.versionsPublished)},
            {"quality", response.quality});
    }
    if (entry.onComplete) {
        entry.promise.set_value(response);
        entry.onComplete(response);
    } else {
        entry.promise.set_value(std::move(response));
    }
    idleCv.notifyAll();
}

void
AnytimeServer::updateLiveMetrics(const ServiceResponse &response)
{
    switch (response.status) {
      case ServiceStatus::preciseCompleted:
        live.precise->add();
        [[fallthrough]];
      case ServiceStatus::deadlineApprox:
      case ServiceStatus::qualityStopped:
        live.served->add();
        live.latency->observe(response.totalSeconds);
        live.queueDelay->observe(response.queueSeconds);
        live.execTime->observe(response.execSeconds);
        break;
      case ServiceStatus::shedQueueFull:
      case ServiceStatus::shedPredictedMiss:
      case ServiceStatus::shedCircuitOpen:
      case ServiceStatus::shedBrownout:
        live.shed->add();
        break;
      case ServiceStatus::expired:
        live.expired->add();
        break;
      case ServiceStatus::failed:
        live.failed->add();
        break;
      case ServiceStatus::cancelled:
        live.cancelled->add();
        break;
      case ServiceStatus::degraded:
        live.degraded->add();
        live.latency->observe(response.totalSeconds);
        break;
    }
}

void
AnytimeServer::updateDepthGaugesLocked()
{
    live.pendingDepth->set(static_cast<double>(pending.size()));
    live.runningDepth->set(static_cast<double>(running.size()));
    if (obs::tracingEnabled()) {
        obs::traceCounter("service.pending",
                          static_cast<double>(pending.size()));
        obs::traceCounter("service.running",
                          static_cast<double>(running.size()));
    }
}

void
AnytimeServer::schedulerLoop(std::stop_token stop)
{
    MutexLock lock(mutex);
    for (;;) {
        pendingDirty = false;

        // 1. Completions: harvest every pipeline whose done callback
        // fired, releasing its worker slots first so dispatch below
        // sees the freed capacity. Then attach any pipelines the
        // builder finished to their queued entries.
        while (!finishedIds.empty()) {
            const std::uint64_t id = finishedIds.back();
            finishedIds.pop_back();
            const auto it = running.find(id);
            panicIf(it == running.end(),
                    "completion event for unknown request id ", id);
            RunningEntry entry = std::move(it->second);
            running.erase(it);
            slotsUsed -= entry.gang;
            updateDepthGaugesLocked();
            harvest(std::move(entry));
        }
        integrateBuildResultsLocked();

        const auto now = Clock::now();

        // 2. Hard deadlines: stop every overdue pipeline; the anytime
        // model guarantees its buffers hold a valid snapshot.
        stopOverdueLocked(now);

        // 2b. Brownout: fold the load signals into the controller and
        // let the level move (rate-limited and hysteresis-gated there).
        evaluateBrownoutLocked(now);

        // 2c. Drain-grace expiry: the queue was given its chance; stop
        // whatever still runs (harvest salvages published output as
        // `degraded`) and cancel whatever never dispatched.
        if (draining && !drainExpired && now >= drainDeadline) {
            drainExpired = true;
            for (auto &[deadline, entry] : pending)
                respondImmediately(entry.promise,
                                   ServiceStatus::cancelled,
                                   entry.submitted, entry.id,
                                   entry.request.traceId, {},
                                   &entry.request.onComplete);
            pending.clear();
            updateDepthGaugesLocked();
            for (auto &[id, entry] : running) {
                if (entry.stopReason == StopReason::none) {
                    entry.stopReason = StopReason::drain;
                    obs::traceInstant(
                        "drain.stop", "service",
                        {"request", static_cast<double>(id)});
                    entry.pipeline.automaton->stop();
                }
            }
        }

        // 3. Graceful degradation: a backlogged server stops requests
        // that have reached their stated quality floor, trading their
        // surplus accuracy for the queue's latency.
        if (!pending.empty()) {
            for (auto &[id, entry] : running) {
                if (entry.stopReason == StopReason::none &&
                    entry.minQuality > 0.0 && entry.pipeline.progress) {
                    const double progress = entry.pipeline.progress();
                    if (progress >= entry.minQuality) {
                        entry.stopReason = StopReason::quality;
                        obs::traceInstant(
                            "quality.stop", "service",
                            {"request", static_cast<double>(id)},
                            {"progress", progress});
                        entry.pipeline.automaton->stop();
                    }
                }
            }
        }

        if (stop.stop_requested())
            stopping = true;
        if (stopping) {
            for (auto &[deadline, entry] : pending)
                respondImmediately(entry.promise,
                                   ServiceStatus::cancelled,
                                   entry.submitted, entry.id,
                                   entry.request.traceId, {},
                                   &entry.request.onComplete);
            pending.clear();
            updateDepthGaugesLocked();
            for (auto &[id, entry] : running) {
                if (entry.stopReason == StopReason::none) {
                    entry.stopReason = StopReason::shutdown;
                    obs::traceInstant(
                        "shutdown.stop", "service",
                        {"request", static_cast<double>(id)});
                    entry.pipeline.automaton->stop();
                }
            }
            if (running.empty())
                return;
            // Everything running has been stopped; wait only for their
            // completion events (the stop token is already triggered,
            // so a token-aware wait would spin).
            wake.wait(lock, [&]() ANYTIME_REQUIRES(mutex) {
                return !finishedIds.empty();
            });
            continue;
        }

        // 4. Dispatch: earliest deadline first, whole gangs only.
        while (!stopping && !pending.empty()) {
            const auto it = pending.begin();
            PendingEntry &head = it->second;
            if (head.deadline <= Clock::now()) {
                respondImmediately(head.promise, ServiceStatus::expired,
                                   head.submitted, head.id,
                                   head.request.traceId, {},
                                   &head.request.onComplete);
                pending.erase(it);
                updateDepthGaugesLocked();
                continue;
            }
            if (!head.pipeline.automaton) {
                // Hand the head's factory to the builder thread and
                // wait for its result event; the scheduler stays free
                // to enforce deadlines while the pipeline is built.
                // A head cooling down between build retries holds its
                // EDF position (strict EDF) until notBefore passes.
                if (buildInFlight == 0 &&
                    head.notBefore <= Clock::now()) {
                    buildInFlight = head.id;
                    buildJob = BuildJob{head.id, head.request.name,
                                        head.request.factory,
                                        head.request.traceId};
                    buildCv.notifyAll();
                }
                break; // strict EDF: nothing dispatches past the head
            }
            const unsigned gang = head.pipeline.automaton->totalWorkers();
            if (gang > workers.size()) {
                respondImmediately(
                    head.promise, ServiceStatus::failed, head.submitted,
                    head.id, head.request.traceId,
                    {"pipeline needs " + std::to_string(gang) +
                     " workers but the pool has " +
                     std::to_string(workers.size())},
                    &head.request.onComplete);
                pending.erase(it);
                updateDepthGaugesLocked();
                continue;
            }
            if (slotsUsed + gang > workers.size())
                break; // strict EDF: wait for the head's gang to fit

            RunningEntry entry;
            entry.id = head.id;
            entry.name = head.request.name;
            entry.promise = std::move(head.promise);
            entry.submitted = head.submitted;
            entry.dispatched = Clock::now();
            entry.deadline = head.deadline;
            entry.pipeline = std::move(head.pipeline);
            entry.gang = gang;
            entry.minQuality = head.request.minQuality;
            entry.traceId = head.request.traceId;
            entry.onComplete = std::move(head.request.onComplete);
            // Streaming hook: wrap the request's sink (if any) with the
            // first-version clock and the QoR timeline recorder and
            // attach it before the pipeline starts, so every published
            // version is timed, recorded on the quality staircase, and
            // fanned out to the subscriber.
            if (entry.pipeline.attachSink) {
                auto first_ns =
                    std::make_shared<std::atomic<std::int64_t>>(-1);
                entry.firstVersionNanos = first_ns;
                const auto dispatched = entry.dispatched;
                const auto submitted = entry.submitted;
                const std::uint64_t request_id = entry.id;
                const unsigned gang_width = gang;
                VersionSink forward =
                    std::move(head.request.versionSink);
                entry.pipeline.attachSink(
                    [this, first_ns, dispatched, submitted, request_id,
                     gang_width, forward = std::move(forward)](
                        const VersionUpdate &update) {
                        const auto now_ts = Clock::now();
                        std::int64_t expected = -1;
                        first_ns->compare_exchange_strong(
                            expected,
                            std::chrono::duration_cast<
                                std::chrono::nanoseconds>(now_ts -
                                                          dispatched)
                                .count(),
                            std::memory_order_acq_rel);
                        obs::TimelinePoint point;
                        point.tSeconds =
                            secondsBetween(submitted, now_ts);
                        point.version = update.version;
                        point.quality = update.quality;
                        point.bytes = update.payload
                                          ? update.payload->size()
                                          : 0;
                        point.stage = update.stage;
                        point.workers = gang_width;
                        point.final = update.final;
                        timelineStore.recordVersion(request_id,
                                                    std::move(point));
                        if (forward)
                            forward(update);
                    });
            }
            pending.erase(it);

            Automaton *automaton = entry.pipeline.automaton.get();
            const std::uint64_t id = entry.id;
            // Stage faults are contained per the server's policy:
            // quarantine (default) lets a faulting pipeline finish
            // degraded so harvest can salvage the response.
            automaton->setFaultPolicy(configuration.pipelineFaultPolicy);
            // Thread the request's trace context into the automaton so
            // every stage/sweep span its workers emit stitches into
            // this request's trace.
            automaton->setTraceId(entry.traceId);
            automaton->setDoneCallback([this, id] {
                MutexLock callback_lock(mutex);
                finishedIds.push_back(id);
                wake.notifyAll();
            });
            slotsUsed += gang;
            {
                obs::TraceContextScope context({entry.traceId, 0});
                obs::traceInstant(
                    "edf.dispatch", "service",
                    {"request", static_cast<double>(id)},
                    {"gang", static_cast<double>(gang)});
            }
            running.emplace(id, std::move(entry));
            updateDepthGaugesLocked();
            automaton->start(workers);
        }

        // 5. Sleep until the next actionable moment: a completion,
        // finished build, or submission (event), the earliest running
        // deadline, a queued head expiring, or the next quality poll.
        auto next_wake = Clock::time_point::max();
        for (const auto &[id, entry] : running) {
            if (entry.stopReason != StopReason::none)
                continue;
            next_wake = std::min(next_wake, entry.deadline);
            if (entry.minQuality > 0.0 && entry.pipeline.progress)
                next_wake =
                    std::min(next_wake, now + kQualityPollInterval);
        }
        if (!pending.empty()) {
            next_wake = std::min(next_wake, pending.begin()->first);
            // A head cooling down between build retries needs a wake
            // at notBefore, or the retry would wait for the next event.
            const PendingEntry &head = pending.begin()->second;
            if (!head.pipeline.automaton && head.notBefore > now)
                next_wake = std::min(next_wake, head.notBefore);
        }
        // A degraded server must recover without traffic: while the
        // brownout level is raised, keep evaluating on the interval
        // even if no request event arrives.
        if (configuration.brownout.enabled && brownout->level() > 0)
            next_wake = std::min(
                next_wake, now + configuration.brownout.evalInterval);
        // Drain grace expires on the clock, not on an event.
        if (draining && !drainExpired)
            next_wake = std::min(next_wake, drainDeadline);

        if (!finishedIds.empty() || !buildResults.empty() ||
            pendingDirty || stop.stop_requested())
            continue;
        const auto event = [&]() ANYTIME_REQUIRES(mutex) {
            return !finishedIds.empty() || !buildResults.empty() ||
                   pendingDirty;
        };
        if (next_wake == Clock::time_point::max())
            wake.wait(lock, stop, event);
        else
            wake.waitUntil(lock, stop, next_wake, event);
    }
}

void
AnytimeServer::drain()
{
    MutexLock lock(mutex);
    idleCv.wait(lock, [&]() ANYTIME_REQUIRES(mutex) {
        return pending.empty() && running.empty();
    });
}

void
AnytimeServer::beginDrain(std::chrono::nanoseconds grace)
{
    MutexLock lock(mutex);
    if (draining || stopping)
        return;
    draining = true;
    drainDeadline = Clock::now() + grace;
    // The scheduler may be parked on a next_wake computed before the
    // drain began (e.g. a far-off request deadline); a bare notify is
    // absorbed by its wait predicate. Flag a recompute so the sleep is
    // re-derived with drainDeadline folded in.
    pendingDirty = true;
    live.drainBegun->add();
    obs::traceInstant(
        "drain.begin", "service",
        {"grace_ms",
         std::chrono::duration<double, std::milli>(grace).count()},
        {"in_flight",
         static_cast<double>(pending.size() + running.size())});
    wake.notifyAll();
}

bool
AnytimeServer::drainComplete() const
{
    MutexLock lock(mutex);
    return draining && pending.empty() && running.empty();
}

int
AnytimeServer::brownoutLevel() const
{
    return brownout->level();
}

BrownoutLevelPolicy
AnytimeServer::brownoutPolicy() const
{
    return brownout->policy();
}

void
AnytimeServer::recordMissSignalLocked(const ServiceResponse &response)
{
    // The miss EWMA feeds brownout pressure. Only outcomes a client
    // experienced count: expired requests and served/salvaged answers
    // that held nothing at the deadline are misses; sheds and cancels
    // are controlled outcomes, not misses, and fold in as successes
    // would distort recovery — so they don't fold in at all.
    double miss;
    switch (response.status) {
      case ServiceStatus::expired:
        miss = 1.0;
        break;
      case ServiceStatus::preciseCompleted:
      case ServiceStatus::deadlineApprox:
      case ServiceStatus::qualityStopped:
      case ServiceStatus::degraded:
        miss = response.deadlineMet ? 0.0 : 1.0;
        break;
      default:
        return;
    }
    constexpr double alpha = 0.1;
    ewmaMissRate = (1.0 - alpha) * ewmaMissRate + alpha * miss;
}

double
AnytimeServer::p99BuildSecondsLocked() const
{
    if (buildRingCount == 0)
        return 0.0;
    std::array<double, kBuildRingSize> sorted;
    std::copy_n(buildRing.begin(), buildRingCount, sorted.begin());
    const std::size_t rank =
        (buildRingCount * 99 + 99) / 100 - 1; // ceil(0.99 n) - 1
    std::nth_element(sorted.begin(),
                     sorted.begin() + static_cast<std::ptrdiff_t>(rank),
                     sorted.begin() +
                         static_cast<std::ptrdiff_t>(buildRingCount));
    return sorted[rank];
}

void
AnytimeServer::evaluateBrownoutLocked(Clock::time_point now)
{
    if (!configuration.brownout.enabled)
        return;
    BrownoutController::Signals signals;
    signals.queueFraction =
        static_cast<double>(pending.size()) /
        static_cast<double>(configuration.maxQueueDepth);
    signals.missRate = ewmaMissRate;
    signals.p99BuildSeconds = p99BuildSecondsLocked();
    brownout->evaluate(now, signals);
}

ServiceMetrics
AnytimeServer::metricsSnapshot() const
{
    MutexLock lock(mutex);
    return metrics;
}

std::size_t
AnytimeServer::pendingCount() const
{
    MutexLock lock(mutex);
    return pending.size();
}

std::size_t
AnytimeServer::runningCount() const
{
    MutexLock lock(mutex);
    return running.size();
}

unsigned
AnytimeServer::workersInUse() const
{
    MutexLock lock(mutex);
    return slotsUsed;
}

std::vector<AnytimeServer::CircuitInfo>
AnytimeServer::circuitSnapshot() const
{
    MutexLock lock(mutex);
    const auto now = Clock::now();
    std::vector<CircuitInfo> result;
    result.reserve(circuits.size());
    for (const auto &[name, circuit] : circuits) {
        CircuitInfo info;
        info.pipeline = name;
        info.consecutiveFailures = circuit.consecutiveFailures;
        if (circuit.openUntil > now)
            info.openForSeconds =
                secondsBetween(now, circuit.openUntil);
        result.push_back(std::move(info));
    }
    return result;
}

} // namespace anytime
