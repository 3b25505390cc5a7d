/**
 * @file
 * Blocking loopback client for the anytime streaming protocol.
 *
 * Used by the tests, the net bench, and the example CLI — it is a
 * reference consumer, not a production SDK. runRequest() opens a
 * connection, sends the magic + REQUEST frame, and surfaces every
 * VERSION frame through an optional callback as it arrives (the
 * anytime contract on the client side: act on the current best
 * answer, upgrade when a better one lands). The callback returning
 * false severs the connection immediately — how the tests exercise
 * the server's disconnect-as-cancel path mid-stream.
 *
 * All reads are poll()-bounded by the configured timeout, so a dead
 * server fails the call instead of hanging a test.
 */

#ifndef ANYTIME_NET_CLIENT_HPP
#define ANYTIME_NET_CLIENT_HPP

#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "net/wire.hpp"

namespace anytime::net {

/** Where and how patiently to connect. */
struct ClientOptions
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    /** Bound on connect and on each read wait. */
    std::chrono::milliseconds timeout{5000};
};

/** Everything one streamed request produced. */
struct ClientResult
{
    /** True when the stream ended cleanly (DONE) or was deliberately
     *  severed by the version callback. */
    bool ok = false;
    /** Failure description when !ok (connect/timeout/protocol). */
    std::string error;
    /** True when the version callback asked to sever mid-stream. */
    bool severed = false;
    /** Server ERROR frame payload, when one arrived. */
    std::optional<std::string> serverError;
    std::optional<AcceptedFrame> accepted;
    /** Trace id this request ran under: the caller's when the frame
     *  carried one, otherwise minted client-side before the send (the
     *  client is the trace origin). The server echo lives in
     *  accepted->traceId and matches unless the request coalesced onto
     *  an earlier identical stream. */
    std::uint64_t traceId = 0;
    /** Every version received, in arrival order. */
    std::vector<VersionFrame> versions;
    std::optional<DoneFrame> done;
    /** Seconds from the request write to the first VERSION frame
     *  (client-observed; NaN when none arrived). */
    double firstVersionSeconds =
        std::numeric_limits<double>::quiet_NaN();
};

/**
 * Run one streamed request to completion (or severance). @p onVersion
 * (optional) sees each VERSION frame as it arrives; returning false
 * closes the socket immediately.
 */
ClientResult
runRequest(const ClientOptions &options, const RequestFrame &request,
           const std::function<bool(const VersionFrame &frame)>
               &onVersion = nullptr);

/** Retry/backoff/resume tuning for runResilientRequest(). */
struct ResilienceOptions
{
    /** Total connection attempts (first try included). */
    unsigned maxAttempts = 5;
    /** Base of the exponential retry backoff: attempt n waits
     *  base * 2^(n-1) plus a deterministic jitter in [0, base). */
    std::chrono::milliseconds backoffBase{10};
    /** Overall give-up bound across all attempts and backoffs;
     *  zero means attempts are the only limit. */
    std::chrono::milliseconds overallDeadline{0};
};

/** runResilientRequest()'s aggregate across reconnect attempts. */
struct ResilientClientResult : ClientResult
{
    /** Connection attempts made (>= 1). */
    unsigned attempts = 0;
    /** Times a reconnect resumed from a last-seen version (> 0 means
     *  the stream was severed and continued monotone). */
    unsigned resumes = 0;
    /** The last-seen version the final attempt resumed from. */
    std::uint64_t lastResumeVersion = 0;
};

/**
 * runRequest() hardened for a lossy world: on a transport failure
 * (connect refused, read timeout, connection severed before DONE) it
 * backs off — deterministic jittered exponential, seeded — and
 * reconnects with `resumeFromVersion` set to the last version it
 * already holds. The server replays forward from its coalescing
 * cache, so `versions` stays monotone across severances and the
 * caller's @p onVersion never sees a duplicate or a regression. A
 * server ERROR frame is not retried (the server meant it), and the
 * overall deadline bounds the total time spent trying.
 */
ResilientClientResult
runResilientRequest(const ClientOptions &options,
                    const RequestFrame &request,
                    const ResilienceOptions &resilience = {},
                    const std::function<bool(const VersionFrame &frame)>
                        &onVersion = nullptr);

/** One plain HTTP exchange against the same listener. */
struct HttpResult
{
    bool ok = false;
    std::string error;
    int status = 0;
    /** Response headers, names lower-cased. */
    std::map<std::string, std::string> headers;
    /** Body, de-chunked when the response was chunked. */
    std::string body;
};

/** Blocking GET of @p target (e.g. "/metrics"). */
HttpResult httpGet(const ClientOptions &options,
                   const std::string &target);

} // namespace anytime::net

#endif // ANYTIME_NET_CLIENT_HPP
