#include "net/client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <thread>

#include "fault/fault.hpp"
#include "net/http.hpp"
#include "obs/trace.hpp"
#include "support/stopwatch.hpp"

namespace anytime::net {

namespace {

/** Seed of the deterministic reconnect jitter sequence (reproducible
 *  runs). */
constexpr std::uint64_t kJitterSeed = 1;

/** RAII socket with poll()-bounded connect/send/recv. */
class BlockingSocket
{
  public:
    ~BlockingSocket()
    {
        if (fd >= 0)
            ::close(fd);
    }

    bool
    connectTo(const ClientOptions &options, std::string &error)
    {
        fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK |
                                   SOCK_CLOEXEC,
                      0);
        if (fd < 0) {
            error = std::string("socket(): ") + std::strerror(errno);
            return false;
        }
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(options.port);
        if (::inet_pton(AF_INET, options.host.c_str(),
                        &addr.sin_addr) != 1) {
            error = "bad host address '" + options.host + "'";
            return false;
        }
        if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof addr) != 0 &&
            errno != EINPROGRESS) {
            error = std::string("connect(): ") + std::strerror(errno);
            return false;
        }
        pollfd pfd{fd, POLLOUT, 0};
        const int ready =
            ::poll(&pfd, 1, static_cast<int>(options.timeout.count()));
        if (ready <= 0) {
            error = "connect timed out";
            return false;
        }
        int soError = 0;
        socklen_t len = sizeof soError;
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soError, &len);
        if (soError != 0) {
            error = std::string("connect(): ") +
                    std::strerror(soError);
            return false;
        }
        const int nodelay = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay,
                     sizeof nodelay);
        return true;
    }

    bool
    sendAll(const std::string &bytes, const ClientOptions &options,
            std::string &error)
    {
        std::size_t offset = 0;
        while (offset < bytes.size()) {
            const ssize_t n =
                ::send(fd, bytes.data() + offset,
                       bytes.size() - offset, MSG_NOSIGNAL);
            if (n > 0) {
                offset += static_cast<std::size_t>(n);
                continue;
            }
            if (n < 0 &&
                (errno == EAGAIN || errno == EWOULDBLOCK)) {
                pollfd pfd{fd, POLLOUT, 0};
                if (::poll(&pfd, 1,
                           static_cast<int>(
                               options.timeout.count())) <= 0) {
                    error = "send timed out";
                    return false;
                }
                continue;
            }
            if (n < 0 && errno == EINTR)
                continue;
            error = std::string("send(): ") + std::strerror(errno);
            return false;
        }
        return true;
    }

    /** One bounded read. 0 = EOF, <0 = timeout/error (error set). */
    ssize_t
    readSome(char *buf, std::size_t size, const ClientOptions &options,
             std::string &error)
    {
        for (;;) {
            const ssize_t n = ::recv(fd, buf, size, 0);
            if (n >= 0)
                return n;
            if (errno == EINTR)
                continue;
            if (errno != EAGAIN && errno != EWOULDBLOCK) {
                error =
                    std::string("recv(): ") + std::strerror(errno);
                return -1;
            }
            pollfd pfd{fd, POLLIN, 0};
            const int ready = ::poll(
                &pfd, 1, static_cast<int>(options.timeout.count()));
            if (ready <= 0) {
                error = "read timed out";
                return -1;
            }
        }
    }

    void
    sever()
    {
        if (fd >= 0) {
            ::close(fd);
            fd = -1;
        }
    }

  private:
    int fd = -1;
};

} // namespace

ClientResult
runRequest(const ClientOptions &options, const RequestFrame &request,
           const std::function<bool(const VersionFrame &frame)>
               &onVersion)
{
    ClientResult result;
    // The client originates the trace: mint the id here (unless the
    // caller brought one) so the span below, the wire frame, and
    // everything the server emits for this request share it.
    RequestFrame framed = request;
    if (framed.traceId == 0)
        framed.traceId = obs::newTraceId();
    result.traceId = framed.traceId;
    obs::TraceContextScope context({framed.traceId, 0});
    obs::TraceSpan span("client.request", "client");
    BlockingSocket socket;
    if (!socket.connectTo(options, result.error))
        return result;

    std::string bytes(kMagic, sizeof kMagic);
    bytes += encodeFrame(Frame{framed});
    Stopwatch clock;
    if (!socket.sendAll(bytes, options, result.error))
        return result;

    FrameReader reader;
    char buf[16384];
    for (;;) {
        while (auto frame = reader.next()) {
            if (auto *accepted = std::get_if<AcceptedFrame>(&*frame)) {
                result.accepted = *accepted;
            } else if (auto *version =
                           std::get_if<VersionFrame>(&*frame)) {
                if (result.versions.empty())
                    result.firstVersionSeconds = clock.seconds();
                result.versions.push_back(*version);
                if (onVersion && !onVersion(*version)) {
                    // The caller is done listening: sever the socket
                    // mid-stream (the disconnect-as-cancel rehearsal).
                    socket.sever();
                    result.severed = true;
                    result.ok = true;
                    return result;
                }
            } else if (auto *done = std::get_if<DoneFrame>(&*frame)) {
                result.done = *done;
                result.ok = true;
                return result;
            } else if (auto *serverError =
                           std::get_if<ErrorFrame>(&*frame)) {
                result.serverError = serverError->message;
                result.error = "server error: " + serverError->message;
                return result;
            } else {
                result.error = "unexpected frame from server";
                return result;
            }
        }
        if (reader.failed()) {
            result.error = "corrupt stream: " + reader.error();
            return result;
        }
        const ssize_t n =
            socket.readSome(buf, sizeof buf, options, result.error);
        if (n < 0)
            return result;
        if (n == 0) {
            result.error = "connection closed before DONE";
            return result;
        }
        reader.feed(buf, static_cast<std::size_t>(n));
    }
}

ResilientClientResult
runResilientRequest(const ClientOptions &options,
                    const RequestFrame &request,
                    const ResilienceOptions &resilience,
                    const std::function<bool(const VersionFrame &frame)>
                        &onVersion)
{
    ResilientClientResult result;
    // One trace id for the whole logical request: every reconnect
    // attempt carries it, so the server-side spans of a severed-and-
    // resumed stream stitch into a single trace.
    RequestFrame framed = request;
    if (framed.traceId == 0)
        framed.traceId = obs::newTraceId();
    result.traceId = framed.traceId;

    Stopwatch overall;
    const double deadlineSeconds =
        std::chrono::duration<double>(resilience.overallDeadline)
            .count();
    const unsigned maxAttempts = std::max(1u, resilience.maxAttempts);

    // The client-side monotone guard: versions at or below what we
    // already hold are dropped (a same-version final upgrade passes),
    // so the caller sees one strictly improving stream regardless of
    // how many times the transport failed under it.
    std::uint64_t lastSeen = framed.resumeFromVersion;
    bool lastSeenFinal = false;

    for (unsigned attempt = 1; attempt <= maxAttempts; ++attempt) {
        result.attempts = attempt;
        framed.resumeFromVersion = lastSeen;
        if (attempt > 1 && lastSeen > 0) {
            ++result.resumes;
            result.lastResumeVersion = lastSeen;
        }
        const auto guarded =
            [&](const VersionFrame &frame) -> bool {
            if (frame.version < lastSeen)
                return true; // stale replay: drop, keep listening
            if (frame.version == lastSeen &&
                !(frame.final && !lastSeenFinal))
                return true;
            lastSeen = frame.version;
            lastSeenFinal = frame.final;
            if (result.versions.empty())
                result.firstVersionSeconds = overall.seconds();
            result.versions.push_back(frame);
            return onVersion ? onVersion(frame) : true;
        };
        ClientResult one = runRequest(options, framed, guarded);
        result.accepted = one.accepted;
        if (one.ok) {
            result.ok = true;
            result.severed = one.severed;
            result.done = one.done;
            result.error.clear();
            return result;
        }
        result.error = one.error;
        if (one.serverError) {
            // The server answered and refused: retrying would just be
            // refused again (bad request, draining, shed). Final.
            result.serverError = one.serverError;
            return result;
        }
        if (attempt == maxAttempts)
            return result;
        // Deterministic jittered exponential backoff, the same shape
        // the service's build retries use (mix64-seeded: reproducible,
        // uncorrelated across attempts — no reconnect convoys).
        const auto base = resilience.backoffBase;
        auto wait = std::chrono::nanoseconds(base) *
                    (1LL << (attempt - 1));
        if (base.count() > 0)
            wait += std::chrono::nanoseconds(
                static_cast<std::int64_t>(
                    fault::mix64(kJitterSeed ^ attempt) %
                    static_cast<std::uint64_t>(
                        std::chrono::nanoseconds(base).count())));
        if (deadlineSeconds > 0.0 &&
            overall.seconds() +
                    std::chrono::duration<double>(wait).count() >=
                deadlineSeconds) {
            // Deadline-aware give-up: sleeping past the caller's bound
            // helps nobody — report the last transport error now.
            result.error += " (gave up: overall deadline)";
            return result;
        }
        std::this_thread::sleep_for(wait);
    }
    return result;
}

HttpResult
httpGet(const ClientOptions &options, const std::string &target)
{
    HttpResult result;
    BlockingSocket socket;
    if (!socket.connectTo(options, result.error))
        return result;

    const std::string request = "GET " + target +
                                " HTTP/1.1\r\n"
                                "Host: " +
                                options.host +
                                "\r\n"
                                "Connection: close\r\n"
                                "\r\n";
    if (!socket.sendAll(request, options, result.error))
        return result;

    std::string raw;
    char buf[16384];
    for (;;) {
        const ssize_t n =
            socket.readSome(buf, sizeof buf, options, result.error);
        if (n < 0)
            return result;
        if (n == 0)
            break; // server closes after the response
        raw.append(buf, static_cast<std::size_t>(n));
    }

    const std::size_t headEnd = raw.find("\r\n\r\n");
    if (headEnd == std::string::npos) {
        result.error = "truncated HTTP response";
        return result;
    }
    std::istringstream head(raw.substr(0, headEnd));
    std::string line;
    if (!std::getline(head, line)) {
        result.error = "empty HTTP response";
        return result;
    }
    if (!line.empty() && line.back() == '\r')
        line.pop_back();
    if (line.compare(0, 5, "HTTP/") != 0 ||
        std::sscanf(line.c_str(), "HTTP/%*d.%*d %d",
                    &result.status) != 1) {
        result.error = "malformed status line: " + line;
        return result;
    }
    while (std::getline(head, line)) {
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        const std::size_t colon = line.find(':');
        if (colon == std::string::npos)
            continue;
        std::string name = line.substr(0, colon);
        for (char &ch : name)
            ch = static_cast<char>(
                std::tolower(static_cast<unsigned char>(ch)));
        std::size_t begin = colon + 1;
        while (begin < line.size() && line[begin] == ' ')
            ++begin;
        result.headers[name] = line.substr(begin);
    }

    std::string body = raw.substr(headEnd + 4);
    const auto transfer = result.headers.find("transfer-encoding");
    if (transfer != result.headers.end() &&
        transfer->second == "chunked") {
        auto decoded = decodeChunked(body);
        if (!decoded) {
            result.error = "malformed chunked body";
            return result;
        }
        body = std::move(*decoded);
    }
    result.body = std::move(body);
    result.ok = true;
    return result;
}

} // namespace anytime::net
