#include "service/serve.hh"

#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <fstream>
#include <string>

#include "common/json.hh"
#include "service/signals.hh"

namespace sunstone {
namespace service {

namespace {

/**
 * One request line in, one response line out.
 * @return false when the line was not a request (answered unexecuted)
 */
bool
serveLine(SchedulerSession &session, const std::string &line)
{
    MappingRequest req;
    std::string err;
    JsonValue v;
    if (!parseJson(line, v, &err) ||
        !MappingRequest::fromJson(v, req, &err)) {
        MappingResponse resp;
        // Echo the id when the line parsed far enough to carry one; the
        // kind stays null, since no request was understood.
        if (const JsonValue *id = v.isObject() ? v.find("id") : nullptr)
            resp.id = id->asString();
        resp.kind.reset();
        resp.error = "bad request: " + err;
        std::printf("%s\n", resp.toJson().c_str());
        std::fflush(stdout);
        return false;
    }
    const MappingResponse resp = session.execute(req);
    std::printf("%s\n", resp.toJson().c_str());
    std::fflush(stdout);
    return true;
}

} // anonymous namespace

int
runServe(ServeOptions opts)
{
    // Serve must survive bad requests: fatals become error responses.
    opts.session.captureFatals = true;
    SchedulerSession session(opts.session);

    SignalBridge::instance().install();
    SignalBridge::instance().attach(&session.cancellation());

    std::fprintf(stderr,
                 "sunstone serve: ready (%u threads, queue %zu); one "
                 "JSON request per line\n",
                 session.threads(), opts.session.queueCapacity);

    std::int64_t answered = 0, unparseable = 0;
    const auto answer = [&](const std::string &line) {
        ++answered;
        unparseable += !serveLine(session, line);
    };
    std::string buffer;
    bool eof = false;
    while (!eof && SignalBridge::instance().signalCount() == 0) {
        struct pollfd pfd = {opts.inputFd, POLLIN, 0};
        // A short poll keeps the loop responsive to signals even when
        // no input arrives (the read below never blocks without data).
        const int pr = poll(&pfd, 1, 100);
        if (pr < 0) {
            if (errno == EINTR)
                continue;
            std::fprintf(stderr, "sunstone serve: poll failed\n");
            break;
        }
        if (pr == 0)
            continue;
        char chunk[4096];
        const ssize_t n = read(opts.inputFd, chunk, sizeof(chunk));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            std::fprintf(stderr, "sunstone serve: read failed\n");
            break;
        }
        if (n == 0) {
            eof = true;
        } else {
            buffer.append(chunk, static_cast<std::size_t>(n));
        }
        std::size_t start = 0;
        for (std::size_t nl; (nl = buffer.find('\n', start)) !=
                             std::string::npos;
             start = nl + 1) {
            const std::string line = buffer.substr(start, nl - start);
            if (line.find_first_not_of(" \t\r") == std::string::npos)
                continue;
            answer(line);
            if (SignalBridge::instance().signalCount() > 0)
                break;
        }
        buffer.erase(0, start);
    }
    // EOF with a trailing unterminated line: still a request.
    if (eof && SignalBridge::instance().signalCount() == 0 &&
        buffer.find_first_not_of(" \t\r") != std::string::npos)
        answer(buffer);

    const bool signalled = SignalBridge::instance().signalCount() > 0;
    if (!opts.metricsPath.empty()) {
        std::ofstream os(opts.metricsPath);
        if (os)
            os << session.healthJson() << "\n";
        else
            std::fprintf(stderr, "sunstone serve: cannot write '%s'\n",
                         opts.metricsPath.c_str());
    }
    const SessionCounters c = session.counters();
    std::fprintf(stderr,
                 "sunstone serve: %s; answered %lld lines: %lld executed "
                 "(%lld failed), %lld rejected, %lld unparseable\n",
                 signalled ? "signal shutdown" : "stdin closed",
                 static_cast<long long>(answered),
                 static_cast<long long>(c.executed),
                 static_cast<long long>(c.failed),
                 static_cast<long long>(c.rejected),
                 static_cast<long long>(unparseable));
    // A signalled shutdown is a clean shutdown: telemetry is flushed
    // above, so the exit status stays 0.
    return 0;
}

} // namespace service
} // namespace sunstone
