#include "obs/flight_recorder.hh"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>

#include "common/json.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace sunstone {
namespace obs {

FlightRecorder::FlightRecorder(std::size_t capacity)
    : cap_(std::max<std::size_t>(8, capacity))
{
    ring_.reserve(cap_);
}

void
FlightRecorder::record(const std::string &kind, const std::string &detail)
{
    FlightEvent e;
    e.ns = traceNowNs();
    e.kind = kind;
    e.detail = detail;
    std::lock_guard<std::mutex> lk(mtx_);
    if (ring_.size() < cap_)
        ring_.push_back(std::move(e));
    else
        ring_[recorded_ % cap_] = std::move(e);
    ++recorded_;
}

std::uint64_t
FlightRecorder::eventsRecorded() const
{
    std::lock_guard<std::mutex> lk(mtx_);
    return recorded_;
}

std::uint64_t
FlightRecorder::eventsDropped() const
{
    std::lock_guard<std::mutex> lk(mtx_);
    return recorded_ > cap_ ? recorded_ - cap_ : 0;
}

std::vector<FlightEvent>
FlightRecorder::events() const
{
    std::lock_guard<std::mutex> lk(mtx_);
    std::vector<FlightEvent> out;
    out.reserve(ring_.size());
    // Oldest-first: once wrapped, the slot at recorded_ % cap_ is the
    // oldest retained event.
    const std::size_t n = ring_.size();
    const std::size_t first = recorded_ > cap_ ? recorded_ % cap_ : 0;
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(ring_[(first + i) % n]);
    return out;
}

std::string
FlightRecorder::toJsonl() const
{
    std::string out;
    for (const FlightEvent &e : events()) {
        out += "{\"ns\":" + std::to_string(e.ns) + ",\"kind\":\"" +
               jsonEscape(e.kind) + "\",\"detail\":\"" +
               jsonEscape(e.detail) + "\"}\n";
    }
    return out;
}

void
FlightRecorder::clear()
{
    std::lock_guard<std::mutex> lk(mtx_);
    ring_.clear();
    recorded_ = 0;
}

FlightRecorder &
flightRecorder()
{
    // Never destroyed: detached threads (the signal watcher) may still
    // record while the process runs its static destructors at exit.
    static FlightRecorder *r = new FlightRecorder;
    return *r;
}

// ---------------------------------------------------------------------
// Diag bundle
// ---------------------------------------------------------------------

namespace {

std::mutex g_diagMtx;
std::string g_diagDir;
std::function<std::string()> g_diagExtra;

bool
writeFileTo(const std::filesystem::path &path, const std::string &text)
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << text;
    return os.good();
}

} // anonymous namespace

void
setDiagDir(const std::string &dir)
{
    std::lock_guard<std::mutex> lk(g_diagMtx);
    g_diagDir = dir;
}

std::string
diagDir()
{
    std::lock_guard<std::mutex> lk(g_diagMtx);
    return g_diagDir;
}

void
setDiagExtraProvider(std::function<std::string()> provider)
{
    std::lock_guard<std::mutex> lk(g_diagMtx);
    g_diagExtra = std::move(provider);
}

bool
writeDiagBundle(const std::string &reason)
{
    std::string dir;
    std::function<std::string()> extra;
    {
        std::lock_guard<std::mutex> lk(g_diagMtx);
        dir = g_diagDir;
        extra = g_diagExtra;
    }
    if (dir.empty())
        return false;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    const std::filesystem::path base(dir);

    FlightRecorder &rec = flightRecorder();
    std::string crash = "reason: " + reason + "\n";
    crash += "events_recorded: " + std::to_string(rec.eventsRecorded()) +
             "\n";
    crash +=
        "events_dropped: " + std::to_string(rec.eventsDropped()) + "\n";
    crash += "uptime_ns: " + std::to_string(traceNowNs()) + "\n";
    bool ok = writeFileTo(base / "crash.txt", crash);
    ok &= writeFileTo(base / "events.jsonl", rec.toJsonl());
    ok &= writeFileTo(base / "metrics.json",
                      "{\"registry\": " + metrics().toJson() + "}");
    if (extra)
        ok &= writeFileTo(base / "engine.json", extra());
    if (tracer().spansRecorded() > 0)
        ok &= writeFileTo(base / "trace.json", tracer().toChromeJson());
    return ok;
}

namespace {

void
crashSignalHandler(int sig)
{
    const char *name = "signal";
    switch (sig) {
    case SIGSEGV:
        name = "SIGSEGV";
        break;
    case SIGABRT:
        name = "SIGABRT";
        break;
    case SIGFPE:
        name = "SIGFPE";
        break;
    case SIGILL:
        name = "SIGILL";
        break;
#ifdef SIGBUS
    case SIGBUS:
        name = "SIGBUS";
        break;
#endif
    }
    // Best effort (allocates, takes locks): a crashing process has
    // nothing to lose, and the bundle is the only record of the run.
    writeDiagBundle(std::string("fatal signal ") + name);
    std::signal(sig, SIG_DFL);
    std::raise(sig);
}

std::terminate_handler g_prevTerminate = nullptr;

[[noreturn]] void
terminateHandler()
{
    writeDiagBundle("std::terminate");
    if (g_prevTerminate)
        g_prevTerminate();
    std::abort();
}

} // anonymous namespace

void
installCrashHandlers()
{
    static bool installed = false;
    std::lock_guard<std::mutex> lk(g_diagMtx);
    if (installed)
        return;
    installed = true;
    std::signal(SIGSEGV, crashSignalHandler);
    std::signal(SIGABRT, crashSignalHandler);
    std::signal(SIGFPE, crashSignalHandler);
    std::signal(SIGILL, crashSignalHandler);
#ifdef SIGBUS
    std::signal(SIGBUS, crashSignalHandler);
#endif
    g_prevTerminate = std::set_terminate(terminateHandler);
}

} // namespace obs
} // namespace sunstone
