#include "common/logging.hh"

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <iostream>

namespace sunstone {

namespace {

LogLevel
levelFromEnv()
{
    const char *env = std::getenv("SUNSTONE_LOG");
    if (!env)
        return LogLevel::Info;
    std::string s(env);
    for (char &c : s)
        c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    if (s == "debug")
        return LogLevel::Debug;
    if (s == "info")
        return LogLevel::Info;
    if (s == "warn" || s == "warning")
        return LogLevel::Warn;
    if (s == "silent" || s == "quiet" || s == "off")
        return LogLevel::Silent;
    // An unrecognized value falls back to the default rather than
    // warning: the logger is not usable while it is being configured.
    return LogLevel::Info;
}

std::atomic<LogLevel> gLevel{levelFromEnv()};

bool
enabled(LogLevel at)
{
    return gLevel.load(std::memory_order_relaxed) <= at;
}

/** Wall-clock "[HH:MM:SS.mmm] " prefix. */
std::string
stamp()
{
    using namespace std::chrono;
    const auto now = system_clock::now();
    const std::time_t t = system_clock::to_time_t(now);
    const int ms = static_cast<int>(
        duration_cast<milliseconds>(now.time_since_epoch()).count() %
        1000);
    std::tm tm{};
    localtime_r(&t, &tm);
    char buf[24];
    std::snprintf(buf, sizeof(buf), "[%02d:%02d:%02d.%03d] ",
                  tm.tm_hour, tm.tm_min, tm.tm_sec, ms);
    return buf;
}

} // anonymous namespace

void
setLogLevel(LogLevel level)
{
    gLevel.store(level, std::memory_order_relaxed);
}

LogLevel
logLevel()
{
    return gLevel.load(std::memory_order_relaxed);
}

namespace detail {

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::cerr << stamp() << "panic: " << msg << "\n  at " << file << ":"
              << line << std::endl;
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    if (ScopedFatalCapture::active())
        throw FatalError(msg + " (at " + file + ":" +
                         std::to_string(line) + ")");
    std::cerr << stamp() << "fatal: " << msg << "\n  at " << file << ":"
              << line << std::endl;
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    if (enabled(LogLevel::Warn))
        std::cerr << stamp() << "warn: " << msg << std::endl;
}

void
informImpl(const std::string &msg)
{
    if (enabled(LogLevel::Info))
        std::cerr << stamp() << "info: " << msg << std::endl;
}

void
debugImpl(const std::string &msg)
{
    if (enabled(LogLevel::Debug))
        std::cerr << stamp() << "debug: " << msg << std::endl;
}

} // namespace detail

namespace {

/** Nesting depth of ScopedFatalCapture on this thread. */
thread_local int gFatalCaptureDepth = 0;

} // anonymous namespace

ScopedFatalCapture::ScopedFatalCapture() { ++gFatalCaptureDepth; }

ScopedFatalCapture::~ScopedFatalCapture() { --gFatalCaptureDepth; }

bool
ScopedFatalCapture::active()
{
    return gFatalCaptureDepth > 0;
}

} // namespace sunstone
