#include "ledger.hh"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <sstream>

#include "arch/presets.hh"
#include "common/json.hh"
#include "mapping/mapping.hh"
#include "obs/thread_registry.hh"
#include "workload/zoo.hh"

namespace {

std::atomic<bool> g_countAllocs{false};
std::atomic<std::uint64_t> g_allocs{0};

void *
countedAlloc(std::size_t n)
{
    if (g_countAllocs.load(std::memory_order_relaxed))
        g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

} // anonymous namespace

// The counting allocator lives only in this binary: the scheduler's
// libraries are linked unchanged, and their allocations land here.
void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace ledger {

void
setAllocCounting(bool on)
{
    g_countAllocs.store(on, std::memory_order_relaxed);
}

std::uint64_t
allocCount()
{
    return g_allocs.load(std::memory_order_relaxed);
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    if (!std::isfinite(value)) {
        std::fprintf(stderr, "ledger: metric %s is not finite\n",
                     name.c_str());
        value = 0;
    }
    metrics.push_back({name, {value, unit}});
}

void
Report::probe(bool handled)
{
    ++probes;
    if (!handled)
        ++probesUnhandled;
}

void
Report::checkFailed(const std::string &what)
{
    if (correct)
        std::fprintf(stderr, "ledger: output check failed: %s\n",
                     what.c_str());
    correct = false;
}

void
Report::detail(const std::string &key, const std::string &json)
{
    std::printf("# %s %s\n", key.c_str(), json.c_str());
}

std::string
Report::toJson() const
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", metrics[i].second.first);
        out += (i ? ", \"" : "\"") + metrics[i].first + "\": {\"value\": " +
               buf + ", \"unit\": \"" + metrics[i].second.second + "\"}";
    }
    return out + "}}";
}

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuSeconds()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_utime.tv_sec + ru.ru_stime.tv_sec +
           1e-6 * (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

long
procStatusKb(int pid, const char *field)
{
    std::ifstream is(pid ? "/proc/" + std::to_string(pid) + "/status"
                         : std::string("/proc/self/status"));
    const std::size_t len = std::strlen(field);
    for (std::string line; std::getline(is, line);)
        if (line.compare(0, len, field) == 0 && line.size() > len &&
            line[len] == ':')
            return std::atol(line.c_str() + len + 1);
    return -1;
}

double
peakRssMb()
{
    return procStatusKb(0, "VmHWM") / 1024.0;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0;
    double s = 0;
    for (double x : v)
        s += std::log(x);
    return std::exp(s / static_cast<double>(v.size()));
}

Tail
tailOf(std::vector<double> v)
{
    Tail t;
    t.n = static_cast<int>(v.size());
    if (v.empty())
        return t;
    std::sort(v.begin(), v.end());
    const int idx = std::max(0, t.n - 11);
    t.value = v[idx];
    t.beyond = t.n - 1 - idx;
    t.percentile = 100.0 * (idx + 1) / t.n;
    return t;
}

void
reportLatency(Report &r, const std::string &what,
              const std::vector<double> &seconds)
{
    const Tail t = tailOf(seconds);
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "{\"of\": \"%s\", \"n\": %d, \"tail_percentile\": %.2f, "
                  "\"beyond\": %d}",
                  what.c_str(), t.n, t.percentile, t.beyond);
    Report::detail("latency", buf);
    r.metric("latency_p50_ms", 1e3 * median(seconds), "ms");
    r.metric("latency_tail_ms", 1e3 * t.value, "ms");
}

Workload
overflowProbe()
{
    ConvShape s;
    s.n = s.k = s.c = 1000000007;
    s.name = "overflow_probe";
    return makeConv2D(s);
}

namespace {

/** Picks up CostResult::saturated once the cost model reports it. */
template <class C>
bool
saturatedFlag(const C &c)
{
    if constexpr (requires { c.saturated; })
        return static_cast<bool>(c.saturated);
    else
        return false;
}

} // anonymous namespace

bool
probeHandled(bool found, const CostResult &c)
{
    return !found || saturatedFlag(c);
}

bool
sameCost(const CostResult &a, const CostResult &b)
{
    return a.valid == b.valid &&
           std::memcmp(&a.totalEnergyPj, &b.totalEnergyPj,
                       sizeof(double)) == 0 &&
           std::memcmp(&a.delaySeconds, &b.delaySeconds, sizeof(double)) ==
               0;
}

bool
checkWinner(const BoundArch &ba, const Mapping &m, const CostResult &reported,
            std::string *why)
{
    std::string reason;
    if (!m.valid(ba, &reason)) {
        *why = "invalid winning mapping: " + reason;
        return false;
    }
    const CostResult fresh = evaluateMapping(ba, m);
    if (!sameCost(fresh, reported)) {
        char buf[200];
        std::snprintf(buf, sizeof buf,
                      "re-evaluation differs: %.17g pJ %.17g s vs reported "
                      "%.17g pJ %.17g s",
                      fresh.totalEnergyPj, fresh.delaySeconds,
                      reported.totalEnergyPj, reported.delaySeconds);
        *why = buf;
        return false;
    }
    return true;
}

double
Attribution::seconds(const std::string &name) const
{
    auto it = total.find(name);
    return it == total.end() ? 0 : 1e-9 * it->second.selfNs;
}

std::int64_t
Attribution::calls(const std::string &name) const
{
    auto it = total.find(name);
    return it == total.end() ? 0 : it->second.calls;
}

double
Attribution::busyFrac(unsigned threads) const
{
    auto it = total.find("pool.task");
    return it == total.end()
               ? 0
               : static_cast<double>(it->second.topNs) /
                     (static_cast<double>(threads) * windowNs);
}

std::string
Attribution::toJson() const
{
    std::ostringstream os;
    os.precision(9);
    os << "{\"window_s\": " << 1e-9 * windowNs << ", \"balanced\": "
       << (balanced ? "true" : "false") << ", \"dropped\": " << dropped
       << ", \"nesting_errors\": " << nestingErrors << ", \"threads\": [";
    bool first = true;
    for (const auto &[tid, spans] : perThread) {
        std::int64_t sum = untracedNs.at(tid);
        os << (first ? "" : ", ") << "{\"thread\": " << tid
           << ", \"untraced_s\": " << 1e-9 * untracedNs.at(tid)
           << ", \"self_s\": {";
        first = false;
        bool f2 = true;
        for (const auto &[name, st] : spans) {
            os << (f2 ? "" : ", ") << "\"" << jsonEscape(name)
               << "\": " << 1e-9 * st.selfNs;
            sum += st.selfNs;
            f2 = false;
        }
        os << "}, \"sum_s\": " << 1e-9 * sum << "}";
    }
    os << "]}";
    return os.str();
}

Attribution
traced(const std::function<void()> &fn)
{
    obs::Tracer &tr = obs::tracer();
    tr.setRingCapacity(std::size_t(1) << 20);
    tr.clear();
    tr.setEnabled(true);
    const std::int64_t t0 = obs::traceNowNs();
    {
        obs::TraceSpan root("ledger.traced");
        fn();
    }
    const std::int64_t t1 = obs::traceNowNs();
    tr.setEnabled(false);

    Attribution a;
    a.windowNs = t1 - t0;
    a.dropped = tr.spansDropped();
    std::map<int, std::vector<obs::SpanRecord>> byThread;
    const int self = obs::currentThreadIndex();
    for (auto &s : tr.spans())
        if (s.startNs >= t0 && s.startNs + s.durNs <= t1) {
            if (s.threadIndex != self)
                a.otherStarts.push_back(s.startNs);
            byThread[s.threadIndex].push_back(std::move(s));
        }
    tr.clear();
    std::sort(a.otherStarts.begin(), a.otherStarts.end());

    a.balanced = a.dropped == 0;
    for (auto &[tid, spans] : byThread) {
        std::sort(spans.begin(), spans.end(),
                  [](const obs::SpanRecord &x, const obs::SpanRecord &y) {
                      return x.startNs != y.startNs ? x.startNs < y.startNs
                                                    : x.durNs > y.durNs;
                  });
        auto &stats = a.perThread[tid];
        struct Open
        {
            std::int64_t end;
            std::int64_t dur;
            std::int64_t childNs;
            std::string name;
        };
        std::vector<Open> stack;
        std::int64_t topSum = 0;
        auto close = [&] {
            const Open &o = stack.back();
            SpanStat &st = stats[o.name];
            st.selfNs += o.dur - o.childNs;
            ++st.calls;
            stack.pop_back();
        };
        for (const auto &s : spans) {
            const std::int64_t end = s.startNs + s.durNs;
            while (!stack.empty() && stack.back().end <= s.startNs)
                close();
            std::string name = s.name.substr(0, s.name.find(':'));
            if (stack.empty()) {
                topSum += s.durNs;
                stats[name].topNs += s.durNs;
            } else {
                if (end > stack.back().end)
                    ++a.nestingErrors;
                stack.back().childNs += s.durNs;
            }
            stack.push_back({end, s.durNs, 0, std::move(name)});
        }
        while (!stack.empty())
            close();
        // Self times sum to topSum by construction; what can fail is
        // that the outermost spans overlap (a nesting error) or exceed
        // the window.
        a.untracedNs[tid] = a.windowNs - topSum;
        for (const auto &[name, st] : stats) {
            SpanStat &t = a.total[name];
            t.selfNs += st.selfNs;
            t.calls += st.calls;
            t.topNs += st.topNs;
        }
        if (a.untracedNs[tid] < 0)
            a.balanced = false;
    }
    if (a.nestingErrors)
        a.balanced = false;
    return a;
}

namespace {

/** Sums two histograms with the same buckets (an empty one is zero). */
obs::HistogramSnapshot
histSum(const obs::HistogramSnapshot &a, const obs::HistogramSnapshot &b)
{
    if (a.counts.empty())
        return b;
    obs::HistogramSnapshot d = a;
    if (d.counts.size() != b.counts.size())
        return d;
    for (std::size_t i = 0; i < d.counts.size(); ++i)
        d.counts[i] += b.counts[i];
    d.count += b.count;
    d.sum += b.sum;
    return d;
}

} // anonymous namespace

SearchStats
addStats(const SearchStats &a, const SearchStats &b)
{
    SearchStats s;
    s.evaluations = a.evaluations + b.evaluations;
    s.cacheHits = a.cacheHits + b.cacheHits;
    s.cacheMisses = a.cacheMisses + b.cacheMisses;
    s.invalidMappings = a.invalidMappings + b.invalidMappings;
    s.prunes = a.prunes + b.prunes;
    s.evictions = a.evictions + b.evictions;
    s.prefixHits = a.prefixHits + b.prefixHits;
    s.prefixMisses = a.prefixMisses + b.prefixMisses;
    s.scratchReuses = a.scratchReuses + b.scratchReuses;
    s.batches = a.batches + b.batches;
    s.evalLatencyUs = histSum(a.evalLatencyUs, b.evalLatencyUs);
    s.batchSize = histSum(a.batchSize, b.batchSize);
    return s;
}

void
reportEngine(Report &r, const SearchStats &d,
             std::int64_t selftest_evaluations)
{
    if (d.evaluations != selftest_evaluations)
        r.checkFailed("engine evaluations " + std::to_string(d.evaluations) +
                      " differ from the self-test's " +
                      std::to_string(selftest_evaluations));
    auto ratio = [](double x, double y) { return y > 0 ? x / y : 0.0; };
    const double evals = static_cast<double>(d.evaluations);
    const double lookups = static_cast<double>(d.cacheHits + d.cacheMisses);
    r.metric("engine.evaluations", evals, "count");
    r.metric("engine.memo_lookups", lookups, "count");
    r.metric("engine.memo_hit_rate", ratio(d.cacheHits, lookups), "frac");
    r.metric("engine.memo_coverage", ratio(lookups, evals), "frac");
    r.metric("engine.prefix_hit_rate",
             ratio(d.prefixHits, d.prefixHits + d.prefixMisses), "frac");
    r.metric("engine.invalid_frac", ratio(d.invalidMappings, evals), "frac");
    r.metric("engine.batch_share", ratio(d.batchSize.sum, evals), "frac");
    r.metric("engine.prunes", static_cast<double>(d.prunes), "count");
    r.metric("engine.evictions", static_cast<double>(d.evictions), "count");
    const double p50 = d.evalLatencyUs.percentile(50);
    r.metric("engine.eval_p50_us", std::isfinite(p50) ? p50 : 0, "us");
}

ArchSpec
archByName(const std::string &name)
{
    return name == "simba" ? makeSimbaLike() : makeConventional();
}

Workload
forArch(Workload wl, const std::string &arch_name)
{
    if (arch_name == "simba")
        applySimbaPrecisions(wl);
    return wl;
}

} // namespace ledger
