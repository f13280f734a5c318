/**
 * @file
 * Shared pieces of the scheduling benchmark: the run report, clocks and
 * resource probes, order statistics, output checks, the allocation
 * counter and the exclusive-time reduction of traced spans.
 */

#ifndef LEDGER_LEDGER_HH
#define LEDGER_LEDGER_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "arch/arch.hh"
#include "model/cost_model.hh"
#include "model/eval_engine.hh"
#include "obs/trace.hh"
#include "workload/workload.hh"

namespace ledger {

using namespace sunstone;

/** Command-line arguments of one benchmark run. */
struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** The `sunstone` CLI binary serve_mix spawns. */
    std::string cli;
    /** Scratch directory for files the run writes (inside the checkout). */
    std::string workdir;
    /** Print the exact counts of one core run and exit (self-test child). */
    bool counts = false;
};

/** What one run prints: verdict, operation counts and named metrics. */
struct Report
{
    bool correct = true;
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    /**
     * Overflow probes sent, and those answered as a plain success (not
     * rejected, not flagged saturated). They show a known defect, so
     * they are counted apart from the operations above.
     */
    std::int64_t probes = 0;
    std::int64_t probesUnhandled = 0;
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics;

    void metric(const std::string &name, double value,
                const std::string &unit);
    /** Counts one overflow probe and whether it was handled. */
    void probe(bool handled);
    /** Records a failed output check: the run is no longer correct. */
    void checkFailed(const std::string &what);
    /** Prints one human-readable detail line (not the last line). */
    static void detail(const std::string &key, const std::string &json);
    /** The last stdout line: {"correct", "attempted", "failed", "metrics"}. */
    std::string toJson() const;
};

/** One layer search: a workload bound to an architecture. */
struct LayerItem
{
    std::string archName;
    ArchSpec arch;
    Workload wl;
};

/** Seconds on the steady clock. */
double now();
/** Process CPU seconds, user plus system, over all threads. */
double cpuSeconds();
/** Peak resident set (VmHWM) of this process in MB. */
double peakRssMb();
/** A /proc status field of `pid` (0 = self) in kB, or -1. */
long procStatusKb(int pid, const char *field);

double median(std::vector<double> v);
double geomean(const std::vector<double> &v);

/**
 * The tail of a latency sample: the highest percentile with at least
 * ten samples beyond it, i.e. the 11th-largest sample.
 */
struct Tail
{
    double value = 0;
    double percentile = 0;
    int beyond = 0;
    int n = 0;
};
Tail tailOf(std::vector<double> v);
/** Adds latency_p50_ms and latency_tail_ms from per-operation seconds. */
void reportLatency(Report &r, const std::string &what,
                   const std::vector<double> &seconds);

/** Counts operator-new calls while enabled (this binary only). */
void setAllocCounting(bool on);
std::uint64_t allocCount();

/**
 * Overflow probe: a conv whose MAC count (~1e27) cannot be represented
 * in 64 bits. The three prime extents keep the search tiny.
 */
Workload overflowProbe();
/**
 * Whether a probe result is handled: not found (rejected), or flagged
 * saturated by a `saturated` member once CostResult grows one.
 */
bool probeHandled(bool found, const CostResult &c);

/** Energy and delay equal bit for bit. */
bool sameCost(const CostResult &a, const CostResult &b);
/**
 * Checks a reported winner: Mapping::valid, and a fresh evaluateMapping
 * (no engine, no cache) reproduces its energy and delay bit for bit.
 */
bool checkWinner(const BoundArch &ba, const Mapping &m,
                 const CostResult &reported, std::string *why);

/** Self time and call count of one span name. */
struct SpanStat
{
    std::int64_t selfNs = 0;
    std::int64_t calls = 0;
    /** Time in outermost spans of this name (no double counting). */
    std::int64_t topNs = 0;
};

/** Exclusive-time attribution of one traced window. */
struct Attribution
{
    std::int64_t windowNs = 0;
    /** Spans lost to a full ring: the attribution is incomplete. */
    std::uint64_t dropped = 0;
    /** Per thread index: span name ("name" up to ':') -> stats. */
    std::map<int, std::map<std::string, SpanStat>> perThread;
    /** Per thread: window time covered by no span. */
    std::map<int, std::int64_t> untracedNs;
    /** Summed over threads. */
    std::map<std::string, SpanStat> total;
    /** Children that overflow their parent, or overlapping siblings. */
    std::int64_t nestingErrors = 0;
    /**
     * Nothing dropped, spans well nested, and each thread's outermost
     * spans fit in the window. Then each thread's self times plus its
     * untraced time sum to the window.
     */
    bool balanced = false;
    /** Sorted start times of the spans recorded off the calling thread. */
    std::vector<std::int64_t> otherStarts;

    double seconds(const std::string &name) const;
    std::int64_t calls(const std::string &name) const;
    /** Outermost pool.task time over `threads` x the window. */
    double busyFrac(unsigned threads) const;
    std::string toJson() const;
};

/**
 * Runs `fn` with the span tracer enabled inside a root span and reduces
 * the spans to exclusive time per span name per thread.
 */
Attribution traced(const std::function<void()> &fn);

/**
 * Engine counter deltas of the workload's 1-thread pass, reported as
 * engine.* metrics. The pass must reproduce the evaluation count the
 * self-test's fresh processes agreed on (`selftest_evaluations`).
 */
void reportEngine(Report &r, const SearchStats &delta,
                  std::int64_t selftest_evaluations);
/** Sums two engines' stats, histograms included. */
SearchStats addStats(const SearchStats &a, const SearchStats &b);

/** Applies a workload's architecture precisions the way the CLI does. */
Workload forArch(Workload wl, const std::string &arch_name);
/** The simba or (any other name) conventional preset. */
ArchSpec archByName(const std::string &name);

/** The layers a workload's per-layer suite runs on (from its seed). */
std::vector<LayerItem> netSuiteLayers(std::uint64_t seed);
std::vector<LayerItem> serveSuiteLayers(std::uint64_t seed);

/**
 * The per-layer suite shared by every workload's traced run: the cost
 * model, the core search and its building blocks, and the warm-start
 * store, each over the workload's own layers. Also runs the exact-count
 * self-test, which repeats the 1-thread core search and the workload's
 * 1-thread engine pass in two fresh processes of this binary (see
 * printCounts).
 * @return the engine evaluations both processes reported, or -1 when
 *         they disagree.
 */
std::int64_t layerSuite(const Args &a, Report &r);

/**
 * `--counts 1`: runs the 1-thread core search over the workload's suite
 * layers and the workload's 1-thread engine pass once in this fresh
 * process and prints their exact counts.
 */
int printCounts(const Args &a);

/** Engine counters of one 1-thread scheduleNet pass over net_sched's nets. */
SearchStats netPassStats1t(std::uint64_t seed);
/** Engine counters of serve_mix's stream replayed through a 1-thread session. */
SearchStats replayStats1t(const Args &a, Report &r);

/** net.* metrics (4 and 1 threads over the fixed nets). */
void netLayerMetrics(std::uint64_t seed, Report &r);
/**
 * mapper.* metrics: the Timeloop-like mapper on the unique layers of
 * ResNet-18, VGG-16 and AlexNet on simba, at 4 and 1 threads.
 */
void mapperLayerMetrics(std::uint64_t seed, Report &r);
/** session.*, request.* and response.* metrics over serve_mix's stream. */
void sessionLayerMetrics(const Args &a, Report &r);

int runNetSched(const Args &a, Report &r);
int runServeMix(const Args &a, Report &r);

} // namespace ledger

#endif // LEDGER_LEDGER_HH
