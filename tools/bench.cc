/**
 * @file
 * Implementation of `sunstone bench`: a seeded micro/macro benchmark of
 * the evaluation engine and the Sunstone search.
 *
 * Four benchmarks run, each `--warmup` throwaway + `--repeat` timed
 * iterations (best-of wins, mean reported alongside):
 *
 *  - eval_random     cost-model throughput over a fixed set of seeded
 *                    diffcheck triples (single thread, no engine, no
 *                    memo cache): per triple, evaluateMappingInto()
 *                    runs a seeded batch of random mappings through the
 *                    triple's own scratch arena into persistent result
 *                    buffers — the steady-state fast path of the model.
 *  - batch_conv      EvalEngine::evaluateBatch() over random valid
 *                    mappings of one conv layer (cache bypassed) — the
 *                    batched fast path across the shared pool.
 *  - search_conventional / search_simba
 *                    end-to-end sunstoneOptimize() on a ResNet-style
 *                    conv layer; evals/sec is the engine's evaluation
 *                    counter delta over the search wall-clock.
 *  - search_ttq      time-to-quality of warm starts (DESIGN.md §15): per
 *                    workload (a large conv layer and a large matmul)
 *                    one seeded cold timeloop search and one
 *                    warm-started repeat from an in-memory
 *                    WarmStartStore. Records each run's
 *                    evaluations-to-within-1%-of-the-cold-best and the
 *                    warm repeat's eval reduction into a separate
 *                    --search-out file (default BENCH_search.json,
 *                    schema "sunstone-search-ttq-v2", full convergence
 *                    trajectories included). Runs once — it measures
 *                    evaluation counts, which are seed-deterministic,
 *                    not wall time.
 *
 * Timing noise: alongside best/mean every benchmark reports the median
 * iteration and the coefficient of variation (stddev/mean) of the timed
 * repeats, so consumers (sunstone report) can flag unstable hosts.
 *
 * Every eval/batch benchmark reports a `checksum` extra: a deterministic
 * reduction (fixed index order, computed once from the final results,
 * outside the timed region), so it is a pure function of the seed —
 * independent of --repeat/--warmup and bitwise comparable across runs
 * and hosts. (It used to accumulate across every warmup and timed
 * iteration inside the loop, which changed with the iteration counts.)
 *
 * Results land in --out (default BENCH_eval.json) under the stable
 * "sunstone-bench-v1" schema so CI can archive and diff them.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "arch/presets.hh"
#include "common/parse.hh"
#include "common/timer.hh"
#include "core/sunstone.hh"
#include "mappers/timeloop_mapper.hh"
#include "model/diffcheck.hh"
#include "model/eval_engine.hh"
#include "obs/convergence.hh"
#include "obs/progress.hh"
#include "obs/snapshot.hh"
#include "search/warmstart.hh"
#include "workload/workload.hh"
#include "workload/zoo.hh"

namespace sunstone {
namespace bench {

namespace {

struct BenchConfig
{
    std::uint64_t seed = 1;
    int repeat = 5;
    int warmup = 1;
    unsigned threads = 4;
    std::string out = "BENCH_eval.json";
    std::string searchOut = "BENCH_search.json";
    std::string only; // substring filter on benchmark names

    /**
     * StopPolicy for the search benchmarks (--deadline-ms/--max-evals/
     * --plateau), so a bench run can be bounded the same way a map run
     * is. Unset fields leave the search unbounded, as before.
     */
    StopPolicy policy;
};

struct BenchResult
{
    std::string name;
    std::string kind; // "eval" | "batch" | "search"
    std::int64_t evalsPerIter = 0;
    double bestSeconds = 0;
    double meanSeconds = 0;
    double medianSeconds = 0;
    double cv = 0;          // stddev/mean of the timed repeats
    double evalsPerSec = 0; // from the best iteration
    std::map<std::string, double> extra;
};

/** Runs fn() warmup+repeat times, returns per-repeat seconds. */
template <typename Fn>
std::vector<double>
timeIters(const BenchConfig &cfg, Fn &&fn)
{
    std::vector<double> secs;
    for (int i = 0; i < cfg.warmup + cfg.repeat; ++i) {
        Timer t;
        fn();
        const double s = t.seconds();
        if (i >= cfg.warmup)
            secs.push_back(s);
    }
    return secs;
}

void
finalize(BenchResult &r, const std::vector<double> &secs)
{
    r.bestSeconds = *std::min_element(secs.begin(), secs.end());
    r.meanSeconds = std::accumulate(secs.begin(), secs.end(), 0.0) /
                    static_cast<double>(secs.size());
    std::vector<double> sorted = secs;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t n = sorted.size();
    r.medianSeconds = (n % 2) ? sorted[n / 2]
                              : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
    double var = 0;
    for (double s : secs)
        var += (s - r.meanSeconds) * (s - r.meanSeconds);
    var /= static_cast<double>(n);
    r.cv = r.meanSeconds > 0 ? std::sqrt(var) / r.meanSeconds : 0;
    r.evalsPerSec =
        static_cast<double>(r.evalsPerIter) / std::max(r.bestSeconds, 1e-12);
}

/** A pre-built diffcheck triple ready to evaluate. */
struct Triple
{
    Workload wl;
    ArchSpec arch;
    BoundArch ba;
    Mapping m;
};

std::vector<Triple>
makeTriples(std::uint64_t seed, int n)
{
    std::vector<Triple> out;
    out.reserve(n);
    for (int i = 0; i < n; ++i) {
        std::mt19937_64 rng = diffcheckTrialRng(seed + i);
        Workload wl = randomDiffcheckWorkload(rng);
        ArchSpec arch = randomDiffcheckArch(wl, rng);
        BoundArch ba(arch, wl);
        Mapping m = randomDiffcheckMapping(ba, rng);
        out.push_back({std::move(wl), std::move(arch), std::move(ba),
                       std::move(m)});
    }
    return out;
}

/**
 * Raw cost-model throughput, no engine, single thread: per triple a
 * seeded batch of random mappings runs through the triple's own scratch
 * arena into persistent results — nothing allocates inside the timed
 * region.
 */
BenchResult
benchEvalRandom(const BenchConfig &cfg)
{
    constexpr int kTriples = 256;
    constexpr int kMappings = 20;
    auto triples = makeTriples(cfg.seed, kTriples);

    std::vector<std::vector<Mapping>> batches(kTriples);
    std::vector<std::vector<CostResult>> out(kTriples);
    std::vector<EvalScratch> scratch(kTriples);
    for (int i = 0; i < kTriples; ++i) {
        // A fresh stream, offset past the triple seeds so mapping draws
        // never replay a triple's construction stream.
        std::mt19937_64 rng = diffcheckTrialRng(cfg.seed + kTriples + i);
        batches[i].reserve(kMappings);
        for (int j = 0; j < kMappings; ++j)
            batches[i].push_back(
                randomDiffcheckMapping(triples[i].ba, rng));
        out[i].resize(kMappings);
    }

    BenchResult r;
    r.name = "eval_random";
    r.kind = "eval";
    r.evalsPerIter = static_cast<std::int64_t>(kTriples) * kMappings;
    auto secs = timeIters(cfg, [&] {
        for (int i = 0; i < kTriples; ++i)
            for (int j = 0; j < kMappings; ++j)
                evaluateMappingInto(triples[i].ba, batches[i][j], {},
                                    scratch[i], out[i][j]);
    });
    finalize(r, secs);

    // Deterministic reduction in fixed index order from the final
    // results: a pure function of the seed.
    double checksum = 0;
    for (int i = 0; i < kTriples; ++i)
        for (int j = 0; j < kMappings; ++j)
            checksum += out[i][j].valid ? out[i][j].totalEnergyPj : 0.0;
    r.extra["checksum"] = checksum;
    return r;
}

/** Batched engine throughput on one conv layer, cache bypassed. */
BenchResult
benchBatchConv(const BenchConfig &cfg)
{
    ConvShape sh;
    sh.n = 1;
    sh.k = 64;
    sh.c = 64;
    sh.p = 28;
    sh.q = 28;
    sh.r = 3;
    sh.s = 3;
    Workload wl = makeConv2D(sh);
    ArchSpec arch = makeConventional();
    BoundArch ba(arch, wl);

    constexpr int kBatch = 512;
    constexpr int kPasses = 4;
    std::mt19937_64 rng = diffcheckTrialRng(cfg.seed);
    std::vector<Mapping> ms;
    ms.reserve(kBatch);
    for (int i = 0; i < kBatch; ++i)
        ms.push_back(randomDiffcheckMapping(ba, rng));

    EvalEngine engine(EvalEngineOptions{.threads = cfg.threads});
    const EvalEngine::Context ctx = engine.context(ba);
    std::vector<CostResult> res;

    BenchResult r;
    r.name = "batch_conv";
    r.kind = "batch";
    r.evalsPerIter = static_cast<std::int64_t>(kBatch) * kPasses;
    auto secs = timeIters(cfg, [&] {
        for (int p = 0; p < kPasses; ++p)
            engine.evaluateBatch(ctx, ms, {},
                                 EvalEngine::CachePolicy::Bypass, res);
    });
    finalize(r, secs);
    r.extra["batch_size"] = kBatch;

    // Deterministic reduction over the final batch results, in index
    // order, outside the timed region: a pure function of the seed.
    double checksum = 0;
    for (const CostResult &cr : res)
        checksum += cr.valid ? cr.totalEnergyPj : 0.0;
    r.extra["checksum"] = checksum;
    return r;
}

/** End-to-end Sunstone search; evals/sec from engine counter deltas. */
BenchResult
benchSearch(const BenchConfig &cfg, const std::string &archName)
{
    ConvShape sh;
    sh.n = 1;
    sh.k = 64;
    sh.c = 64;
    sh.p = 28;
    sh.q = 28;
    sh.r = 3;
    sh.s = 3;
    Workload wl = makeConv2D(sh);
    ArchSpec arch =
        archName == "simba" ? makeSimbaLike() : makeConventional();
    BoundArch ba(arch, wl);

    BenchResult r;
    r.name = "search_" + archName;
    r.kind = "search";
    std::int64_t evals = 0;
    double edp = 0;
    auto secs = timeIters(cfg, [&] {
        // A fresh engine per iteration: every repeat pays the same cold
        // memo/prefix caches, so iterations are comparable.
        EvalEngine engine(EvalEngineOptions{.threads = cfg.threads});
        SunstoneOptions opts;
        opts.threads = cfg.threads;
        SearchContext sc(&engine, cfg.policy);
        SunstoneResult sr = sunstoneOptimize(sc, ba, opts);
        evals = engine.stats().evaluations;
        edp = sr.found ? sr.cost.edp : -1;
    });
    r.evalsPerIter = evals; // count of the last iteration (deterministic
                            // up to alpha-beta thread interleaving)
    finalize(r, secs);
    r.extra["edp"] = edp;
    r.extra["search_seconds_best"] = r.bestSeconds;
    return r;
}

// -- search_ttq: warm-start time-to-quality ----------------------------

/** One seeded timeloop search leg of the search_ttq benchmark. */
struct TtqRun
{
    std::string label; // "cold" | "warm"
    double finalMetric = 0;
    std::int64_t evaluations = 0; // full-model evals consumed
    double seconds = 0;
    /** Evals until within 1% of the cold run's best; -1 = never. */
    std::int64_t evalsToBand = -1;
    std::vector<obs::ConvergencePoint> points;
};

/** First evaluation count at which metric enters target*1.01. */
std::int64_t
evalsToBand(const std::vector<obs::ConvergencePoint> &pts, double target)
{
    for (const obs::ConvergencePoint &p : pts)
        if (p.metric <= target * 1.01)
            return p.evaluations;
    return -1;
}

TtqRun
runTtqLeg(const BenchConfig &cfg, const BoundArch &ba, const char *label,
          const std::vector<Mapping> &seeds,
          MapperResult *mrOut = nullptr)
{
    TtqRun run;
    run.label = label;

    EvalEngine engine(EvalEngineOptions{.threads = cfg.threads});
    obs::ConvergenceRecorder rec;
    StopPolicy policy = cfg.policy;
    if (policy.maxEvals <= 0)
        policy.maxEvals = 8000;
    if (policy.plateau <= 0)
        policy.plateau = policy.maxEvals;
    SearchContext sc(&engine, policy, &rec);
    sc.setSeed(cfg.seed);
    if (!seeds.empty())
        sc.setWarmStarts(seeds);

    // The slow (conservative) Timeloop profile, with the wall-clock cap
    // lifted: the leg is bounded by max-evals/plateau only, so the
    // evaluation trajectory is a pure function of the seed.
    TimeloopOptions to = TimeloopOptions::slow();
    to.threads = cfg.threads;
    to.maxSeconds = 1e9;
    TimeloopMapper tl(to);

    Timer t;
    MapperResult mr = tl.optimize(sc, ba);
    run.seconds = t.seconds();
    run.finalMetric = mr.found && !mr.invalid ? mr.cost.edp : -1;
    run.evaluations = engine.stats().evaluations;
    const auto trajs = rec.trajectories();
    if (!trajs.empty())
        run.points = trajs.back()->points();
    if (mrOut)
        *mrOut = mr;
    return run;
}

/** One search_ttq workload: a cold run and its warm repeat. */
struct TtqWorkload
{
    std::string name;
    std::vector<TtqRun> runs;
    double warmReduction = 0; // warm repeat vs cold, to 1% band
};

TtqWorkload
benchTtqWorkload(const BenchConfig &cfg, const std::string &name,
                 const Workload &wl)
{
    ArchSpec arch = makeConventional();
    BoundArch ba(arch, wl);

    TtqWorkload w;
    w.name = name;

    MapperResult coldBest;
    TtqRun cold = runTtqLeg(cfg, ba, "cold", {}, &coldBest);

    // Warm repeat: the cold run's best seeds a fresh run of the same
    // layer through the store's query/adapt path (exactly what
    // --warmstart-store does on a repeated shape).
    WarmStartStore store;
    std::vector<Mapping> seeds;
    if (coldBest.found && !coldBest.invalid) {
        store.record(ba, name, coldBest.cost.edp, coldBest.mapping);
        seeds = store.query(ba);
    }
    TtqRun warm = runTtqLeg(cfg, ba, "warm", seeds);

    // Target quality is the cold run's final best. The cold entry is
    // the evaluation count at which it locked that best in (its last
    // improvement) — the full price of producing the target — while the
    // warm entry is its first step into the 1% band around it: "reaches
    // within 1% of the cold best with N% fewer evaluations than the
    // cold run spent finding it".
    const double target = cold.finalMetric;
    for (const obs::ConvergencePoint &p : cold.points)
        if (p.metric <= target) {
            cold.evalsToBand = p.evaluations;
            break;
        }
    warm.evalsToBand = evalsToBand(warm.points, target);
    if (cold.evalsToBand > 0 && warm.evalsToBand > 0)
        w.warmReduction = 1.0 - static_cast<double>(warm.evalsToBand) /
                                    static_cast<double>(cold.evalsToBand);
    w.runs = {std::move(cold), std::move(warm)};
    return w;
}

std::string
ttqToJson(const BenchConfig &cfg, const std::vector<TtqWorkload> &wls)
{
    std::ostringstream os;
    os.precision(17);
    os << "{\"schema\": \"sunstone-search-ttq-v2\""
       << ", \"seed\": " << cfg.seed << ", \"threads\": " << cfg.threads
       << ", \"workloads\": [";
    for (std::size_t i = 0; i < wls.size(); ++i) {
        const TtqWorkload &w = wls[i];
        if (i)
            os << ", ";
        os << "{\"name\": \"" << w.name << "\""
           << ", \"baseline_best\": " << w.runs[0].finalMetric
           << ", \"warm_reduction\": " << w.warmReduction
           << ", \"runs\": [";
        for (std::size_t j = 0; j < w.runs.size(); ++j) {
            const TtqRun &r = w.runs[j];
            if (j)
                os << ", ";
            os << "{\"label\": \"" << r.label << "\""
               << ", \"final_metric\": " << r.finalMetric
               << ", \"evaluations\": " << r.evaluations
               << ", \"seconds\": " << r.seconds
               << ", \"evals_to_band\": " << r.evalsToBand
               << ", \"trajectory\": [";
            for (std::size_t k = 0; k < r.points.size(); ++k) {
                const obs::ConvergencePoint &p = r.points[k];
                if (k)
                    os << ", ";
                os << "{\"evaluations\": " << p.evaluations
                   << ", \"metric\": " << p.metric
                   << ", \"seconds\": " << p.seconds << "}";
            }
            os << "]}";
        }
        os << "]}";
    }
    os << "]}";
    return os.str();
}

/**
 * Runs the two search_ttq workloads, writes --search-out, and appends
 * one summary row per workload to the main results table. Single-shot:
 * its numbers are evaluation counts, deterministic under the seed.
 */
bool
benchSearchTtq(const BenchConfig &cfg, std::vector<BenchResult> &results)
{
    std::vector<std::pair<std::string, Workload>> wls;
    {
        ConvShape sh;
        sh.n = 1;
        sh.k = 128;
        sh.c = 128;
        sh.p = 56;
        sh.q = 56;
        sh.r = 3;
        sh.s = 3;
        wls.emplace_back("conv_n1k128c128p56", makeConv2D(sh));
    }
    wls.emplace_back(
        "matmul_1024x1024x64",
        parseEinsum("mm", "out[i,j] = A[i,k] * B[k,j]",
                    {{"i", 1024}, {"j", 1024}, {"k", 64}}));

    std::vector<TtqWorkload> done;
    for (const auto &[name, wl] : wls) {
        TtqWorkload w = benchTtqWorkload(cfg, name, wl);

        BenchResult r;
        r.name = "search_ttq_" + name;
        r.kind = "search";
        r.evalsPerIter = w.runs[0].evaluations;
        finalize(r, {w.runs[0].seconds + w.runs[1].seconds});
        r.extra["final_cold"] = w.runs[0].finalMetric;
        r.extra["evals_to_band_cold"] =
            static_cast<double>(w.runs[0].evalsToBand);
        r.extra["evals_to_band_warm"] =
            static_cast<double>(w.runs[1].evalsToBand);
        r.extra["warm_reduction"] = w.warmReduction;
        results.push_back(std::move(r));
        done.push_back(std::move(w));
    }

    std::ofstream os(cfg.searchOut);
    if (!os) {
        std::fprintf(stderr, "cannot write '%s'\n", cfg.searchOut.c_str());
        return false;
    }
    os << ttqToJson(cfg, done) << "\n";
    std::printf("wrote %s\n", cfg.searchOut.c_str());
    return true;
}

std::string
toJson(const BenchConfig &cfg, const std::vector<BenchResult> &results)
{
    std::ostringstream os;
    os.precision(17);
    os << "{\"schema\": \"sunstone-bench-v1\""
       << ", \"seed\": " << cfg.seed << ", \"repeat\": " << cfg.repeat
       << ", \"warmup\": " << cfg.warmup
       << ", \"threads\": " << cfg.threads << ", \"benchmarks\": [";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const BenchResult &r = results[i];
        if (i)
            os << ", ";
        os << "{\"name\": \"" << r.name << "\", \"kind\": \"" << r.kind
           << "\", \"evals_per_iter\": " << r.evalsPerIter
           << ", \"best_seconds\": " << r.bestSeconds
           << ", \"mean_seconds\": " << r.meanSeconds
           << ", \"median_seconds\": " << r.medianSeconds
           << ", \"cv\": " << r.cv
           << ", \"evals_per_sec\": " << r.evalsPerSec;
        for (const auto &[k, v] : r.extra)
            os << ", \"" << k << "\": " << v;
        os << "}";
    }
    os << "]}";
    return os.str();
}

} // anonymous namespace

int
run(const std::map<std::string, std::string> &kv)
{
    BenchConfig cfg;
    const auto get = [&](const std::string &k) -> const std::string * {
        auto it = kv.find(k);
        return it == kv.end() ? nullptr : &it->second;
    };
    // Validated numeric parsing: every malformed or out-of-range value
    // is a clean usage error, never an exception or silent truncation.
    bool parseOk = true;
    const auto intArg = [&](const char *k, std::int64_t lo,
                            std::int64_t hi, std::int64_t dflt) {
        const auto *v = get(k);
        if (!v)
            return dflt;
        std::int64_t n = 0;
        if (!tryParseInt64(*v, n) || n < lo || n > hi) {
            std::fprintf(stderr,
                         "bench: --%s expects an integer in [%lld, %lld], "
                         "got '%s'\n",
                         k, (long long)lo, (long long)hi, v->c_str());
            parseOk = false;
            return dflt;
        }
        return n;
    };
    const auto doubleArg = [&](const char *k, double dflt) {
        const auto *v = get(k);
        if (!v)
            return dflt;
        double d = 0;
        if (!tryParseDouble(*v, d)) {
            std::fprintf(stderr,
                         "bench: --%s expects a finite number, got '%s'\n",
                         k, v->c_str());
            parseOk = false;
            return dflt;
        }
        return d;
    };
    if (const auto *v = get("seed")) {
        std::int64_t n = 0;
        if (!tryParseInt64(*v, n) || n < 0) {
            std::fprintf(stderr,
                         "bench: --seed expects a non-negative integer, "
                         "got '%s'\n",
                         v->c_str());
            parseOk = false;
        } else {
            cfg.seed = static_cast<std::uint64_t>(n);
        }
    }
    cfg.repeat = static_cast<int>(intArg("repeat", 1, 1 << 20, cfg.repeat));
    cfg.warmup = static_cast<int>(intArg("warmup", 0, 1 << 20, cfg.warmup));
    cfg.threads = static_cast<unsigned>(
        intArg("threads", 1, 4096, cfg.threads));
    if (const auto *v = get("out"))
        cfg.out = *v;
    if (const auto *v = get("search-out"))
        cfg.searchOut = *v;
    if (const auto *v = get("only"))
        cfg.only = *v;
    if (get("deadline-ms"))
        cfg.policy.deadlineSeconds = doubleArg("deadline-ms", 0) / 1000.0;
    if (get("max-evals"))
        cfg.policy.maxEvals =
            intArg("max-evals", 1, std::numeric_limits<std::int64_t>::max(),
                   0);
    if (get("plateau"))
        cfg.policy.plateau =
            intArg("plateau", 1, std::numeric_limits<std::int64_t>::max(),
                   0);
    if (!parseOk)
        return 1;

    const auto wanted = [&](const std::string &name) {
        return cfg.only.empty() || name.find(cfg.only) != std::string::npos;
    };

    // Live telemetry (DESIGN.md §14), mainly so its overhead can be
    // measured against a telemetry-off run of the same benchmarks.
    std::unique_ptr<obs::SnapshotWriter> snapshot;
    if (const auto *v = get("snapshot-json")) {
        const int interval = static_cast<int>(
            intArg("snapshot-interval-ms", 1, 1 << 30, 1000));
        if (!parseOk)
            return 1;
        snapshot = std::make_unique<obs::SnapshotWriter>(*v, interval);
        if (!snapshot->start()) {
            std::fprintf(stderr, "cannot write '%s'\n", v->c_str());
            return 1;
        }
    }
    std::unique_ptr<obs::ProgressReporter> progress;
    if (kv.count("progress")) {
        progress = std::make_unique<obs::ProgressReporter>();
        progress->start();
    }

    std::vector<BenchResult> results;
    if (wanted("eval_random"))
        results.push_back(benchEvalRandom(cfg));
    if (wanted("batch_conv"))
        results.push_back(benchBatchConv(cfg));
    if (wanted("search_conventional"))
        results.push_back(benchSearch(cfg, "conventional"));
    if (wanted("search_simba"))
        results.push_back(benchSearch(cfg, "simba"));
    if (wanted("search_ttq") && !benchSearchTtq(cfg, results))
        return 1;

    if (progress)
        progress->stop();
    if (snapshot)
        snapshot->stop();

    std::printf("%-20s %-7s %12s %12s %14s\n", "benchmark", "kind",
                "best s", "mean s", "evals/sec");
    for (const auto &r : results)
        std::printf("%-20s %-7s %12.6f %12.6f %14.0f\n", r.name.c_str(),
                    r.kind.c_str(), r.bestSeconds, r.meanSeconds,
                    r.evalsPerSec);

    std::ofstream os(cfg.out);
    if (!os) {
        std::fprintf(stderr, "cannot write '%s'\n", cfg.out.c_str());
        return 1;
    }
    os << toJson(cfg, results) << "\n";
    std::printf("wrote %s\n", cfg.out.c_str());
    return 0;
}

} // namespace bench
} // namespace sunstone
