/**
 * @file
 * The per-layer suite every traced run reports over its workload's own
 * layers: the cost model's scalar and batch paths on one mapping set,
 * the core Sunstone search at 1 thread (with the exact-count self-test
 * and per-phase self time), its building blocks called directly, and
 * the warm-start store.
 */

#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <cstring>

#include "common/json.hh"
#include "common/math_utils.hh"
#include "core/ordering_trie.hh"
#include "core/refine.hh"
#include "core/sunstone.hh"
#include "core/tiling_tree.hh"
#include "core/unrolling.hh"
#include "ledger.hh"
#include "search/rng.hh"
#include "search/warmstart.hh"

namespace ledger {

namespace {

/**
 * A uniformly random mapping, drawn the way the Timeloop-like mapper
 * samples: every prime factor of every dim lands in a random (level,
 * temporal|spatial) slot and each level's loop order is shuffled.
 */
Mapping
randomMapping(const BoundArch &ba, RngStream &rng)
{
    const Workload &wl = ba.workload();
    Mapping m(ba.numLevels(), wl.numDims());
    std::vector<std::pair<int, bool>> slots;
    for (int l = 0; l < ba.numLevels(); ++l) {
        slots.push_back({l, false});
        if (ba.arch().levels[l].fanout > 1)
            slots.push_back({l, true});
    }
    for (DimId d = 0; d < wl.numDims(); ++d)
        for (auto [p, e] : cachedPrimeFactors(wl.dimSize(d)))
            for (int i = 0; i < e; ++i) {
                const auto [l, spatial] = slots[rng.below(slots.size())];
                auto &f = spatial ? m.level(l).spatial : m.level(l).temporal;
                f[d] *= p;
            }
    for (int l = 0; l < ba.numLevels(); ++l)
        rng.shuffle(m.level(l).order);
    return m;
}

bool
sameResult(const CostResult &a, const CostResult &b)
{
    return a.valid == b.valid && (!a.valid || sameCost(a, b));
}

/** model.*: scalar vs batch on one mapping set, interleaved rounds. */
void
modelProbe(const std::vector<BoundArch> &bas, std::uint64_t seed, Report &r)
{
    constexpr std::size_t kMappings = 24000;
    RngStream rng(seed ^ 0x6d6f64656cULL);
    std::vector<std::vector<Mapping>> sets(bas.size());
    std::size_t total = 0;
    for (std::size_t i = 0; i < bas.size(); ++i) {
        const std::size_t n = std::max<std::size_t>(1, kMappings / bas.size());
        for (std::size_t j = 0; j < n; ++j)
            sets[i].push_back(randomMapping(bas[i], rng));
        total += n;
    }
    EvalEngineOptions o4, o1;
    o4.threads = 4;
    o1.threads = 1;
    EvalEngine e4(o4), e1(o1);
    e4.pool();
    e1.pool();

    std::vector<double> scalar, batch4, batch1;
    std::vector<CostResult> out;
    std::int64_t valid = 0, mismatches = 0;
    for (int round = 0; round < 3; ++round) {
        std::vector<std::vector<CostResult>> ref(bas.size());
        double t0 = now();
        for (std::size_t i = 0; i < bas.size(); ++i)
            for (const Mapping &m : sets[i])
                ref[i].push_back(evaluateMapping(bas[i], m));
        scalar.push_back(total / (now() - t0));
        for (EvalEngine *e : {&e4, &e1}) {
            t0 = now();
            for (std::size_t i = 0; i < bas.size(); ++i) {
                e->evaluateBatch(e->context(bas[i]), sets[i], {},
                                 EvalEngine::CachePolicy::Bypass, out);
                if (round == 0)
                    for (std::size_t j = 0; j < out.size(); ++j)
                        mismatches += !sameResult(out[j], ref[i][j]);
            }
            (e == &e4 ? batch4 : batch1).push_back(total / (now() - t0));
        }
        if (round == 0)
            for (const auto &v : ref)
                for (const auto &c : v)
                    valid += c.valid;
    }
    if (mismatches)
        r.checkFailed(std::to_string(mismatches) +
                      " batch results differ from evaluateMapping");
    r.metric("model.scalar_evals_per_s", median(scalar), "1/s");
    r.metric("model.batch_evals_per_s", median(batch4), "1/s");
    r.metric("model.batch_evals_per_s_1t", median(batch1), "1/s");
    r.metric("model.valid_frac", static_cast<double>(valid) / total, "frac");
}

/** One pass of sunstoneOptimize over every layer at 1 thread. */
struct CoreRun
{
    std::int64_t evaluations = 0;
    std::int64_t candidates = 0;
    std::uint64_t allocs = 0;
    std::vector<double> seconds;
    std::vector<SunstoneResult> results;
};

CoreRun
coreRun(const std::vector<BoundArch> &bas, std::uint64_t seed, bool polish)
{
    CoreRun run;
    EvalEngineOptions eo;
    eo.threads = 1;
    EvalEngine eng(eo);
    // Let the worker start (and register its thread) before counting.
    eng.pool().submit([] {});
    eng.pool().waitIdle();
    for (const BoundArch &ba : bas) {
        SunstoneOptions o;
        o.engine = &eng;
        o.threads = 1;
        o.polish = polish;
        SearchContext sc(&eng);
        sc.setSeed(seed);
        const std::uint64_t a0 = allocCount();
        setAllocCounting(true);
        const double t0 = now();
        SunstoneResult res = sunstoneOptimize(sc, ba, o);
        run.seconds.push_back(now() - t0);
        setAllocCounting(false);
        run.allocs += allocCount() - a0;
        run.candidates += res.candidatesExamined;
        run.results.push_back(std::move(res));
    }
    run.evaluations = eng.stats().evaluations;
    return run;
}

double
edpGeomean(const CoreRun &run)
{
    std::vector<double> edps;
    for (const auto &res : run.results)
        edps.push_back(res.cost.edp);
    return geomean(edps);
}

/**
 * The exact counts of one core run and of the workload's engine pass
 * (`engine_evaluations`), rendered for comparison.
 */
std::string
countsJson(const CoreRun &run, std::int64_t engine_evaluations)
{
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"evaluations\": %lld, \"candidates\": %lld, "
                  "\"allocs\": %llu, \"edp_geomean\": %.17g, "
                  "\"engine_evaluations\": %lld}",
                  static_cast<long long>(run.evaluations),
                  static_cast<long long>(run.candidates),
                  static_cast<unsigned long long>(run.allocs),
                  edpGeomean(run),
                  static_cast<long long>(engine_evaluations));
    return buf;
}

/** Runs this binary with `--counts 1`; @return its last stdout line. */
std::string
countsInChild(const Args &a)
{
    char exe[4096];
    const ssize_t n = readlink("/proc/self/exe", exe, sizeof exe - 1);
    if (n <= 0)
        return "";
    exe[n] = 0;
    const std::string cmd = "'" + std::string(exe) + "' --workload " +
                            a.workload + " --seed " + std::to_string(a.seed) +
                            " --workdir '" + a.workdir + "' --counts 1";
    FILE *f = popen(cmd.c_str(), "r");
    if (!f)
        return "";
    std::string out;
    char buf[512];
    while (std::fgets(buf, sizeof buf, f))
        out = buf;
    while (!out.empty() && std::isspace(static_cast<unsigned char>(out.back())))
        out.pop_back();
    return pclose(f) == 0 ? out : "";
}

/**
 * search.* and phase.*, plus the exact-count self-test: two fresh
 * processes must report the same counts. (Within one process the
 * allocation count need not repeat: global registries such as the
 * progress board grow per search.) Sets `*engine_evaluations` to the
 * workload pass's evaluation count both reported, or -1.
 */
std::vector<SunstoneResult>
coreProbe(const std::vector<BoundArch> &bas, const Args &args, Report &r,
          std::int64_t *engine_evaluations)
{
    const std::string first = countsInChild(args);
    const std::string second = countsInChild(args);
    Report::detail("selftest", "{\"first\": " +
                                   (first.empty() ? "null" : first) +
                                   ", \"second\": " +
                                   (second.empty() ? "null" : second) + "}");
    JsonValue counts;
    if (first.empty() || first != second || !parseJson(first, counts))
        r.checkFailed("exact counts differ across two same-seed runs");
    const double candidates = counts.find("candidates")
                                  ? counts.find("candidates")->asDouble()
                                  : 0;
    const double allocs =
        counts.find("allocs") ? counts.find("allocs")->asDouble() : 0;
    const JsonValue *evals = counts.find("engine_evaluations");
    *engine_evaluations =
        !first.empty() && first == second && evals ? evals->asInt() : -1;

    const CoreRun a = coreRun(bas, args.seed, true);
    for (std::size_t i = 0; i < bas.size(); ++i) {
        std::string why;
        if (!a.results[i].found ||
            !checkWinner(bas[i], a.results[i].mapping, a.results[i].cost,
                         &why))
            r.checkFailed("core search: " + why);
    }
    double sum = 0, mx = 0;
    for (double s : a.seconds)
        sum += s, mx = std::max(mx, s);
    r.metric("search.candidates", candidates, "count");
    r.metric("search.candidates_per_s", a.candidates / sum, "1/s");
    r.metric("search.layer_s_max", mx, "s");
    r.metric("search.layer_s_sum", sum, "s");
    r.metric("search.allocs_per_candidate",
             candidates > 0 ? allocs / candidates : 0, "count");

    const Attribution at = traced([&] { coreRun(bas, args.seed, true); });
    if (!at.balanced)
        r.checkFailed("core trace spans are incomplete or badly nested");
    for (const char *phase : {"ordering", "unrolling", "tiling", "rank",
                              "refine", "search", "hillclimb"}) {
        const std::string span =
            std::string(phase == std::string("hillclimb") ? "refine."
                                                          : "sunstone.") +
            phase;
        r.metric(std::string("phase.") + phase + "_s", at.seconds(span), "s");
        r.metric(std::string("phase.") + phase + "_calls",
                 static_cast<double>(at.calls(span)), "count");
    }
    return a.results;
}

std::vector<LayerItem>
suiteLayers(const Args &a)
{
    if (a.workload == "net_sched")
        return netSuiteLayers(a.seed);
    return serveSuiteLayers(a.seed);
}

std::vector<BoundArch>
bindLayers(const std::vector<LayerItem> &layers)
{
    std::vector<BoundArch> bas;
    for (const LayerItem &l : layers)
        bas.emplace_back(l.arch, l.wl);
    return bas;
}

/** Times fn over repeated calls for at least ~5 ms; @return us per call. */
template <class F>
double
usPerCall(F &&fn)
{
    int calls = 0;
    const double t0 = now();
    double t = t0;
    do {
        fn();
        ++calls;
        t = now();
    } while (t - t0 < 0.005 && calls < 1000);
    return 1e6 * (t - t0) / calls;
}

/** trie.*, unroll.*, tiling.* and refine.* on each layer. */
void
blockProbe(const std::vector<BoundArch> &bas, std::uint64_t seed, Report &r)
{
    double trieUs = 0, unrollUs = 0, tilingUs = 0;
    std::int64_t survivors = 0, unrolls = 0, nodes = 0;
    int unrollCalls = 0;
    for (const BoundArch &ba : bas) {
        const Workload &wl = ba.workload();
        const int nd = wl.numDims();
        DimSet active;
        for (DimId d = 0; d < nd; ++d)
            if (wl.dimSize(d) > 1)
                active.add(d);
        OrderingTrieStats st;
        trieUs += usPerCall([&] {
            st = {};
            orderingCandidates(wl, active, &st);
        });
        survivors += st.survivors;
        for (int l = 0; l < ba.numLevels(); ++l) {
            const std::int64_t fanout = ba.arch().levels[l].fanout;
            if (fanout <= 1)
                continue;
            UnrollResult ur;
            unrollUs += usPerCall([&] {
                ur = unrollCandidates(wl, DimSet::all(nd), wl.shape(), fanout,
                                      0.75);
            });
            unrolls += static_cast<std::int64_t>(ur.candidates.size());
            ++unrollCalls;
        }
        TilingTreeResult tr;
        tilingUs += usPerCall([&] {
            tr = growTiles(ba, 0, std::vector<std::int64_t>(nd, 1),
                           wl.shape(), DimSet::all(nd));
        });
        nodes += tr.nodesVisited;
    }
    const double n = static_cast<double>(bas.size());
    r.metric("trie.us_per_call", trieUs / n, "us");
    r.metric("trie.survivors", static_cast<double>(survivors), "count");
    r.metric("unroll.us_per_call", unrollCalls ? unrollUs / unrollCalls : 0,
             "us");
    r.metric("unroll.candidates", static_cast<double>(unrolls), "count");
    r.metric("tiling.us_per_call", tilingUs / n, "us");
    r.metric("tiling.nodes", static_cast<double>(nodes), "count");

    const CoreRun raw = coreRun(bas, seed, false);
    double ms = 0;
    std::vector<double> gains;
    for (std::size_t i = 0; i < bas.size(); ++i) {
        const SunstoneResult &res = raw.results[i];
        if (!res.found)
            continue;
        const double t0 = now();
        const Mapping polished =
            polishMapping(bas[i], res.mapping, true);
        ms += 1e3 * (now() - t0);
        gains.push_back(res.cost.edp /
                        evaluateMapping(bas[i], polished).edp);
    }
    r.metric("refine.ms_per_call", gains.empty() ? 0 : ms / gains.size(),
             "ms");
    r.metric("refine.edp_gain", geomean(gains), "x");
}

/** warmstart.*: record every winner, then query every layer. */
void
warmstartProbe(const std::vector<BoundArch> &bas,
               const std::vector<SunstoneResult> &winners, Report &r)
{
    WarmStartStore store;
    std::vector<double> recordUs, queryUs;
    for (std::size_t i = 0; i < bas.size(); ++i) {
        if (!winners[i].found)
            continue;
        const double t0 = now();
        store.record(bas[i], bas[i].workload().name(), winners[i].cost.edp,
                     winners[i].mapping);
        recordUs.push_back(1e6 * (now() - t0));
    }
    std::size_t seeds = 0;
    for (const BoundArch &ba : bas) {
        const double t0 = now();
        seeds += store.query(ba).size();
        queryUs.push_back(1e6 * (now() - t0));
    }
    r.metric("warmstart.query_us", median(queryUs), "us");
    r.metric("warmstart.record_us", median(recordUs), "us");
    r.metric("warmstart.seeds", static_cast<double>(seeds), "count");
}

} // anonymous namespace

std::int64_t
layerSuite(const Args &a, Report &r)
{
    const std::vector<BoundArch> bas = bindLayers(suiteLayers(a));
    modelProbe(bas, a.seed, r);
    std::int64_t evaluations = -1;
    const std::vector<SunstoneResult> winners =
        coreProbe(bas, a, r, &evaluations);
    blockProbe(bas, a.seed, r);
    warmstartProbe(bas, winners, r);
    return evaluations;
}

int
printCounts(const Args &a)
{
    const CoreRun run = coreRun(bindLayers(suiteLayers(a)), a.seed, true);
    Report r;
    const SearchStats pass = a.workload == "net_sched"
                                 ? netPassStats1t(a.seed)
                                 : replayStats1t(a, r);
    if (!r.correct)
        return 1;
    std::printf("%s\n", countsJson(run, pass.evaluations).c_str());
    return 0;
}

} // namespace ledger
