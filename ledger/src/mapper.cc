/**
 * @file
 * mapper.* metrics: the Timeloop-like random mapper (the paper's TL
 * baseline) with a fixed evaluation budget and the plateau stop
 * disabled, at 4 threads and at 1 thread. Nearly all of its work is in
 * the cost model, SearchDriver and EvalEngine::evaluateBatch (including
 * the SIMD/SoA path); the Sunstone ordering trie and tiling tree do none
 * of it.
 *
 * The layers are the unique layers of ResNet-18, VGG-16 and AlexNet on
 * simba, in a seeded order, and the seed drives the mapper's sampling.
 */

#include "ledger.hh"
#include "mappers/timeloop_mapper.hh"
#include "obs/convergence.hh"
#include "search/rng.hh"
#include "workload/nets.hh"

namespace ledger {

namespace {

/** Evaluations per layer search. */
constexpr std::int64_t kBudget = 20000;

struct Item
{
    LayerItem layer;
    BoundArch ba;
    std::uint64_t seed;
};

std::vector<LayerItem>
drawLayers(std::uint64_t seed)
{
    std::vector<LayerItem> out;
    for (const auto &net : {resnet18Layers(), vgg16Layers(), alexnetLayers()})
        for (const Layer &l : net) {
            bool dup = false;
            for (const auto &o : out)
                dup = dup || o.wl.shape() == l.workload.shape();
            if (!dup)
                out.push_back({"simba", archByName("simba"),
                               forArch(l.workload, "simba")});
        }
    RngStream rng(seed);
    rng.shuffle(out);
    return out;
}

std::vector<Item>
makeItems(std::uint64_t seed)
{
    std::vector<Item> items;
    RngStream rng(seed ^ 0x6d61705f72616e64ULL);
    for (LayerItem &l : drawLayers(seed)) {
        BoundArch ba(l.arch, l.wl);
        items.push_back({std::move(l), std::move(ba), rng.next()});
    }
    return items;
}

struct Search
{
    MapperResult res;
    std::int64_t evalsToBest = 0;
};

struct Pass
{
    std::vector<Search> searches;
    double wall = 0;
    SearchStats stats;
};

Search
runOne(EvalEngine &eng, const BoundArch &ba, std::uint64_t seed,
       unsigned threads, std::int64_t budget)
{
    TimeloopOptions o;
    o.victoryCondition = 0; // plateau stop disabled
    o.maxConsecutiveInvalid = 0;
    o.maxSeconds = 0;
    o.threads = threads;
    o.seed = seed;
    StopPolicy pol;
    pol.maxEvals = budget;
    obs::ConvergenceRecorder rec;
    SearchContext sc(&eng, pol, &rec);
    sc.setSeed(seed);
    Search s;
    s.res = TimeloopMapper(o).optimize(sc, ba);
    for (const auto *traj : rec.trajectories())
        for (const auto &pt : traj->points())
            if (pt.metric == s.res.cost.edp) {
                s.evalsToBest = pt.evaluations;
                break;
            }
    return s;
}

Pass
runPass(const std::vector<Item> &items, unsigned threads)
{
    Pass p;
    EvalEngineOptions eo;
    eo.threads = threads;
    EvalEngine eng(eo);
    eng.pool();
    const double t0 = now();
    for (const Item &it : items)
        p.searches.push_back(runOne(eng, it.ba, it.seed, threads, kBudget));
    p.wall = now() - t0;
    p.stats = eng.stats();
    return p;
}

void
reportMapper(const Pass &p4, const Pass &p1, Report &r)
{
    double evals = 0;
    std::vector<double> toBest;
    for (const auto &s : p4.searches) {
        evals += static_cast<double>(s.res.mappingsEvaluated);
        toBest.push_back(static_cast<double>(s.evalsToBest));
    }
    r.metric("mapper.evals_per_s", evals / p4.wall, "1/s");
    r.metric("mapper.evals_per_s_1t", evals / p1.wall, "1/s");
    r.metric("mapper.batches", static_cast<double>(p4.stats.batches),
             "count");
    r.metric("mapper.invalid_frac",
             static_cast<double>(p4.stats.invalidMappings) /
                 static_cast<double>(p4.stats.evaluations),
             "frac");
    r.metric("mapper.evals_to_best", median(toBest), "count");
}

} // anonymous namespace

void
mapperLayerMetrics(std::uint64_t seed, Report &r)
{
    const std::vector<Item> items = makeItems(seed);
    const Pass p4 = runPass(items, 4);
    const Pass p1 = runPass(items, 1);
    for (std::size_t i = 0; i < items.size(); ++i) {
        const MapperResult &m = p4.searches[i].res;
        std::string why;
        if (!m.found)
            why = "not found";
        else if (!checkWinner(items[i].ba, m.mapping, m.cost, &why))
            ;
        else if (!sameCost(m.cost, p1.searches[i].res.cost))
            why = "1-thread and 4-thread results differ";
        if (!why.empty())
            r.checkFailed("mapper " + items[i].layer.wl.name() + ": " + why);
    }
    reportMapper(p4, p1, r);
}

} // namespace ledger
