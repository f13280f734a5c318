/**
 * @file
 * net_sched: whole-network scheduling (paper Fig. 6 and 8). scheduleNet
 * over ResNet-18 and VGG-16 on simba and the non-DNN suite on
 * conventional, each with a fresh engine, at 4 threads and at 1 thread.
 * ResNet-18 and VGG-16 keep four workers busy across layers; the non-DNN
 * net is bound by one MTTKRP layer, so a change that only adds
 * parallelism across layers shows on the first two and not on the third.
 */

#include <algorithm>
#include <cstdio>

#include "common/logging.hh"
#include "core/net_scheduler.hh"
#include "ledger.hh"
#include "mapping/serialize.hh"
#include "search/rng.hh"
#include "workload/nets.hh"

namespace ledger {

namespace {

struct Net
{
    std::string name;
    std::string archName;
    ArchSpec arch;
    std::vector<Layer> layers;
};

/** The three nets, in a seeded order. */
std::vector<Net>
makeNets(std::uint64_t seed)
{
    std::vector<Net> nets;
    auto add = [&](const std::string &name, const std::string &arch,
                   std::vector<Layer> layers) {
        for (auto &l : layers)
            l.workload = forArch(std::move(l.workload), arch);
        nets.push_back({name, arch, archByName(arch), std::move(layers)});
    };
    add("resnet18", "simba", resnet18Layers());
    add("vgg16", "simba", vgg16Layers());
    add("nondnn", "conventional", nonDnnSuite());
    RngStream rng(seed);
    rng.shuffle(nets);
    return nets;
}

struct NetRun
{
    NetScheduleResult res;
    double wall = 0;
};

struct Pass
{
    std::vector<NetRun> nets;
    double wall = 0;
    double cpu = 0;
    SearchStats stats;
};

Pass
runPass(const std::vector<Net> &nets, unsigned threads, std::uint64_t seed)
{
    Pass p;
    for (const Net &n : nets) {
        EvalEngineOptions eo;
        eo.threads = threads;
        EvalEngine eng(eo);
        eng.pool();
        NetSchedulerOptions o;
        o.engine = &eng;
        o.threads = threads;
        o.sunstone.threads = threads;
        SearchContext sc(&eng);
        sc.setSeed(seed);
        const double t0 = now(), c0 = cpuSeconds();
        NetRun run;
        run.res = scheduleNet(sc, n.arch, n.layers, o);
        run.wall = now() - t0;
        p.cpu += cpuSeconds() - c0;
        p.wall += run.wall;
        p.stats = addStats(p.stats, eng.stats());
        p.nets.push_back(std::move(run));
    }
    return p;
}

/** Runs the overflow probe; @return whether it was handled. */
bool
runProbe(unsigned threads)
{
    std::vector<Layer> layers = {{overflowProbe(), 1}};
    try {
        ScopedFatalCapture capture;
        EvalEngineOptions eo;
        eo.threads = threads;
        EvalEngine eng(eo);
        NetSchedulerOptions o;
        o.engine = &eng;
        o.sunstone.threads = threads;
        const NetScheduleResult res =
            scheduleNet(archByName("conventional"), layers, o);
        return probeHandled(res.allFound && res.layers.at(0).found,
                            res.layers.at(0).cost);
    } catch (const FatalError &) {
        return true;
    }
}

/**
 * Counts a pass's operations and checks it: every layer found, and the
 * same mappings and costs as the reference pass. The reference pass
 * itself is checked winner by winner.
 */
void
checkPass(const std::vector<Net> &nets, const Pass &p, const Pass *ref,
          Report &r)
{
    for (std::size_t i = 0; i < nets.size(); ++i) {
        const NetScheduleResult &res = p.nets[i].res;
        for (std::size_t j = 0; j < res.layers.size(); ++j) {
            const LayerSchedule &ls = res.layers[j];
            if (!ls.deduplicated)
                ++r.attempted;
            std::string why;
            if (!ls.found) {
                if (!ls.deduplicated)
                    ++r.failed;
                r.checkFailed(nets[i].name + "/" + ls.name + ": not found");
                continue;
            }
            if (!ref) {
                BoundArch ba(nets[i].arch, nets[i].layers[j].workload);
                if (!checkWinner(ba, ls.mapping, ls.cost, &why)) {
                    ++r.failed;
                    r.checkFailed(nets[i].name + "/" + ls.name + ": " + why);
                }
                continue;
            }
            const LayerSchedule &rl = ref->nets[i].res.layers[j];
            BoundArch ba(nets[i].arch, nets[i].layers[j].workload);
            if (!sameCost(ls.cost, rl.cost) ||
                mappingToText(ls.mapping, ba) != mappingToText(rl.mapping, ba)) {
                if (!ls.deduplicated)
                    ++r.failed;
                r.checkFailed(nets[i].name + "/" + ls.name +
                              ": schedule differs from the reference pass");
            }
        }
    }
}

/** Median of 51 set-ups (arch, nets, BoundArch per layer, engine, pool). */
struct Setup
{
    double total = 0, bind = 0, engine = 0;
};

Setup
measureSetup(std::uint64_t seed)
{
    std::vector<double> total, bind, engine;
    for (int rep = 0; rep < 51; ++rep) {
        const double t0 = now();
        std::vector<Net> nets = makeNets(seed);
        const double t1 = now();
        for (const Net &n : nets)
            for (const Layer &l : n.layers)
                BoundArch(n.arch, l.workload);
        const double t2 = now();
        {
            EvalEngineOptions eo;
            eo.threads = 4;
            EvalEngine eng(eo);
            eng.pool();
        }
        const double t3 = now();
        total.push_back(t3 - t0);
        bind.push_back(t2 - t1);
        engine.push_back(t3 - t2);
    }
    return {median(total), median(bind), median(engine)};
}

/** Per-layer net.* metrics from a 4-thread and a 1-thread pass. */
void
reportNetLayers(const std::vector<Net> &nets, const Pass &p4, const Pass &p1,
                Report &r)
{
    double slowest = 0;
    for (std::size_t i = 0; i < nets.size(); ++i) {
        r.metric("net." + nets[i].name + "_s", p4.nets[i].wall, "s");
        double s = 0;
        for (const auto &l : p4.nets[i].res.layers)
            s = std::max(s, l.seconds);
        slowest += s;
    }
    r.metric("net.critical_path_frac", slowest / p4.wall, "frac");
    r.metric("net.parallel_eff", p1.wall / (4 * p4.wall), "frac");
}

} // anonymous namespace

std::vector<LayerItem>
netSuiteLayers(std::uint64_t seed)
{
    std::vector<LayerItem> out;
    for (const Net &n : makeNets(seed))
        for (const Layer &l : n.layers) {
            bool dup = false;
            for (const LayerItem &o : out)
                dup = dup || (o.archName == n.archName &&
                              o.wl.shape() == l.workload.shape() &&
                              o.wl.numTensors() == l.workload.numTensors());
            if (!dup)
                out.push_back({n.archName, n.arch, l.workload});
        }
    return out;
}

SearchStats
netPassStats1t(std::uint64_t seed)
{
    return runPass(makeNets(seed), 1, seed).stats;
}

void
netLayerMetrics(std::uint64_t seed, Report &r)
{
    const std::vector<Net> nets = makeNets(seed);
    const Pass p4 = runPass(nets, 4, seed);
    const Pass p1 = runPass(nets, 1, seed);
    reportNetLayers(nets, p4, p1, r);
}

int
runNetSched(const Args &a, Report &r)
{
    const Setup setup = measureSetup(a.seed);
    const std::vector<Net> nets = makeNets(a.seed);
    // The first pass fills the process-wide divisor and prime tables and
    // is the reference every later pass must reproduce.
    const Pass ref = runPass(nets, 4, a.seed);
    // What one schedule of the three nets holds; later passes only add
    // allocator noise to the high-water mark.
    const double peakMb = peakRssMb();
    checkPass(nets, ref, nullptr, r);
    r.probe(runProbe(4));

    if (a.trace) {
        const Pass untraced = runPass(nets, 4, a.seed);
        Pass tracedPass;
        const Attribution at =
            traced([&] { tracedPass = runPass(nets, 4, a.seed); });
        const Pass p1 = runPass(nets, 1, a.seed);
        checkPass(nets, untraced, &ref, r);
        checkPass(nets, tracedPass, &ref, r);
        checkPass(nets, p1, &ref, r);
        Report::detail("attribution", at.toJson());
        if (!at.balanced)
            r.checkFailed("traced spans are incomplete or badly nested");
        r.metric("pool.busy_frac", at.busyFrac(4), "frac");
        reportNetLayers(nets, untraced, p1, r);
        reportEngine(r, p1.stats, layerSuite(a, r));
        mapperLayerMetrics(a.seed, r);
        sessionLayerMetrics(a, r);
        r.metric("setup.bind_s", setup.bind, "s");
        r.metric("setup.engine_s", setup.engine, "s");
        r.metric("trace.overhead_frac", tracedPass.wall / untraced.wall - 1,
                 "frac");
        return 0;
    }

    std::vector<double> wall4, wall1, cpu4;
    std::vector<std::vector<double>> layerSecs;
    const double end = now() + a.seconds;
    do {
        const Pass p4 = runPass(nets, 4, a.seed);
        const Pass p1 = runPass(nets, 1, a.seed);
        checkPass(nets, p4, &ref, r);
        checkPass(nets, p1, &ref, r);
        r.probe(runProbe(4));
        wall4.push_back(p4.wall);
        wall1.push_back(p1.wall);
        cpu4.push_back(p4.cpu);
        std::size_t k = 0;
        for (const auto &run : p4.nets)
            for (const auto &l : run.res.layers)
                if (!l.deduplicated) {
                    if (layerSecs.size() <= k)
                        layerSecs.emplace_back();
                    layerSecs[k++].push_back(l.seconds);
                }
    } while (now() < end);

    std::vector<double> edps, perLayer;
    for (const auto &run : ref.nets)
        edps.push_back(run.res.totalEdp);
    for (const auto &s : layerSecs)
        perLayer.push_back(median(s));
    std::string walls;
    for (std::size_t i = 0; i < wall4.size(); ++i)
        walls += (i ? ", [" : "[") + std::to_string(wall4[i]) + ", " +
                 std::to_string(wall1[i]) + "]";
    Report::detail("passes", "{\"walls_4t_1t\": [" + walls + "]}");
    r.metric("setup_s", setup.total, "s");
    r.metric("schedule_s", median(wall4), "s");
    r.metric("schedule_1t_s", median(wall1), "s");
    r.metric("cpu_s", median(cpu4), "s");
    r.metric("edp_geomean", geomean(edps), "pJ.s");
    reportLatency(r, "unique layer search, median over 4-thread passes",
                  perLayer);
    r.metric("throughput_rps",
             static_cast<double>(perLayer.size()) / median(wall4), "1/s");
    r.metric("peak_rss_mb", peakMb, "MB");
    return 0;
}

} // namespace ledger
