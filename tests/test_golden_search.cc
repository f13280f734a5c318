/**
 * @file
 * Golden outputs of the Sunstone search. Every chosen mapping (as
 * text), its energy and delay (as hex floats, so equality is bit-exact)
 * and the candidate count are compared byte for byte against files
 * under tests/golden/, at 1 and at 4 threads. A change to the search's
 * bookkeeping must leave all of them unchanged.
 *
 * To regenerate after an intended change in search results, run the
 * binary with SUNSTONE_UPDATE_GOLDEN=1 and review the diff.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "arch/presets.hh"
#include "core/net_scheduler.hh"
#include "core/sunstone.hh"
#include "mapping/serialize.hh"
#include "model/eval_engine.hh"
#include "workload/net_graph.hh"
#include "workload/nets.hh"
#include "workload/zoo.hh"

namespace sunstone {
namespace {

std::string
hexDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
}

std::string
renderOne(const std::string &name, const BoundArch &ba, bool found,
          const Mapping &m, const CostResult &cost, std::int64_t examined)
{
    std::ostringstream os;
    os << "== " << name << "\n"
       << "found " << found << "\n"
       << "candidates " << examined << "\n";
    if (found)
        os << "energy_pj " << hexDouble(cost.totalEnergyPj) << "\n"
           << "delay_s " << hexDouble(cost.delaySeconds) << "\n"
           << "edp " << hexDouble(cost.edp) << "\n"
           << mappingToText(m, ba);
    return os.str();
}

std::string
renderNet(const ArchSpec &arch, const std::vector<Layer> &layers,
          unsigned threads)
{
    EvalEngineOptions eo;
    eo.threads = threads;
    EvalEngine eng(eo);
    NetSchedulerOptions o;
    o.engine = &eng;
    o.threads = threads;
    o.sunstone.threads = threads;
    const NetScheduleResult res = scheduleNet(arch, layers, o);
    std::string out;
    for (std::size_t i = 0; i < res.layers.size(); ++i) {
        const LayerSchedule &ls = res.layers[i];
        const BoundArch ba(arch, layers[i].workload);
        out += renderOne(ls.name, ba, ls.found, ls.mapping, ls.cost,
                         ls.candidatesExamined);
    }
    return out + "total_edp " + hexDouble(res.totalEdp) + "\n";
}

std::string
renderSearch(const std::string &name, const BoundArch &ba,
             SunstoneOptions opts, unsigned threads,
             std::int64_t max_evals = 0)
{
    EvalEngineOptions eo;
    eo.threads = threads;
    EvalEngine eng(eo);
    opts.engine = &eng;
    opts.threads = threads;
    SearchContext sc;
    sc.policy().maxEvals = max_evals;
    const SunstoneResult r = sunstoneOptimize(sc, ba, opts);
    std::string out = renderOne(name, ba, r.found, r.mapping, r.cost,
                                r.candidatesExamined);
    if (max_evals > 0)
        out += "stop " + r.stopReason + "\n";
    return out;
}

/**
 * Renders a greedy-fusion schedule of `g`: every node's mapping and
 * costs with its group, fused and dedup flags, then every group's
 * decision. Wall-clock fields are left out; everything else is exact.
 */
std::string
renderFusedNet(const ArchSpec &arch, const NetGraph &g, unsigned threads)
{
    EvalEngineOptions eo;
    eo.threads = threads;
    EvalEngine eng(eo);
    NetSchedulerOptions o;
    o.engine = &eng;
    o.threads = threads;
    o.sunstone.threads = threads;
    o.fusion = FusionMode::Greedy;
    SearchContext sc;
    sc.policy().maxEvals = 150;
    sc.setSeed(11);
    const NetScheduleResult res = scheduleNet(sc, arch, g, o);
    std::ostringstream os;
    for (std::size_t i = 0; i < res.layers.size(); ++i) {
        const LayerSchedule &ls = res.layers[i];
        const BoundArch ba(arch, g.node(static_cast<int>(i)).workload);
        os << "group " << ls.group << " fused " << ls.fused
           << " deduplicated " << ls.deduplicated << " stop "
           << ls.stopReason << "\n"
           << renderOne(ls.name, ba, ls.found, ls.mapping, ls.cost,
                        ls.candidatesExamined);
    }
    for (const GroupSchedule &gr : res.groups) {
        os << "== group";
        for (const std::string &m : gr.members)
            os << " " << m;
        os << "\ncount " << gr.count << " fused " << gr.fused
           << " reject " << gr.rejectReason << "\n"
           << "fused_energy_pj " << hexDouble(gr.fusedEnergyPj) << "\n"
           << "fused_delay_s " << hexDouble(gr.fusedDelaySeconds) << "\n"
           << "unfused_energy_pj " << hexDouble(gr.unfusedEnergyPj) << "\n"
           << "unfused_delay_s " << hexDouble(gr.unfusedDelaySeconds)
           << "\n"
           << "candidates " << gr.candidatesExamined << "\n";
    }
    os << "groups_fusable " << res.groupsFusable << " groups_fused "
       << res.groupsFused << " ops_fused " << res.opsFused << "\n"
       << "layers_unique " << res.layersUnique << " stop "
       << res.stopReason << "\n"
       << "total_edp " << hexDouble(res.totalEdp) << "\n";
    return os.str();
}

/** Compares `text` with the golden file, or rewrites the file when
 *  SUNSTONE_UPDATE_GOLDEN is set. */
void
expectGolden(const std::string &file, const std::string &text)
{
    const std::string path =
        std::string(SUNSTONE_SOURCE_DIR) + "/tests/golden/" + file;
    if (std::getenv("SUNSTONE_UPDATE_GOLDEN")) {
        std::ofstream(path, std::ios::binary) << text;
        return;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good()) << "missing golden file " << path;
    std::ostringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(golden.str(), text) << "search output diverged from " << path;
}

TEST(GoldenSearch, ResNet18OnSimba)
{
    for (unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(threads);
        expectGolden("search_resnet18_simba.txt",
                     renderNet(makeSimbaLike(), resnet18Layers(), threads));
    }
}

TEST(GoldenSearch, MttkrpOnConventional)
{
    const std::vector<Layer> layers = {
        {makeMTTKRP(12096, 9216, 28800, 32, "mttkrp_nell2"), 1}};
    for (unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(threads);
        expectGolden("search_mttkrp_conventional.txt",
                     renderNet(makeConventional(), layers, threads));
    }
}

TEST(GoldenSearch, TopDown)
{
    ConvShape sh;
    sh.n = 1;
    sh.k = 16;
    sh.c = 16;
    sh.p = 14;
    sh.q = 14;
    sh.r = 3;
    sh.s = 3;
    const BoundArch eyeriss(makeEyerissLike(), makeConv2D(sh));
    sh.k = 64;
    sh.c = 64;
    sh.p = 28;
    sh.q = 28;
    Workload wl = makeConv2D(sh);
    applySimbaPrecisions(wl);
    const BoundArch simba(makeSimbaLike(), wl);
    const BoundArch mttkrp(makeConventional(),
                           makeMTTKRP(96, 64, 120, 32, "mttkrp_small"));
    SunstoneOptions opts;
    opts.levelOrder = SunstoneOptions::LevelOrder::TopDown;
    for (unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(threads);
        expectGolden(
            "search_topdown.txt",
            renderSearch("conv_eyeriss", eyeriss, opts, threads) +
                renderSearch("conv_simba", simba, opts, threads) +
                renderSearch("mttkrp_conventional", mttkrp, opts, threads));
    }
}

TEST(GoldenSearch, IntraLevelOrders)
{
    // The two non-default intra-level orders emit through the
    // tile-then-unroll path, which the default order never takes.
    const BoundArch ba(makeSimbaLike(), makeConv1D(16, 16, 28, 3));
    using IO = SunstoneOptions::IntraOrder;
    for (unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(threads);
        std::string text;
        for (IO io : {IO::OrderTileUnroll, IO::TileUnrollOrder}) {
            SunstoneOptions opts;
            opts.intraOrder = io;
            text += renderSearch(io == IO::OrderTileUnroll
                                     ? "order_tile_unroll"
                                     : "tile_unroll_order",
                                 ba, opts, threads);
        }
        expectGolden("search_intra_orders_simba.txt", text);
    }
}

/** A 32-channel 3x3 convolution at 14x14, at Simba's precisions. */
Workload
simbaConv()
{
    ConvShape sh;
    sh.n = 1;
    sh.k = 32;
    sh.c = 32;
    sh.p = 14;
    sh.q = 14;
    sh.r = 3;
    sh.s = 3;
    Workload wl = makeConv2D(sh);
    applySimbaPrecisions(wl);
    return wl;
}

/**
 * The beam trim's edge cases, in both inter-level orders: no alpha-beta
 * (every scored candidate reaches the trim), a one-entry beam, and a
 * beam wider than any step's survivor set (no trim at all).
 */
TEST(GoldenSearch, TrimEdgeCases)
{
    const BoundArch simba(makeSimbaLike(), simbaConv());
    ConvShape sh;
    sh.n = 1;
    sh.k = 16;
    sh.c = 16;
    sh.p = 14;
    sh.q = 14;
    sh.r = 3;
    sh.s = 3;
    const BoundArch eyeriss(makeEyerissLike(), makeConv2D(sh));
    using LO = SunstoneOptions::LevelOrder;
    for (unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(threads);
        std::string text;
        for (LO lo : {LO::BottomUp, LO::TopDown}) {
            const std::string dir =
                lo == LO::BottomUp ? "bottom_up" : "top_down";
            const BoundArch &ba = lo == LO::BottomUp ? simba : eyeriss;
            SunstoneOptions opts;
            opts.levelOrder = lo;
            SunstoneOptions no_ab = opts;
            no_ab.alphaBeta = false;
            text += renderSearch(dir + "_no_alpha_beta", ba, no_ab,
                                 threads);
            SunstoneOptions narrow = opts;
            narrow.beamWidth = 1;
            text += renderSearch(dir + "_beam_1", ba, narrow, threads);
            SunstoneOptions wide = opts;
            wide.beamWidth = 1 << 20;
            text += renderSearch(dir + "_wide_beam", ba, wide, threads);
        }
        expectGolden("search_trim_edges.txt", text);
    }
}

/** One-thread searches cut mid-step by max_evals, in both inter-level
 *  orders: the partial beam the stop leaves behind is still ranked,
 *  polished and reported. */
TEST(GoldenSearch, StoppedMidStep)
{
    const BoundArch ba(makeSimbaLike(), simbaConv());
    SunstoneOptions td;
    td.levelOrder = SunstoneOptions::LevelOrder::TopDown;
    expectGolden("search_stopped.txt",
                 renderSearch("bottom_up_max_evals", ba, {}, 1, 2400) +
                     renderSearch("top_down_max_evals", ba, td, 1, 10000));
}

/**
 * Greedy fusion end to end: two structurally identical attention heads
 * (each a Q·Kᵀ → softmax → ·V chain of multiplicity 2) on the
 * conventional architecture. The first head's chain is searched and
 * fused; the second head's chain is a "dedup" broadcast of that fused
 * unit.
 */
TEST(GoldenSearch, GreedyFusionAttention)
{
    const NetGraph head = attentionGraph(64, 2);
    NetGraph g;
    for (int h = 0; h < 2; ++h) {
        const int base = g.numNodes();
        for (const NetNode &n : head.nodes())
            g.addNode(n.workload, n.count);
        for (const NetEdge &e : head.edges())
            g.addEdge(base + e.producer, e.producerTensor,
                      base + e.consumer, e.consumerTensor);
    }
    for (unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(threads);
        expectGolden("search_fused_attention.txt",
                     renderFusedNet(makeConventional(), g, threads));
    }
}

} // namespace
} // namespace sunstone
