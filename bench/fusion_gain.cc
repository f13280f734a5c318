/**
 * @file
 * Fusion-aware scheduling gain: total EDP of the fused network schedule
 * (`--fuse greedy`) versus the per-layer schedule (`--fuse off`) on the
 * conventional accelerator. Attention is the paper-style showcase — the
 * seq x seq intermediates S and P fit on chip and their DRAM round-trip
 * dominates the unfused cost — while the residual-block ResNet-18 graph
 * shows the conservative side: chains broken by multi-consumer tensors
 * fuse rarely, and the accept rule guarantees the fused total never
 * regresses.
 */

#include <cstdio>

#include "arch/presets.hh"
#include "bench/bench_util.hh"
#include "core/net_scheduler.hh"
#include "workload/net_graph.hh"

using namespace sunstone;

namespace {

struct NetCase
{
    std::string name;
    NetGraph graph;
};

NetScheduleResult
run(const ArchSpec &arch, const NetGraph &g, FusionMode mode,
    std::int64_t max_evals)
{
    NetSchedulerOptions opts;
    opts.fusion = mode;
    SearchContext sc;
    sc.setSeed(7);
    sc.policy().maxEvals = max_evals;
    sc.policy().plateau = 1'000'000'000;
    return scheduleNet(sc, arch, g, opts);
}

} // namespace

int
main()
{
    setLogLevel(LogLevel::Silent);
    const ArchSpec arch = makeConventional();
    const std::int64_t max_evals = 4000;

    std::vector<NetCase> cases;
    for (std::int64_t seq : {128, 256, 512})
        cases.push_back({"attention-s" + std::to_string(seq),
                         attentionGraph(seq, 12)});
    cases.push_back({"resnet18-fused", resnet18Graph(4)});

    std::printf("=== Fusion gain: fused vs per-layer network schedule "
                "===\n");
    std::printf("(conventional arch, seed 7, %lld evals per search)\n\n",
                static_cast<long long>(max_evals));
    std::printf("%-16s | %10s %10s | %10s %10s | %6s | %8s\n", "net",
                "off EDP", "off pJ", "fused EDP", "fused pJ", "fused",
                "gain");
    bench::rule(90);

    std::vector<double> gains;
    for (const NetCase &c : cases) {
        const NetScheduleResult off =
            run(arch, c.graph, FusionMode::Off, max_evals);
        const NetScheduleResult fused =
            run(arch, c.graph, FusionMode::Greedy, max_evals);
        std::printf("%-16s | %10.3g %10.3g | %10.3g %10.3g | %3d/%-2d |"
                    " %8s\n",
                    c.name.c_str(), off.totalEdp, off.totalEnergyPj,
                    fused.totalEdp, fused.totalEnergyPj,
                    fused.groupsFused, fused.groupsFusable,
                    bench::ratio(off.totalEdp, fused.totalEdp).c_str());
        if (off.totalEdp > 0 && fused.totalEdp > 0)
            gains.push_back(off.totalEdp / fused.totalEdp);
        if (fused.totalEdp > off.totalEdp * (1 + 1e-12))
            std::printf("  WARNING: fused schedule regressed on %s\n",
                        c.name.c_str());
    }
    bench::rule(90);
    std::printf("geomean EDP gain from fusion: %.2fx\n",
                bench::geomean(gains));
    return 0;
}
