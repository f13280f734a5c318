/**
 * @file
 * Regenerates Fig. 6: MTTKRP (rank 32), TTMc (rank 8), and SDDMM
 * (rank 512) over the FROSTT/SuiteSparse-shaped instances on the
 * conventional accelerator. (a) solution EDP for Sunstone vs the
 * Timeloop-like random search in fast and slow configurations, and
 * (b) time-to-solution. The paper's observation: TL's unpruned random
 * search is both slower and stuck at worse EDP.
 */

#include <cstdio>

#include "arch/presets.hh"
#include "bench/bench_util.hh"
#include "core/sunstone.hh"
#include "mappers/timeloop_mapper.hh"
#include "workload/nets.hh"

using namespace sunstone;

int
main()
{
    setLogLevel(LogLevel::Silent);
    ArchSpec arch = makeConventional();
    const double budget = bench::baselineBudgetSeconds();

    std::printf("=== Fig. 6: non-DNN workloads on the conventional "
                "accelerator ===\n");
    std::printf("(baseline budget %.1f s per workload; set "
                "SUNSTONE_BENCH_BUDGET to change)\n\n", budget);
    std::printf("%-16s | %10s %8s | %10s %8s | %10s %8s | %8s %8s\n",
                "workload", "sun EDP", "sun s", "TLf EDP", "TLf s",
                "TLs EDP", "TLs s", "EDP gain", "speedup");
    bench::rule(110);

    std::vector<double> edp_gains, speedups;
    int tl_never_matches = 0;
    for (const auto &layer : nonDnnSuite()) {
        BoundArch ba(arch, layer.workload);
        SunstoneResult sun = sunstoneOptimize(ba);

        TimeloopOptions fast = TimeloopOptions::fast();
        fast.maxSeconds = budget;
        auto tlf = TimeloopMapper(fast, "TL-fast").optimize(ba);

        TimeloopOptions slow = TimeloopOptions::slow();
        slow.maxSeconds = budget;
        auto tls = TimeloopMapper(slow, "TL-slow").optimize(ba);

        const double best_tl_edp =
            std::min(tlf.found ? tlf.cost.edp : 1e99,
                     tls.found ? tls.cost.edp : 1e99);
        std::printf(
            "%-16s | %10.3g %8.3f | %10.3g %8.3f | %10.3g %8.3f"
            " | %8s %8s\n",
            layer.workload.name().c_str(), sun.cost.edp, sun.seconds,
            tlf.found ? tlf.cost.edp : 0.0, tlf.seconds,
            tls.found ? tls.cost.edp : 0.0, tls.seconds,
            bench::ratio(best_tl_edp, sun.cost.edp).c_str(),
            bench::ratio(tls.seconds, sun.seconds).c_str());
        if (sun.found && best_tl_edp < 1e98) {
            edp_gains.push_back(best_tl_edp / sun.cost.edp);
            speedups.push_back(tls.seconds / sun.seconds);
            if (best_tl_edp > sun.cost.edp * 1.0001)
                ++tl_never_matches;
        }
    }
    bench::rule(110);
    std::printf("geomean EDP improvement over best TL: %.2fx\n",
                bench::geomean(edp_gains));
    std::printf("geomean time-to-solution speedup vs TL-slow: %.1fx\n",
                bench::geomean(speedups));
    std::printf("TL fails to reach Sunstone's EDP within its budget on "
                "%d/%zu workloads\n",
                tl_never_matches, edp_gains.size());
    return 0;
}
