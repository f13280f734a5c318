/**
 * @file
 * Regenerates Table I: the size of the optimization space each tool
 * constructs for an Inception-v3 example layer, plus the number of
 * candidates Sunstone actually examines. Analytic estimates use the
 * factorization-count identities of mappers/space_size; Sunstone's
 * column is measured by running the search.
 */

#include <cstdio>

#include "arch/presets.hh"
#include "bench/bench_util.hh"
#include "core/ordering_trie.hh"
#include "core/sunstone.hh"
#include "mappers/space_size.hh"
#include "workload/nets.hh"

using namespace sunstone;

int
main()
{
    setLogLevel(LogLevel::Silent);
    Workload wl = inceptionTableIExample(16);
    BoundArch ba(makeConventional(), wl);

    std::printf("=== Table I: optimization-space sizes "
                "(Inception-v3 example layer, conventional arch) ===\n");
    std::printf("layer: %s\n\n", wl.toString().c_str());

    const double tl = space::timeloopSpace(ba);
    const double cosa = space::cosaSpace(ba);
    const double marvel = space::marvelSpace(ba);
    const double inter = space::interstellarSpace(ba);
    const double dmaze = space::dmazeSpace(ba);

    SunstoneResult sun = sunstoneOptimize(ba);

    std::printf("%-16s %14s  %s\n", "tool", "space size", "notes");
    bench::rule(72);
    std::printf("%-16s %14.3g  %s\n", "Timeloop", tl,
                "all dims, all levels, full permutations, no pruning");
    std::printf("%-16s %14.3g  %s\n", "CoSA", cosa,
                "same space; pruned inside the MIP relaxation");
    std::printf("%-16s %14.3g  %s\n", "Marvel", marvel,
                "off-chip / on-chip decoupling");
    std::printf("%-16s %14.3g  %s\n", "Interstellar", inter,
                "preset CK unrolling removes the spatial choice");
    std::printf("%-16s %14.3g  %s\n", "dMazeRunner", dmaze,
                "analyzed orders + utilization thresholds");
    std::printf("%-16s %14.3g  %s\n", "Sunstone (ours)",
                static_cast<double>(sun.candidatesExamined),
                "measured: reuse-dim tiling + pruned trie + alpha-beta");
    bench::rule(72);
    std::printf("reduction vs Timeloop: %.3g x\n\n",
                tl / static_cast<double>(sun.candidatesExamined));

    // The "dimensions per level" rows of Table I.
    OrderingTrieStats stats;
    auto orderings = orderingCandidates(wl, DimSet::all(wl.numDims()),
                                        &stats);
    int max_grow = 0;
    for (const auto &ord : orderings) {
        DimSet g;
        for (TensorId t : ord.fullyReusedTensors())
            g = g.unionWith(wl.reuse(t).indexing);
        max_grow = std::max(max_grow, g.size());
    }
    std::printf("dimensions to build each temporal tile: %d of %d "
                "(reuse dims only)\n", max_grow, wl.numDims());
    std::printf("surviving loop orderings: %lld (trie visited %lld "
                "nodes, %lld leaves)\n",
                static_cast<long long>(stats.survivors),
                static_cast<long long>(stats.nodesVisited),
                static_cast<long long>(stats.leaves));
    std::printf("Sunstone result: EDP %.4g J*s in %.3f s\n", sun.cost.edp,
                sun.seconds);
    return 0;
}
