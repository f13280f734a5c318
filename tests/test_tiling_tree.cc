/** @file Tests for the tiling tree (Sections III-A, IV-B). */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <set>

#include "arch/presets.hh"
#include "common/logging.hh"
#include "common/math_utils.hh"
#include "core/tiling_tree.hh"
#include "workload/zoo.hh"

namespace sunstone {
namespace {

std::int64_t
footprintAll(const Workload &wl, const std::vector<std::int64_t> &shape)
{
    std::int64_t fp = 0;
    for (TensorId t = 0; t < wl.numTensors(); ++t)
        fp += wl.tensor(t).footprint(shape);
    return fp;
}

/** The Fig. 5 example: K=4, P=14, C=4, R=4 sliding-window conv with a
 *  unified 8-entry L1, growing only the ofmap indexing dims K and P. */
class FigFiveTest : public ::testing::Test
{
  protected:
    FigFiveTest()
        : wl(makeConv1D(4, 4, 14, 4)), arch(makeToyArch(8, 1)),
          ba(arch, wl)
    {
        grow.add(wl.dimByName("k"));
        grow.add(wl.dimByName("p"));
    }

    Workload wl;
    ArchSpec arch;
    BoundArch ba;
    DimSet grow;
};

TEST_F(FigFiveTest, MaximalTilesFitAndCannotGrow)
{
    std::vector<std::int64_t> unit(4, 1);
    auto res = growTiles(ba, 0, unit, wl.shape(), grow);
    ASSERT_FALSE(res.maximal.empty());
    for (const auto &tile : res.maximal) {
        EXPECT_LE(footprintAll(wl, tile) * 16, 8 * 16);
        // Growing any grow-dim to the next divisor must overflow (or be
        // impossible).
        for (DimId d : grow) {
            const std::int64_t nf = nextDivisor(wl.dimSize(d), tile[d]);
            if (nf == 0)
                continue;
            auto bigger = tile;
            bigger[d] = nf;
            EXPECT_GT(footprintAll(wl, bigger) * 16, 8 * 16)
                << "tile could still grow in dim " << wl.dimName(d);
        }
    }
}

TEST_F(FigFiveTest, OnlyGrowDimsChange)
{
    std::vector<std::int64_t> unit(4, 1);
    auto res = growTiles(ba, 0, unit, wl.shape(), grow);
    const DimId c = wl.dimByName("c"), r = wl.dimByName("r");
    for (const auto &tile : res.maximal) {
        EXPECT_EQ(tile[c], 1);
        EXPECT_EQ(tile[r], 1);
    }
}

TEST_F(FigFiveTest, PruningShrinksTheSpace)
{
    std::vector<std::int64_t> unit(4, 1);
    auto res = growTiles(ba, 0, unit, wl.shape(), grow);
    // The unpruned grow space is all divisor pairs of (K, P); the
    // surviving frontier must be strictly smaller.
    EXPECT_LT((std::int64_t)res.maximal.size(), res.unprunedSpace);
    EXPECT_GT(res.nodesVisited, 0);
}

TEST(TilingTree, RespectsBaseShape)
{
    Workload wl = makeGemm(16, 16, 16);
    ArchSpec arch = makeToyArch(64, 1);
    BoundArch ba(arch, wl);
    // A base shape that nearly fills L1 leaves little room to grow.
    std::vector<std::int64_t> base{4, 4, 1}; // out 16 + a 4 + b 4 = 24
    std::vector<std::int64_t> remaining{4, 4, 16};
    auto res = growTiles(ba, 0, base, remaining, DimSet::all(3));
    for (const auto &tile : res.maximal) {
        std::vector<std::int64_t> shape(3);
        for (int d = 0; d < 3; ++d)
            shape[d] = base[d] * tile[d];
        EXPECT_LE(footprintAll(wl, shape), 64);
    }
}

TEST(TilingTree, OverflowingBaseYieldsNoCandidates)
{
    Workload wl = makeGemm(16, 16, 16);
    ArchSpec arch = makeToyArch(8, 1);
    BoundArch ba(arch, wl);
    std::vector<std::int64_t> base{16, 16, 1}; // 256-word output alone
    auto res = growTiles(ba, 0, base, {1, 1, 16}, DimSet::all(3));
    EXPECT_TRUE(res.maximal.empty());
}

TEST(TilingTree, ExhaustedDimIsMaximal)
{
    // When remaining = 1 along every grow dim, the unit tile itself is
    // the single maximal candidate.
    Workload wl = makeGemm(4, 4, 4);
    BoundArch ba(makeToyArch(1024, 1), wl);
    auto res = growTiles(ba, 0, {1, 1, 1}, {1, 1, 1}, DimSet::all(3));
    ASSERT_EQ(res.maximal.size(), 1u);
    EXPECT_EQ(res.maximal[0], (std::vector<std::int64_t>{1, 1, 1}));
}

TEST(TilingTree, PartitionedCapacityIsPerDatatype)
{
    // On the Simba-like PE level the weight partition (32 KB) dominates;
    // the tree must respect each partition separately.
    ConvShape sh;
    sh.k = 64;
    sh.c = 64;
    sh.p = 8;
    sh.q = 8;
    Workload wl = makeConv2D(sh);
    applySimbaPrecisions(wl);
    BoundArch ba(makeSimbaLike(), wl);
    DimSet grow;
    grow.add(wl.dimByName("k"));
    grow.add(wl.dimByName("c"));
    auto res = growTiles(ba, 1, std::vector<std::int64_t>(7, 1),
                         wl.shape(), grow);
    for (const auto &tile : res.maximal) {
        // weight tile k*c (r=s=1) must fit 32 KB of 8-bit words.
        EXPECT_LE(tile[wl.dimByName("k")] * tile[wl.dimByName("c")],
                  32 * 1024);
        // ofmap tile k (p=q=1) must fit 3 KB of 24-bit words.
        EXPECT_LE(tile[wl.dimByName("k")] * 24, 3 * 8 * 1024);
    }
    EXPECT_FALSE(res.maximal.empty());
}

/** Section III-A claim: the Tiling Principle prunes a large fraction of
 *  the L1 tile space for ResNet-style layers (up to 80% in the paper). */
TEST(TilingTree, PruningRatioIsSubstantial)
{
    ConvShape sh;
    sh.n = 1;
    sh.k = 64;
    sh.c = 64;
    sh.p = 56;
    sh.q = 56;
    sh.r = 3;
    sh.s = 3;
    Workload wl = makeConv2D(sh);
    BoundArch ba(makeConventional(), wl);
    DimSet grow; // ofmap-indexing dims for an ofmap-reusing order
    for (DimId d : wl.reuse(wl.tensorByName("ofmap")).indexing)
        grow.add(d);
    auto res = growTiles(ba, 0, std::vector<std::int64_t>(7, 1),
                         wl.shape(), grow);
    ASSERT_FALSE(res.maximal.empty());
    const double kept = static_cast<double>(res.maximal.size()) /
                        static_cast<double>(res.unprunedSpace);
    EXPECT_LT(kept, 0.5) << "maximal=" << res.maximal.size()
                         << " unpruned=" << res.unprunedSpace;
}

// -- Lattice properties against brute force ---------------------------

using Factors = std::vector<std::int64_t>;

/** One tiling-tree instance: a binding, a level and the walk inputs. */
struct LatticeCase
{
    std::string what;
    std::unique_ptr<BoundArch> ba;
    int level = 0;
    Factors base, remaining;
    DimSet grow;
};

std::int64_t
pickFrom(std::mt19937_64 &g, const std::vector<std::int64_t> &from)
{
    return from[g() % from.size()];
}

/** A seeded random small conv, matmul or MTTKRP on the toy arch or the
 *  partitioned Simba-like arch, with a random level, a non-unit base
 *  shape, the rest of each dim as the quotient, and a random grow set. */
LatticeCase
randomCase(std::mt19937_64 &g)
{
    const std::vector<std::int64_t> sizes{1, 2, 3, 4, 6, 8, 12, 16, 24};
    const bool simba = g() % 2;
    Workload wl = makeGemm(1, 1, 1);
    std::map<std::string, std::string> bind;
    LatticeCase c;
    switch (g() % 3) {
    case 0: {
        ConvShape sh;
        sh.n = pickFrom(g, {1, 2});
        sh.k = pickFrom(g, sizes);
        sh.c = pickFrom(g, sizes);
        sh.p = pickFrom(g, sizes);
        sh.q = pickFrom(g, {1, 2, 4, 7});
        sh.r = sh.s = pickFrom(g, {1, 3});
        wl = makeConv2D(sh);
        c.what = "conv";
        break;
    }
    case 1:
        wl = makeGemm(pickFrom(g, sizes), pickFrom(g, sizes),
                      pickFrom(g, sizes));
        c.what = "gemm";
        break;
    default:
        wl = makeMTTKRP(pickFrom(g, sizes), pickFrom(g, sizes),
                        pickFrom(g, sizes), pickFrom(g, sizes));
        bind = {{"out", "ofmap"}, {"A", "ifmap"}, {"B", "weight"},
                {"C", "weight"}};
        c.what = "mttkrp";
        break;
    }
    // The toy arch's L1 and Simba's per-PE buffers are the levels
    // small enough for these workloads to branch.
    ArchSpec arch = makeToyArch(pickFrom(g, {8, 16, 32, 64, 128}), 4);
    c.level = 0;
    if (simba) {
        applySimbaPrecisions(wl);
        arch = makeSimbaLike();
        c.level = static_cast<int>(g() % 2);
    }
    c.what += simba ? " on simba" : " on toy";
    c.ba = std::make_unique<BoundArch>(arch, wl, bind);
    const int nd = wl.numDims();
    for (DimId d = 0; d < nd; ++d) {
        const auto &divs = cachedDivisors(wl.dimSize(d));
        // Mostly unit bases so that something fits; sometimes larger.
        const std::int64_t b = g() % 3 ? 1 : divs[g() % divs.size()];
        c.base.push_back(b);
        c.remaining.push_back(wl.dimSize(d) / b);
        if (g() % 4)
            c.grow.add(d);
    }
    return c;
}

/** Every factor vector of the divisor lattice over `dims`. */
std::vector<Factors>
wholeLattice(const Factors &remaining, DimSet dims)
{
    std::vector<Factors> nodes{Factors(remaining.size(), 1)};
    for (DimId d : dims) {
        std::vector<Factors> grown;
        for (const Factors &n : nodes)
            for (std::int64_t f : cachedDivisors(remaining[d])) {
                grown.push_back(n);
                grown.back()[d] = f;
            }
        nodes = std::move(grown);
    }
    return nodes;
}

/** Children of a node: one dim raised to its next divisor. */
std::vector<Factors>
childrenOf(const Factors &n, const Factors &remaining, DimSet dims)
{
    std::vector<Factors> out;
    for (DimId d : dims) {
        const std::int64_t nf = nextDivisor(remaining[d], n[d]);
        if (nf == 0)
            continue;
        out.push_back(n);
        out.back()[d] = nf;
    }
    return out;
}

/** Depth in the lattice: the sum of the divisor indices. */
std::int64_t
depthOf(const Factors &n, const Factors &remaining)
{
    std::int64_t depth = 0;
    for (std::size_t d = 0; d < n.size(); ++d) {
        const auto &divs = cachedDivisors(remaining[d]);
        depth += std::lower_bound(divs.begin(), divs.end(), n[d]) -
                 divs.begin();
    }
    return depth;
}

bool
fitsAt(const BoundArch &ba, int level, const Factors &shape)
{
    const Workload &wl = ba.workload();
    Factors fp(wl.numTensors(), 0);
    for (TensorId t = 0; t < wl.numTensors(); ++t)
        if (ba.stores(level, t))
            fp[t] = wl.tensor(t).footprint(shape);
    return ba.fits(level, fp);
}

std::vector<Factors>
unflatten(const Factors &flat, std::size_t nd)
{
    std::vector<Factors> out;
    for (std::size_t at = 0; at < flat.size(); at += nd)
        out.emplace_back(flat.begin() + at, flat.begin() + at + nd);
    return out;
}

/** Checks listed tiles against an expected set: no tile twice, every
 *  expected tile present, listed in non-decreasing depth. */
void
expectTiles(const std::vector<Factors> &got,
            const std::set<Factors> &expected, const Factors &remaining)
{
    EXPECT_EQ(std::set<Factors>(got.begin(), got.end()), expected);
    EXPECT_EQ(got.size(), expected.size()) << "a tile is listed twice";
    for (std::size_t i = 1; i < got.size(); ++i)
        EXPECT_LE(depthOf(got[i - 1], remaining), depthOf(got[i], remaining))
            << "tiles out of depth order at " << i;
}

/** growTiles against the whole lattice: F is the set of fitting nodes.
 *  @return the number of maximal tiles */
std::size_t
checkGrowTiles(const LatticeCase &c)
{
    SCOPED_TRACE(c.what + " level " + std::to_string(c.level));
    const BoundArch &ba = *c.ba;
    const std::size_t nd = c.remaining.size();
    auto shapeOf = [&](const Factors &f) {
        Factors shape(nd);
        for (std::size_t d = 0; d < nd; ++d)
            shape[d] = satMul(c.base[d], f[d]);
        return shape;
    };
    const TilingTreeResult res =
        growTiles(ba, c.level, c.base, c.remaining, c.grow);
    if (!fitsAt(ba, c.level, c.base)) {
        EXPECT_TRUE(res.maximal.empty());
        EXPECT_EQ(res.nodesVisited, 0);
        return 0;
    }
    std::int64_t space = 1;
    for (DimId d : c.grow)
        space *= static_cast<std::int64_t>(
            cachedDivisors(c.remaining[d]).size());
    EXPECT_EQ(res.unprunedSpace, space);

    std::set<Factors> fitting;
    for (const Factors &n : wholeLattice(c.remaining, c.grow))
        if (fitsAt(ba, c.level, shapeOf(n)))
            fitting.insert(n);
    std::set<Factors> maximal;
    std::int64_t visited = 0;
    for (const Factors &n : fitting) {
        ++visited;
        bool any_fitting_child = false;
        for (const Factors &ch : childrenOf(n, c.remaining, c.grow)) {
            if (fitting.count(ch))
                any_fitting_child = true;
            else
                ++visited;
        }
        if (!any_fitting_child)
            maximal.insert(n);
    }
    expectTiles(res.maximal, maximal, c.remaining);
    EXPECT_EQ(res.nodesVisited, visited);

    // The flat form lists the same tiles in the same order.
    Factors flat;
    const TilingWalkStats st =
        growTilesInto(ba, c.level, c.base, c.remaining, c.grow, flat);
    EXPECT_EQ(unflatten(flat, nd), res.maximal);
    EXPECT_EQ(st.nodesVisited, res.nodesVisited);
    return maximal.size();
}

/** firstFitTiles against the whole lattice: V is the set of nodes the
 *  frontier reaches (the unit, and every child of a reached node whose
 *  residual does not fit).
 *  @return the number of first-fit tiles */
std::size_t
checkFirstFit(const LatticeCase &c)
{
    SCOPED_TRACE(c.what + " level " + std::to_string(c.level));
    const BoundArch &ba = *c.ba;
    const std::size_t nd = c.remaining.size();
    const DimSet all = DimSet::all(static_cast<int>(nd));
    auto residualFits = [&](const Factors &t) {
        Factors shape(nd);
        for (std::size_t d = 0; d < nd; ++d)
            shape[d] = c.remaining[d] / t[d];
        return fitsAt(ba, c.level, shape);
    };
    // Depth order visits every parent before its children.
    std::vector<Factors> nodes = wholeLattice(c.remaining, all);
    std::stable_sort(nodes.begin(), nodes.end(),
                     [&](const Factors &a, const Factors &b) {
                         return depthOf(a, c.remaining) <
                                depthOf(b, c.remaining);
                     });
    std::set<Factors> reached{Factors(nd, 1)};
    std::set<Factors> first_fits;
    for (const Factors &n : nodes) {
        if (!reached.count(n))
            continue;
        if (residualFits(n)) {
            first_fits.insert(n);
            continue;
        }
        for (const Factors &ch : childrenOf(n, c.remaining, all))
            reached.insert(ch);
    }

    Factors flat;
    const TilingWalkStats st = firstFitTiles(
        ba, c.level, c.remaining, std::numeric_limits<std::int64_t>::max(),
        flat);
    expectTiles(unflatten(flat, nd), first_fits, c.remaining);
    EXPECT_EQ(st.nodesVisited, static_cast<std::int64_t>(reached.size()));

    // A cap one short of the walk stops it, keeping a prefix.
    if (reached.size() > 1) {
        Factors capped;
        const LogLevel was = logLevel();
        setLogLevel(LogLevel::Silent); // the cap's warning is expected
        const TilingWalkStats cs = firstFitTiles(
            ba, c.level, c.remaining,
            static_cast<std::int64_t>(reached.size()) - 1, capped);
        setLogLevel(was);
        EXPECT_EQ(cs.nodesVisited, static_cast<std::int64_t>(reached.size()));
        EXPECT_TRUE(capped.size() <= flat.size() &&
                    std::equal(capped.begin(), capped.end(), flat.begin()));
    }
    return first_fits.size();
}

TEST(TilingTreeLattice, GrowTilesMatchesBruteForce)
{
    std::mt19937_64 g(20230417);
    int branching = 0;
    for (int i = 0; i < 300; ++i) {
        SCOPED_TRACE("case " + std::to_string(i));
        branching += checkGrowTiles(randomCase(g)) >= 3;
    }
    // Guard against a generator that only makes trivial trees.
    EXPECT_GT(branching, 60);
}

TEST(TilingTreeLattice, FirstFitMatchesBruteForce)
{
    std::mt19937_64 g(7041);
    int branching = 0;
    for (int i = 0; i < 200; ++i) {
        SCOPED_TRACE("case " + std::to_string(i));
        branching += checkFirstFit(randomCase(g)) >= 3;
    }
    EXPECT_GT(branching, 40);
}

TEST(TilingTreeLattice, ExactWhenTheSpaceSaturates)
{
    // Ten dims of 720720 (240 divisors each): the divisor-index space
    // (240^10) overflows 64 bits, so node keys wrap. A tiny L1 keeps the
    // fitting set small enough to enumerate from the unit node.
    std::vector<std::pair<std::string, std::int64_t>> sizes;
    std::string idx;
    for (char d = 'a'; d < 'a' + 10; ++d) {
        sizes.push_back({std::string(1, d), 720720});
        idx += std::string(idx.empty() ? "" : ",") + d;
    }
    Workload wl = parseEinsum("wide", "out[" + idx + "] = x[" + idx + "]",
                              sizes);
    BoundArch ba(makeToyArch(16, 1), wl);
    const Factors unit(10, 1);
    const DimSet all = DimSet::all(10);
    const TilingTreeResult res = growTiles(ba, 0, unit, wl.shape(), all);
    EXPECT_EQ(res.unprunedSpace, std::numeric_limits<std::int64_t>::max());

    std::set<Factors> fitting{unit};
    std::vector<Factors> work{unit};
    while (!work.empty()) {
        const Factors n = work.back();
        work.pop_back();
        for (const Factors &ch : childrenOf(n, wl.shape(), all))
            if (fitsAt(ba, 0, ch) && fitting.insert(ch).second)
                work.push_back(ch);
    }
    std::set<Factors> maximal;
    std::int64_t visited = 0;
    for (const Factors &n : fitting) {
        ++visited;
        bool any_fitting_child = false;
        for (const Factors &ch : childrenOf(n, wl.shape(), all)) {
            if (fitting.count(ch))
                any_fitting_child = true;
            else
                ++visited;
        }
        if (!any_fitting_child)
            maximal.insert(n);
    }
    ASSERT_GT(maximal.size(), 10u);
    expectTiles(res.maximal, maximal, wl.shape());
    EXPECT_EQ(res.nodesVisited, visited);
}

} // namespace
} // namespace sunstone
