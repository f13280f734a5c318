/**
 * @file
 * Tile-growth search tree of Section IV-B. Starting from a base tile, the
 * tree grows one dimension at a time to the next-larger divisor of that
 * dimension's remaining quotient, but only along the *grow dimensions*
 * selected by the Tiling Principle (the indexing dims of the tensor(s)
 * the upper-level ordering reuses). A node with any fitting child is
 * strictly dominated (the child reuses more) and is pruned; the surviving
 * candidates are the maximal fitting tiles (Fig. 5).
 *
 * The tree is walked as the graded lattice of divisor indices (DESIGN.md
 * §4): a node is its tuple of per-dim divisor indices, every edge raises
 * one index by one, and the walk proceeds depth by depth with an exact
 * memo of the next depth only. The same walk, unguided and stopping at
 * the first fit, gives the top-down tiling frontier.
 */

#ifndef SUNSTONE_CORE_TILING_TREE_HH
#define SUNSTONE_CORE_TILING_TREE_HH

#include <cstdint>
#include <vector>

#include "arch/arch.hh"
#include "workload/dim_set.hh"

namespace sunstone {

/** Result of one tiling-tree search. */
struct TilingTreeResult
{
    /** Maximal fitting factor vectors (per dim, this level only). */
    std::vector<std::vector<std::int64_t>> maximal;
    /** Number of tree nodes visited (the "space size" contribution). */
    std::int64_t nodesVisited = 0;
    /** Total number of fitting tiles in the unpruned grow-dim space. */
    std::int64_t unprunedSpace = 0;
};

/** Counters of one lattice walk whose tiles go to a caller buffer. */
struct TilingWalkStats
{
    /** Nodes visited, counted as TilingTreeResult::nodesVisited. */
    std::int64_t nodesVisited = 0;
    /** Divisor combinations along the walked dims (saturating). */
    std::int64_t unprunedSpace = 0;
};

/**
 * Enumerates maximal fitting temporal-factor vectors for one level.
 *
 * @param ba bound architecture
 * @param level storage level whose capacity constrains the tile
 * @param base_shape cumulative tile shape from the levels below,
 *        including this level's spatial factors and any pre-absorbed
 *        temporal factors
 * @param remaining per-dim quotients still available for this level
 * @param grow_dims dims the Tiling Principle allows to grow
 */
TilingTreeResult
growTiles(const BoundArch &ba, int level,
          const std::vector<std::int64_t> &base_shape,
          const std::vector<std::int64_t> &remaining, DimSet grow_dims);

/**
 * growTiles() for the search's hot path: the same tiles in the same
 * order, written to `tiles` as one flat array of numDims factors per
 * tile (cleared first, capacity reused). Allocates nothing once the
 * calling thread's scratch has grown to the largest depth it has seen.
 */
TilingWalkStats
growTilesInto(const BoundArch &ba, int level,
              const std::vector<std::int64_t> &base_shape,
              const std::vector<std::int64_t> &remaining, DimSet grow_dims,
              std::vector<std::int64_t> &tiles);

/**
 * Top-down tiling frontier: the minimal factor vectors t, grown over
 * every dim, whose residual tile remaining / t fits `level` (the level
 * below the one being tiled). Breadth-first from the unit vector; a
 * node whose residual fits is emitted and not grown further. Growth is
 * unguided because the Tiling Principle has nothing to bind to yet,
 * which is a key reason top-down explores more (Section V-C).
 *
 * @param node_cap visits after which the walk stops with a warning,
 *        keeping the tiles found so far (nodesVisited is then
 *        node_cap + 1)
 * @param tiles receives the tiles, flat as in growTilesInto()
 */
TilingWalkStats
firstFitTiles(const BoundArch &ba, int level,
              const std::vector<std::int64_t> &remaining,
              std::int64_t node_cap, std::vector<std::int64_t> &tiles);

} // namespace sunstone

#endif // SUNSTONE_CORE_TILING_TREE_HH
