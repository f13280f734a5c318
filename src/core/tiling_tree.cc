#include "core/tiling_tree.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"
#include "common/math_utils.hh"

namespace sunstone {

namespace {

/**
 * The nodes of one depth of the divisor-index lattice, in the order they
 * were first probed, each with its per-tensor footprints and fit
 * verdict, plus an exact memo over them. A node is its tuple of divisor
 * indices, one per axis of the walk. Its key is the tuple read as a
 * mixed-radix number, so a child's key is its parent's plus the axis
 * stride. When the radix product overflows 64 bits the key is only a
 * hash, and a key match is confirmed by comparing the tuples.
 *
 * The memo is an open-addressing table of node numbers. Slots carry the
 * generation of the depth that wrote them, so moving to the next depth
 * empties the table without touching it.
 */
class LatticeDepth
{
  public:
    /** Empties the depth for nodes of `width` indices and `nt`
     *  footprints; every buffer keeps its capacity. */
    void
    clear(int width, int nt)
    {
        width_ = width;
        nt_ = nt;
        idx_.clear();
        fp_.clear();
        key_.clear();
        fits_.clear();
        if (++gen_ == 0) {
            std::fill(slots_.begin(), slots_.end(), Slot{});
            gen_ = 1;
        }
    }

    std::size_t size() const { return key_.size(); }
    const std::uint32_t *idx(std::size_t i) const
    {
        return idx_.data() + i * width_;
    }
    std::int64_t *fp(std::size_t i) { return fp_.data() + i * nt_; }
    std::uint64_t key(std::size_t i) const { return key_[i]; }
    bool fits(std::size_t i) const { return fits_[i]; }
    void setFits(std::size_t i, bool f) { fits_[i] = f; }

    /** Adds the all-zero root tuple (key 0); its footprints are unset. */
    void
    addRoot()
    {
        idx_.resize(width_, 0);
        fp_.resize(nt_);
        key_.push_back(0);
        fits_.push_back(0);
        insert(0);
    }

    /**
     * @return the node `parent` + e_axis with key `key`, or -1 when it
     *         has not been probed at this depth yet
     */
    std::int64_t
    find(std::uint64_t key, const std::uint32_t *parent, int axis,
         bool exact_keys) const
    {
        if (slots_.empty())
            return -1;
        for (std::size_t h = slotOf(key);; h = (h + 1) & mask_) {
            const Slot &s = slots_[h];
            if (s.gen != gen_)
                return -1;
            if (key_[s.node] == key &&
                (exact_keys || isChild(s.node, parent, axis)))
                return s.node;
        }
    }

    /** Appends `parent` + e_axis with the parent's footprints copied;
     *  @return its node number. */
    std::size_t
    addChild(std::uint64_t key, const std::uint32_t *parent, int axis,
             const std::int64_t *parent_fp)
    {
        const std::size_t n = size();
        idx_.insert(idx_.end(), parent, parent + width_);
        ++idx_[n * width_ + axis];
        fp_.insert(fp_.end(), parent_fp, parent_fp + nt_);
        key_.push_back(key);
        fits_.push_back(0);
        insert(n);
        return n;
    }

  private:
    struct Slot
    {
        std::uint32_t gen = 0;
        std::uint32_t node = 0;
    };

    std::size_t
    slotOf(std::uint64_t key) const
    {
        return static_cast<std::size_t>(
            (key * 0x9E3779B97F4A7C15ull) >> shift_);
    }

    bool
    isChild(std::size_t node, const std::uint32_t *parent, int axis) const
    {
        const std::uint32_t *t = idx(node);
        for (int a = 0; a < width_; ++a)
            if (t[a] != parent[a] + (a == axis ? 1u : 0u))
                return false;
        return true;
    }

    /** Enters node n (already appended) into the memo, growing the
     *  table to keep it at most half full. */
    void
    insert(std::size_t n)
    {
        if (2 * (n + 1) > slots_.size()) {
            const std::size_t cap = std::max<std::size_t>(
                64, 2 * slots_.size());
            slots_.assign(cap, Slot{});
            mask_ = cap - 1;
            shift_ = 64 - __builtin_ctzll(cap);
            for (std::size_t i = 0; i < n; ++i)
                place(i);
        }
        place(n);
    }

    void
    place(std::size_t n)
    {
        std::size_t h = slotOf(key_[n]);
        while (slots_[h].gen == gen_)
            h = (h + 1) & mask_;
        slots_[h] = {gen_, static_cast<std::uint32_t>(n)};
    }

    int width_ = 0;
    int nt_ = 0;
    std::vector<std::uint32_t> idx_;
    std::vector<std::int64_t> fp_;
    std::vector<std::uint64_t> key_;
    std::vector<char> fits_;
    std::vector<Slot> slots_;
    std::size_t mask_ = 0;
    int shift_ = 64;
    std::uint32_t gen_ = 0;
};

/**
 * Per-thread state of a lattice walk. Every buffer only grows, to the
 * largest depth and axis count the thread has walked.
 */
struct LatticeWalk
{
    /** Walked dims with more than one divisor, ascending. */
    std::vector<DimId> dim;
    /** Divisors of each axis's quotient (interned, never freed). */
    std::vector<const std::vector<std::int64_t> *> divs;
    /** Mixed-radix key stride of each axis. */
    std::vector<std::uint64_t> stride;
    /** Tensors stored at the checked level whose footprint depends on
     *  axis a: touch[touchEnd[a - 1], touchEnd[a]). */
    std::vector<TensorId> touch;
    std::vector<std::size_t> touchEnd;
    /** Divisor combinations over the axes (saturating). */
    std::int64_t space = 1;
    /** Shape of the node being expanded. */
    std::vector<std::int64_t> shape;
    LatticeDepth cur, next;

    /**
     * Sets the axes to the dims of `dims` with more than one divisor of
     * `remaining`, their space, and the touched tensors at `level`.
     * @return whether mixed-radix keys are exact (the radix product
     *         fits 64 bits)
     */
    bool
    setAxes(const BoundArch &ba, int level,
            const std::vector<std::int64_t> &remaining, DimSet dims)
    {
        const Workload &wl = ba.workload();
        dim.clear();
        divs.clear();
        stride.clear();
        touch.clear();
        touchEnd.clear();
        space = 1;
        std::uint64_t radix_product = 1;
        bool exact = true;
        for (DimId d : dims) {
            const auto &dv = cachedDivisors(remaining[d]);
            if (dv.size() < 2)
                continue;
            dim.push_back(d);
            divs.push_back(&dv);
            space = satMul(space, static_cast<std::int64_t>(dv.size()));
            stride.push_back(radix_product);
            // On overflow the product wraps and keys become hashes.
            if (__builtin_mul_overflow(radix_product, dv.size(),
                                       &radix_product))
                exact = false;
            for (TensorId t = 0; t < wl.numTensors(); ++t)
                if (ba.stores(level, t) && wl.reuse(t).indexing.contains(d))
                    touch.push_back(t);
            touchEnd.push_back(touch.size());
        }
        return exact;
    }

    /** Recomputes the footprints axis `a` touches, at `shape`. */
    void
    refreshFootprints(const Workload &wl, int a, std::int64_t *fp) const
    {
        for (std::size_t i = a ? touchEnd[a - 1] : 0; i < touchEnd[a]; ++i)
            fp[touch[i]] = wl.tensor(touch[i]).footprint(shape);
    }

    /** Appends node `n` of the current depth to `tiles` as factors. */
    void
    emitTile(std::size_t n, int num_dims,
             std::vector<std::int64_t> &tiles) const
    {
        const std::size_t at = tiles.size();
        tiles.resize(at + num_dims, 1);
        const std::uint32_t *node = cur.idx(n);
        for (std::size_t a = 0; a < dim.size(); ++a)
            tiles[at + dim[a]] = (*divs[a])[node[a]];
    }
};

LatticeWalk &
latticeWalk()
{
    thread_local LatticeWalk w;
    return w;
}

/** Footprint of every stored tensor at `shape`; 0 for the others. */
void
footprintsAt(const BoundArch &ba, int level,
             const std::vector<std::int64_t> &shape, std::int64_t *fp)
{
    const Workload &wl = ba.workload();
    for (TensorId t = 0; t < wl.numTensors(); ++t)
        fp[t] = ba.stores(level, t) ? wl.tensor(t).footprint(shape) : 0;
}

} // anonymous namespace

TilingWalkStats
growTilesInto(const BoundArch &ba, int level,
              const std::vector<std::int64_t> &base_shape,
              const std::vector<std::int64_t> &remaining, DimSet grow_dims,
              std::vector<std::int64_t> &tiles)
{
    const Workload &wl = ba.workload();
    const int nd = static_cast<int>(remaining.size());
    const int nt = wl.numTensors();
    TilingWalkStats st;
    tiles.clear();

    LatticeWalk &w = latticeWalk();
    const bool exact_keys = w.setAxes(ba, level, remaining, grow_dims);
    const int na = static_cast<int>(w.dim.size());
    w.shape.assign(base_shape.begin(), base_shape.end());
    w.cur.clear(na, nt);
    w.cur.addRoot();
    footprintsAt(ba, level, w.shape, w.cur.fp(0));
    if (!ba.fits(level, w.cur.fp(0), nt)) {
        // Even the unit tile overflows (the base shape is too large);
        // no candidates at this level.
        return st;
    }
    w.cur.setFits(0, true);
    st.unprunedSpace = w.space;

    // Depth by depth over the fitting nodes; a node is pruned when it
    // has at least one fitting child (Tiling Principle). Every edge
    // raises one divisor index by one, so a child one depth down is
    // probed only by nodes of this depth: its first probe pays the fit
    // check (footprints recomputed only for the tensors the grown dim
    // indexes), later probes reuse the memoized verdict.
    while (w.cur.size() > 0) {
        w.next.clear(na, nt);
        for (std::size_t i = 0; i < w.cur.size(); ++i) {
            if (!w.cur.fits(i))
                continue;
            ++st.nodesVisited;
            const std::uint32_t *node = w.cur.idx(i);
            for (int a = 0; a < na; ++a)
                w.shape[w.dim[a]] =
                    satMul(base_shape[w.dim[a]], (*w.divs[a])[node[a]]);
            bool any_fitting_child = false;
            for (int a = 0; a < na; ++a) {
                const auto &dv = *w.divs[a];
                if (node[a] + 1 == dv.size())
                    continue; // dim exhausted
                const std::uint64_t key = w.cur.key(i) + w.stride[a];
                std::int64_t c = w.next.find(key, node, a, exact_keys);
                if (c < 0) {
                    c = static_cast<std::int64_t>(
                        w.next.addChild(key, node, a, w.cur.fp(i)));
                    const DimId d = w.dim[a];
                    const std::int64_t saved = w.shape[d];
                    w.shape[d] = satMul(base_shape[d], dv[node[a] + 1]);
                    w.refreshFootprints(wl, a, w.next.fp(c));
                    w.shape[d] = saved;
                    w.next.setFits(c, ba.fits(level, w.next.fp(c), nt));
                }
                if (!w.next.fits(c)) {
                    ++st.nodesVisited; // examined and rejected
                    continue;
                }
                any_fitting_child = true;
            }
            if (!any_fitting_child)
                w.emitTile(i, nd, tiles);
        }
        std::swap(w.cur, w.next);
    }
    return st;
}

TilingTreeResult
growTiles(const BoundArch &ba, int level,
          const std::vector<std::int64_t> &base_shape,
          const std::vector<std::int64_t> &remaining, DimSet grow_dims)
{
    std::vector<std::int64_t> flat;
    const TilingWalkStats st =
        growTilesInto(ba, level, base_shape, remaining, grow_dims, flat);
    TilingTreeResult res;
    res.nodesVisited = st.nodesVisited;
    res.unprunedSpace = st.unprunedSpace;
    const std::size_t nd = remaining.size();
    for (std::size_t at = 0; nd && at < flat.size(); at += nd)
        res.maximal.emplace_back(flat.begin() + at, flat.begin() + at + nd);
    return res;
}

TilingWalkStats
firstFitTiles(const BoundArch &ba, int level,
              const std::vector<std::int64_t> &remaining,
              std::int64_t node_cap, std::vector<std::int64_t> &tiles)
{
    const Workload &wl = ba.workload();
    const int nd = static_cast<int>(remaining.size());
    const int nt = wl.numTensors();
    const bool dram = ba.arch().levels[level].isDram;
    TilingWalkStats st;
    tiles.clear();

    LatticeWalk &w = latticeWalk();
    const bool exact_keys =
        w.setAxes(ba, level, remaining, DimSet::all(nd));
    const int na = static_cast<int>(w.dim.size());
    st.unprunedSpace = w.space;

    // A node's verdict is whether its residual tile fits; it is decided
    // when the node is first generated, from its parent's footprints.
    w.shape.assign(remaining.begin(), remaining.end());
    w.cur.clear(na, nt);
    w.cur.addRoot();
    footprintsAt(ba, level, w.shape, w.cur.fp(0));
    w.cur.setFits(0, dram || ba.fits(level, w.cur.fp(0), nt));

    while (w.cur.size() > 0) {
        w.next.clear(na, nt);
        for (std::size_t i = 0; i < w.cur.size(); ++i) {
            ++st.nodesVisited;
            if (st.nodesVisited > node_cap) {
                SUNSTONE_WARN("top-down tiling frontier capped at ",
                              node_cap, " nodes");
                return st;
            }
            if (w.cur.fits(i)) {
                w.emitTile(i, nd, tiles);
                continue;
            }
            const std::uint32_t *node = w.cur.idx(i);
            for (int a = 0; a < na; ++a)
                w.shape[w.dim[a]] =
                    remaining[w.dim[a]] / (*w.divs[a])[node[a]];
            for (int a = 0; a < na; ++a) {
                const auto &dv = *w.divs[a];
                if (node[a] + 1 == dv.size())
                    continue;
                const std::uint64_t key = w.cur.key(i) + w.stride[a];
                if (w.next.find(key, node, a, exact_keys) >= 0)
                    continue;
                const std::size_t c =
                    w.next.addChild(key, node, a, w.cur.fp(i));
                const DimId d = w.dim[a];
                const std::int64_t saved = w.shape[d];
                w.shape[d] = remaining[d] / dv[node[a] + 1];
                w.refreshFootprints(wl, a, w.next.fp(c));
                w.shape[d] = saved;
                w.next.setFits(c, dram || ba.fits(level, w.next.fp(c), nt));
            }
        }
        std::swap(w.cur, w.next);
    }
    return st;
}

} // namespace sunstone
