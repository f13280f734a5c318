#include "core/sunstone.hh"

#include <algorithm>
#include <atomic>
#include <limits>
#include <mutex>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/math_utils.hh"
#include "common/thread_pool.hh"
#include "common/timer.hh"
#include "core/ordering_trie.hh"
#include "core/refine.hh"
#include "core/tiling_tree.hh"
#include "core/unrolling.hh"
#include "model/eval_engine.hh"
#include "obs/convergence.hh"
#include "obs/trace.hh"
#include "search/checkpoint.hh"
#include "search/search_driver.hh"

namespace sunstone {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Visits after which a top-down tiling frontier stops (with a warning). */
constexpr std::int64_t kTopDownNodeCap = 2'000'000;

/** A partially decided mapping plus its search bookkeeping. */
struct Partial
{
    Mapping m;
    std::vector<std::int64_t> remaining;
    /** Reuse suffix chosen for the next level's loops (innermost first). */
    std::vector<DimId> pendingSuffix;
    double score = kInf;
};

/**
 * One step candidate that survived its entry's alpha-beta check: its
 * score, its stratified-beam bucket and where to find what rebuilds it.
 * Only the few survivors the trim keeps become Partials.
 */
struct Survivor
{
    double score;
    /** Stratified bucket: (hash of the ordering's reuse suffix, log2 of
     *  the total spatial product). */
    std::pair<std::uint64_t, int> bucket;
    /** The beam entry whose collector holds the rest (set by the
     *  merge). The candidate's ordering is orderings[list][ordering]
     *  there and, bottom-up, its absorbed base is bases[list]. */
    std::uint32_t entry, list, ordering;
    /** Offset of the candidate's tile, then its unrolling, in
     *  Collector::factors. */
    std::size_t factors;
};

/**
 * Per-beam-entry expansion sink. Each entry expands into its own
 * collector whose alpha-beta incumbent is seeded from the step-start
 * global incumbent, so an entry's pruning decisions depend only on its
 * own emission sequence — never on how expansions interleave across
 * worker threads. The serial in-entry-order merge in expandBeam applies
 * the global incumbent afterwards.
 */
struct Collector
{
    /** Bottom-up: the absorbed base each ordering list extends (list j
     *  extends bases[j]). Top-down every list extends the entry itself. */
    std::vector<Partial> bases;
    /** The ordering lists survivors came from; a list is appended only
     *  once its expansion has left a survivor. */
    std::vector<std::vector<OrderingCandidate>> orderings;
    std::vector<Survivor> out;
    /** Flat tile and unrolling factors, 2 * nDims per survivor. */
    std::vector<std::int64_t> factors;
    double inc = kInf;
};

std::string
i64ArrayJson(const std::vector<std::int64_t> &v)
{
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i)
            s += ", ";
        s += std::to_string(v[i]);
    }
    return s + "]";
}

std::string
dimArrayJson(const std::vector<DimId> &v)
{
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i)
            s += ", ";
        s += std::to_string(static_cast<int>(v[i]));
    }
    return s + "]";
}

/**
 * Beam checkpoint payload: the next step to run, the inter-level
 * direction (validated on resume), the cumulative examined counter, the
 * global incumbent, and every surviving partial. Written only after a
 * fully completed step, so a resumed run replays from a state the
 * uninterrupted run also passed through.
 */
std::string
beamPayload(int next_step, bool bottom_up, std::int64_t examined,
            double incumbent, const std::vector<Partial> &beam)
{
    std::string s = "{\"step\": " + std::to_string(next_step) +
                    ", \"bottomUp\": " +
                    (bottom_up ? std::string("true") : "false") +
                    ", \"examined\": " + std::to_string(examined) +
                    ", \"incumbent\": " + jsonDouble(incumbent) +
                    ", \"beam\": [";
    for (std::size_t i = 0; i < beam.size(); ++i) {
        if (i)
            s += ", ";
        const Partial &p = beam[i];
        s += "{\"m\": " + mappingToJson(p.m) +
             ", \"rem\": " + i64ArrayJson(p.remaining) +
             ", \"suffix\": " + dimArrayJson(p.pendingSuffix) +
             ", \"score\": " + jsonDouble(p.score) + "}";
    }
    return s + "]}";
}

/** Capacity check of a shape against one storage level. */
bool
shapeFits(const BoundArch &ba, int level,
          const std::vector<std::int64_t> &shape)
{
    if (ba.arch().levels[level].isDram)
        return true;
    const Workload &wl = ba.workload();
    thread_local std::vector<std::int64_t> fp;
    fp.assign(wl.numTensors(), 0);
    for (TensorId t = 0; t < wl.numTensors(); ++t)
        if (ba.stores(level, t))
            fp[t] = wl.tensor(t).footprint(shape);
    return ba.fits(level, fp.data(), fp.size());
}

/**
 * Per-thread buffers of one beam entry's expansion. An expansion never
 * joins the pool, so no other expansion runs on its thread before it
 * returns, and every buffer only grows to the largest size seen.
 */
struct ExpandScratch
{
    /** Flat tiles of the current tiling walk. */
    std::vector<std::int64_t> tiles;
    /** Quotients left after an unrolling, before the tile. */
    std::vector<std::int64_t> unrollRem;
    /** Quotients left by the candidate being emitted. */
    std::vector<std::int64_t> rem;
    /** Tile shape under a capacity check. */
    std::vector<std::int64_t> shape;
    /** Level k's tile shape of the entry being expanded. */
    std::vector<std::int64_t> baseShape;
    /** Decisions a candidate overwrites in place, for the restore. */
    std::vector<std::int64_t> savedTemporal, savedSpatial;
    std::vector<DimId> savedOrder;
    /** Top-down: the entry's mapping, overwritten per candidate. */
    Mapping work;
};

ExpandScratch &
expandScratch()
{
    thread_local ExpandScratch s;
    return s;
}

class Driver
{
  public:
    Driver(SearchContext &sc, const BoundArch &ba,
           const SunstoneOptions &opts)
        : sc(sc), ba(ba), opts(opts), wl(ba.workload()),
          nLevels(ba.numLevels()), nDims(wl.numDims()),
          engine(sc.engine()
                     ? *sc.engine()
                     : (opts.engine ? *opts.engine
                                    : sc.engineOrPrivate(opts.threads))),
          ctx(engine.context(ba)), ones(nDims, 1)
    {
    }

    SunstoneResult
    run()
    {
        SUNSTONE_TRACE_SPAN("sunstone.search");
        Timer timer;
        SunstoneResult result;

        // The driver owns timing, eval accounting, the incumbent, the
        // convergence trajectory, StopPolicy enforcement, and the
        // checkpoint/resume cycle. The beam logic below only feeds it.
        if (!sc.convergence() && opts.convergence)
            sc.setConvergence(opts.convergence);
        SearchDriver drv(sc, engine, ba, opts.searchLabel,
                         opts.optimizeEdp);
        drv_ = &drv;

        const bool bottom_up =
            opts.levelOrder == SunstoneOptions::LevelOrder::BottomUp;
        int step = bottom_up ? 0 : nLevels - 1;
        std::vector<Partial> beam;
        const std::string payload = drv.consumeResumePayload();
        if (!payload.empty()) {
            restoreBeamState(payload, bottom_up, step, beam);
        } else {
            beam = initialBeam();
            if (!sc.warmStarts().empty()) {
                // Warm starts from structurally similar layers: the
                // driver evaluates them (they may set the incumbent
                // outright), and their completion-score energies seed
                // the alpha-beta bound so the beam prunes against a
                // realistic target from step zero.
                drv.seedWarmStarts();
                CostModelOptions cmo;
                cmo.assumeValid = true;
                cmo.modelNoc = false;
                for (const Mapping &seed : sc.warmStarts()) {
                    if (!seed.valid(ba))
                        continue;
                    const double e = engine.scoreEnergy(
                        ctx, EvalEngine::PrefixHandle{}, seed, cmo);
                    if (e < incumbent_)
                        incumbent_ = e;
                }
            }
        }

        if (bottom_up) {
            for (int k = step; k < nLevels - 1; ++k) {
                if (drv.shouldStop())
                    break;
                beam = expandBeam(beam, k, /*bottom_up=*/true);
                saveBeamState(drv, k + 1, bottom_up, beam);
            }
            finalizeBottomUp(beam);
        } else {
            for (int k = step; k >= 1; --k) {
                if (drv.shouldStop())
                    break;
                beam = expandBeam(beam, k, /*bottom_up=*/false);
                saveBeamState(drv, k - 1, bottom_up, beam);
            }
            finalizeTopDown(beam);
        }

        // Full evaluation (with validity check) of the surviving beam.
        // Always runs, even after a stop fired mid-search: the partial
        // beam still yields the best mapping found so far.
        std::vector<std::pair<double, const Partial *>> ranked;
        {
            SUNSTONE_TRACE_SPAN("sunstone.rank");
            // Rank the survivors as one batch across the pool; results
            // come back in beam order, so the recorded trajectory and
            // tie-breaking match the historical serial loop exactly.
            std::vector<Mapping> ms;
            ms.reserve(beam.size());
            for (const auto &p : beam)
                ms.push_back(p.m);
            std::vector<CostResult> results;
            engine.evaluateBatch(ctx, ms, {},
                                 EvalEngine::CachePolicy::UseCache,
                                 results);
            drv.noteEvaluated(static_cast<std::int64_t>(beam.size()));
            for (std::size_t i = 0; i < beam.size(); ++i) {
                const CostResult &cr = results[i];
                if (!cr.valid)
                    continue;
                drv.offer(beam[i].m, cr);
                ranked.emplace_back(
                    opts.optimizeEdp ? cr.edp : cr.totalEnergyPj,
                    &beam[i]);
            }
        }
        std::stable_sort(ranked.begin(), ranked.end(),
                         [](const auto &a, const auto &b) {
                             return a.first < b.first;
                         });

        // Polish the few best survivors: the level-by-level search
        // decides each level under an approximation of the levels
        // above, and a short hill climb repairs the leftovers.
        const std::size_t polish_count =
            opts.polish ? std::min<std::size_t>(4, ranked.size())
                        : std::min<std::size_t>(1, ranked.size());
        for (std::size_t i = 0; i < polish_count; ++i) {
            if (drv.shouldStop())
                break;
            Mapping m = ranked[i].second->m;
            if (opts.polish) {
                SUNSTONE_TRACE_SPAN("sunstone.refine");
                RefineStats rs;
                m = polishMapping(ba, m, opts.optimizeEdp, 64, &rs,
                                  &engine, &drv);
                examined.fetch_add(rs.evaluated);
            }
            CostResult cr = engine.evaluate(ctx, m);
            drv.noteEvaluated(1);
            if (!cr.valid)
                continue;
            drv.offer(m, cr);
        }

        DriverOutcome o = drv.finish(StopReason::Exhausted);
        drv_ = nullptr;
        result.found = o.found;
        if (o.found) {
            result.mapping = std::move(o.best);
            result.cost = std::move(o.bestCost);
        }
        result.candidatesExamined = examined.load();
        result.seconds = o.seconds;
        result.stopReason = stopReasonName(o.reason);
        engine.addPhaseSeconds("sunstone.search", timer.seconds());
        return result;
    }

  private:
    /** Checkpoints a fully completed step (no-op without a path). */
    void
    saveBeamState(SearchDriver &drv, int next_step, bool bottom_up,
                  const std::vector<Partial> &beam)
    {
        if (sc.checkpointPath().empty() || drv.shouldStop())
            return;
        drv.checkpointNow(beamPayload(next_step, bottom_up,
                                      examined.load(), incumbent_, beam));
    }

    void
    restoreBeamState(const std::string &payload, bool bottom_up,
                     int &step, std::vector<Partial> &beam)
    {
        JsonValue v;
        if (!parseJson(payload, v) || !v.isObject())
            SUNSTONE_FATAL("sunstone resume: malformed beam payload");
        const JsonValue *bu = v.find("bottomUp");
        if (!bu || bu->asBool(!bottom_up) != bottom_up)
            SUNSTONE_FATAL("sunstone resume: checkpoint level order does "
                           "not match the configured LevelOrder");
        const JsonValue *st = v.find("step");
        const JsonValue *bm = v.find("beam");
        if (!st || !bm || !bm->isArray())
            SUNSTONE_FATAL("sunstone resume: malformed beam payload");
        step = static_cast<int>(st->asInt(0));
        if (const JsonValue *ex = v.find("examined"))
            examined.store(ex->asInt(0));
        if (const JsonValue *inc = v.find("incumbent"))
            incumbent_ = inc->isNull() ? kInf : inc->asDouble(kInf);
        beam.clear();
        for (const JsonValue &e : bm->items) {
            Partial p;
            p.m = Mapping(nLevels, nDims);
            const JsonValue *m = e.find("m");
            if (!m || !mappingFromJson(*m, p.m))
                SUNSTONE_FATAL("sunstone resume: malformed beam mapping");
            p.remaining.assign(nDims, 1);
            if (const JsonValue *rem = e.find("rem"))
                for (std::size_t i = 0;
                     i < rem->items.size() &&
                     i < static_cast<std::size_t>(nDims);
                     ++i)
                    p.remaining[i] = rem->items[i].asInt(1);
            if (const JsonValue *suf = e.find("suffix"))
                for (const JsonValue &d : suf->items)
                    p.pendingSuffix.push_back(
                        static_cast<DimId>(d.asInt(0)));
            if (const JsonValue *s = e.find("score"))
                p.score = s->isNull() ? kInf : s->asDouble(kInf);
            beam.push_back(std::move(p));
        }
    }

    std::vector<Partial>
    initialBeam()
    {
        Partial p;
        p.m = Mapping(nLevels, nDims);
        p.remaining = wl.shape();
        return {p};
    }

    DimSet
    activeDims(const std::vector<std::int64_t> &remaining) const
    {
        DimSet s;
        for (DimId d = 0; d < nDims; ++d)
            if (remaining[d] > 1)
                s.add(d);
        return s;
    }

    /**
     * Grow dims per the Tiling Principle for one ordering candidate at
     * one level. Dims that index no tensor stored at the level are
     * excluded: growing them is capacity-free there (the data lives
     * higher up), adds no reuse at this level, and would silently
     * consume quotient that upper spatial levels need.
     */
    DimSet
    growDimsFor(const OrderingCandidate &ord, DimSet active, int level)
        const
    {
        DimSet stored;
        for (TensorId t = 0; t < wl.numTensors(); ++t)
            if (ba.stores(level, t))
                stored = stored.unionWith(wl.reuse(t).indexing);
        DimSet g;
        for (TensorId t : ord.fullyReusedTensors())
            g = g.unionWith(wl.reuse(t).indexing);
        if (g.empty())
            g = DimSet::all(nDims);
        return g.intersect(stored).intersect(active);
    }

    /** Allowed unroll dims per the Spatial Unrolling Principle. */
    DimSet
    allowedUnrollDimsFor(const OrderingCandidate &ord) const
    {
        auto reused = ord.fullyReusedTensors();
        if (reused.empty())
            return DimSet::all(nDims);
        DimSet allowed = DimSet::all(nDims);
        for (TensorId t : reused)
            allowed = allowed.intersect(wl.reuse(t).indexing);
        return allowed;
    }

    /**
     * Greedily absorbs the pending reuse-suffix loops into level k's
     * temporal factors (largest fitting divisors, innermost first) and
     * fixes level k's loop order with the suffix innermost.
     */
    void
    absorb(Partial &p, int k) const
    {
        auto &lm = p.m.level(k);
        std::vector<std::int64_t> &shape = expandScratch().shape;
        for (DimId d : p.pendingSuffix) {
            p.m.tileShape(k, shape);
            const std::int64_t base = shape[d];
            const auto &divs = cachedDivisors(p.remaining[d]);
            for (auto it = divs.rbegin(); it != divs.rend(); ++it) {
                shape[d] = satMul(base, *it);
                if (shapeFits(ba, k, shape)) {
                    lm.temporal[d] = satMul(lm.temporal[d], *it);
                    p.remaining[d] /= *it;
                    break;
                }
            }
        }
        // Suffix dims innermost, the rest outermost in canonical order.
        OrderingCandidate oc;
        oc.suffix = p.pendingSuffix;
        lm.order = oc.fullOrder(nDims);
    }

    /**
     * Scores a candidate by completing it (all residual loops to the
     * DRAM level for bottom-up, to level 0 for top-down) and evaluating
     * its energy — the paper's approximated-energy alpha-beta surrogate.
     *
     * @param fill_order bottom-up only: the completed DRAM level's loop
     *        order (the full order of the candidate's reuse suffix)
     */
    double
    scoreCompletion(Mapping &m, const std::vector<std::int64_t> &remaining,
                    const std::vector<DimId> &fill_order, bool bottom_up,
                    const EvalEngine::PrefixHandle &ph) const
    {
        const int fill = bottom_up ? nLevels - 1 : 0;
        auto &lm = m.level(fill);
        // Complete in place and restore afterwards: the fill level's
        // factors (and order, for bottom-up) are stashed in per-thread
        // buffers so scoring performs no Mapping copy.
        thread_local std::vector<std::int64_t> saved_temporal;
        thread_local std::vector<DimId> saved_order;
        saved_temporal.assign(lm.temporal.begin(), lm.temporal.end());
        for (DimId d = 0; d < nDims; ++d)
            lm.temporal[d] = satMul(lm.temporal[d], remaining[d]);
        if (bottom_up) {
            saved_order.assign(lm.order.begin(), lm.order.end());
            lm.order.assign(fill_order.begin(), fill_order.end());
        }
        CostModelOptions cmo;
        cmo.assumeValid = true;
        cmo.modelNoc = false;
        // Partials are ranked by approximated energy (access counts), as
        // in the paper; the delay of a residual-at-DRAM completion is
        // too noisy to rank by EDP. Parallelism diversity is preserved
        // by the stratified beam (see expandBeam), and the final pick
        // over the surviving beam uses the real objective. Completions
        // are nearly all distinct, so scoring goes through the
        // allocation-free fast path (never cached); the decided-level
        // prefix terms come from the step's shared handle.
        const double e = engine.scoreEnergy(ctx, ph, m, cmo);
        lm.temporal.assign(saved_temporal.begin(), saved_temporal.end());
        if (bottom_up)
            lm.order.assign(saved_order.begin(), saved_order.end());
        return e;
    }

    /**
     * Scores a finished step candidate, held in place in `m` and
     * `remaining`, into its entry's collector. A survivor of the
     * alpha-beta check is recorded with its factors; the ordering list
     * under expansion is the one the collector appends next.
     *
     * @param ordering the index of `ord` in its list
     * @param order the full loop order of `ord`
     * @param tile, unroll the step's factors, nDims each
     */
    void
    emit(Collector &col, Mapping &m,
         const std::vector<std::int64_t> &remaining,
         const OrderingCandidate &ord, std::size_t ordering,
         const std::vector<DimId> &order, const std::int64_t *tile,
         const std::int64_t *unroll, bool bottom_up,
         const EvalEngine::PrefixHandle &ph)
    {
        if (drv_->shouldStop())
            return;
        const double score =
            scoreCompletion(m, remaining, order, bottom_up, ph);
        examined.fetch_add(1, std::memory_order_relaxed);
        drv_->noteEvaluated(1);
        if (opts.alphaBeta) {
            if (score < col.inc)
                col.inc = score;
            if (score > col.inc * opts.alphaSlack) {
                engine.notePrune();
                return;
            }
        }
        const std::int64_t sp = std::max<std::int64_t>(1, m.totalSpatial());
        int log_sp = 0;
        while ((std::int64_t(1) << (log_sp + 1)) <= sp)
            ++log_sp;
        std::uint64_t suffix_key = 1;
        for (DimId d : ord.suffix)
            suffix_key = suffix_key * 131 + std::uint64_t(d + 1);
        col.out.push_back(
            {score, {suffix_key, log_sp}, 0,
             static_cast<std::uint32_t>(col.orderings.size()),
             static_cast<std::uint32_t>(ordering), col.factors.size()});
        col.factors.insert(col.factors.end(), tile, tile + nDims);
        col.factors.insert(col.factors.end(), unroll, unroll + nDims);
    }

    /**
     * Builds the Partial a survivor stands for, exactly as its step
     * built the candidate in place: bottom-up, the absorbed base with
     * level k's tile and level k+1's unrolling and order; top-down, the
     * entry with level k overwritten.
     */
    Partial
    buildSurvivor(const Survivor &r, const Collector &col,
                  const Partial &entry, int k, bool bottom_up) const
    {
        const OrderingCandidate &ord = col.orderings[r.list][r.ordering];
        const std::int64_t *tile = col.factors.data() + r.factors;
        const std::int64_t *unroll = tile + nDims;
        Partial p = bottom_up ? col.bases[r.list] : entry;
        auto &lm = p.m.level(k);
        if (bottom_up) {
            for (DimId d = 0; d < nDims; ++d) {
                lm.temporal[d] = satMul(lm.temporal[d], tile[d]);
                p.remaining[d] /= tile[d];
            }
            if (k + 1 < nLevels) {
                auto &up = p.m.level(k + 1);
                for (DimId d = 0; d < nDims; ++d) {
                    up.spatial[d] = unroll[d];
                    p.remaining[d] /= unroll[d];
                }
                up.order = ord.fullOrder(nDims);
            }
        } else {
            for (DimId d = 0; d < nDims; ++d) {
                lm.temporal[d] = tile[d];
                lm.spatial[d] = unroll[d];
                p.remaining[d] = p.remaining[d] / tile[d] / unroll[d];
            }
            lm.order = ord.fullOrder(nDims);
        }
        p.pendingSuffix = ord.suffix;
        p.score = r.score;
        return p;
    }

    /** Expands every beam entry at step k, then trims to the beam. */
    std::vector<Partial>
    expandBeam(const std::vector<Partial> &beam, int k, bool bottom_up)
    {
        // One collector per entry, each seeded with the step-start
        // incumbent: expansion threads never share pruning state, so the
        // candidate set is bit-identical at any --threads. The merge is
        // serial and in entry order, where the global incumbent tightens
        // deterministically.
        std::vector<Collector> cols(beam.size());
        for (auto &c : cols)
            c.inc = incumbent_;
        parallelFor(engine.pool(), beam.size(), [&](std::size_t i) {
            if (bottom_up)
                expandBottomUp(beam[i], k, cols[i]);
            else
                expandTopDown(beam[i], k, cols[i]);
        });
        std::size_t total = 0;
        for (const auto &c : cols)
            total += c.out.size();
        std::vector<Survivor> out;
        out.reserve(total);
        for (std::size_t i = 0; i < cols.size(); ++i) {
            for (Survivor r : cols[i].out) {
                if (opts.alphaBeta) {
                    if (r.score < incumbent_)
                        incumbent_ = r.score;
                    if (r.score > incumbent_ * opts.alphaSlack) {
                        engine.notePrune();
                        continue;
                    }
                }
                r.entry = static_cast<std::uint32_t>(i);
                out.push_back(r);
            }
        }
        std::stable_sort(out.begin(), out.end(),
                         [](const Survivor &a, const Survivor &b) {
                             return a.score < b.score;
                         });
        const auto build = [&](const Survivor &r) {
            return buildSurvivor(r, cols[r.entry], beam[r.entry], k,
                                 bottom_up);
        };
        std::vector<Partial> kept;
        if ((int)out.size() <= opts.beamWidth) {
            kept.reserve(out.size());
            for (const Survivor &r : out)
                kept.push_back(build(r));
            return kept;
        }

        // Stratified beam: candidates are bucketed by (chosen ordering
        // suffix, log2 of the spatial product) and drained round-robin,
        // best first. An energy-only score would otherwise evict every
        // high-utilization candidate before its latency advantage
        // becomes visible, and would collapse the ordering diversity the
        // next level's decisions depend on. A stable sort by bucket lays
        // every bucket out contiguously, still best first.
        std::stable_sort(out.begin(), out.end(),
                         [](const Survivor &a, const Survivor &b) {
                             return a.bucket < b.bucket;
                         });
        // Bucket b spans out[starts[b], starts[b + 1]).
        std::vector<std::size_t> starts;
        for (std::size_t i = 0; i < out.size(); ++i)
            if (i == 0 || out[i].bucket != out[i - 1].bucket)
                starts.push_back(i);
        starts.push_back(out.size());
        kept.reserve(opts.beamWidth);
        for (std::size_t round = 0; (int)kept.size() < opts.beamWidth;
             ++round) {
            bool any = false;
            for (std::size_t b = 0; b + 1 < starts.size(); ++b) {
                if (starts[b] + round >= starts[b + 1])
                    continue;
                kept.push_back(build(out[starts[b] + round]));
                any = true;
                if ((int)kept.size() >= opts.beamWidth)
                    break;
            }
            if (!any)
                break;
        }
        return kept;
    }

    /**
     * Bottom-up step k: absorb the pending suffix into t[k], then pick
     * (order above k, t[k] growth, s[k+1]) in the configured intra-level
     * order.
     */
    void
    expandBottomUp(Partial base, int k, Collector &col)
    {
        // The innermost fanout (vector lanes below level 0) has no step
        // of its own: enumerate s[0] variants first.
        if (k == 0 && ba.arch().levels[0].fanout > 1) {
            UnrollResult ur =
                tracedUnrolls(DimSet::all(nDims), base.remaining,
                              ba.arch().levels[0].fanout,
                              opts.utilizationThreshold);
            for (const auto &u : ur.candidates) {
                Partial v = base;
                for (DimId d = 0; d < nDims; ++d) {
                    v.m.level(0).spatial[d] = u[d];
                    v.remaining[d] /= u[d];
                }
                std::vector<std::int64_t> &shape = expandScratch().shape;
                v.m.tileShape(0, shape);
                if (!shapeFits(ba, 0, shape))
                    continue;
                expandBottomUpInner(std::move(v), k, col);
            }
            return;
        }
        expandBottomUpInner(std::move(base), k, col);
    }

    void
    expandBottomUpInner(Partial base, int k, Collector &col)
    {
        absorb(base, k);
        // All candidates emitted below share the absorbed base's decided
        // levels [0, k): build (or fetch) their contribution terms once,
        // so every completion score only walks the undecided suffix.
        const EvalEngine::PrefixHandle ph = engine.prefix(ctx, base.m, k);
        const DimSet active = activeDims(base.remaining);
        auto orderings = tracedOrderings(active);
        if (opts.generalistOrdering) {
            // One unconstrained candidate (empty suffix, no assumed
            // reuse): its grow/unroll sets are unrestricted, covering
            // the mixed reduction/output unrollings the principles
            // exclude. Cheap insurance on reduction-heavy workloads
            // such as weight-update convolutions.
            OrderingCandidate generalist;
            generalist.fullReuse.assign(wl.numTensors(), DimSet());
            generalist.partialReuse.assign(wl.numTensors(), DimSet());
            orderings.push_back(std::move(generalist));
        }
        const std::int64_t fanout_above =
            (k + 1 < nLevels) ? ba.arch().levels[k + 1].fanout : 1;

        // The generalist candidate is throttled: principled-union grow
        // set and near-full-utilization unrolls only. Its sole job is
        // reaching the mixed reduction/output unrollings the principles
        // exclude, not re-opening the whole space.
        DimSet principled_grow;
        for (const auto &ord : orderings)
            if (!ord.suffix.empty() || !ord.fullyReusedTensors().empty())
                principled_grow = principled_grow.unionWith(
                    growDimsFor(ord, active, k));
        auto isGeneralist = [](const OrderingCandidate &ord) {
            return ord.suffix.empty() &&
                   ord.fullyReusedTensors().empty();
        };
        auto growFor = [&](const OrderingCandidate &ord) {
            return isGeneralist(ord) ? principled_grow
                                     : growDimsFor(ord, active, k);
        };
        auto utilFor = [&](const OrderingCandidate &ord) {
            return isGeneralist(ord)
                       ? std::max(0.95, opts.utilizationThreshold)
                       : opts.utilizationThreshold;
        };

        // Each ordering's full loop order, built once and shared by all
        // of its (tile, unroll) candidates.
        std::vector<std::vector<DimId>> orders;
        orders.reserve(orderings.size());
        for (const auto &ord : orderings)
            orders.push_back(ord.fullOrder(nDims));
        ExpandScratch &s = expandScratch();
        base.m.tileShape(k, s.baseShape);
        const std::size_t before = col.out.size();

        using IO = SunstoneOptions::IntraOrder;
        if (opts.intraOrder == IO::UnrollTileOrder) {
            // The paper's default: per ordering, spatial unrolling first
            // (from the full quotient), then the temporal tile from what
            // remains. This keeps tiling from starving parallelism.
            for (std::size_t o = 0; o < orderings.size(); ++o) {
                const OrderingCandidate &ord = orderings[o];
                std::vector<std::vector<std::int64_t>> unrolls;
                if (fanout_above > 1) {
                    UnrollResult ur = tracedUnrolls(
                        allowedUnrollDimsFor(ord), base.remaining,
                        fanout_above, utilFor(ord));
                    examined.fetch_add(ur.combosVisited,
                                       std::memory_order_relaxed);
                    unrolls = std::move(ur.candidates);
                    if (isGeneralist(ord) && unrolls.size() > 24) {
                        auto product = [&](const auto &v) {
                            std::int64_t p = 1;
                            for (auto f : v)
                                p = satMul(p, f);
                            return p;
                        };
                        std::sort(unrolls.begin(), unrolls.end(),
                                  [&](const auto &a, const auto &b) {
                                      return product(a) > product(b);
                                  });
                        unrolls.resize(24);
                    }
                } else {
                    unrolls.push_back(ones);
                }
                const DimSet grow = growFor(ord);
                for (const auto &u : unrolls) {
                    s.unrollRem.assign(base.remaining.begin(),
                                       base.remaining.end());
                    for (DimId d = 0; d < nDims; ++d)
                        s.unrollRem[d] /= u[d];
                    const TilingWalkStats tw =
                        tracedTiles(k, s.baseShape, s.unrollRem, grow);
                    examined.fetch_add(tw.nodesVisited,
                                       std::memory_order_relaxed);
                    for (std::size_t at = 0; at < s.tiles.size();
                         at += nDims)
                        emitCandidate(base, k, ord, o, orders[o],
                                      s.tiles.data() + at, u.data(), ph,
                                      col);
                }
            }
        } else if (opts.intraOrder == IO::TileUnrollOrder) {
            // Per ordering, temporal tile first, then unrolling from the
            // leftover quotient.
            for (std::size_t o = 0; o < orderings.size(); ++o) {
                const OrderingCandidate &ord = orderings[o];
                const TilingWalkStats tw = tracedTiles(
                    k, s.baseShape, base.remaining, growFor(ord));
                examined.fetch_add(tw.nodesVisited,
                                   std::memory_order_relaxed);
                for (std::size_t at = 0; at < s.tiles.size(); at += nDims)
                    emitTileUnrolls(base, k, ord, o, orders[o],
                                    s.tiles.data() + at, fanout_above,
                                    allowedUnrollDimsFor(ord), ph, col);
            }
        } else {
            // OrderTileUnroll: the ordering is bound last, so tile and
            // unroll enumerate over the union of every ordering's
            // principle-allowed dims (a strictly larger space).
            DimSet grow_union, allow_union;
            for (const auto &ord : orderings) {
                grow_union =
                    grow_union.unionWith(growDimsFor(ord, active, k));
                allow_union =
                    allow_union.unionWith(allowedUnrollDimsFor(ord));
            }
            const TilingWalkStats tw =
                tracedTiles(k, s.baseShape, base.remaining, grow_union);
            examined.fetch_add(tw.nodesVisited, std::memory_order_relaxed);
            for (std::size_t at = 0; at < s.tiles.size(); at += nDims)
                for (std::size_t o = 0; o < orderings.size(); ++o)
                    emitTileUnrolls(base, k, orderings[o], o, orders[o],
                                    s.tiles.data() + at, fanout_above,
                                    allow_union, ph, col);
        }
        // The survivors just recorded extend this base and name its
        // orderings; a base without survivors is dropped.
        if (col.out.size() > before) {
            col.bases.push_back(std::move(base));
            col.orderings.push_back(std::move(orderings));
        }
    }

    // Span-wrapped enumerators: every (order, tile, unroll) decision in
    // either inter-level order routes through these, so each per-level
    // phase shows up as its own named span in the trace.

    std::vector<OrderingCandidate>
    tracedOrderings(DimSet active) const
    {
        SUNSTONE_TRACE_SPAN("sunstone.ordering");
        return orderingCandidates(wl, active);
    }

    UnrollResult
    tracedUnrolls(DimSet allowed, const std::vector<std::int64_t> &rem,
                  std::int64_t fanout, double util) const
    {
        SUNSTONE_TRACE_SPAN("sunstone.unrolling");
        return unrollCandidates(wl, allowed, rem, fanout, util);
    }

    /** Walks the tiling tree into the thread's scratch tiles. */
    TilingWalkStats
    tracedTiles(int k, const std::vector<std::int64_t> &shape,
                const std::vector<std::int64_t> &rem, DimSet grow) const
    {
        SUNSTONE_TRACE_SPAN("sunstone.tiling");
        return growTilesInto(ba, k, shape, rem, grow,
                             expandScratch().tiles);
    }

    void
    emitTileUnrolls(Partial &base, int k, const OrderingCandidate &ord,
                    std::size_t ordering, const std::vector<DimId> &order,
                    const std::int64_t *tile, std::int64_t fanout_above,
                    DimSet allowed, const EvalEngine::PrefixHandle &ph,
                    Collector &col)
    {
        std::vector<std::int64_t> &rem = expandScratch().unrollRem;
        rem.assign(base.remaining.begin(), base.remaining.end());
        for (DimId d = 0; d < nDims; ++d)
            rem[d] /= tile[d];
        if (fanout_above > 1) {
            UnrollResult ur = tracedUnrolls(
                allowed, rem, fanout_above, opts.utilizationThreshold);
            examined.fetch_add(ur.combosVisited,
                               std::memory_order_relaxed);
            for (const auto &u : ur.candidates)
                emitCandidate(base, k, ord, ordering, order, tile, u.data(),
                              ph, col);
        } else {
            emitCandidate(base, k, ord, ordering, order, tile, ones.data(),
                          ph, col);
        }
    }

    /**
     * Emits the (order, tile, unroll) candidate built in place on
     * `base`: level k's temporal factors and level k+1's unrolling and
     * order are overwritten for the scoring and restored afterwards.
     */
    void
    emitCandidate(Partial &base, int k, const OrderingCandidate &ord,
                  std::size_t ordering, const std::vector<DimId> &order,
                  const std::int64_t *tile, const std::int64_t *unroll,
                  const EvalEngine::PrefixHandle &ph, Collector &col)
    {
        ExpandScratch &s = expandScratch();
        auto &lm = base.m.level(k);
        s.savedTemporal.assign(lm.temporal.begin(), lm.temporal.end());
        s.rem.assign(base.remaining.begin(), base.remaining.end());
        for (DimId d = 0; d < nDims; ++d) {
            lm.temporal[d] = satMul(lm.temporal[d], tile[d]);
            s.rem[d] /= tile[d];
        }
        bool fits = true;
        if (k + 1 < nLevels) {
            auto &up = base.m.level(k + 1);
            s.savedSpatial.assign(up.spatial.begin(), up.spatial.end());
            s.savedOrder.assign(up.order.begin(), up.order.end());
            for (DimId d = 0; d < nDims; ++d) {
                up.spatial[d] = unroll[d];
                s.rem[d] /= unroll[d];
            }
            up.order.assign(order.begin(), order.end());
            // The spatially enlarged tile must fit the level above even
            // before its own temporal loops are chosen.
            if (!ba.arch().levels[k + 1].isDram) {
                base.m.tileShape(k + 1, s.shape);
                fits = shapeFits(ba, k + 1, s.shape);
            }
        }
        if (fits)
            emit(col, base.m, s.rem, ord, ordering, order, tile, unroll,
                 /*bottom_up=*/true, ph);
        lm.temporal.assign(s.savedTemporal.begin(), s.savedTemporal.end());
        if (k + 1 < nLevels) {
            auto &up = base.m.level(k + 1);
            up.spatial.assign(s.savedSpatial.begin(), s.savedSpatial.end());
            up.order.assign(s.savedOrder.begin(), s.savedOrder.end());
        }
    }

    /**
     * Top-down step k: choose t[k] via the first-fit frontier (minimal
     * factor vectors whose residual fits the level below), then the
     * ordering of level k's loops, then s[k]. Candidates are built in
     * place on one scratch copy of the entry's mapping.
     */
    void
    expandTopDown(const Partial &base, int k, Collector &col)
    {
        ExpandScratch &s = expandScratch();
        const TilingWalkStats tw = [&] {
            SUNSTONE_TRACE_SPAN("sunstone.tiling");
            return firstFitTiles(ba, k - 1, base.remaining, kTopDownNodeCap,
                                 s.tiles);
        }();
        examined.fetch_add(tw.nodesVisited, std::memory_order_relaxed);
        s.work = base.m;
        auto &lm = s.work.level(k);
        const std::int64_t fanout = ba.arch().levels[k].fanout;
        std::vector<std::int64_t> &rem = s.unrollRem;
        rem.resize(nDims);
        s.rem.resize(nDims);
        for (std::size_t at = 0; at < s.tiles.size(); at += nDims) {
            const std::int64_t *tile = s.tiles.data() + at;
            DimSet tiled;
            for (DimId d = 0; d < nDims; ++d) {
                rem[d] = base.remaining[d] / tile[d];
                if (tile[d] > 1)
                    tiled.add(d);
            }
            std::vector<OrderingCandidate> orderings =
                tracedOrderings(tiled);
            const std::size_t before = col.out.size();
            for (std::size_t o = 0; o < orderings.size(); ++o) {
                const OrderingCandidate &ord = orderings[o];
                const std::vector<DimId> order = ord.fullOrder(nDims);
                std::vector<std::vector<std::int64_t>> unrolls;
                if (fanout > 1) {
                    UnrollResult ur = tracedUnrolls(
                        allowedUnrollDimsFor(ord), rem, fanout,
                        opts.utilizationThreshold);
                    examined.fetch_add(ur.combosVisited,
                                       std::memory_order_relaxed);
                    unrolls = std::move(ur.candidates);
                } else {
                    unrolls.push_back(ones);
                }
                for (const auto &u : unrolls) {
                    for (DimId d = 0; d < nDims; ++d) {
                        lm.temporal[d] = tile[d];
                        lm.spatial[d] = u[d];
                        s.rem[d] = rem[d] / u[d];
                    }
                    lm.order.assign(order.begin(), order.end());
                    emit(col, s.work, s.rem, ord, o, order, tile, u.data(),
                         /*bottom_up=*/false, EvalEngine::PrefixHandle{});
                }
            }
            if (col.out.size() > before)
                col.orderings.push_back(std::move(orderings));
        }
    }

    void
    finalizeBottomUp(std::vector<Partial> &beam)
    {
        for (auto &p : beam) {
            auto &lm = p.m.level(nLevels - 1);
            for (DimId d = 0; d < nDims; ++d) {
                lm.temporal[d] = satMul(lm.temporal[d], p.remaining[d]);
                p.remaining[d] = 1;
            }
            OrderingCandidate oc;
            oc.suffix = p.pendingSuffix;
            lm.order = oc.fullOrder(nDims);
        }
    }

    void
    finalizeTopDown(std::vector<Partial> &beam)
    {
        for (auto &p : beam) {
            auto &lm = p.m.level(0);
            for (DimId d = 0; d < nDims; ++d) {
                lm.temporal[d] = satMul(lm.temporal[d], p.remaining[d]);
                p.remaining[d] = 1;
            }
        }
    }

    SearchContext &sc;
    const BoundArch &ba;
    SunstoneOptions opts;
    const Workload &wl;
    const int nLevels;
    const int nDims;
    EvalEngine &engine;
    const EvalEngine::Context ctx;
    /** The all-ones factor vector (no unrolling). */
    const std::vector<std::int64_t> ones;
    SearchDriver *drv_ = nullptr;
    std::atomic<std::int64_t> examined{0};
    /** Global alpha-beta incumbent; serial updates only (merge phase). */
    double incumbent_ = kInf;
};

} // anonymous namespace

SunstoneResult
sunstoneOptimize(SearchContext &sc, const BoundArch &ba,
                 const SunstoneOptions &opts)
{
    Driver driver(sc, ba, opts);
    return driver.run();
}

SunstoneResult
sunstoneOptimize(const BoundArch &ba, const SunstoneOptions &opts)
{
    SearchContext sc;
    return sunstoneOptimize(sc, ba, opts);
}

} // namespace sunstone
