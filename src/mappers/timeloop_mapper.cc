#include "mappers/timeloop_mapper.hh"

#include <vector>

#include "common/json.hh"
#include "common/math_utils.hh"
#include "mappers/space_size.hh"
#include "model/eval_engine.hh"
#include "obs/trace.hh"
#include "search/rng.hh"

namespace sunstone {

namespace {

/**
 * Samples a uniformly random mapping: every prime factor of every
 * dimension lands in a random (level, temporal|spatial) slot, and each
 * level gets a random loop permutation. This mirrors Timeloop's
 * unpruned, undirected space (Table I: "pruning methods: nothing").
 */
Mapping
randomMapping(const BoundArch &ba, RngStream &rng)
{
    const Workload &wl = ba.workload();
    const ArchSpec &arch = ba.arch();
    const int nl = ba.numLevels();
    const int nd = wl.numDims();
    Mapping m(nl, nd);

    // Candidate slots: temporal at every level, spatial where fanout > 1.
    struct Slot
    {
        int level;
        bool spatial;
    };
    std::vector<Slot> slots;
    for (int l = 0; l < nl; ++l) {
        slots.push_back({l, false});
        if (arch.levels[l].fanout > 1)
            slots.push_back({l, true});
    }

    for (DimId d = 0; d < nd; ++d) {
        for (auto [p, e] : cachedPrimeFactors(wl.dimSize(d))) {
            for (int i = 0; i < e; ++i) {
                const Slot &s = slots[rng.below(slots.size())];
                auto &lm = m.level(s.level);
                if (s.spatial)
                    lm.spatial[d] = satMul(lm.spatial[d], p);
                else
                    lm.temporal[d] = satMul(lm.temporal[d], p);
            }
        }
    }
    for (int l = 0; l < nl; ++l)
        rng.shuffle(m.level(l).order);
    return m;
}

/**
 * The random-sampling stream. Samples are drawn round-robin from a
 * fixed number of logical RNG shards — a constant, never derived from
 * the thread count — so the candidate sequence (and therefore the whole
 * search) is identical at any --threads value. Resume needs only the
 * shard cursors (restored by the driver) plus the round-robin position.
 */
class TimeloopStream : public CandidateStream
{
  public:
    static constexpr std::size_t kShards = 16;

    TimeloopStream(SearchContext &sc, const BoundArch &ba)
        : sc_(sc), ba_(ba)
    {
    }

    bool
    nextBatch(std::size_t max, std::vector<Mapping> &out) override
    {
        for (std::size_t i = 0; i < max; ++i) {
            out.push_back(
                randomMapping(ba_, sc_.rngStream(cursor_ % kShards)));
            ++cursor_;
        }
        return true; // never exhausts; a StopPolicy bound ends it
    }

    EvalEngine::CachePolicy
    cachePolicy() const override
    {
        // Uniform random samples almost never repeat, so caching them
        // would only churn the shared cache.
        return EvalEngine::CachePolicy::Bypass;
    }

    ResumeMode resumeMode() const override { return ResumeMode::State; }

    std::string
    saveState() const override
    {
        return "{\"cursor\": " + std::to_string(cursor_) + "}";
    }

    bool
    restoreState(const std::string &payload) override
    {
        JsonValue v;
        if (!parseJson(payload, v) || !v.isObject())
            return false;
        const JsonValue *c = v.find("cursor");
        if (!c)
            return false;
        cursor_ = c->asInt(0);
        return cursor_ >= 0;
    }

  private:
    SearchContext &sc_;
    const BoundArch &ba_;
    std::int64_t cursor_ = 0;
};

} // anonymous namespace

TimeloopMapper::TimeloopMapper(TimeloopOptions o, std::string display_name)
    : opts(o), displayName(std::move(display_name))
{
}

MapperResult
TimeloopMapper::optimize(SearchContext &sc, const BoundArch &ba)
{
    SUNSTONE_TRACE_SPAN("mapper." + displayName);

    if (!sc.convergence() && opts.convergence)
        sc.setConvergence(opts.convergence);
    EvalEngine &eng = sc.engineOrPrivate(opts.threads);
    sc.ensureSeed(opts.seed);

    StopPolicy defaults;
    defaults.deadlineSeconds = opts.maxSeconds;
    defaults.plateau = opts.victoryCondition;
    defaults.maxConsecutiveInvalid = opts.maxConsecutiveInvalid;
    sc.setPolicy(sc.policy().withDefaults(defaults));

    SearchDriver drv(sc, eng, ba, displayName, opts.optimizeEdp);
    TimeloopStream stream(sc, ba);
    DriverOutcome o = drv.run(stream);
    return toMapperResult(o, o.found ? "" : "no valid mapping sampled");
}

double
TimeloopMapper::spaceSizeEstimate(const BoundArch &ba) const
{
    return space::timeloopSpace(ba);
}

} // namespace sunstone
