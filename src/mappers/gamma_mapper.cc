#include "mappers/gamma_mapper.hh"

#include <algorithm>
#include <cmath>

#include "common/json.hh"
#include "common/math_utils.hh"
#include "mappers/space_size.hh"
#include "model/eval_engine.hh"
#include "obs/trace.hh"
#include "search/checkpoint.hh"
#include "search/rng.hh"

namespace sunstone {

namespace {

struct Slot
{
    int level;
    bool spatial;
};

std::vector<Slot>
slotsOf(const BoundArch &ba)
{
    std::vector<Slot> slots;
    for (int l = 0; l < ba.numLevels(); ++l) {
        slots.push_back({l, false});
        if (ba.arch().levels[l].fanout > 1)
            slots.push_back({l, true});
    }
    return slots;
}

/** Randomly distributes one dim's prime factors over the slots. */
void
randomizeDim(Mapping &m, const BoundArch &ba, const std::vector<Slot> &slots,
             DimId d, RngStream &rng)
{
    for (int l = 0; l < m.numLevels(); ++l) {
        m.level(l).temporal[d] = 1;
        m.level(l).spatial[d] = 1;
    }
    for (auto [p, e] : cachedPrimeFactors(ba.workload().dimSize(d))) {
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

Mapping
randomIndividual(const BoundArch &ba, const std::vector<Slot> &slots,
                 RngStream &rng)
{
    const int nd = ba.workload().numDims();
    Mapping m(ba.numLevels(), nd);
    for (DimId d = 0; d < nd; ++d)
        randomizeDim(m, ba, slots, d, rng);
    for (int l = 0; l < m.numLevels(); ++l)
        rng.shuffle(m.level(l).order);
    return m;
}

/** Copies dim d's factor assignment from src into dst. */
void
copyDim(Mapping &dst, const Mapping &src, DimId d)
{
    for (int l = 0; l < dst.numLevels(); ++l) {
        dst.level(l).temporal[d] = src.level(l).temporal[d];
        dst.level(l).spatial[d] = src.level(l).spatial[d];
    }
}

/**
 * The GA as a stateful candidate stream: nextBatch() grows the current
 * generation (initial population at gen 0, elite + children after),
 * onResult() scores individuals in generation order, and a complete,
 * fully-scored generation is promoted to the parent pool the next time
 * nextBatch() runs. Selection draws from sc.rngStream(0), so the
 * sequence is deterministic and its cursor is the resume point; the
 * populations themselves are the stream's checkpoint payload.
 */
class GammaStream : public CandidateStream
{
  public:
    GammaStream(SearchContext &sc, const BoundArch &ba,
                const GammaOptions &opts)
        : sc_(sc), ba_(ba), opts_(opts), slots_(slotsOf(ba)),
          nd_(ba.workload().numDims())
    {
    }

    bool
    nextBatch(std::size_t max, std::vector<Mapping> &out) override
    {
        std::size_t n = 0;
        while (n < max && !done_) {
            if (pending_.size() ==
                static_cast<std::size_t>(opts_.populationSize)) {
                if (scored_ < pending_.size())
                    break; // scores arrive later in this very batch
                promote();
                continue;
            }
            Mapping m = makeIndividual();
            pending_.push_back({m, std::numeric_limits<double>::infinity()});
            out.push_back(std::move(m));
            ++n;
        }
        return !done_;
    }

    void
    onResult(std::size_t, const Mapping &, const CostResult &cr) override
    {
        double fit = std::numeric_limits<double>::infinity();
        if (cr.valid)
            fit = opts_.optimizeEdp ? cr.edp : cr.totalEnergyPj;
        pending_[scored_].fit = fit;
        ++scored_;
    }

    std::string
    saveState() const override
    {
        auto pool = [](const std::vector<Individual> &v) {
            std::string s = "[";
            for (std::size_t i = 0; i < v.size(); ++i) {
                if (i)
                    s += ", ";
                s += "{\"fit\": " + jsonDouble(v[i].fit) +
                     ", \"m\": " + mappingToJson(v[i].m) + "}";
            }
            return s + "]";
        };
        return "{\"gen\": " + std::to_string(gen_) +
               ", \"done\": " + (done_ ? std::string("true") : "false") +
               ", \"prev\": " + pool(prev_) +
               ", \"pending\": " + pool(pending_) + "}";
    }

    bool
    restoreState(const std::string &payload) override
    {
        JsonValue v;
        if (!parseJson(payload, v) || !v.isObject())
            return false;
        auto pool = [this](const JsonValue *arr,
                           std::vector<Individual> &out) {
            out.clear();
            if (!arr || !arr->isArray())
                return false;
            for (const JsonValue &e : arr->items) {
                Individual ind{Mapping(ba_.numLevels(), nd_),
                               std::numeric_limits<double>::infinity()};
                const JsonValue *m = e.find("m");
                if (!m || !mappingFromJson(*m, ind.m))
                    return false;
                if (const JsonValue *f = e.find("fit"))
                    ind.fit = f->isNull()
                                  ? std::numeric_limits<double>::infinity()
                                  : f->asDouble();
                out.push_back(std::move(ind));
            }
            return true;
        };
        if (!pool(v.find("prev"), prev_) || !pool(v.find("pending"), pending_))
            return false;
        const JsonValue *g = v.find("gen");
        if (!g)
            return false;
        gen_ = static_cast<int>(g->asInt(0));
        if (const JsonValue *d = v.find("done"))
            done_ = d->asBool(false);
        scored_ = pending_.size(); // snapshots only cover scored pools
        return true;
    }

  private:
    struct Individual
    {
        Mapping m;
        double fit;
    };

    Mapping
    makeIndividual()
    {
        RngStream &rng = sc_.rngStream(0);
        if (gen_ == 0)
            return randomIndividual(ba_, slots_, rng);
        if (pending_.empty()) {
            // Elitism: re-submit the parent pool's best unchanged (the
            // memoized engine makes rescoring it a cache hit).
            return bestOf(prev_).m;
        }
        const Individual &pa = tournamentPick(rng);
        const Individual &pb = tournamentPick(rng);
        // Uniform per-dim crossover plus per-level order choice.
        Mapping child = pa.m;
        for (DimId d = 0; d < nd_; ++d)
            if (rng.next() & 1)
                copyDim(child, pb.m, d);
        for (int l = 0; l < child.numLevels(); ++l)
            if (rng.next() & 1)
                child.level(l).order = pb.m.level(l).order;

        // Mutation: rerandomize a dim or shuffle an order.
        if (rng.unit() < opts_.mutationRate) {
            const DimId d = static_cast<DimId>(rng.below(nd_));
            randomizeDim(child, ba_, slots_, d, rng);
        }
        if (rng.unit() < opts_.mutationRate) {
            const int l = static_cast<int>(rng.below(child.numLevels()));
            rng.shuffle(child.level(l).order);
        }
        return child;
    }

    const Individual &
    tournamentPick(RngStream &rng)
    {
        const Individual *best = &prev_[rng.below(prev_.size())];
        for (int i = 1; i < opts_.tournament; ++i) {
            const Individual *c = &prev_[rng.below(prev_.size())];
            if (c->fit < best->fit)
                best = c;
        }
        return *best;
    }

    static const Individual &
    bestOf(const std::vector<Individual> &pool)
    {
        return *std::min_element(pool.begin(), pool.end(),
                                 [](const auto &a, const auto &b) {
                                     return a.fit < b.fit;
                                 });
    }

    void
    promote()
    {
        prev_ = std::move(pending_);
        pending_.clear();
        scored_ = 0;
        ++gen_;
        if (gen_ > opts_.generations)
            done_ = true;
    }

    SearchContext &sc_;
    const BoundArch &ba_;
    const GammaOptions &opts_;
    const std::vector<Slot> slots_;
    const int nd_;

    int gen_ = 0;
    bool done_ = false;
    std::vector<Individual> prev_;
    std::vector<Individual> pending_;
    std::size_t scored_ = 0;
};

} // anonymous namespace

GammaMapper::GammaMapper(GammaOptions o, std::string display_name)
    : opts(o), displayName(std::move(display_name))
{
}

MapperResult
GammaMapper::optimize(SearchContext &sc, const BoundArch &ba)
{
    SUNSTONE_TRACE_SPAN("mapper." + displayName);

    if (!sc.convergence() && opts.convergence)
        sc.setConvergence(opts.convergence);
    EvalEngine &eng = sc.engineOrPrivate(1);
    sc.ensureSeed(opts.seed);

    StopPolicy defaults;
    defaults.deadlineSeconds = opts.maxSeconds;
    sc.setPolicy(sc.policy().withDefaults(defaults));

    SearchDriver drv(sc, eng, ba, displayName, opts.optimizeEdp);
    GammaStream stream(sc, ba, opts);
    DriverOutcome o = drv.run(stream);
    return toMapperResult(o, o.found ? "" : "no valid individual evolved");
}

double
GammaMapper::spaceSizeEstimate(const BoundArch &ba) const
{
    return space::timeloopSpace(ba);
}

} // namespace sunstone
