#include "core/net_scheduler.hh"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "common/timer.hh"
#include "obs/flight_recorder.hh"
#include "obs/metrics.hh"
#include "obs/progress.hh"
#include "obs/trace.hh"
#include "search/checkpoint.hh"
#include "search/warmstart.hh"

namespace sunstone {

namespace {

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null"; // "%g" would emit inf/nan, which is not valid JSON
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/**
 * Structural fingerprint of the whole schedule: the unique layer
 * fingerprints folded in discovery order (which is deterministic — it
 * follows the input layer list). Guards a "net" checkpoint against being
 * resumed for a different network or architecture.
 */
std::uint64_t
netFingerprint(const std::vector<std::uint64_t> &unique_fps)
{
    std::uint64_t h = 0x53554e53544f4e45ULL; // "SUNSTONE"
    for (std::uint64_t fp : unique_fps) {
        h ^= fp;
        h *= 0x100000001b3ULL;
        h ^= h >> 29;
    }
    return h;
}

/** One completed unique search, as carried by the "net" checkpoint. */
struct DoneSearch
{
    bool found = false;
    Mapping mapping;
    double seconds = 0;
    std::int64_t examined = 0;
    std::string stopReason = "exhausted";
};

std::string
doneToJson(std::uint64_t fp, const DoneSearch &d)
{
    std::string s = "{\"fp\": " + jsonHexU64(fp) +
                    ", \"found\": " + (d.found ? "true" : "false") +
                    ", \"seconds\": " + jsonDouble(d.seconds) +
                    ", \"examined\": " + std::to_string(d.examined) +
                    ", \"stop\": \"" + jsonEscape(d.stopReason) + "\"";
    if (d.found)
        s += ", \"mapping\": " + mappingToJson(d.mapping);
    return s + "}";
}

bool
doneFromJson(const JsonValue &v, std::uint64_t &fp, DoneSearch &d)
{
    const JsonValue *f = v.find("fp");
    if (!f)
        return false;
    fp = f->asHexU64();
    if (const JsonValue *x = v.find("found"))
        d.found = x->asBool();
    if (const JsonValue *x = v.find("seconds"))
        d.seconds = x->asDouble();
    if (const JsonValue *x = v.find("examined"))
        d.examined = x->asInt();
    if (const JsonValue *x = v.find("stop"))
        d.stopReason = x->asString("exhausted");
    if (d.found) {
        const JsonValue *m = v.find("mapping");
        if (!m || !mappingFromJson(*m, d.mapping))
            return false;
    }
    return true;
}

} // anonymous namespace

std::string
NetScheduleResult::toJson() const
{
    std::string j = "{";
    j += "\"allFound\":" + std::string(allFound ? "true" : "false");
    j += ",\"stopReason\":\"" + jsonEscape(stopReason) + "\"";
    j += ",\"layersTotal\":" + std::to_string(layersTotal);
    j += ",\"layersUnique\":" + std::to_string(layersUnique);
    j += ",\"totalEnergyPj\":" + num(totalEnergyPj);
    j += ",\"totalDelaySeconds\":" + num(totalDelaySeconds);
    j += ",\"totalEdp\":" + num(totalEdp);
    j += ",\"seconds\":" + num(seconds);
    j += ",\"layers\":[";
    for (std::size_t i = 0; i < layers.size(); ++i) {
        const LayerSchedule &l = layers[i];
        if (i)
            j += ",";
        j += "{\"name\":\"" + jsonEscape(l.name) + "\"";
        j += ",\"count\":" + std::to_string(l.count);
        j += ",\"found\":" + std::string(l.found ? "true" : "false");
        j += ",\"deduplicated\":" +
             std::string(l.deduplicated ? "true" : "false");
        if (!l.stopReason.empty())
            j += ",\"stopReason\":\"" + jsonEscape(l.stopReason) + "\"";
        if (l.found) {
            j += ",\"energyPj\":" + num(l.cost.totalEnergyPj);
            j += ",\"delaySeconds\":" + num(l.cost.delaySeconds);
            j += ",\"edp\":" + num(l.cost.edp);
            j += ",\"utilization\":" + num(l.cost.utilization);
        }
        j += ",\"seconds\":" + num(l.seconds);
        j += ",\"candidatesExamined\":" +
             std::to_string(l.candidatesExamined);
        // Only the fusion-aware scheduler emits these, so FusionMode::Off
        // output stays byte-identical to the pre-fusion format.
        if (!fusionMode.empty()) {
            j += ",\"group\":" + std::to_string(l.group);
            j += ",\"fused\":" + std::string(l.fused ? "true" : "false");
        }
        j += "}";
    }
    j += "]";
    if (!fusionMode.empty()) {
        j += ",\"fusion\":{\"mode\":\"" + jsonEscape(fusionMode) + "\"";
        j += ",\"groupsFusable\":" + std::to_string(groupsFusable);
        j += ",\"groupsFused\":" + std::to_string(groupsFused);
        j += ",\"opsFused\":" + std::to_string(opsFused);
        j += ",\"groups\":[";
        for (std::size_t i = 0; i < groups.size(); ++i) {
            const GroupSchedule &gr = groups[i];
            if (i)
                j += ",";
            j += "{\"members\":[";
            for (std::size_t m = 0; m < gr.members.size(); ++m) {
                if (m)
                    j += ",";
                j += "\"" + jsonEscape(gr.members[m]) + "\"";
            }
            j += "],\"count\":" + std::to_string(gr.count);
            j += ",\"fused\":" + std::string(gr.fused ? "true" : "false");
            if (!gr.rejectReason.empty())
                j += ",\"rejectReason\":\"" + jsonEscape(gr.rejectReason) +
                     "\"";
            j += ",\"fusedEnergyPj\":" + num(gr.fusedEnergyPj);
            j += ",\"fusedDelaySeconds\":" + num(gr.fusedDelaySeconds);
            j += ",\"unfusedEnergyPj\":" + num(gr.unfusedEnergyPj);
            j += ",\"unfusedDelaySeconds\":" + num(gr.unfusedDelaySeconds);
            j += ",\"searchSeconds\":" + num(gr.searchSeconds);
            j += ",\"candidatesExamined\":" +
                 std::to_string(gr.candidatesExamined);
            j += "}";
        }
        j += "]}";
    }
    j += ",\"stats\":" + stats.toJson();
    j += "}";
    return j;
}

NetScheduleResult
scheduleNet(SearchContext &sc, const ArchSpec &arch,
            const std::vector<Layer> &layers,
            const NetSchedulerOptions &opts)
{
    SUNSTONE_TRACE_SPAN("net.schedule");
    Timer timer;
    NetScheduleResult result;

    const unsigned threads =
        opts.threads ? opts.threads : opts.sunstone.threads;
    EvalEngine &eng =
        sc.engine() ? *sc.engine()
                    : (opts.engine ? *opts.engine
                                   : sc.engineOrPrivate(threads));

    // The whole-network wall-clock budget becomes one absolute deadline
    // shared by every per-layer search: layers launched late inherit
    // whatever is left instead of each getting a fresh budget. The other
    // StopPolicy bounds (max-evals, plateau, invalid streak) apply to
    // each unique layer search individually.
    const StopPolicy &netPolicy = sc.policy();
    if (netPolicy.deadlineSeconds != 0 && !sc.hardDeadline()) {
        const double budget = std::max(0.0, netPolicy.deadlineSeconds);
        sc.setHardDeadline(std::chrono::steady_clock::now() +
                           std::chrono::duration_cast<
                               std::chrono::steady_clock::duration>(
                               std::chrono::duration<double>(budget)));
    }

    // Bind every layer and group by structural fingerprint. BoundArch
    // objects are heap-allocated so references taken by the concurrent
    // searches below stay stable.
    struct Unique
    {
        std::unique_ptr<BoundArch> ba;
        std::uint64_t fingerprint = 0;
        bool restored = false;
        SunstoneResult search;
    };
    std::vector<Unique> uniques;
    std::vector<std::size_t> layerToUnique(layers.size());
    std::unordered_map<std::uint64_t, std::size_t> byFingerprint;
    for (std::size_t i = 0; i < layers.size(); ++i) {
        auto ba = std::make_unique<BoundArch>(arch, layers[i].workload);
        const std::uint64_t fp = eng.context(*ba).fingerprint();
        auto [it, inserted] = byFingerprint.emplace(fp, uniques.size());
        if (inserted)
            uniques.push_back({std::move(ba), fp, false, {}});
        layerToUnique[i] = it->second;
    }
    std::vector<std::uint64_t> uniqueFps;
    uniqueFps.reserve(uniques.size());
    for (const Unique &u : uniques)
        uniqueFps.push_back(u.fingerprint);
    const std::uint64_t netFp = netFingerprint(uniqueFps);

    // Consume a pending "net" resume snapshot: every unique search it
    // records as completed is adopted instead of re-run.
    double baseSeconds = 0;
    if (std::optional<SearchCheckpoint> ck = sc.takeResume()) {
        if (ck->search != "net")
            SUNSTONE_FATAL("checkpoint was written by search '",
                           ck->search, "', cannot resume the network "
                           "scheduler from it");
        if (ck->workloadFingerprint != netFp)
            SUNSTONE_FATAL("checkpoint fingerprint ",
                           ck->workloadFingerprint,
                           " does not match this network/architecture (",
                           netFp, ") — it was taken for a different "
                           "problem");
        if (sc.hasSeed() && sc.seed() != ck->seed)
            SUNSTONE_FATAL("checkpoint seed ", ck->seed,
                           " differs from the requested seed ",
                           sc.seed());
        sc.setSeed(ck->seed);
        baseSeconds = ck->seconds;
        JsonValue v;
        if (!parseJson(ck->streamState, v) || !v.isObject())
            SUNSTONE_FATAL("malformed 'net' checkpoint stream payload");
        std::unordered_map<std::uint64_t, DoneSearch> done;
        if (const JsonValue *arr = v.find("done"); arr && arr->isArray())
            for (const JsonValue &e : arr->items) {
                std::uint64_t fp = 0;
                DoneSearch d;
                if (!doneFromJson(e, fp, d))
                    SUNSTONE_FATAL("malformed 'net' checkpoint entry");
                done.emplace(fp, std::move(d));
            }
        for (Unique &u : uniques) {
            auto it = done.find(u.fingerprint);
            if (it == done.end())
                continue;
            const DoneSearch &d = it->second;
            u.restored = true;
            u.search.found = d.found;
            u.search.mapping = d.mapping;
            u.search.seconds = d.seconds;
            u.search.candidatesExamined = d.examined;
            u.search.stopReason = d.stopReason;
            if (d.found)
                u.search.cost =
                    eng.evaluate(eng.context(*u.ba), d.mapping);
            obs::metrics().counter("net.resumed_searches").add(1);
        }
    }

    // Writes the "net" checkpoint reflecting every completed (or
    // restored) unique search. Serialized by checkpointMtx — completed
    // searches land concurrently from the pool.
    std::mutex checkpointMtx;
    const auto writeNetCheckpoint = [&] {
        if (sc.checkpointPath().empty())
            return;
        SearchCheckpoint ck;
        ck.search = "net";
        ck.workloadFingerprint = netFp;
        ck.seed = sc.seed();
        std::string payload = "{\"done\": [";
        bool first = true;
        for (const Unique &u : uniques) {
            if (!u.restored)
                continue;
            DoneSearch d;
            d.found = u.search.found;
            d.mapping = u.search.mapping;
            d.seconds = u.search.seconds;
            d.examined = u.search.candidatesExamined;
            d.stopReason = u.search.stopReason;
            if (!first)
                payload += ", ";
            first = false;
            payload += doneToJson(u.fingerprint, d);
            ck.evaluated += u.search.candidatesExamined;
        }
        payload += "]}";
        ck.streamState = payload;
        ck.seconds = baseSeconds + timer.seconds();
        if (!ck.save(sc.checkpointPath()))
            SUNSTONE_WARN("failed to write checkpoint '",
                          sc.checkpointPath(), "'");
        else
            obs::flightRecorder().record(
                "checkpoint.written",
                "net evals=" + std::to_string(ck.evaluated) + " -> " +
                    sc.checkpointPath());
    };
    {
        std::lock_guard<std::mutex> lk(checkpointMtx);
        writeNetCheckpoint(); // records the restored set immediately
    }

    // Coarse phase units for the progress line: one per unique search.
    obs::ProgressBoard &board = obs::progressBoard();
    board.addUnits(static_cast<std::int64_t>(uniques.size()));
    for (const Unique &u : uniques)
        if (u.restored)
            board.noteUnitDone();

    // Warm-start store: loaded once before the fan-out (a missing file
    // just means an empty store) and only *read* while searches run,
    // so concurrent queries need no locking and results stay
    // deterministic. Realized bests are recorded back serially below.
    WarmStartStore wstore;
    const bool useWarmstart = !opts.warmstartStore.empty();
    if (useWarmstart)
        wstore.load(opts.warmstartStore);

    // One Sunstone search per unique structure, concurrently on the
    // shared pool. The search's own parallelFor nests on the same pool
    // through group-scoped joins, so no thread oversubscription.
    parallelFor(eng.pool(), uniques.size(), [&](std::size_t u) {
        if (uniques[u].restored)
            return;
        SUNSTONE_TRACE_SPAN("net.search:" +
                            uniques[u].ba->workload().name());
        SunstoneOptions so = opts.sunstone;
        so.engine = &eng;
        // One trajectory per unique structure, labeled by the layer that
        // introduced it.
        obs::ConvergenceRecorder *conv =
            sc.convergence() ? sc.convergence() : so.convergence;
        if (conv)
            so.searchLabel =
                "sunstone:" + uniques[u].ba->workload().name();
        // Each concurrent search gets its own child context; the
        // network-wide hard deadline and cancellation flag are shared
        // through it, the per-search bounds are copied.
        SearchContext child(&eng, netPolicy, conv);
        child.policy().deadlineSeconds = 0; // network-wide, see above
        if (sc.hardDeadline())
            child.setHardDeadline(*sc.hardDeadline());
        if (sc.hasSeed())
            child.setSeed(sc.seed());
        if (useWarmstart)
            child.setWarmStarts(wstore.query(*uniques[u].ba));
        Timer t;
        uniques[u].search = sunstoneOptimize(child, *uniques[u].ba, so);
        eng.addPhaseSeconds(
            "layer:" + uniques[u].ba->workload().name(), t.seconds());
        {
            std::lock_guard<std::mutex> lk(checkpointMtx);
            uniques[u].restored = true; // completed: in checkpoints now
            writeNetCheckpoint();
        }
        board.noteUnitDone();
    });
    obs::metrics().counter("net.unique_searches").add(
        static_cast<std::int64_t>(uniques.size()));

    if (useWarmstart) {
        // Serial, in unique order: deterministic store contents.
        bool changed = false;
        for (const Unique &u : uniques)
            if (u.search.found &&
                wstore.record(*u.ba, u.ba->workload().name(),
                              u.search.cost.edp, u.search.mapping))
                changed = true;
        if (changed && !wstore.save(opts.warmstartStore))
            SUNSTONE_WARN("failed to write warm-start store '",
                          opts.warmstartStore, "'");
        obs::metrics().gauge("net.warmstart.store_entries")
            .set(static_cast<double>(wstore.size()));
    }

    result.allFound = true;
    result.stopReason = "exhausted";
    result.layers.reserve(layers.size());
    std::vector<bool> seen(uniques.size(), false);
    for (std::size_t i = 0; i < layers.size(); ++i) {
        const std::size_t u = layerToUnique[i];
        const Unique &uq = uniques[u];
        LayerSchedule ls;
        ls.name = layers[i].workload.name();
        ls.count = layers[i].count;
        ls.found = uq.search.found;
        ls.mapping = uq.search.mapping;
        if (seen[u]) {
            // Broadcast: re-validate the chosen mapping under this
            // layer's own context. Identical structure means an
            // identical cache key, so this is a guaranteed hit — the
            // dedup shows up in the telemetry instead of as a repeated
            // search.
            ls.deduplicated = true;
            ls.stopReason = "dedup";
            obs::metrics().counter("net.dedup_broadcasts").add(1);
            if (ls.found) {
                SUNSTONE_TRACE_SPAN("net.broadcast");
                ls.cost = eng.evaluate(eng.context(*uq.ba), ls.mapping);
            }
        } else {
            seen[u] = true;
            ls.cost = uq.search.cost;
            ls.seconds = uq.search.seconds;
            ls.candidatesExamined = uq.search.candidatesExamined;
            ls.stopReason = uq.search.stopReason;
            // The first interrupting reason wins over "exhausted";
            // cancellation outranks the deadline.
            if (ls.stopReason == "deadline" &&
                result.stopReason == "exhausted")
                result.stopReason = "deadline";
            if (ls.stopReason == "cancelled")
                result.stopReason = "cancelled";
        }
        if (ls.found) {
            result.totalEnergyPj += ls.count * ls.cost.totalEnergyPj;
            result.totalDelaySeconds += ls.count * ls.cost.delaySeconds;
        } else {
            result.allFound = false;
        }
        result.layersTotal += ls.count;
        result.layers.push_back(std::move(ls));
    }
    obs::metrics().counter("net.layers_scheduled").add(
        static_cast<std::int64_t>(layers.size()));
    result.layersUnique = static_cast<int>(uniques.size());
    result.totalEdp = result.totalEnergyPj * result.totalDelaySeconds;
    result.seconds = baseSeconds + timer.seconds();
    eng.addPhaseSeconds("net.schedule", timer.seconds());
    result.stats = eng.stats();
    return result;
}

NetScheduleResult
scheduleNet(const ArchSpec &arch, const std::vector<Layer> &layers,
            const NetSchedulerOptions &opts)
{
    SearchContext sc;
    return scheduleNet(sc, arch, layers, opts);
}

namespace {

/**
 * @return true when mapping m keeps every Ephemeral tensor of ba fully
 * resident at its residency level — the exact condition under which the
 * cost model drops the tensor's DRAM round-trip.
 */
bool
coversEphemeral(const BoundArch &ba, const Mapping &m)
{
    const Workload &wl = ba.workload();
    for (TensorId t = 0; t < ba.numTensors(); ++t) {
        if (ba.residency(t) != Residency::Ephemeral)
            continue;
        const int lvl = ba.residencyLevel(t);
        if (lvl < 0)
            return false;
        const std::vector<std::int64_t> shape = m.tileShape(lvl);
        for (DimId d : wl.tensor(t).indexingDims())
            if (shape[d] != wl.dimSize(d))
                return false;
    }
    return true;
}

/**
 * Derives a fused candidate from a per-layer mapping: every temporal
 * loop over an ephemeral tensor's indexing dims is sunk from above the
 * residency level into it, so the tensor's tile there spans the whole
 * tensor. Spatial factors stay put (moving them would break fanout
 * packing); a mapping that spreads such a dim spatially above the level
 * simply fails the coverage check later. The result may be invalid
 * (capacity) — callers must check valid().
 */
Mapping
sinkEphemeralLoops(const BoundArch &ba, const Mapping &m0)
{
    Mapping m = m0;
    const Workload &wl = ba.workload();
    for (TensorId t = 0; t < ba.numTensors(); ++t) {
        if (ba.residency(t) != Residency::Ephemeral)
            continue;
        const int lvl = ba.residencyLevel(t);
        if (lvl < 0)
            continue;
        for (DimId d : wl.tensor(t).indexingDims())
            for (int l = lvl + 1; l < m.numLevels(); ++l) {
                m.level(lvl).temporal[d] *= m.level(l).temporal[d];
                m.level(l).temporal[d] = 1;
            }
    }
    return m;
}

/**
 * The fusion-aware scheduler (FusionMode::Greedy). Structure mirrors
 * the per-layer scheduleNet — bind, dedup, resume, search, assemble —
 * with one extra unit kind: fused chains, searched per member under
 * residency-marked BoundArchs and accepted only when they dominate the
 * per-op baselines.
 */
NetScheduleResult
scheduleNetGreedy(SearchContext &sc, const ArchSpec &arch, const NetGraph &g,
                  const NetSchedulerOptions &opts)
{
    SUNSTONE_TRACE_SPAN("net.schedule.fused");
    Timer timer;
    NetScheduleResult result;
    result.fusionMode = "greedy";

    const unsigned threads =
        opts.threads ? opts.threads : opts.sunstone.threads;
    EvalEngine &eng =
        sc.engine() ? *sc.engine()
                    : (opts.engine ? *opts.engine
                                   : sc.engineOrPrivate(threads));

    const StopPolicy &netPolicy = sc.policy();
    if (netPolicy.deadlineSeconds != 0 && !sc.hardDeadline()) {
        const double budget = std::max(0.0, netPolicy.deadlineSeconds);
        sc.setHardDeadline(std::chrono::steady_clock::now() +
                           std::chrono::duration_cast<
                               std::chrono::steady_clock::duration>(
                               std::chrono::duration<double>(budget)));
    }

    // ---- Bind + dedup per-op baselines (as the per-layer path) -------
    struct Unique
    {
        std::unique_ptr<BoundArch> ba;
        std::uint64_t fingerprint = 0;
        bool restored = false;
        SunstoneResult search;
    };
    std::vector<Unique> uniques;
    std::vector<std::size_t> nodeToUnique(g.numNodes());
    std::unordered_map<std::uint64_t, std::size_t> byFingerprint;
    for (int i = 0; i < g.numNodes(); ++i) {
        auto ba = std::make_unique<BoundArch>(arch, g.node(i).workload);
        const std::uint64_t fp = eng.context(*ba).fingerprint();
        auto [it, inserted] = byFingerprint.emplace(fp, uniques.size());
        if (inserted)
            uniques.push_back({std::move(ba), fp, false, {}});
        nodeToUnique[i] = it->second;
    }

    // ---- Plan chains (static fusion legality) ------------------------
    // Greedy maximal chains in topological order: extend while the tail
    // produces a single-consumer tensor that statically fits at a common
    // on-chip level on both sides. The check is optimistic (the whole
    // partition budget); the search-time fits() and the coverage test
    // decide for the actual mappings.
    std::vector<std::vector<int>> groupNodes;
    std::vector<int> nodeGroup(g.numNodes(), -1);
    {
        SUNSTONE_TRACE_SPAN("net.fuse.plan");
        auto fusableEdge = [&](const NetEdge &e) {
            obs::metrics().counter("net.fusion.edges_considered").add(1);
            if (g.consumerCount(e.producer, e.producerTensor) != 1) {
                obs::metrics()
                    .counter("net.fusion.edges_rejected_multiconsumer")
                    .add(1);
                return false;
            }
            const BoundArch &pba = *uniques[nodeToUnique[e.producer]].ba;
            const BoundArch &cba = *uniques[nodeToUnique[e.consumer]].ba;
            const Workload &pwl = g.node(e.producer).workload;
            const Workload &cwl = g.node(e.consumer).workload;
            const TensorId pt = pwl.tensorByName(e.producerTensor);
            const TensorId ct = cwl.tensorByName(e.consumerTensor);
            const int pl = pba.residencyLevel(pt);
            const int cl = cba.residencyLevel(ct);
            if (pl < 0 || pl != cl) {
                obs::metrics()
                    .counter("net.fusion.edges_rejected_level")
                    .add(1);
                return false;
            }
            const std::int64_t pbits =
                pwl.tensor(pt).footprint(pwl.shape()) *
                pwl.tensor(pt).wordBits;
            const std::int64_t cbits =
                cwl.tensor(ct).footprint(cwl.shape()) *
                cwl.tensor(ct).wordBits;
            if (pbits > pba.capacityBitsFor(pl, pt) ||
                cbits > cba.capacityBitsFor(cl, ct)) {
                obs::metrics()
                    .counter("net.fusion.edges_rejected_capacity")
                    .add(1);
                return false;
            }
            return true;
        };
        for (int v : g.topoOrder()) {
            if (nodeGroup[v] >= 0)
                continue;
            std::vector<int> chain{v};
            nodeGroup[v] = static_cast<int>(groupNodes.size());
            for (bool grew = true; grew;) {
                grew = false;
                const int tail = chain.back();
                for (int e = 0; e < g.numEdges() && !grew; ++e) {
                    const NetEdge &ed = g.edge(e);
                    if (ed.producer != tail || nodeGroup[ed.consumer] >= 0)
                        continue;
                    if (!fusableEdge(ed))
                        continue;
                    chain.push_back(ed.consumer);
                    nodeGroup[ed.consumer] = nodeGroup[v];
                    grew = true;
                }
            }
            groupNodes.push_back(std::move(chain));
        }
    }

    // ---- Build fused units (dedup by subgraph fingerprint) -----------
    struct FusedMember
    {
        std::unique_ptr<BoundArch> ba; // residency-marked
        std::uint64_t fingerprint = 0;
        int node = -1;
        SunstoneResult search;
    };
    struct FusedUnit
    {
        std::vector<FusedMember> members;
        std::uint64_t fingerprint = 0;
        bool restored = false;
    };
    std::vector<FusedUnit> fusedUnits;
    std::vector<int> groupUnit(groupNodes.size(), -1);
    std::unordered_map<std::uint64_t, int> unitByFp;
    for (std::size_t gi = 0; gi < groupNodes.size(); ++gi) {
        const std::vector<int> &chain = groupNodes[gi];
        if (chain.size() < 2)
            continue;
        const auto eph = g.ephemeralTensors(chain);
        FusedUnit fu;
        fu.fingerprint = 0x46555345ULL; // "FUSE": separates the fp
                                        // namespace from node fps
        for (std::size_t i = 0; i < chain.size(); ++i) {
            FusedMember fm;
            fm.node = chain[i];
            fm.ba = std::make_unique<BoundArch>(
                arch, g.node(chain[i]).workload);
            for (const std::string &name : eph[i])
                fm.ba->setResidency(fm.ba->workload().tensorByName(name),
                                    Residency::Ephemeral);
            fm.fingerprint = eng.context(*fm.ba).fingerprint();
            fu.fingerprint ^= fm.fingerprint;
            fu.fingerprint *= 0x100000001b3ULL;
            fu.fingerprint ^= fu.fingerprint >> 29;
            fu.members.push_back(std::move(fm));
        }
        auto [it, inserted] =
            unitByFp.emplace(fu.fingerprint,
                             static_cast<int>(fusedUnits.size()));
        if (inserted)
            fusedUnits.push_back(std::move(fu));
        groupUnit[gi] = it->second;
    }
    std::vector<int> unitOwner(fusedUnits.size(), -1);
    for (std::size_t gi = 0; gi < groupNodes.size(); ++gi)
        if (groupUnit[gi] >= 0 && unitOwner[groupUnit[gi]] < 0)
            unitOwner[groupUnit[gi]] = static_cast<int>(gi);

    std::vector<std::uint64_t> allFps;
    for (const Unique &u : uniques)
        allFps.push_back(u.fingerprint);
    for (const FusedUnit &fu : fusedUnits)
        allFps.push_back(fu.fingerprint);
    const std::uint64_t netFp = netFingerprint(allFps);

    // ---- Resume ------------------------------------------------------
    double baseSeconds = 0;
    if (std::optional<SearchCheckpoint> ck = sc.takeResume()) {
        if (ck->search != "net-fused")
            SUNSTONE_FATAL("checkpoint was written by search '",
                           ck->search, "', cannot resume the fused "
                           "network scheduler from it");
        if (ck->workloadFingerprint != netFp)
            SUNSTONE_FATAL("checkpoint fingerprint ",
                           ck->workloadFingerprint,
                           " does not match this network/architecture (",
                           netFp, ") — it was taken for a different "
                           "problem");
        if (sc.hasSeed() && sc.seed() != ck->seed)
            SUNSTONE_FATAL("checkpoint seed ", ck->seed,
                           " differs from the requested seed ",
                           sc.seed());
        sc.setSeed(ck->seed);
        baseSeconds = ck->seconds;
        JsonValue v;
        if (!parseJson(ck->streamState, v) || !v.isObject())
            SUNSTONE_FATAL("malformed 'net-fused' checkpoint payload");
        std::unordered_map<std::uint64_t, DoneSearch> done;
        std::unordered_map<std::uint64_t, std::vector<DoneSearch>>
            doneFused;
        if (const JsonValue *arr = v.find("done"); arr && arr->isArray())
            for (const JsonValue &e : arr->items) {
                const JsonValue *f = e.find("fp");
                if (!f)
                    SUNSTONE_FATAL("malformed 'net-fused' entry");
                if (const JsonValue *fs = e.find("fused");
                    fs && fs->isArray()) {
                    std::vector<DoneSearch> recs;
                    for (const JsonValue &me : fs->items) {
                        std::uint64_t mfp = 0;
                        DoneSearch d;
                        if (!doneFromJson(me, mfp, d))
                            SUNSTONE_FATAL(
                                "malformed 'net-fused' member entry");
                        recs.push_back(std::move(d));
                    }
                    doneFused.emplace(f->asHexU64(), std::move(recs));
                    continue;
                }
                std::uint64_t fp = 0;
                DoneSearch d;
                if (!doneFromJson(e, fp, d))
                    SUNSTONE_FATAL("malformed 'net-fused' entry");
                done.emplace(fp, std::move(d));
            }
        for (Unique &u : uniques) {
            auto it = done.find(u.fingerprint);
            if (it == done.end())
                continue;
            const DoneSearch &d = it->second;
            u.restored = true;
            u.search.found = d.found;
            u.search.mapping = d.mapping;
            u.search.seconds = d.seconds;
            u.search.candidatesExamined = d.examined;
            u.search.stopReason = d.stopReason;
            if (d.found)
                u.search.cost =
                    eng.evaluate(eng.context(*u.ba), d.mapping);
            obs::metrics().counter("net.resumed_searches").add(1);
        }
        for (FusedUnit &fu : fusedUnits) {
            auto it = doneFused.find(fu.fingerprint);
            if (it == doneFused.end() ||
                it->second.size() != fu.members.size())
                continue;
            fu.restored = true;
            for (std::size_t i = 0; i < fu.members.size(); ++i) {
                const DoneSearch &d = it->second[i];
                FusedMember &fm = fu.members[i];
                fm.search.found = d.found;
                fm.search.mapping = d.mapping;
                fm.search.seconds = d.seconds;
                fm.search.candidatesExamined = d.examined;
                fm.search.stopReason = d.stopReason;
                if (d.found)
                    fm.search.cost =
                        eng.evaluate(eng.context(*fm.ba), d.mapping);
            }
            obs::metrics().counter("net.resumed_searches").add(1);
        }
    }

    // ---- Checkpointing -----------------------------------------------
    std::mutex checkpointMtx;
    const auto writeNetCheckpoint = [&] {
        if (sc.checkpointPath().empty())
            return;
        SearchCheckpoint ck;
        ck.search = "net-fused";
        ck.workloadFingerprint = netFp;
        ck.seed = sc.seed();
        std::string payload = "{\"done\": [";
        bool first = true;
        for (const Unique &u : uniques) {
            if (!u.restored)
                continue;
            DoneSearch d;
            d.found = u.search.found;
            d.mapping = u.search.mapping;
            d.seconds = u.search.seconds;
            d.examined = u.search.candidatesExamined;
            d.stopReason = u.search.stopReason;
            if (!first)
                payload += ", ";
            first = false;
            payload += doneToJson(u.fingerprint, d);
            ck.evaluated += u.search.candidatesExamined;
        }
        for (const FusedUnit &fu : fusedUnits) {
            if (!fu.restored)
                continue;
            if (!first)
                payload += ", ";
            first = false;
            payload += "{\"fp\": " + jsonHexU64(fu.fingerprint) +
                       ", \"fused\": [";
            for (std::size_t i = 0; i < fu.members.size(); ++i) {
                const FusedMember &fm = fu.members[i];
                DoneSearch d;
                d.found = fm.search.found;
                d.mapping = fm.search.mapping;
                d.seconds = fm.search.seconds;
                d.examined = fm.search.candidatesExamined;
                d.stopReason = fm.search.stopReason;
                if (i)
                    payload += ", ";
                payload += doneToJson(fm.fingerprint, d);
                ck.evaluated += fm.search.candidatesExamined;
            }
            payload += "]}";
        }
        payload += "]}";
        ck.streamState = payload;
        ck.seconds = baseSeconds + timer.seconds();
        if (!ck.save(sc.checkpointPath()))
            SUNSTONE_WARN("failed to write checkpoint '",
                          sc.checkpointPath(), "'");
        else
            obs::flightRecorder().record(
                "checkpoint.written",
                "net-fused evals=" + std::to_string(ck.evaluated) +
                    " -> " + sc.checkpointPath());
    };
    {
        std::lock_guard<std::mutex> lk(checkpointMtx);
        writeNetCheckpoint();
    }

    // Coarse phase units: one per unique per-op search, one per fused
    // chain search.
    obs::ProgressBoard &board = obs::progressBoard();
    board.addUnits(
        static_cast<std::int64_t>(uniques.size() + fusedUnits.size()));
    for (const Unique &u : uniques)
        if (u.restored)
            board.noteUnitDone();
    for (const FusedUnit &fu : fusedUnits)
        if (fu.restored)
            board.noteUnitDone();

    const auto makeChild = [&](const std::string &label,
                               SunstoneOptions &so,
                               obs::ConvergenceRecorder **conv_out) {
        so = opts.sunstone;
        so.engine = &eng;
        obs::ConvergenceRecorder *conv =
            sc.convergence() ? sc.convergence() : so.convergence;
        if (conv)
            so.searchLabel = label;
        *conv_out = conv;
    };
    const auto fom = [&](const CostResult &c) {
        return opts.sunstone.optimizeEdp ? c.edp : c.totalEnergyPj;
    };

    // Warm-start store (see the flat-path comment): read-only while
    // the fan-outs run, recorded back serially after pass 2.
    WarmStartStore wstore;
    const bool useWarmstart = !opts.warmstartStore.empty();
    if (useWarmstart)
        wstore.load(opts.warmstartStore);

    // ---- Pass 1: per-op baseline searches ----------------------------
    parallelFor(eng.pool(), uniques.size(), [&](std::size_t u) {
        if (uniques[u].restored)
            return;
        SUNSTONE_TRACE_SPAN("net.search:" +
                            uniques[u].ba->workload().name());
        SunstoneOptions so;
        obs::ConvergenceRecorder *conv = nullptr;
        makeChild("sunstone:" + uniques[u].ba->workload().name(), so,
                  &conv);
        SearchContext child(&eng, netPolicy, conv);
        child.policy().deadlineSeconds = 0;
        if (sc.hardDeadline())
            child.setHardDeadline(*sc.hardDeadline());
        if (sc.hasSeed())
            child.setSeed(sc.seed());
        if (useWarmstart)
            child.setWarmStarts(wstore.query(*uniques[u].ba));
        Timer t;
        uniques[u].search = sunstoneOptimize(child, *uniques[u].ba, so);
        eng.addPhaseSeconds(
            "layer:" + uniques[u].ba->workload().name(), t.seconds());
        {
            std::lock_guard<std::mutex> lk(checkpointMtx);
            uniques[u].restored = true;
            writeNetCheckpoint();
        }
        board.noteUnitDone();
    });
    obs::metrics().counter("net.unique_searches").add(
        static_cast<std::int64_t>(uniques.size()));

    // ---- Pass 2: fused-chain searches --------------------------------
    // Runs after the baselines (a barrier, not a pipeline) because each
    // fused member search is seeded with the sunken per-op winner, which
    // both bounds the fused result from below and guarantees a coverage
    // candidate whenever one is valid.
    parallelFor(eng.pool(), fusedUnits.size(), [&](std::size_t fi) {
        FusedUnit &fu = fusedUnits[fi];
        if (fu.restored)
            return;
        SUNSTONE_TRACE_SPAN("net.search.fused:" +
                            fu.members.front().ba->workload().name());
        Timer t;
        for (FusedMember &fm : fu.members) {
            SunstoneOptions so;
            obs::ConvergenceRecorder *conv = nullptr;
            makeChild("sunstone:" + fm.ba->workload().name() + "+fused",
                      so, &conv);
            SearchContext child(&eng, netPolicy, conv);
            child.policy().deadlineSeconds = 0;
            if (sc.hardDeadline())
                child.setHardDeadline(*sc.hardDeadline());
            if (sc.hasSeed())
                child.setSeed(sc.seed());
            // Fused variants share the per-op structure, so stored
            // per-op bests still seed them; fused results are not
            // recorded back (their costs assume ephemeral residency).
            if (useWarmstart)
                child.setWarmStarts(wstore.query(*fm.ba));
            fm.search = sunstoneOptimize(child, *fm.ba, so);
            const Unique &base = uniques[nodeToUnique[fm.node]];
            if (base.search.found) {
                Mapping seeded =
                    sinkEphemeralLoops(*fm.ba, base.search.mapping);
                if (seeded.valid(*fm.ba)) {
                    const CostResult c =
                        eng.evaluate(eng.context(*fm.ba), seeded);
                    if (!fm.search.found || fom(c) < fom(fm.search.cost)) {
                        fm.search.found = true;
                        fm.search.mapping = std::move(seeded);
                        fm.search.cost = c;
                    }
                }
            }
        }
        eng.addPhaseSeconds(
            "fused:" + fu.members.front().ba->workload().name(),
            t.seconds());
        {
            std::lock_guard<std::mutex> lk(checkpointMtx);
            fu.restored = true;
            writeNetCheckpoint();
        }
        board.noteUnitDone();
    });
    obs::metrics().counter("net.fusion.unit_searches").add(
        static_cast<std::int64_t>(fusedUnits.size()));

    if (useWarmstart) {
        // Serial, in unique order: deterministic store contents. Only
        // per-op results are recorded (fused costs assume residency).
        bool changed = false;
        for (const Unique &u : uniques)
            if (u.search.found &&
                wstore.record(*u.ba, u.ba->workload().name(),
                              u.search.cost.edp, u.search.mapping))
                changed = true;
        if (changed && !wstore.save(opts.warmstartStore))
            SUNSTONE_WARN("failed to write warm-start store '",
                          opts.warmstartStore, "'");
        obs::metrics().gauge("net.warmstart.store_entries")
            .set(static_cast<double>(wstore.size()));
    }

    // ---- Decide per group --------------------------------------------
    result.stopReason = "exhausted";
    const auto foldStop = [&](const std::string &s) {
        if (s == "deadline" && result.stopReason == "exhausted")
            result.stopReason = "deadline";
        if (s == "cancelled")
            result.stopReason = "cancelled";
    };
    for (const Unique &u : uniques)
        foldStop(u.search.stopReason);
    for (const FusedUnit &fu : fusedUnits)
        for (const FusedMember &fm : fu.members)
            foldStop(fm.search.stopReason);

    std::vector<bool> accepted(groupNodes.size(), false);
    result.groups.resize(groupNodes.size());
    for (std::size_t gi = 0; gi < groupNodes.size(); ++gi) {
        const std::vector<int> &chain = groupNodes[gi];
        GroupSchedule &gr = result.groups[gi];
        gr.count = g.node(chain.front()).count;
        bool unfusedFound = true;
        for (int n : chain) {
            gr.members.push_back(g.node(n).workload.name());
            const Unique &uq = uniques[nodeToUnique[n]];
            unfusedFound &= uq.search.found;
            gr.searchSeconds += uq.search.seconds;
            gr.candidatesExamined += uq.search.candidatesExamined;
            if (uq.search.found) {
                gr.unfusedEnergyPj += uq.search.cost.totalEnergyPj;
                gr.unfusedDelaySeconds += uq.search.cost.delaySeconds;
            }
        }
        if (groupUnit[gi] < 0)
            continue; // singleton: nothing to decide
        ++result.groupsFusable;
        const FusedUnit &fu = fusedUnits[groupUnit[gi]];
        bool fusedFound = true;
        bool covered = true;
        for (const FusedMember &fm : fu.members) {
            fusedFound &= fm.search.found;
            gr.searchSeconds += fm.search.seconds;
            gr.candidatesExamined += fm.search.candidatesExamined;
            if (fm.search.found) {
                covered &= coversEphemeral(*fm.ba, fm.search.mapping);
                gr.fusedEnergyPj += fm.search.cost.totalEnergyPj;
                gr.fusedDelaySeconds += fm.search.cost.delaySeconds;
            }
        }
        if (!fusedFound) {
            gr.rejectReason = "search";
        } else if (!covered) {
            gr.rejectReason = "coverage";
        } else if (unfusedFound &&
                   !(gr.fusedEnergyPj <= gr.unfusedEnergyPj &&
                     gr.fusedDelaySeconds <= gr.unfusedDelaySeconds &&
                     gr.fusedEnergyPj * gr.fusedDelaySeconds <
                         gr.unfusedEnergyPj * gr.unfusedDelaySeconds)) {
            // Fusing must not regress either energy or delay, and must
            // strictly improve EDP: chain-wise dominance is what makes
            // the net-level totals provably no worse than per-layer.
            gr.rejectReason = "cost";
        } else {
            accepted[gi] = true;
            gr.fused = true;
            ++result.groupsFused;
            result.opsFused += static_cast<int>(chain.size());
        }
        std::string detail = gr.members.front();
        for (std::size_t m = 1; m < gr.members.size(); ++m)
            detail += "+" + gr.members[m];
        if (gr.fused)
            obs::flightRecorder().record("chain.accepted", detail);
        else
            obs::flightRecorder().record(
                "chain.rejected", detail + " reason=" + gr.rejectReason);
    }
    obs::metrics().counter("net.fusion.groups_fused").add(
        result.groupsFused);
    obs::metrics().counter("net.fusion.ops_fused").add(result.opsFused);

    // ---- Assemble per-node results (node order) ----------------------
    result.allFound = true;
    result.layers.reserve(g.numNodes());
    std::vector<bool> seen(uniques.size(), false);
    for (int n = 0; n < g.numNodes(); ++n) {
        const int gi = nodeGroup[n];
        LayerSchedule ls;
        ls.name = g.node(n).workload.name();
        ls.count = g.node(n).count;
        ls.group = gi;
        if (accepted[gi]) {
            const FusedUnit &fu = fusedUnits[groupUnit[gi]];
            std::size_t pos = 0;
            while (groupNodes[gi][pos] != n)
                ++pos;
            const FusedMember &fm = fu.members[pos];
            ls.found = true;
            ls.fused = true;
            ls.mapping = fm.search.mapping;
            if (unitOwner[groupUnit[gi]] == gi) {
                ls.cost = fm.search.cost;
                ls.seconds = fm.search.seconds;
                ls.candidatesExamined = fm.search.candidatesExamined;
                ls.stopReason = fm.search.stopReason;
            } else {
                // A structurally identical chain already searched this
                // subgraph; broadcast with a guaranteed cache hit.
                ls.deduplicated = true;
                ls.stopReason = "dedup";
                ls.cost = eng.evaluate(eng.context(*fm.ba), ls.mapping);
                obs::metrics().counter("net.dedup_broadcasts").add(1);
            }
        } else {
            const std::size_t u = nodeToUnique[n];
            const Unique &uq = uniques[u];
            ls.found = uq.search.found;
            ls.mapping = uq.search.mapping;
            if (seen[u]) {
                ls.deduplicated = true;
                ls.stopReason = "dedup";
                obs::metrics().counter("net.dedup_broadcasts").add(1);
                if (ls.found) {
                    SUNSTONE_TRACE_SPAN("net.broadcast");
                    ls.cost =
                        eng.evaluate(eng.context(*uq.ba), ls.mapping);
                }
            } else {
                seen[u] = true;
                ls.cost = uq.search.cost;
                ls.seconds = uq.search.seconds;
                ls.candidatesExamined = uq.search.candidatesExamined;
                ls.stopReason = uq.search.stopReason;
            }
        }
        if (ls.found) {
            result.totalEnergyPj += ls.count * ls.cost.totalEnergyPj;
            result.totalDelaySeconds += ls.count * ls.cost.delaySeconds;
        } else {
            result.allFound = false;
        }
        result.layersTotal += ls.count;
        result.layers.push_back(std::move(ls));
    }
    obs::metrics().counter("net.layers_scheduled").add(g.numNodes());
    result.layersUnique = static_cast<int>(uniques.size());
    result.totalEdp = result.totalEnergyPj * result.totalDelaySeconds;
    result.seconds = baseSeconds + timer.seconds();
    eng.addPhaseSeconds("net.schedule.fused", timer.seconds());
    result.stats = eng.stats();
    return result;
}

} // anonymous namespace

NetScheduleResult
scheduleNet(SearchContext &sc, const ArchSpec &arch, const NetGraph &graph,
            const NetSchedulerOptions &opts)
{
    std::string err;
    if (!graph.validate(&err))
        SUNSTONE_FATAL("invalid network graph: ", err);
    // FusionMode::Off takes the exact per-layer code path over the
    // graph's node list, so its results are bit-identical to the flat
    // scheduler's.
    if (opts.fusion == FusionMode::Off)
        return scheduleNet(sc, arch, graph.toLayers(), opts);
    return scheduleNetGreedy(sc, arch, graph, opts);
}

NetScheduleResult
scheduleNet(const ArchSpec &arch, const NetGraph &graph,
            const NetSchedulerOptions &opts)
{
    SearchContext sc;
    return scheduleNet(sc, arch, graph, opts);
}

} // namespace sunstone
