/**
 * @file
 * End-to-end guarantees of the SearchDriver refactor (DESIGN.md §12):
 *
 *  - Checkpoint/resume: interrupt a seeded search at an eval budget,
 *    resume it from the checkpoint file under a larger budget, and the
 *    final mapping, cost bits, counters, and stop reason are identical
 *    to the same search run uninterrupted — per mapper.
 *  - Thread-count determinism: the same seed yields identical best cost
 *    and eval counts at 1/4/8 evaluation threads for the Sunstone core
 *    search, the refine hill-climb, and the Timeloop random search.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <optional>

#include "arch/presets.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "core/net_scheduler.hh"
#include "core/refine.hh"
#include "core/sunstone.hh"
#include "mappers/dmaze_mapper.hh"
#include "mappers/exhaustive_mapper.hh"
#include "mappers/gamma_mapper.hh"
#include "mappers/interstellar_mapper.hh"
#include "mappers/timeloop_mapper.hh"
#include "model/eval_engine.hh"
#include "search/checkpoint.hh"
#include "search/search_context.hh"
#include "workload/zoo.hh"

namespace sunstone {
namespace {

Workload
smallConv()
{
    ConvShape sh;
    sh.n = 1;
    sh.k = 8;
    sh.c = 8;
    sh.p = 4;
    sh.q = 4;
    sh.r = 3;
    sh.s = 3;
    return makeConv2D(sh);
}

using RunFn = std::function<MapperResult(SearchContext &)>;

/**
 * Runs `run` three ways: uninterrupted to budget N; interrupted at
 * budget K with a checkpoint; resumed from that checkpoint to budget N.
 * The uninterrupted and resumed runs must agree bit-for-bit.
 *
 * The plateau bound is pinned high so legacy per-mapper victory
 * conditions cannot fire: a plateau stop mid-resume would count one
 * extra evaluation relative to the uninterrupted run, which is exactly
 * the class of divergence this harness exists to catch elsewhere.
 */
void
expectResumeMatchesUninterrupted(const std::string &name, const RunFn &run,
                                 std::int64_t interrupt_at,
                                 std::int64_t budget)
{
    StopPolicy base;
    base.maxEvals = budget;
    base.plateau = 1'000'000'000;

    SearchContext uninterrupted;
    uninterrupted.setPolicy(base);
    const MapperResult ra = run(uninterrupted);

    const std::string path =
        ::testing::TempDir() + "/resume_" + name + ".json";
    std::remove(path.c_str());
    StopPolicy cut = base;
    cut.maxEvals = interrupt_at;
    SearchContext interrupted;
    interrupted.setPolicy(cut);
    interrupted.setCheckpointPath(path);
    run(interrupted);

    SearchCheckpoint ck;
    std::string err;
    ASSERT_TRUE(SearchCheckpoint::load(path, ck, &err))
        << name << ": " << err;
    ASSERT_LT(ck.evaluated, budget) << name << ": nothing left to resume";

    SearchContext resumed;
    resumed.setPolicy(base);
    resumed.setCheckpointPath(path);
    resumed.setResume(std::move(ck));
    const MapperResult rc = run(resumed);

    EXPECT_EQ(ra.found, rc.found) << name;
    EXPECT_EQ(ra.mappingsEvaluated, rc.mappingsEvaluated) << name;
    // Bit equality, not near-equality: a resumed search replays the
    // exact evaluation sequence, so the doubles must match exactly.
    EXPECT_EQ(ra.cost.edp, rc.cost.edp) << name;
    EXPECT_EQ(ra.cost.totalEnergyPj, rc.cost.totalEnergyPj) << name;
    EXPECT_EQ(mappingToJson(ra.mapping), mappingToJson(rc.mapping)) << name;
    EXPECT_EQ(ra.stopReason, rc.stopReason) << name;
    std::remove(path.c_str());
}

struct ResumeFixture : public ::testing::Test
{
    BoundArch ba{makeConventional(), smallConv()};
};

TEST_F(ResumeFixture, TimeloopResumesBitIdentically)
{
    expectResumeMatchesUninterrupted(
        "timeloop",
        [&](SearchContext &sc) {
            return TimeloopMapper().optimize(sc, ba);
        },
        /*interrupt_at=*/250, /*budget=*/600);
}

TEST_F(ResumeFixture, GammaResumesBitIdentically)
{
    expectResumeMatchesUninterrupted(
        "gamma",
        [&](SearchContext &sc) { return GammaMapper().optimize(sc, ba); },
        /*interrupt_at=*/320, /*budget=*/640);
}

TEST_F(ResumeFixture, DMazeResumesBitIdentically)
{
    // The default 0.8 PE-utilization floor is unreachable on this tiny
    // shape (max unrollable product 128 on a 1024-PE grid) and would
    // make the mapper bail as unsupported before searching.
    DMazeOptions opts;
    opts.peUtil = 0.05;
    opts.l1Util = 0.1;
    opts.l2Util = 0.01;
    expectResumeMatchesUninterrupted(
        "dmaze",
        [&](SearchContext &sc) {
            return DMazeMapper(opts).optimize(sc, ba);
        },
        /*interrupt_at=*/150, /*budget=*/400);
}

TEST_F(ResumeFixture, InterstellarResumesBitIdentically)
{
    expectResumeMatchesUninterrupted(
        "interstellar",
        [&](SearchContext &sc) {
            return InterstellarMapper().optimize(sc, ba);
        },
        /*interrupt_at=*/150, /*budget=*/400);
}

TEST_F(ResumeFixture, ExhaustiveResumesBitIdentically)
{
    ExhaustiveOptions opts;
    opts.maxSpace = 1e15; // never bail to "unsupported" on this shape
    expectResumeMatchesUninterrupted(
        "exhaustive",
        [&](SearchContext &sc) {
            return ExhaustiveMapper(opts).optimize(sc, ba);
        },
        /*interrupt_at=*/300, /*budget=*/900);
}

TEST_F(ResumeFixture, SunstoneResumesBitIdentically)
{
    // The beam checkpoints at step boundaries, so the interrupt budget
    // must reach past the first per-level step for a checkpoint to
    // exist; the search examines thousands of candidates per level on
    // this shape.
    expectResumeMatchesUninterrupted(
        "sunstone",
        [&](SearchContext &sc) {
            SunstoneResult sr = sunstoneOptimize(sc, ba);
            MapperResult mr;
            mr.found = sr.found;
            mr.mapping = sr.mapping;
            mr.cost = sr.cost;
            mr.mappingsEvaluated = sr.candidatesExamined;
            mr.seconds = sr.seconds;
            mr.stopReason = sr.stopReason;
            return mr;
        },
        /*interrupt_at=*/3000, /*budget=*/6000);
}

/** A seeded, eval-bounded schedule of `g` on the conventional
 *  architecture, optionally checkpointing and resuming. */
NetScheduleResult
runNet(const NetGraph &g, FusionMode mode, const std::string &ck_path = {},
       std::optional<SearchCheckpoint> resume = {})
{
    NetSchedulerOptions opts;
    opts.sunstone.threads = 2;
    opts.fusion = mode;
    StopPolicy pol;
    pol.maxEvals = 300;
    pol.plateau = 1'000'000'000;
    SearchContext sc;
    sc.setPolicy(pol);
    sc.setSeed(7);
    if (!ck_path.empty())
        sc.setCheckpointPath(ck_path);
    if (resume)
        sc.setResume(std::move(*resume));
    return scheduleNet(sc, makeConventional(), g, opts);
}

/** Runs `g` to completion with a checkpoint at `path`; @return it. */
SearchCheckpoint
completeCheckpoint(const NetGraph &g, FusionMode mode,
                   const std::string &path)
{
    std::remove(path.c_str());
    runNet(g, mode, path);
    SearchCheckpoint ck;
    std::string err;
    EXPECT_TRUE(SearchCheckpoint::load(path, ck, &err)) << err;
    return ck;
}

/** The entries of a net checkpoint's "done" list. */
std::vector<JsonValue>
doneEntries(const SearchCheckpoint &ck)
{
    JsonValue state;
    EXPECT_TRUE(parseJson(ck.streamState, state));
    const JsonValue *done = state.find("done");
    EXPECT_NE(done, nullptr);
    return done ? done->items : std::vector<JsonValue>{};
}

/** Bit equality of two schedules, per layer and in total. */
void
expectSameSchedule(const NetScheduleResult &ra, const NetScheduleResult &rc)
{
    EXPECT_EQ(ra.allFound, rc.allFound);
    EXPECT_EQ(ra.totalEnergyPj, rc.totalEnergyPj);
    EXPECT_EQ(ra.totalDelaySeconds, rc.totalDelaySeconds);
    EXPECT_EQ(ra.totalEdp, rc.totalEdp);
    EXPECT_EQ(ra.stopReason, rc.stopReason);
    EXPECT_EQ(ra.fusionMode, rc.fusionMode);
    EXPECT_EQ(ra.groupsFused, rc.groupsFused);
    EXPECT_EQ(ra.opsFused, rc.opsFused);
    ASSERT_EQ(ra.layers.size(), rc.layers.size());
    for (std::size_t i = 0; i < ra.layers.size(); ++i) {
        SCOPED_TRACE("layer " + std::to_string(i));
        EXPECT_EQ(mappingToJson(ra.layers[i].mapping),
                  mappingToJson(rc.layers[i].mapping));
        EXPECT_EQ(ra.layers[i].cost.edp, rc.layers[i].cost.edp);
        EXPECT_EQ(ra.layers[i].cost.totalEnergyPj,
                  rc.layers[i].cost.totalEnergyPj);
        EXPECT_EQ(ra.layers[i].candidatesExamined,
                  rc.layers[i].candidatesExamined);
        EXPECT_EQ(ra.layers[i].stopReason, rc.layers[i].stopReason);
        EXPECT_EQ(ra.layers[i].fused, rc.layers[i].fused);
        EXPECT_EQ(ra.layers[i].group, rc.layers[i].group);
    }
}

TEST(NetResume, FusedNetResumesBitIdenticallyAcrossSubgraphBoundary)
{
    // Interrupt/resume for the fusion-aware network scheduler: the
    // "net-fused" checkpoint records one entry per completed per-op
    // baseline and one per completed fused unit. We take a complete
    // checkpoint and truncate it so that one baseline and the whole
    // fused unit are missing — exactly the state left by an interrupt
    // that landed between subgraph searches, crossing the
    // fused-subgraph boundary — then resume and demand bit-equality
    // with the uninterrupted run.
    const NetGraph g = attentionGraph(64, 1);
    const NetScheduleResult ra = runNet(g, FusionMode::Greedy);
    ASSERT_TRUE(ra.allFound);
    ASSERT_EQ(ra.groupsFused, 1);

    const std::string path =
        ::testing::TempDir() + "/resume_net_fused.json";
    SearchCheckpoint ck = completeCheckpoint(g, FusionMode::Greedy, path);
    EXPECT_EQ(ck.search, "net-fused");

    std::vector<const JsonValue *> singles;
    int fusedEntries = 0;
    const std::vector<JsonValue> done = doneEntries(ck);
    for (const JsonValue &e : done) {
        if (e.find("fused"))
            ++fusedEntries;
        else
            singles.push_back(&e);
    }
    ASSERT_EQ(singles.size(), 3u); // the three distinct attention ops
    ASSERT_EQ(fusedEntries, 1);

    ck.streamState = "{\"done\": [" + singles[0]->dump() + ", " +
                     singles[1]->dump() + "]}";
    const NetScheduleResult rc =
        runNet(g, FusionMode::Greedy, path, std::move(ck));
    expectSameSchedule(ra, rc);
    std::remove(path.c_str());
}

TEST(NetResume, FlatNetResumesBitIdentically)
{
    // The fuse-off scheduler writes a "net" checkpoint with one entry
    // per unique per-op search. Keep only the first, resume, and the
    // schedule must match the uninterrupted one bit for bit — the
    // restored search included.
    const NetGraph g = attentionGraph(64, 1);
    const NetScheduleResult ra = runNet(g, FusionMode::Off);
    ASSERT_TRUE(ra.allFound);
    EXPECT_TRUE(ra.fusionMode.empty());
    for (const LayerSchedule &l : ra.layers)
        EXPECT_EQ(l.group, -1);

    const std::string path = ::testing::TempDir() + "/resume_net_flat.json";
    SearchCheckpoint ck = completeCheckpoint(g, FusionMode::Off, path);
    EXPECT_EQ(ck.search, "net");
    const std::vector<JsonValue> done = doneEntries(ck);
    ASSERT_EQ(done.size(), 3u);
    for (const JsonValue &e : done)
        EXPECT_EQ(e.find("fused"), nullptr);

    ck.streamState = "{\"done\": [" + done[0].dump() + "]}";
    const NetScheduleResult rc =
        runNet(g, FusionMode::Off, path, std::move(ck));
    expectSameSchedule(ra, rc);
    std::remove(path.c_str());
}

TEST(NetResume, CheckpointLabelMustMatchTheFusionMode)
{
    // A fused plan and a flat one are different problems: neither mode
    // adopts the other's checkpoint.
    const NetGraph g = attentionGraph(64, 1);
    const std::string path = ::testing::TempDir() + "/resume_net_label.json";
    SearchCheckpoint flat = completeCheckpoint(g, FusionMode::Off, path);
    SearchCheckpoint fused = completeCheckpoint(g, FusionMode::Greedy, path);
    ASSERT_EQ(flat.search, "net");
    ASSERT_EQ(fused.search, "net-fused");
    ScopedFatalCapture capture;
    EXPECT_THROW(runNet(g, FusionMode::Greedy, {}, std::move(flat)),
                 FatalError);
    EXPECT_THROW(runNet(g, FusionMode::Off, {}, std::move(fused)),
                 FatalError);
    std::remove(path.c_str());
}

TEST(NetResume, InvalidFoundMappingIsAMalformedCheckpoint)
{
    // A "found" entry whose mapping no longer re-scores as valid (here:
    // every factor edited to 1, which the fingerprint check cannot see)
    // must not be reported as found with an infinite cost.
    const NetGraph g = attentionGraph(64, 1);
    const std::string path = ::testing::TempDir() + "/resume_net_bad.json";
    SearchCheckpoint ck = completeCheckpoint(g, FusionMode::Off, path);
    const std::vector<JsonValue> done = doneEntries(ck);
    ASSERT_FALSE(done.empty());
    const JsonValue *m = done[0].find("mapping");
    ASSERT_NE(m, nullptr);
    Mapping ones;
    ASSERT_TRUE(mappingFromJson(*m, ones));
    const std::string recorded = mappingToJson(ones);
    for (int l = 0; l < ones.numLevels(); ++l)
        for (int d = 0; d < ones.numDims(); ++d)
            ones.level(l).temporal[d] = ones.level(l).spatial[d] = 1;
    const std::size_t at = ck.streamState.find(recorded);
    ASSERT_NE(at, std::string::npos);
    ck.streamState.replace(at, recorded.size(), mappingToJson(ones));

    ScopedFatalCapture capture;
    try {
        runNet(g, FusionMode::Off, {}, std::move(ck));
        ADD_FAILURE() << "an invalid found mapping was resumed";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("malformed 'net' checkpoint"),
                  std::string::npos)
            << e.what();
    }
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Thread-count determinism
// ---------------------------------------------------------------------

TEST_F(ResumeFixture, SunstoneCoreIsThreadCountInvariant)
{
    double edp = 0;
    std::int64_t examined = 0;
    std::string mapping;
    for (unsigned threads : {1u, 4u, 8u}) {
        EvalEngine engine(EvalEngineOptions{.threads = threads});
        SunstoneOptions opts;
        opts.threads = threads;
        SearchContext sc(&engine);
        const SunstoneResult sr = sunstoneOptimize(sc, ba, opts);
        ASSERT_TRUE(sr.found) << threads << " threads";
        if (threads == 1) {
            edp = sr.cost.edp;
            examined = sr.candidatesExamined;
            mapping = mappingToJson(sr.mapping);
            continue;
        }
        EXPECT_EQ(sr.cost.edp, edp) << threads << " threads";
        EXPECT_EQ(sr.candidatesExamined, examined) << threads << " threads";
        EXPECT_EQ(mappingToJson(sr.mapping), mapping)
            << threads << " threads";
    }
}

TEST_F(ResumeFixture, RefineIsThreadCountInvariant)
{
    const Mapping start = naiveMapping(ba);
    std::string mapping;
    std::int64_t evaluated = 0;
    for (unsigned threads : {1u, 4u, 8u}) {
        EvalEngine engine(EvalEngineOptions{.threads = threads});
        RefineStats stats;
        const Mapping polished = polishMapping(
            ba, start, /*optimize_edp=*/true, /*max_rounds=*/64, &stats,
            &engine);
        if (threads == 1) {
            mapping = mappingToJson(polished);
            evaluated = stats.evaluated;
            continue;
        }
        EXPECT_EQ(mappingToJson(polished), mapping) << threads << " threads";
        EXPECT_EQ(stats.evaluated, evaluated) << threads << " threads";
    }
}

TEST_F(ResumeFixture, TimeloopRandomIsThreadCountInvariant)
{
    double edp = 0;
    std::int64_t evals = 0;
    std::string mapping;
    for (unsigned threads : {1u, 4u, 8u}) {
        EvalEngine engine(EvalEngineOptions{.threads = threads});
        TimeloopOptions opts = TimeloopOptions::fast();
        opts.threads = threads;
        SearchContext sc(&engine);
        sc.policy().maxEvals = 500;
        sc.policy().plateau = 1'000'000'000;
        const MapperResult mr = TimeloopMapper(opts).optimize(sc, ba);
        ASSERT_TRUE(mr.found) << threads << " threads";
        if (threads == 1) {
            edp = mr.cost.edp;
            evals = mr.mappingsEvaluated;
            mapping = mappingToJson(mr.mapping);
            continue;
        }
        EXPECT_EQ(mr.cost.edp, edp) << threads << " threads";
        EXPECT_EQ(mr.mappingsEvaluated, evals) << threads << " threads";
        EXPECT_EQ(mappingToJson(mr.mapping), mapping)
            << threads << " threads";
    }
}

} // namespace
} // namespace sunstone
