/**
 * @file
 * Fast-mode identity: the trace-once/replay-many execution path must be
 * *bit-identical* to cycle-level simulation for every detector, on
 * every registered workload, across several injection seeds — report
 * sets, dynamic counts, explain attributions, and whole hard.batch.v2
 * documents (the only permitted difference is the top-level
 * "mode":"fast" marker). Both the cold path (record + store) and the
 * warm path (cache-hit replay) are held to the same bar, on the
 * default core count and with threads oversubscribed onto 2 cores.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/hard_detector.hh"
#include "core/hybrid.hh"
#include "detectors/fasttrack.hh"
#include "detectors/happens_before.hh"
#include "detectors/ideal_lockset.hh"
#include "harness/batch.hh"
#include "harness/experiment.hh"
#include "harness/run_pool.hh"
#include "trace/trace_cache.hh"
#include "workloads/registry.hh"

namespace hard
{
namespace
{

WorkloadParams
tinyParams()
{
    WorkloadParams p;
    p.scale = 0.04;
    return p;
}

/** A fresh (pre-wiped) cache directory under the test temp root. */
std::string
freshCacheDir(const std::string &leaf)
{
    const std::string dir = ::testing::TempDir() + leaf;
    std::filesystem::remove_all(dir);
    return dir;
}

/** All six detector families from the fuzzer's battery, as a harness
 * factory: HARD, exact lockset at line and word granularity, hybrid,
 * happens-before, FastTrack. */
DetectorFactory
sixDetectors()
{
    return [] {
        std::vector<std::unique_ptr<RaceDetector>> dets;
        dets.push_back(
            std::make_unique<HardDetector>("hard", HardConfig{}));
        dets.push_back(std::make_unique<IdealLocksetDetector>(
            "ideal", IdealLocksetConfig{}));
        IdealLocksetConfig fine;
        fine.granularityBytes = 4;
        dets.push_back(
            std::make_unique<IdealLocksetDetector>("ideal.fine", fine));
        dets.push_back(
            std::make_unique<HybridDetector>("hybrid", HardConfig{}));
        dets.push_back(std::make_unique<HappensBeforeDetector>(
            "hb", HbConfig::ideal()));
        dets.push_back(
            std::make_unique<FastTrackDetector>("fasttrack", 4));
        return dets;
    };
}

/** One identity case: a workload on the default core count (cores ==
 * 0) or on @c cores cores, fewer than its threads. */
struct IdentityCase
{
    std::string workload;
    unsigned cores = 0;
};

/** Default-core cases print as their bare workload name. */
void
PrintTo(const IdentityCase &c, std::ostream *os)
{
    *os << '"' << c.workload << '"';
    if (c.cores != 0)
        *os << " on " << c.cores << " cores";
}

std::vector<IdentityCase>
allRegisteredWorkloads()
{
    std::vector<IdentityCase> cases;
    for (unsigned cores : {0u, 2u}) {
        for (const WorkloadInfo &w : allWorkloads())
            cases.push_back({w.name, cores});
        for (const WorkloadInfo &w : extensionWorkloads())
            cases.push_back({w.name, cores});
    }
    return cases;
}

std::string
runDump(const IdentityCase &c, unsigned index, unsigned num_runs,
        std::uint64_t seed0, ExecMode mode, TraceCache *cache)
{
    const WorkloadParams wp = tinyParams();
    const SharedMap shared(buildWorkload(c.workload, wp));
    const HardConfig explain_hard{};
    SimConfig sim = defaultSimConfig();
    if (c.cores != 0)
        sim.memsys.numCores = c.cores;
    EffectivenessRun run = runEffectivenessUnit(
        c.workload, wp, sim, sixDetectors(), index, num_runs, seed0,
        shared, /*collect_stats=*/false, &explain_hard, mode, cache);
    return toJson(run).dump(2);
}

// ---------------------------------------------------------------------
// Per-unit identity: every workload, injected + race-free units,
// several seeds, explain attributions included

class FastModeIdentity : public ::testing::TestWithParam<IdentityCase>
{
};

TEST_P(FastModeIdentity, ColdAndWarmFastRunsMatchCycleExactly)
{
    const IdentityCase &param = GetParam();
    const std::string workload = param.workload;
    TraceCache cache(freshCacheDir("fast_identity_" + workload + "_" +
                                   std::to_string(param.cores)));

    constexpr unsigned kRuns = 2;
    for (std::uint64_t seed0 : {500ull, 1000ull}) {
        // index == kRuns is the race-free unit.
        for (unsigned index = 0; index <= kRuns; ++index) {
            SCOPED_TRACE(workload + " seed0=" + std::to_string(seed0) +
                         " unit " + std::to_string(index));
            const std::string cycle = runDump(param, index, kRuns, seed0,
                                              ExecMode::Cycle, nullptr);
            const std::string cold = runDump(param, index, kRuns, seed0,
                                             ExecMode::Fast, &cache);
            const std::string warm = runDump(param, index, kRuns, seed0,
                                             ExecMode::Fast, &cache);
            EXPECT_EQ(cycle, cold);
            EXPECT_EQ(cycle, warm);
        }
    }
    // Injected units were recorded once per (seed0, index) and hit on
    // their warm pass. The race-free unit's key has no injection seed,
    // so the second seed0's cold pass already hits the first's entry:
    // 2*kRuns + 1 distinct recordings, the other 2*(kRuns+1)*2 - that
    // many unit executions were hits.
    const TraceCache::Counters c = cache.counters();
    EXPECT_EQ(c.stores, 2 * kRuns + 1);
    EXPECT_EQ(c.hits, 4 * (kRuns + 1) - (2 * kRuns + 1));
    EXPECT_EQ(c.evictedCorrupt, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, FastModeIdentity,
                         ::testing::ValuesIn(allRegisteredWorkloads()),
                         [](const auto &info) {
                             std::string n = info.param.workload;
                             for (char &ch : n)
                                 if (ch == '-')
                                     ch = '_';
                             if (info.param.cores != 0)
                                 n += "_" +
                                     std::to_string(info.param.cores) +
                                     "cores";
                             return n;
                         });

// ---------------------------------------------------------------------
// Whole-batch identity: hard.batch.v2 documents byte-for-byte

std::vector<BatchItem>
batchItems(ExecMode mode, TraceCache *cache)
{
    std::vector<BatchItem> items;
    for (const char *app : {"barnes", "ocean"}) {
        BatchItem item;
        item.workload = app;
        item.wp = tinyParams();
        item.sim = defaultSimConfig();
        item.factory = sixDetectors();
        item.runs = 2;
        item.seed0 = 500;
        item.collectExplain = true;
        item.mode = mode;
        item.traceCache = cache;
        items.push_back(std::move(item));
    }
    return items;
}

TEST(FastModeBatch, BatchJsonIsByteIdenticalIncludingExplain)
{
    TraceCache cache(freshCacheDir("fast_identity_batch"));
    RunPool pool(4);

    std::vector<BatchItemResult> cycle =
        runBatch(batchItems(ExecMode::Cycle, nullptr), pool);
    std::vector<BatchItemResult> cold =
        runBatch(batchItems(ExecMode::Fast, &cache), pool);
    std::vector<BatchItemResult> warm =
        runBatch(batchItems(ExecMode::Fast, &cache), pool);

    // Content identity: serialize all three without the mode marker.
    const std::string cycleDump = batchJson(cycle).dump(2);
    EXPECT_EQ(cycleDump, batchJson(cold).dump(2));
    EXPECT_EQ(cycleDump, batchJson(warm).dump(2));

    // The fast-mode document differs from the cycle document in exactly
    // the top-level "mode" marker; cycle-mode output carries none.
    std::string fastDump = batchJson(warm, ExecMode::Fast).dump(2);
    const std::string marker = "\n  \"mode\": \"fast\",";
    const std::size_t at = fastDump.find(marker);
    ASSERT_NE(at, std::string::npos) << fastDump.substr(0, 200);
    fastDump.erase(at, marker.size());
    EXPECT_EQ(cycleDump, fastDump);
    EXPECT_EQ(cycleDump.find("\"mode\""), std::string::npos);

    EXPECT_EQ(cache.counters().hits, cache.counters().stores);
}

// ---------------------------------------------------------------------
// Guard rails

TEST(FastModeGuards, FastModeRefusesPerRunStatsCollection)
{
    TraceCache cache(freshCacheDir("fast_identity_guard"));
    const WorkloadParams wp = tinyParams();
    const SharedMap shared(buildWorkload("barnes", wp));
    EXPECT_THROW(runEffectivenessUnit("barnes", wp, defaultSimConfig(),
                                      sixDetectors(), 0, 1, 500, shared,
                                      /*collect_stats=*/true, nullptr,
                                      ExecMode::Fast, &cache),
                 ConfigError);
}

TEST(FastModeGuards, ParseExecModeRoundTripsAndRejectsTypos)
{
    EXPECT_EQ(parseExecMode("fast"), ExecMode::Fast);
    EXPECT_EQ(parseExecMode("cycle"), ExecMode::Cycle);
    EXPECT_STREQ(execModeName(ExecMode::Fast), "fast");
    EXPECT_STREQ(execModeName(ExecMode::Cycle), "cycle");
    EXPECT_THROW(parseExecMode("warp"), ConfigError);
}

} // namespace
} // namespace hard
