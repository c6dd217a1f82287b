/**
 * @file
 * Tests for the workload-authoring helpers (scaled sizing, unpadded
 * statistics blocks, init/warm region emitters) and assorted config
 * death tests on the detector constructors.
 */

#include <gtest/gtest.h>

#include "core/hard_detector.hh"
#include "core/hybrid.hh"
#include "detector_test_util.hh"
#include "detectors/fasttrack.hh"
#include "detectors/happens_before.hh"
#include "workloads/wl_util.hh"

namespace hard
{
namespace
{

TEST(WlUtil, ScaledClampsAtFloor)
{
    WorkloadParams p;
    p.scale = 0.001;
    EXPECT_EQ(scaled(4096, p, 64), 64u);
    p.scale = 1.0;
    EXPECT_EQ(scaled(4096, p, 64), 4096u);
    p.scale = 2.0;
    EXPECT_EQ(scaled(4096, p, 64), 8192u);
}

TEST(WlUtil, UnpaddedStatsFalselySharesAtLineGranularity)
{
    // The whole point of the helper: per-thread counters land in the
    // same 32-byte line.
    WorkloadBuilder b("t", 4);
    UnpaddedStats stats(b, "s", 2);
    for (unsigned t = 0; t < 4; ++t)
        for (int i = 0; i < 4; ++i)
            stats.bump(b, t, i % 2);
    Program p = b.finish();

    HardConfig coarse;
    HardDetector det32("hard32", coarse);
    HardConfig fine;
    fine.granularityBytes = 4;
    HardDetector det4("hard4", fine);
    runProgram(p, {&det32, &det4});
    EXPECT_GT(det32.sink().distinctSiteCount(), 0u);
    EXPECT_EQ(det4.sink().distinctSiteCount(), 0u);
}

TEST(WlUtil, InitRegionCoversEveryGranule)
{
    WorkloadBuilder b("t", 2);
    Addr base = b.alloc("r", 256, 32);
    SiteId s = b.site("init");
    initRegion(b, base, 256, 8, s);
    Program p = b.finish();
    // 256 / 8 = 32 writes, all by thread 0.
    EXPECT_EQ(p.threads[0].ops.size(), 32u);
    EXPECT_TRUE(p.threads[1].ops.empty());
    std::set<Addr> covered;
    for (const Op &op : p.threads[0].ops) {
        EXPECT_EQ(op.type, OpType::Write);
        covered.insert(op.addr);
    }
    EXPECT_EQ(covered.size(), 32u);
}

TEST(WlUtil, WarmRegionPartitionsAcrossWorkers)
{
    WorkloadBuilder b("t", 4);
    Addr base = b.alloc("r", 240, 32);
    SiteId s = b.site("warm");
    warmRegion(b, base, 240, 8, s);
    Program p = b.finish();
    // Thread 0 (the master) never participates in the sweep.
    EXPECT_TRUE(p.threads[0].ops.empty());
    std::size_t total = 0;
    for (unsigned t = 1; t < 4; ++t) {
        for (const Op &op : p.threads[t].ops)
            EXPECT_EQ(op.type, OpType::Read);
        total += p.threads[t].ops.size();
    }
    EXPECT_EQ(total, 240u / 8);
}

TEST(WlUtil, WarmRegionIsNoOpSingleThreaded)
{
    WorkloadBuilder b("t", 1);
    Addr base = b.alloc("r", 64, 32);
    warmRegion(b, base, 64, 8, b.site("warm"));
    Program p = b.finish();
    EXPECT_EQ(p.totalOps(), 0u);
}

TEST(DetectorConfigDeath, BadGranularitiesAreFatal)
{
    HardConfig bad;
    bad.granularityBytes = 3;
    EXPECT_EXIT(HardDetector("h", bad), ::testing::ExitedWithCode(1),
                "granularity");
    HardConfig toofine;
    toofine.granularityBytes = 2; // > 8 granules per 32B line
    EXPECT_EXIT(HardDetector("h", toofine),
                ::testing::ExitedWithCode(1), "granules");
    EXPECT_EXIT(HybridDetector("h", bad), ::testing::ExitedWithCode(1),
                "granularity");
    EXPECT_EXIT(FastTrackDetector("f", 3), ::testing::ExitedWithCode(1),
                "granularity");
    HbConfig hb_bad;
    hb_bad.granularityBytes = 24;
    EXPECT_EXIT(HappensBeforeDetector("hb", hb_bad),
                ::testing::ExitedWithCode(1), "granularity");
}

TEST(DetectorAccessDeath, AccessCrossingAMetadataLinePanics)
{
    // A trace read from disk can carry any access; one that leaves its
    // 32-byte line would index past the line's granules.
    Event ev;
    ev.tid = 0;
    ev.core = 0;
    ev.addr = 0x101c;
    ev.size = 8;
    HardConfig fine;
    fine.granularityBytes = 4;
    HbConfig hb;
    hb.granularityBytes = 4;
    EXPECT_DEATH(HardDetector("h", fine).onWrite(ev), "metadata line");
    EXPECT_DEATH(HybridDetector("h", fine).onRead(ev), "metadata line");
    EXPECT_DEATH(HappensBeforeDetector("hb", hb).onWrite(ev),
                 "metadata line");
    EXPECT_DEATH(HappensBeforeDetector("hb", HbConfig::ideal()).onRead(ev),
                 "metadata line");
}

TEST(DetectorConfigDeath, BadCounterWidthIsFatal)
{
    HardConfig bad;
    bad.counterBits = 0;
    EXPECT_EXIT(HardDetector("h", bad), ::testing::ExitedWithCode(1),
                "counter width");
}

/** The hybrid models none of HARD's hardware beyond its Bloom sets, so
 * each hardware-only field fails at construction instead of being
 * dropped. */
TEST(DetectorConfigDeath, HybridRejectsCoupledMetadata)
{
    HardConfig cfg;
    cfg.coupleToCaches = true;
    EXPECT_EXIT(HybridDetector("h", cfg), ::testing::ExitedWithCode(1),
                "hybrid: coupleToCaches");
}

TEST(DetectorConfigDeath, HybridRejectsPerCoreRegisters)
{
    HardConfig cfg;
    cfg.perCoreRegisters = true;
    EXPECT_EXIT(HybridDetector("h", cfg), ::testing::ExitedWithCode(1),
                "hybrid: perCoreRegisters");
}

TEST(DetectorConfigDeath, HybridRejectsDisabledSaveRestore)
{
    HardConfig cfg;
    cfg.saveRestoreOnSwitch = false;
    EXPECT_EXIT(HybridDetector("h", cfg), ::testing::ExitedWithCode(1),
                "hybrid: saveRestoreOnSwitch");
}

} // namespace
} // namespace hard
