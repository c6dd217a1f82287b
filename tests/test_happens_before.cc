/**
 * @file
 * Behavioural tests for the happens-before baseline, including the
 * paper's Figure 1 scenario (interleaving sensitivity) and the
 * synchronization edges (locks, barriers, semaphores).
 */

#include <gtest/gtest.h>

#include "core/hard_detector.hh"
#include "detector_test_util.hh"
#include "detectors/happens_before.hh"
#include "detectors/ideal_lockset.hh"

namespace hard
{
namespace
{

TEST(HappensBefore, DetectsManifestUnorderedRace)
{
    WorkloadBuilder b("t", 2);
    Addr x = b.alloc("x", 8, 32);
    SiteId s0 = b.site("w0");
    SiteId s1 = b.site("w1");
    // Two unsynchronized writers, interleaved in time.
    for (int i = 0; i < 5; ++i) {
        b.write(0, x, 8, s0);
        b.compute(0, 100);
        b.write(1, x, 8, s1);
        b.compute(1, 100);
    }
    Program p = b.finish();

    HappensBeforeDetector det("hb", HbConfig::ideal());
    runProgram(p, {&det});
    EXPECT_GT(det.sink().distinctSiteCount(), 0u);
}

TEST(HappensBefore, LockOrderingSuppressesReports)
{
    WorkloadBuilder b("t", 2);
    Addr x = b.alloc("x", 8, 32);
    LockAddr l = b.allocLock("l");
    SiteId s = b.site("cs");
    for (int i = 0; i < 10; ++i) {
        for (unsigned t = 0; t < 2; ++t) {
            b.lock(t, l, s);
            b.read(t, x, 8, s);
            b.write(t, x, 8, s);
            b.unlock(t, l, s);
        }
    }
    Program p = b.finish();

    HappensBeforeDetector det("hb", HbConfig::ideal());
    runProgram(p, {&det});
    EXPECT_EQ(det.sink().distinctSiteCount(), 0u);
}

TEST(HappensBefore, Figure1InterleavingHidesRaceFromHbButNotLockset)
{
    // Paper Figure 1: thread 1 writes x unprotected, then both
    // threads use lock L for y. In the monitored interleaving thread
    // 2's x access comes temporally after thread 1's lock release, so
    // happens-before orders the two x accesses through L and misses
    // the race; lockset is interleaving-insensitive and catches it.
    WorkloadBuilder b("t", 2);
    Addr x = b.alloc("x", 8, 32);
    Addr y = b.alloc("y", 8, 32);
    LockAddr l = b.allocLock("L");
    SiteId sx1 = b.site("t1.x.write");
    SiteId sy = b.site("y.cs");
    SiteId sx2 = b.site("t2.x.write");

    // Thread 1: x = 1; lock(L); y++; unlock(L);
    b.write(0, x, 8, sx1);
    b.lock(0, l, sy);
    b.read(0, y, 8, sy);
    b.write(0, y, 8, sy);
    b.unlock(0, l, sy);

    // Thread 2 (runs later): lock(L); y++; unlock(L); x = 2;
    b.compute(1, 5000);
    b.lock(1, l, sy);
    b.read(1, y, 8, sy);
    b.write(1, y, 8, sy);
    b.unlock(1, l, sy);
    b.write(1, x, 8, sx2);
    Program p = b.finish();

    HappensBeforeDetector hb("hb", HbConfig::ideal());
    IdealLocksetDetector ls("lockset", IdealLocksetConfig{});
    HardDetector hd("hard", HardConfig{});
    runProgram(p, {&hb, &ls, &hd});

    // Happens-before: ordered through L's release->acquire, silent.
    EXPECT_EQ(hb.sink().distinctSiteCount(), 0u);
    // Lockset (ideal and HARD): x has no consistent lock -> caught.
    EXPECT_TRUE(reportedAt(ls.sink(), sx2));
    EXPECT_GT(hd.sink().distinctSiteCount(), 0u);
}

TEST(HappensBefore, BarrierCreatesOrder)
{
    WorkloadBuilder b("t", 2);
    Addr x = b.alloc("x", 8, 32);
    Addr bar = b.allocBarrier("bar");
    SiteId s0 = b.site("pre");
    SiteId s1 = b.site("post");
    SiteId sb = b.site("bar");
    b.write(0, x, 8, s0);
    b.barrierAll(bar, sb);
    b.write(1, x, 8, s1);
    Program p = b.finish();

    HappensBeforeDetector det("hb", HbConfig::ideal());
    runProgram(p, {&det});
    EXPECT_EQ(det.sink().distinctSiteCount(), 0u);
}

TEST(HappensBefore, SemaphoreCreatesOrderButLocksetCannotSeeIt)
{
    // Hand-crafted synchronization (§5.1): a producer/consumer pair
    // ordered by a semaphore. Happens-before is silent; the lockset
    // algorithm false-alarms because no common lock protects the data.
    WorkloadBuilder b("t", 2);
    Addr x = b.alloc("x", 8, 32);
    Addr sema = b.allocSema("sema");
    SiteId sw = b.site("producer.write");
    SiteId sr = b.site("consumer.rw");
    SiteId sp = b.site("post");
    SiteId swt = b.site("wait");

    b.write(0, x, 8, sw);
    b.semaPost(0, sema, sp);
    b.semaWait(1, sema, swt);
    b.read(1, x, 8, sr);
    b.write(1, x, 8, sr);
    Program p = b.finish();

    HappensBeforeDetector hb("hb", HbConfig::ideal());
    IdealLocksetDetector ls("lockset", IdealLocksetConfig{});
    runProgram(p, {&hb, &ls});
    EXPECT_EQ(hb.sink().distinctSiteCount(), 0u);
    EXPECT_GT(ls.sink().distinctSiteCount(), 0u);
}

TEST(HappensBefore, WithoutSemaphoreEdgeTheSamePatternRaces)
{
    // Sanity check for the test above: remove the semaphore and the
    // pattern is a real race that happens-before reports.
    WorkloadBuilder b("t", 2);
    Addr x = b.alloc("x", 8, 32);
    SiteId sw = b.site("producer.write");
    SiteId sr = b.site("consumer.rw");
    b.write(0, x, 8, sw);
    b.compute(1, 3000);
    b.read(1, x, 8, sr);
    b.write(1, x, 8, sr);
    Program p = b.finish();

    HappensBeforeDetector det("hb", HbConfig::ideal());
    runProgram(p, {&det});
    EXPECT_GT(det.sink().distinctSiteCount(), 0u);
}

TEST(HappensBefore, ReadSharingDoesNotRace)
{
    WorkloadBuilder b("t", 4);
    Addr x = b.alloc("x", 8, 32);
    Addr bar = b.allocBarrier("bar");
    SiteId si = b.site("init");
    SiteId sr = b.site("readers");
    SiteId sb = b.site("bar");
    b.write(0, x, 8, si);
    b.barrierAll(bar, sb);
    for (unsigned t = 0; t < 4; ++t)
        for (int i = 0; i < 5; ++i)
            b.read(t, x, 8, sr);
    Program p = b.finish();

    HappensBeforeDetector det("hb", HbConfig::ideal());
    runProgram(p, {&det});
    EXPECT_EQ(det.sink().distinctSiteCount(), 0u);
}

TEST(HappensBefore, LineGranularityFalselySharesLikeTable3)
{
    // Per-thread counters in one line, no locks: clean at 4B,
    // reported at 32B (timestamp conflation).
    auto build = [] {
        WorkloadBuilder b("t", 2);
        Addr pair = b.alloc("pair", 8, 32);
        SiteId s0 = b.site("t0.own");
        SiteId s1 = b.site("t1.own");
        for (int i = 0; i < 6; ++i) {
            b.write(0, pair, 4, s0);
            b.compute(0, 50);
            b.write(1, pair + 4, 4, s1);
            b.compute(1, 50);
        }
        return b.finish();
    };
    HbConfig coarse;
    coarse.granularityBytes = 32;
    HbConfig fine = HbConfig::ideal();
    HappensBeforeDetector dc("hb32", coarse), df("hb4", fine);
    Program p = build();
    runProgram(p, {&dc, &df});
    EXPECT_GT(dc.sink().distinctSiteCount(), 0u);
    EXPECT_EQ(df.sink().distinctSiteCount(), 0u);
}

TEST(HappensBefore, StorageDisplacementLosesHistory)
{
    // The default (cache-limited) variant loses its timestamps when
    // the line is displaced, missing a manifest race the ideal
    // variant reports.
    auto build = [] {
        WorkloadBuilder b("t", 2);
        Addr x = b.alloc("x", 8, 32);
        Addr spill = b.alloc("spill", 64 * 1024, 32);
        SiteId s0 = b.site("t0.write");
        SiteId s1 = b.site("t1.write");
        SiteId ss = b.site("spill");
        b.write(0, x, 8, s0);
        for (Addr a = spill; a < spill + 64 * 1024; a += 32)
            b.read(0, a, 8, ss);
        b.compute(1, 3'000'000);
        b.write(1, x, 8, s1); // races with t0's write
        return b.finish();
    };
    HbConfig small;
    small.granularityBytes = 32;
    small.metaGeometry = CacheConfig{4 * 1024, 8, 32, 0};
    HappensBeforeDetector limited("hb.small", small);
    HappensBeforeDetector ideal("hb.ideal", HbConfig::ideal());
    Program p = build();
    runProgram(p, {&limited, &ideal});
    EXPECT_EQ(limited.sink().distinctSiteCount(), 0u);
    EXPECT_GT(ideal.sink().distinctSiteCount(), 0u);
}

/** A 2-set, 2-way timestamp store: three lines of one set displace. */
HbConfig
tinyBoundedHb()
{
    HbConfig cfg;
    cfg.metaGeometry = CacheConfig{128, 2, 32, 0};
    return cfg;
}

TEST(HappensBefore, DisplacementForgetsAnInflatedReadVector)
{
    // Threads 0 and 1 read x concurrently, which inflates its read
    // epoch to a read vector. Once x's line is displaced, a write by
    // thread 2 that is ordered with neither read races only in the
    // unbounded store.
    const Addr x = 0x1000;
    const SiteId sw = 7;
    HappensBeforeDetector bounded("hb", tinyBoundedHb());
    HappensBeforeDetector ideal("hb.ideal", HbConfig::ideal());
    for (HappensBeforeDetector *det : {&bounded, &ideal}) {
        HandTrace t(*det);
        t.read(0, x);
        t.read(1, x);
        EXPECT_EQ(det->inflations(), 1u) << det->name();
        t.read(0, 0x2000); // same set as x
        t.read(0, 0x3000); // displaces x's line
        t.write(2, x, sw);
    }
    EXPECT_GT(bounded.metadataEvictions(), 0u);
    EXPECT_FALSE(reportedAt(bounded.sink(), sw));
    EXPECT_TRUE(reportedAt(ideal.sink(), sw));
}

TEST(HappensBefore, BarrierKeepsAnInflatedReadVector)
{
    // The barrier orders the concurrent reads; it does not reset the
    // granule. A later read by thread 0 updates the read vector (slow
    // path) instead of starting a fresh epoch.
    HappensBeforeDetector det("hb", tinyBoundedHb());
    HandTrace t(det);
    t.read(0, 0x1000);
    t.read(1, 0x1000);
    ASSERT_EQ(det.inflations(), 1u);
    const std::uint64_t fast = det.fastPathReads();
    t.barrier(3);
    t.read(0, 0x1000);
    EXPECT_EQ(det.fastPathReads(), fast);
    EXPECT_EQ(det.inflations(), 1u);
    t.write(0, 0x1000); // ordered after thread 1's pre-barrier read
    EXPECT_EQ(det.metadataEvictions(), 0u);
    EXPECT_TRUE(det.sink().reports().empty());
}

TEST(HappensBefore, WriteAfterReadByOtherThreadRaces)
{
    WorkloadBuilder b("t", 2);
    Addr x = b.alloc("x", 8, 32);
    SiteId sr = b.site("reader");
    SiteId sw = b.site("writer");
    b.read(0, x, 8, sr);
    b.compute(1, 2000);
    b.write(1, x, 8, sw); // unordered write-after-read
    Program p = b.finish();

    HappensBeforeDetector det("hb", HbConfig::ideal());
    runProgram(p, {&det});
    EXPECT_TRUE(reportedAt(det.sink(), sw));
}

TEST(HappensBefore, ReportsNameTheRacingPartner)
{
    WorkloadBuilder b("t", 3);
    Addr x = b.alloc("x", 8, 32);
    SiteId s0 = b.site("t0.write");
    SiteId s2 = b.site("t2.write");
    b.write(0, x, 8, s0);
    b.compute(2, 3000);
    b.write(2, x, 8, s2); // races with thread 0's write
    Program p = b.finish();

    HappensBeforeDetector det("hb", HbConfig::ideal());
    runProgram(p, {&det});
    ASSERT_FALSE(det.sink().reports().empty());
    const RaceReport &r = det.sink().reports().front();
    EXPECT_EQ(r.tid, 2u);
    EXPECT_EQ(r.other, 0u) << "the prior unordered writer is named";
}

} // namespace
} // namespace hard
