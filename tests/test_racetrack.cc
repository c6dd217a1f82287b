/**
 * @file
 * Tests for the RaceTrack-style adaptive lockset/happens-before
 * hybrid: unprotected sharing is reported, synchronized hand-offs are
 * suppressed (the adaptive part), reader-mode rwlock holds protect
 * reads but not writes, and the detector stays a subset of the ideal
 * lockset detector on the same run.
 */

#include <gtest/gtest.h>

#include "detector_test_util.hh"
#include "detectors/ideal_lockset.hh"
#include "detectors/racetrack.hh"
#include "workloads/builder.hh"

namespace hard
{
namespace
{

RaceTrackConfig
rtCfg()
{
    RaceTrackConfig cfg;
    cfg.granularityBytes = 4;
    return cfg;
}

TEST(RaceTrack, DetectsUnprotectedWriteWrite)
{
    WorkloadBuilder b("t", 2);
    Addr x = b.alloc("x", 8, 32);
    SiteId s0 = b.site("w0");
    SiteId s1 = b.site("w1");
    b.write(0, x, 8, s0);
    b.compute(1, 2000);
    b.write(1, x, 8, s1);
    Program p = b.finish();

    RaceTrackDetector det("rt", rtCfg());
    runProgram(p, {&det});
    EXPECT_TRUE(reportedAt(det.sink(), s1));
    EXPECT_EQ(det.suppressed(), 0u);
}

TEST(RaceTrack, SemaphoreHandOffSuppressesLocksetAlarm)
{
    // Plain Eraser flags the unlocked shared write in t1; RaceTrack's
    // full happens-before relation sees the semaphore edge ordering
    // it after t0's write and suppresses the alarm.
    WorkloadBuilder b("t", 2);
    Addr x = b.alloc("x", 8, 32);
    Addr sema = b.allocSema("s");
    SiteId s0 = b.site("w0");
    SiteId s1 = b.site("w1");
    b.write(0, x, 8, s0);
    b.semaPost(0, sema, s0);
    b.semaWait(1, sema, s1);
    b.write(1, x, 8, s1);
    Program p = b.finish();

    RaceTrackDetector rt("rt", rtCfg());
    IdealLocksetConfig ic;
    ic.granularityBytes = 4;
    IdealLocksetDetector ideal("ideal", ic);
    runProgram(p, {&rt, &ideal});

    EXPECT_EQ(rt.sink().distinctSiteCount(), 0u);
    EXPECT_GE(rt.suppressed(), 1u);
    // The pure lockset detector still alarms: racetrack ⊂ ideal.
    EXPECT_TRUE(reportedAt(ideal.sink(), s1));
}

TEST(RaceTrack, LockReleaseAcquireEdgeIsHonored)
{
    // Unlike HARD's hybrid (whose prune clock deliberately excludes
    // lock edges), RaceTrack's full happens-before relation includes
    // release->acquire edges. Disciplined sections stay silent: the
    // candidate set never empties and the sections are HB-ordered.
    WorkloadBuilder b("t", 2);
    Addr x = b.alloc("x", 8, 32);
    LockAddr l = b.allocLock("l");
    SiteId s = b.site("cs");
    for (int i = 0; i < 4; ++i) {
        for (unsigned t = 0; t < 2; ++t) {
            b.lock(t, l, s);
            b.write(t, x, 8, s);
            b.unlock(t, l, s);
        }
    }
    Program p = b.finish();

    RaceTrackDetector det("rt", rtCfg());
    runProgram(p, {&det});
    EXPECT_EQ(det.sink().distinctSiteCount(), 0u);
}

TEST(RaceTrack, CondvarHandOffSuppressesLocksetAlarm)
{
    WorkloadBuilder b("t", 2);
    Addr x = b.alloc("x", 8, 32);
    Addr cv = b.allocCond("cv");
    SiteId s0 = b.site("w0");
    SiteId s1 = b.site("w1");
    b.write(0, x, 8, s0);
    b.condBroadcast(0, cv, s0);
    b.condWait(1, cv, s1);
    b.write(1, x, 8, s1);
    Program p = b.finish();

    RaceTrackDetector det("rt", rtCfg());
    runProgram(p, {&det});
    EXPECT_EQ(det.sink().distinctSiteCount(), 0u);
    EXPECT_GE(det.suppressed(), 1u);
}

TEST(RaceTrack, ReaderHoldProtectsReadsButNotWrites)
{
    // Two threads hold the same rwlock in reader mode concurrently.
    // Concurrent READS under the shared hold are fine; a WRITE under
    // only a read hold (the injector's downgrade bug) has an empty
    // effective write set, no HB ordering against the other reader,
    // and must be reported.
    WorkloadBuilder b("t", 3);
    Addr x = b.alloc("x", 8, 32);
    LockAddr rw = b.allocRwLock("rw");
    SiteId sr = b.site("reader");
    SiteId sw = b.site("downgraded-writer");
    // t0 seeds the granule so it leaves Virgin/Exclusive state.
    b.read(0, x, 8, sr);
    b.compute(1, 1000);
    b.rdlock(1, rw, sr);
    b.read(1, x, 8, sr);
    b.compute(1, 4000); // keep the read hold while t2 writes
    b.rdunlock(1, rw, sr);
    b.compute(2, 2000);
    b.rdlock(2, rw, sw);
    b.write(2, x, 8, sw);
    b.rdunlock(2, rw, sw);
    Program p = b.finish();

    RaceTrackDetector det("rt", rtCfg());
    runProgram(p, {&det});
    EXPECT_TRUE(reportedAt(det.sink(), sw));
}

TEST(RaceTrack, WriterModeSectionsAreSilent)
{
    // Proper writer-mode discipline: candidate sets stay nonempty and
    // writer release -> next acquire edges order the sections.
    WorkloadBuilder b("t", 2);
    Addr x = b.alloc("x", 8, 32);
    LockAddr rw = b.allocRwLock("rw");
    SiteId s = b.site("wr");
    for (int i = 0; i < 4; ++i) {
        for (unsigned t = 0; t < 2; ++t) {
            b.wrlock(t, rw, s);
            b.write(t, x, 8, s);
            b.read(t, x, 8, s);
            b.wrunlock(t, rw, s);
        }
    }
    Program p = b.finish();

    RaceTrackDetector det("rt", rtCfg());
    runProgram(p, {&det});
    EXPECT_EQ(det.sink().distinctSiteCount(), 0u);
}

TEST(RaceTrack, TracksHeldSetsByMode)
{
    WorkloadBuilder b("t", 2);
    Addr x = b.alloc("x", 8, 32);
    LockAddr rw = b.allocRwLock("rw");
    LockAddr l = b.allocLock("l");
    SiteId s = b.site("s");
    b.lock(0, l, s);
    b.rdlock(0, rw, s);
    b.read(0, x, 8, s);
    b.rdunlock(0, rw, s);
    b.unlock(0, l, s);
    b.compute(1, 100);
    b.read(1, x, 8, s);
    Program p = b.finish();

    RaceTrackDetector det("rt", rtCfg());
    runProgram(p, {&det});
    // After the run both hold sets are empty again.
    EXPECT_TRUE(det.lockset(0).empty());
    EXPECT_TRUE(det.readLockset(0).empty());
}

/*
 * Barrier reset on hand-built traces: the lockset side of a granule is
 * flash-reset at a barrier (§3.5) while its access clocks survive.
 * These pin the counts of the reset applied to the whole shadow at the
 * barrier, so a reset applied per granule at its next touch must
 * reproduce them.
 */

constexpr Addr kX = 0x1000;
constexpr LockAddr kL = 0x8000;
constexpr Addr kSema = 0x9000;

TEST(RaceTrackBarrier, ExclusiveOwnerIsForgottenAtTheBarrier)
{
    RaceTrackDetector det("rt", rtCfg());
    HandTrace tr(det);
    tr.write(0, kX, 1);
    tr.barrier(2);
    tr.write(1, kX, 2);
    tr.read(1, kX, 2);
    EXPECT_EQ(det.sink().dynamicCount(), 0u);
    EXPECT_EQ(det.suppressed(), 0u);
}

TEST(RaceTrackBarrier, EmptyCandidateStartsFromUniverseAfterBarrier)
{
    RaceTrackDetector det("rt", rtCfg());
    HandTrace tr(det);
    tr.write(0, kX, 1);
    tr.write(1, kX, 2); // unordered, unlocked: reported
    EXPECT_EQ(det.sink().dynamicCount(), 1u);

    tr.barrier(2);
    // Protected by L: universe ∩ {L} = {L}, no alarm.
    tr.lock(0, kL);
    tr.write(0, kX, 3);
    tr.unlock(0, kL);
    tr.lock(1, kL);
    tr.write(1, kX, 3);
    tr.unlock(1, kL);
    EXPECT_EQ(det.sink().dynamicCount(), 1u);
    EXPECT_EQ(det.suppressed(), 0u);
}

TEST(RaceTrackBarrier, TwoBarriersWithNoAccessBetween)
{
    RaceTrackDetector det("rt", rtCfg());
    HandTrace tr(det);
    tr.write(0, kX, 1);
    tr.write(1, kX, 2);
    tr.barrier(2);
    tr.barrier(2);
    tr.write(1, kX, 3); // first toucher after the barriers: owner
    tr.write(1, kX, 3);
    EXPECT_EQ(det.sink().dynamicCount(), 1u);
    tr.write(0, kX, 4); // unordered after T1's write: reported
    EXPECT_TRUE(reportedAt(det.sink(), 4));
    EXPECT_EQ(det.sink().dynamicCount(), 2u);
    EXPECT_EQ(det.suppressed(), 0u);
}

TEST(RaceTrackBarrier, AccessClocksSurviveTheBarrier)
{
    // T2's pre-barrier write stays in the granule's access clocks
    // across the reset. The barrier orders it before every later
    // access, so it neither raises nor blocks an alarm: T1's write
    // after a semaphore hand-off from T0 is suppressed, T2's
    // unordered write after it is reported against T0.
    RaceTrackDetector det("rt", rtCfg());
    HandTrace tr(det);
    tr.write(2, kX, 1);
    tr.write(0, kX, 2); // unordered after T2: reported
    EXPECT_EQ(det.sink().dynamicCount(), 1u);

    tr.barrier(3);
    tr.write(0, kX, 3);
    tr.post(0, kSema);
    tr.wait(1, kSema);
    tr.write(1, kX, 4); // ∅, but ordered after T0 and T2: suppressed
    EXPECT_EQ(det.suppressed(), 1u);
    EXPECT_FALSE(reportedAt(det.sink(), 4));
    tr.write(2, kX, 5); // unordered after T0's and T1's writes
    EXPECT_TRUE(reportedAt(det.sink(), 5));
    EXPECT_EQ(det.sink().reports().back().other, 0u);
    EXPECT_EQ(det.sink().dynamicCount(), 2u);
    EXPECT_EQ(det.suppressed(), 1u);
}

} // namespace
} // namespace hard
