/**
 * @file
 * Tests for the ideal (exact, unbounded) lockset detector, plus the
 * cross-detector property that the Bloom-filter implementation can
 * only hide races relative to the exact one, never invent them.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "core/hard_detector.hh"
#include "detector_test_util.hh"
#include "detectors/ideal_lockset.hh"

namespace hard
{
namespace
{

TEST(ExactLockset, StartsAsUniverseAndIntersects)
{
    ExactLockset c;
    EXPECT_TRUE(c.isUniverse());
    EXPECT_FALSE(c.empty());
    c.intersect({0x100, 0x200});
    EXPECT_FALSE(c.isUniverse());
    EXPECT_EQ(c.locks().size(), 2u);
    c.intersect({0x200, 0x300});
    EXPECT_EQ(c.locks(), (std::set<LockAddr>{0x200}));
    c.intersect({});
    EXPECT_TRUE(c.empty());
}

TEST(ExactLockset, ResetToUniverseForgetsHistory)
{
    ExactLockset c;
    c.intersect({});
    EXPECT_TRUE(c.empty());
    c.resetToUniverse();
    EXPECT_FALSE(c.empty());
    c.intersect({0x100});
    EXPECT_EQ(c.locks().size(), 1u);
}

TEST(IdealLockset, DetectsMissingLock)
{
    WorkloadBuilder b("t", 2);
    Addr x = b.alloc("x", 8, 32);
    LockAddr l = b.allocLock("l");
    SiteId s = b.site("cs");
    SiteId s_bad = b.site("bad");
    for (int i = 0; i < 3; ++i) {
        b.lock(0, l, s);
        b.write(0, x, 8, s);
        b.unlock(0, l, s);
        b.write(1, x, 8, s_bad);
        b.compute(1, 200);
    }
    Program p = b.finish();

    IdealLocksetDetector det("ls", IdealLocksetConfig{});
    runProgram(p, {&det});
    EXPECT_GT(det.sink().distinctSiteCount(), 0u);
}

TEST(IdealLockset, CommonLockAcrossDifferentLockSetsIsEnough)
{
    // t0 holds {A, B}, t1 holds {B, C}: B is common -> no race.
    WorkloadBuilder b("t", 2);
    Addr x = b.alloc("x", 8, 32);
    LockAddr la = b.allocLock("A");
    LockAddr lb = b.allocLock("B");
    LockAddr lc = b.allocLock("C");
    SiteId s = b.site("cs");
    for (int i = 0; i < 4; ++i) {
        b.lock(0, la, s);
        b.lock(0, lb, s);
        b.write(0, x, 8, s);
        b.unlock(0, lb, s);
        b.unlock(0, la, s);
        b.lock(1, lb, s);
        b.lock(1, lc, s);
        b.write(1, x, 8, s);
        b.unlock(1, lc, s);
        b.unlock(1, lb, s);
    }
    Program p = b.finish();

    IdealLocksetDetector det("ls", IdealLocksetConfig{});
    runProgram(p, {&det});
    EXPECT_EQ(det.sink().distinctSiteCount(), 0u);
}

TEST(IdealLockset, DisjointLockSetsRace)
{
    WorkloadBuilder b("t", 2);
    Addr x = b.alloc("x", 8, 32);
    LockAddr la = b.allocLock("A");
    LockAddr lc = b.allocLock("C");
    SiteId s0 = b.site("cs.a");
    SiteId s1 = b.site("cs.c");
    for (int i = 0; i < 4; ++i) {
        b.lock(0, la, s0);
        b.write(0, x, 8, s0);
        b.unlock(0, la, s0);
        b.lock(1, lc, s1);
        b.write(1, x, 8, s1);
        b.unlock(1, lc, s1);
    }
    Program p = b.finish();

    IdealLocksetDetector det("ls", IdealLocksetConfig{});
    runProgram(p, {&det});
    EXPECT_GT(det.sink().distinctSiteCount(), 0u);
}

TEST(IdealLockset, BarrierResetForgivesPhaseChanges)
{
    // Phase 1 protects x with lock A, phase 2 (after a barrier) with
    // lock C. With the reset this is clean; without it, the phase
    // change empties the candidate set.
    auto build = [] {
        WorkloadBuilder b("t", 2);
        Addr x = b.alloc("x", 8, 32);
        LockAddr la = b.allocLock("A");
        LockAddr lc = b.allocLock("C");
        Addr bar = b.allocBarrier("bar");
        SiteId s0 = b.site("phase1");
        SiteId s1 = b.site("phase2");
        SiteId sb = b.site("bar");
        for (unsigned t = 0; t < 2; ++t) {
            b.lock(t, la, s0);
            b.write(t, x, 8, s0);
            b.unlock(t, la, s0);
        }
        b.barrierAll(bar, sb);
        for (unsigned t = 0; t < 2; ++t) {
            b.lock(t, lc, s1);
            b.write(t, x, 8, s1);
            b.unlock(t, lc, s1);
        }
        return b.finish();
    };

    IdealLocksetConfig with_reset;
    with_reset.barrierReset = true;
    IdealLocksetDetector d1("ls.reset", with_reset);
    Program p1 = build();
    runProgram(p1, {&d1});
    EXPECT_EQ(d1.sink().distinctSiteCount(), 0u);

    IdealLocksetConfig no_reset;
    no_reset.barrierReset = false;
    IdealLocksetDetector d2("ls.noreset", no_reset);
    Program p2 = build();
    runProgram(p2, {&d2});
    EXPECT_GT(d2.sink().distinctSiteCount(), 0u);
}

TEST(IdealLockset, MeasuresSetSizes)
{
    // Two nested locks around the access: the candidate set reaches
    // size 2 and the lock set reaches size 2 (paper §5.2.3 metric).
    WorkloadBuilder b("t", 2);
    Addr x = b.alloc("x", 8, 32);
    LockAddr la = b.allocLock("A");
    LockAddr lb = b.allocLock("B");
    SiteId s = b.site("cs");
    for (unsigned t = 0; t < 2; ++t) {
        b.lock(t, la, s);
        b.lock(t, lb, s);
        b.write(t, x, 8, s);
        b.unlock(t, lb, s);
        b.unlock(t, la, s);
    }
    Program p = b.finish();

    IdealLocksetDetector det("ls", IdealLocksetConfig{});
    runProgram(p, {&det});
    EXPECT_EQ(det.setSizeStats().maxLockset, 2u);
    EXPECT_EQ(det.setSizeStats().maxCandidate, 2u);
    EXPECT_GT(det.setSizeStats().candidateHist[2], 0u);
    EXPECT_EQ(det.sink().distinctSiteCount(), 0u);
}

TEST(IdealLockset, TracksThreadLocksets)
{
    WorkloadBuilder b("t", 1);
    LockAddr la = b.allocLock("A");
    LockAddr lb = b.allocLock("B");
    SiteId s = b.site("s");
    Addr x = b.alloc("x", 8);
    b.lock(0, la, s);
    b.lock(0, lb, s);
    b.write(0, x, 8, s);
    b.unlock(0, lb, s);
    b.unlock(0, la, s);
    Program p = b.finish();

    IdealLocksetDetector det("ls", IdealLocksetConfig{});
    runProgram(p, {&det});
    EXPECT_TRUE(det.lockset(0).empty());
}

/*
 * Barrier reset on hand-built traces. These pin what the §3.5
 * flash-reset does to a granule, whether the reset is applied to the
 * whole shadow at the barrier or to each granule at its next touch.
 */

constexpr Addr kX = 0x1000;
constexpr LockAddr kL = 0x8000;

TEST(IdealLocksetBarrier, ExclusiveOwnerIsForgottenAtTheBarrier)
{
    // T0 owns x (Exclusive) before the barrier; T1 touches it first
    // after it. The barrier makes x Virgin, so T1 becomes its owner
    // instead of starting a sharing phase with an empty candidate set.
    IdealLocksetDetector det("ls", IdealLocksetConfig{});
    HandTrace tr(det);
    tr.write(0, kX, 1);
    tr.write(0, kX, 1);
    tr.barrier(2);
    tr.write(1, kX, 2);
    tr.read(1, kX, 2);
    EXPECT_EQ(det.sink().dynamicCount(), 0u);
    EXPECT_EQ(det.setSizeStats().candidateHist[0], 0u);

    IdealLocksetConfig no_reset;
    no_reset.barrierReset = false;
    IdealLocksetDetector kept("ls.noreset", no_reset);
    HandTrace tr2(kept);
    tr2.write(0, kX, 1);
    tr2.barrier(2);
    tr2.write(1, kX, 2);
    EXPECT_TRUE(reportedAt(kept.sink(), 2));
}

TEST(IdealLocksetBarrier, EmptyCandidateStartsFromUniverseAfterBarrier)
{
    IdealLocksetDetector det("ls", IdealLocksetConfig{});
    HandTrace tr(det);
    tr.write(0, kX, 1);
    tr.write(1, kX, 2); // unlocked sharing: the candidate set is ∅
    EXPECT_EQ(det.sink().dynamicCount(), 1u);
    EXPECT_EQ(det.setSizeStats().candidateHist[0], 1u);

    tr.barrier(2);
    for (ThreadId t : {0u, 1u}) {
        tr.lock(t, kL);
        tr.write(t, kX, 3);
        tr.unlock(t, kL);
    }
    // universe ∩ {L} = {L}: protected, silent.
    EXPECT_EQ(det.sink().dynamicCount(), 1u);
    EXPECT_EQ(det.setSizeStats().candidateHist[1], 1u);
    EXPECT_EQ(det.setSizeStats().maxCandidate, 1u);
    EXPECT_FALSE(reportedAt(det.sink(), 3));
}

TEST(IdealLocksetBarrier, TwoBarriersWithNoAccessBetween)
{
    IdealLocksetDetector det("ls", IdealLocksetConfig{});
    HandTrace tr(det);
    tr.write(0, kX, 1);
    tr.write(1, kX, 2);
    tr.write(0, kX + 4, 1);
    tr.barrier(2);
    tr.barrier(2);
    // Both granules come back Virgin with a universe candidate set.
    tr.write(1, kX, 3);
    tr.write(1, kX + 4, 3);
    for (ThreadId t : {0u, 1u}) {
        tr.lock(t, kL);
        tr.write(t, kX, 4);
        tr.write(t, kX + 4, 4);
        tr.unlock(t, kL);
    }
    EXPECT_EQ(det.sink().dynamicCount(), 1u);
    EXPECT_EQ(det.setSizeStats().candidateHist[1], 4u);

    // A third barrier still resets a granule last reset two ago.
    tr.barrier(2);
    tr.write(0, kX, 5);
    tr.write(1, kX, 5);
    EXPECT_TRUE(reportedAt(det.sink(), 5));
    EXPECT_EQ(det.sink().dynamicCount(), 2u);
}

/**
 * Property (paper §3.2): the Bloom-filter candidate sets of HARD are
 * a superset approximation of the exact sets, so on the same trace an
 * unbounded, same-granularity HARD never reports a race the ideal
 * lockset does not (it can only *miss* some).
 */
class BloomSoundness : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(BloomSoundness, HardReportsAreSubsetOfIdealReports)
{
    Rng rng(GetParam());
    WorkloadBuilder b("t", 4);
    constexpr unsigned kVars = 16;
    constexpr unsigned kLocks = 6;
    Addr vars = b.alloc("vars", kVars * 32, 32);
    std::vector<LockAddr> locks;
    for (unsigned i = 0; i < kLocks; ++i)
        locks.push_back(b.allocLock(std::string("L").append(
            std::to_string(i))));
    SiteId site = b.site("rw");
    SiteId slk = b.site("lk");

    // Random lock-protected and occasionally unprotected accesses.
    for (unsigned t = 0; t < 4; ++t) {
        for (int i = 0; i < 200; ++i) {
            Addr v = vars + rng.below(kVars) * 32;
            bool use_lock = rng.chance(0.8);
            LockAddr l = locks[rng.below(kLocks)];
            if (use_lock)
                b.lock(t, l, slk);
            if (rng.chance(0.5))
                b.read(t, v, 8, site);
            else
                b.write(t, v, 8, site);
            if (use_lock)
                b.unlock(t, l, slk);
        }
    }
    Program p = b.finish();

    HardConfig hc;
    hc.granularityBytes = 4;
    hc.unbounded = true;
    HardDetector hd("hard", hc);
    IdealLocksetDetector ls("ideal", IdealLocksetConfig{});
    runProgram(p, {&hd, &ls});

    // Every granule HARD flags must also be flagged by the exact
    // implementation (Bloom intersection over-approximates).
    for (const RaceReport &r : hd.sink().reports()) {
        EXPECT_TRUE(ls.sink().overlaps(r.addr, r.size))
            << "HARD invented a race at " << std::hex << r.addr;
    }
    EXPECT_LE(hd.sink().reports().size(), ls.sink().reports().size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BloomSoundness,
                         ::testing::Values(1u, 7u, 23u, 55u, 90u));

TEST(ReportSink, DeduplicatesBySiteAndGranule)
{
    ReportSink sink;
    sink.report({0, 0x100, 32, 5, true, 10});
    sink.report({1, 0x100, 32, 5, true, 20}); // same site+granule
    sink.report({0, 0x200, 32, 5, true, 30}); // same site, new granule
    sink.report({0, 0x100, 32, 6, true, 40}); // new site
    EXPECT_EQ(sink.reports().size(), 3u);
    EXPECT_EQ(sink.distinctSiteCount(), 2u);
    EXPECT_EQ(sink.dynamicCount(), 4u);
    EXPECT_TRUE(sink.overlaps(0x110, 4));
    EXPECT_FALSE(sink.overlaps(0x300, 4));
    sink.clear();
    EXPECT_EQ(sink.dynamicCount(), 0u);
    EXPECT_EQ(sink.reports().size(), 0u);
}

} // namespace
} // namespace hard
