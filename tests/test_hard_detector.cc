/**
 * @file
 * Behavioural tests for the HARD detector (paper §3): detection of
 * missing-lock races, the LState pruning of initialization patterns,
 * barrier flash-reset (Figure 7), metadata displacement (§3.6),
 * granularity-induced false sharing (Table 3), broadcast generation
 * (§3.4/Figure 6), and BFVector-width equivalence (Table 6).
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "core/hard_detector.hh"
#include "detector_test_util.hh"
#include "explain/prov.hh"

namespace hard
{
namespace
{

TEST(HardDetector, DetectsMissingLockRace)
{
    WorkloadBuilder b("t", 2);
    Addr x = b.alloc("x", 8);
    LockAddr l = b.allocLock("l");
    SiteId s_ok = b.site("locked");
    SiteId s_bad = b.site("unlocked");
    SiteId s_lk = b.site("lk");

    for (int i = 0; i < 3; ++i) {
        b.lock(0, l, s_lk);
        b.read(0, x, 8, s_ok);
        b.write(0, x, 8, s_ok);
        b.unlock(0, l, s_lk);
        b.write(1, x, 8, s_bad); // forgot the lock
        b.compute(1, 200);
    }
    Program p = b.finish();

    HardDetector det("hard", HardConfig{});
    runProgram(p, {&det});
    EXPECT_GT(det.sink().distinctSiteCount(), 0u);
    EXPECT_TRUE(reportedAt(det.sink(), s_bad) ||
                reportedAt(det.sink(), s_ok));
}

TEST(HardDetector, ProperLockingIsSilent)
{
    WorkloadBuilder b("t", 2);
    Addr x = b.alloc("x", 8);
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

    HardDetector det("hard", HardConfig{});
    runProgram(p, {&det});
    EXPECT_EQ(det.sink().distinctSiteCount(), 0u);
}

TEST(HardDetector, SingleThreadInitializationIsSilent)
{
    // The Exclusive state suppresses reports for unlocked init (§2.2).
    WorkloadBuilder b("t", 2);
    Addr buf = b.alloc("buf", 256, 32);
    SiteId s = b.site("init");
    for (Addr a = buf; a < buf + 256; a += 8)
        b.write(0, a, 8, s);
    // Thread 1 never touches it.
    b.compute(1, 10);
    Program p = b.finish();

    HardDetector det("hard", HardConfig{});
    runProgram(p, {&det});
    EXPECT_EQ(det.sink().distinctSiteCount(), 0u);
    EXPECT_EQ(det.lstateOf(buf), LState::Exclusive);
}

TEST(HardDetector, ReadOnlySharingIsSilent)
{
    // Init by one thread, then read-only sharing: Shared state, no
    // reports even though no locks are held (§2.2).
    WorkloadBuilder b("t", 2);
    Addr buf = b.alloc("buf", 64, 32);
    SiteId si = b.site("init");
    SiteId sr = b.site("readers");
    b.write(0, buf, 8, si);
    b.compute(1, 500);
    for (int i = 0; i < 5; ++i)
        b.read(1, buf, 8, sr);
    Program p = b.finish();

    HardDetector det("hard", HardConfig{});
    runProgram(p, {&det});
    EXPECT_EQ(det.sink().distinctSiteCount(), 0u);
    EXPECT_EQ(det.lstateOf(buf), LState::Shared);
}

TEST(HardDetector, BarrierResetPrunesFigure7FalsePositive)
{
    // Figure 7: t1 writes array A before the barrier, t2 reads/writes
    // it after — no locks anywhere, race-free by barrier ordering.
    auto build = [](bool) {
        WorkloadBuilder b("t", 2);
        Addr arr = b.alloc("A", 8 * 8, 32);
        Addr bar = b.allocBarrier("bar");
        SiteId s1 = b.site("pre.write");
        SiteId s2 = b.site("post.rw");
        SiteId sb = b.site("bar");
        for (unsigned i = 0; i < 8; ++i)
            b.write(0, arr + i * 8, 8, s1);
        b.barrierAll(bar, sb);
        for (unsigned i = 0; i < 8; ++i) {
            b.read(1, arr + i * 8, 8, s2);
            b.write(1, arr + i * 8, 8, s2);
        }
        return b.finish();
    };

    Program with_reset = build(true);
    HardConfig cfg;
    cfg.barrierReset = true;
    HardDetector det("hard", cfg);
    runProgram(with_reset, {&det});
    EXPECT_EQ(det.sink().distinctSiteCount(), 0u)
        << "barrier reset must prune the Figure 7 pattern";
    EXPECT_EQ(det.hardStats().barrierResets, 1u);

    // Ablation: without the reset, the same program raises an alarm.
    Program without_reset = build(false);
    HardConfig cfg2;
    cfg2.barrierReset = false;
    HardDetector det2("hard", cfg2);
    runProgram(without_reset, {&det2});
    EXPECT_GT(det2.sink().distinctSiteCount(), 0u)
        << "without §3.5 the barrier pattern must false-alarm";
}

TEST(HardDetector, MetadataDisplacementHidesRace)
{
    // §3.6: the unlocked write's empty candidate set is lost when the
    // line is displaced from the (tiny) metadata store before any
    // other thread touches the variable again.
    // Sequence: x becomes read-Shared; the buggy *unlocked read*
    // empties the candidate set silently (Shared state never
    // reports); the race would surface at the next write in
    // SharedModified — unless the metadata was displaced in between,
    // in which case the line re-enters Virgin and the evidence is
    // gone.
    auto build = [] {
        WorkloadBuilder b("t", 2);
        Addr x = b.alloc("x", 8, 32);
        Addr spill = b.alloc("spill", 64 * 1024, 32);
        LockAddr l = b.allocLock("l");
        SiteId s = b.site("cs");
        SiteId s_bad = b.site("unlocked.read");
        SiteId s_spill = b.site("spill");

        // t0 initializes x; t1 reads it under the lock -> Shared.
        b.write(0, x, 8, s);
        b.compute(1, 2000);
        b.lock(1, l, s);
        b.read(1, x, 8, s);
        b.unlock(1, l, s);
        // The buggy unlocked read: candidate set goes empty, silently.
        b.read(1, x, 8, s_bad);
        // Thread 0 streams a large buffer: displaces x's metadata.
        b.compute(0, 4000);
        for (Addr a = spill; a < spill + 64 * 1024; a += 32)
            b.read(0, a, 8, s_spill);
        // Much later, thread 0 writes x under the lock: with intact
        // metadata this lands in SharedModified with an empty set.
        b.lock(0, l, s);
        b.write(0, x, 8, s);
        b.unlock(0, l, s);
        return b.finish();
    };

    // Tiny metadata store: the spill displaces everything.
    HardConfig small;
    small.metaGeometry = CacheConfig{4 * 1024, 8, 32, 0};
    HardDetector det_small("hard.small", small);

    // Unbounded store: the race is caught at the unlocked write or at
    // thread 1's next (locked) access.
    HardConfig ideal;
    ideal.unbounded = true;
    HardDetector det_ideal("hard.ideal", ideal);

    Program p = build();
    runProgram(p, {&det_small, &det_ideal});
    EXPECT_EQ(det_small.sink().distinctSiteCount(), 0u)
        << "displacement must lose the candidate-set evidence";
    EXPECT_GT(det_small.hardStats().metadataEvictions, 0u);
    EXPECT_GT(det_ideal.sink().distinctSiteCount(), 0u);
}

TEST(HardDetector, LineGranularityFalseSharesButWordGranularityDoesNot)
{
    // Two adjacent 4-byte counters in one line, each protected by its
    // own lock: clean at 4B granularity, false alarm at 32B (Table 3).
    auto build = [] {
        WorkloadBuilder b("t", 2);
        Addr pair = b.alloc("pair", 8, 32);
        LockAddr l0 = b.allocLock("l0");
        LockAddr l1 = b.allocLock("l1");
        SiteId s0 = b.site("cs0");
        SiteId s1 = b.site("cs1");
        for (int i = 0; i < 6; ++i) {
            b.lock(0, l0, s0);
            b.read(0, pair, 4, s0);
            b.write(0, pair, 4, s0);
            b.unlock(0, l0, s0);
            b.lock(1, l1, s1);
            b.read(1, pair + 4, 4, s1);
            b.write(1, pair + 4, 4, s1);
            b.unlock(1, l1, s1);
        }
        return b.finish();
    };

    HardConfig coarse;
    coarse.granularityBytes = 32;
    HardConfig fine;
    fine.granularityBytes = 4;
    HardDetector det_coarse("hard.32B", coarse);
    HardDetector det_fine("hard.4B", fine);
    Program p = build();
    runProgram(p, {&det_coarse, &det_fine});
    EXPECT_GT(det_coarse.sink().distinctSiteCount(), 0u);
    EXPECT_EQ(det_fine.sink().distinctSiteCount(), 0u);
}

TEST(HardDetector, BroadcastsOnSharedReadWithChangedCandidateSet)
{
    // §3.4: a read leaving the line in Shared CState with a changed
    // candidate set broadcasts metadata.
    WorkloadBuilder b("t", 2);
    Addr x = b.alloc("x", 8, 32);
    LockAddr l = b.allocLock("l");
    SiteId s = b.site("cs");
    SiteId sr = b.site("rd");

    b.write(0, x, 8, s);
    b.compute(1, 400);
    // Thread 1 reads while holding a lock: line becomes CState Shared
    // in both caches and the candidate set shrinks -> broadcast.
    b.lock(1, l, s);
    b.read(1, x, 8, sr);
    b.unlock(1, l, s);
    Program p = b.finish();

    HardDetector det("hard", HardConfig{});
    runProgram(p, {&det});
    EXPECT_GE(det.hardStats().metaBroadcasts, 1u);
}

TEST(HardDetector, BroadcastChargesBusWhenAttached)
{
    WorkloadBuilder b("t", 2);
    Addr x = b.alloc("x", 8, 32);
    SiteId s = b.site("s");
    LockAddr l = b.allocLock("l");
    b.write(0, x, 8, s);
    b.compute(1, 400);
    b.lock(1, l, s);
    b.read(1, x, 8, s);
    b.unlock(1, l, s);
    Program p = b.finish();

    SimConfig cfg;
    System sys(cfg, p);
    HardDetector det("hard", HardConfig{}, &sys.memsys().bus());
    sys.addObserver(&det);
    sys.run();
    EXPECT_EQ(sys.memsys().bus().stats().value("txn.MetaBroadcast"),
              det.hardStats().metaBroadcasts);
    EXPECT_GT(det.hardStats().metaBroadcasts, 0u);
}

TEST(HardDetector, SixteenAnd32BitVectorsDetectTheSameRace)
{
    // Table 6: the small candidate sets of real programs make 16-bit
    // and 32-bit BFVectors equivalent for detection.
    auto build = [] {
        WorkloadBuilder b("t", 2);
        Addr x = b.alloc("x", 8, 32);
        LockAddr l = b.allocLock("l");
        SiteId s = b.site("cs");
        SiteId s_bad = b.site("bad");
        for (int i = 0; i < 4; ++i) {
            b.lock(0, l, s);
            b.write(0, x, 8, s);
            b.unlock(0, l, s);
            b.write(1, x, 8, s_bad);
            b.compute(1, 300);
        }
        return b.finish();
    };
    HardConfig c16, c32;
    c16.bloomBits = 16;
    c32.bloomBits = 32;
    HardDetector d16("hard16", c16), d32("hard32", c32);
    Program p = build();
    runProgram(p, {&d16, &d32});
    EXPECT_EQ(d16.sink().distinctSiteCount(),
              d32.sink().distinctSiteCount());
    EXPECT_GT(d16.sink().distinctSiteCount(), 0u);
}

TEST(HardDetector, LockRegisterTracksHeldLocks)
{
    WorkloadBuilder b("t", 1);
    LockAddr l1 = b.allocLock("l1");
    LockAddr l2 = b.allocLock("l2");
    SiteId s = b.site("s");
    Addr x = b.alloc("x", 8);
    b.lock(0, l1, s);
    b.lock(0, l2, s);
    b.write(0, x, 8, s);
    b.unlock(0, l2, s);
    b.unlock(0, l1, s);
    Program p = b.finish();

    HardDetector det("hard", HardConfig{});
    runProgram(p, {&det});
    // After the run all locks are released.
    EXPECT_EQ(det.lockRegister(0).vector().raw(), 0u);
}

TEST(HardDetector, FreshLineStartsVirginAllOnes)
{
    WorkloadBuilder b("t", 1);
    Addr x = b.alloc("x", 8, 32);
    SiteId s = b.site("s");
    b.read(0, x, 8, s);
    Program p = b.finish();

    HardDetector det("hard", HardConfig{});
    runProgram(p, {&det});
    // First access moved it Virgin -> Exclusive; candidate set is
    // still "all possible locks".
    EXPECT_EQ(det.lstateOf(x), LState::Exclusive);
    EXPECT_EQ(det.bfOf(x), 0xffffu);
}

TEST(HardDetectorBarrier, ResidentLinesReadResetStayResidentAndAreNotRefetched)
{
    // 2 sets x 1 way: x and ax share set 0, y and ay share set 1.
    HardConfig cfg;
    cfg.metaGeometry = CacheConfig{64, 1, 32, 0};
    HardDetector det("hard", cfg);
    ProvRecorder prov(cfg.granularityBytes, cfg.bloomBits);
    det.attachProvenance(&prov);
    HandTrace t(det);
    const Addr x = 0x1000, y = 0x1020, ax = 0x1040, ay = 0x1060;
    const LockAddr l = 0x9000;

    // Lose x's and y's metadata once, so that a refetch of either
    // would be recorded from now on.
    t.write(0, x);
    t.write(0, y);
    t.write(0, ax);
    t.write(0, ay);
    // Both become SharedModified with a narrowed candidate set.
    for (ThreadId tid : {0u, 1u}) {
        t.lock(tid, l);
        t.write(tid, x);
        t.write(tid, y);
        t.unlock(tid, l);
    }
    ASSERT_EQ(det.lstateOf(x), LState::SharedModified);
    ASSERT_NE(det.bfOf(y), 0xffffu);
    ASSERT_EQ(prov.find(x)->refetches, 1u);
    ASSERT_EQ(prov.find(y)->refetches, 1u);
    det.syncStats();
    const std::uint64_t resident = det.stats().value("metaResident");
    const std::uint64_t evictions = det.hardStats().metadataEvictions;
    EXPECT_EQ(resident, 2u);

    t.barrier(2);
    // find() path: x reads as freshly reset.
    EXPECT_EQ(det.bfOf(x), 0xffffu);
    EXPECT_EQ(det.lstateOf(x), LState::Virgin);
    // lookup() path: y is reset before the access applies, so the
    // access starts from Virgin.
    t.read(1, y);
    EXPECT_EQ(det.lstateOf(y), LState::Exclusive);
    EXPECT_EQ(det.bfOf(y), 0xffffu);

    det.syncStats();
    EXPECT_EQ(det.stats().value("metaResident"), resident);
    EXPECT_EQ(det.hardStats().metadataEvictions, evictions);
    EXPECT_EQ(det.hardStats().barrierResets, 1u);
    EXPECT_EQ(prov.find(x)->refetches, 1u);
    EXPECT_EQ(prov.find(y)->refetches, 1u);
}

/** Random accesses by two threads to 32 granules of 8 lines, under
 * random subsets of three locks; every lock is released at the end. */
void
randomLockedAccesses(HandTrace &t, Rng &rng, int n)
{
    const LockAddr locks[] = {0x9000, 0x9040, 0x9080};
    for (int i = 0; i < n; ++i) {
        const ThreadId tid = static_cast<ThreadId>(rng.below(2));
        const unsigned held = static_cast<unsigned>(rng.below(8));
        for (unsigned k = 0; k < 3; ++k)
            if (held & (1u << k))
                t.lock(tid, locks[k]);
        const Addr a = 0x2000 + rng.below(8) * 32 + rng.below(4) * 8;
        if (rng.below(2) == 0)
            t.write(tid, a);
        else
            t.read(tid, a);
        for (unsigned k = 0; k < 3; ++k)
            if (held & (1u << k))
                t.unlock(tid, locks[k]);
    }
}

TEST(HardDetectorBarrier, OccupancyHistogramMatchesAnEagerReset)
{
    // With an eager reset, the state after "before; barrier; after"
    // is the state a fresh detector reaches from "after" alone: every
    // granule the barrier found is Virgin with all-ones bits, and the
    // Lock Registers are empty in both.
    HardConfig cfg;
    cfg.granularityBytes = 8;
    HardDetector lazy("lazy", cfg);
    HardDetector fresh("fresh", cfg);
    HandTrace tl(lazy);
    HandTrace tf(fresh);
    Rng before(7);
    randomLockedAccesses(tl, before, 400);

    lazy.syncStats();
    ASSERT_GT(lazy.stats().histogram("bfOccupancy").count(), 0u);
    tl.barrier(2);
    lazy.syncStats();
    EXPECT_EQ(lazy.stats().histogram("bfOccupancy").count(), 0u);

    Rng after_lazy(8);
    Rng after_fresh(8);
    randomLockedAccesses(tl, after_lazy, 60);
    randomLockedAccesses(tf, after_fresh, 60);
    lazy.syncStats();
    fresh.syncStats();
    const Histogram &got = lazy.stats().histogram("bfOccupancy");
    const Histogram &want = fresh.stats().histogram("bfOccupancy");
    EXPECT_GT(want.count(), 0u);
    EXPECT_EQ(got.count(), want.count());
    EXPECT_EQ(got.sum(), want.sum());
    EXPECT_EQ(got.buckets(), want.buckets());
}

class HardGranularitySweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(HardGranularitySweep, MissingLockDetectedAtEveryGranularity)
{
    const unsigned gran = GetParam();
    WorkloadBuilder b("t", 2);
    Addr x = b.alloc("x", 8, 32);
    LockAddr l = b.allocLock("l");
    SiteId s = b.site("cs");
    SiteId s_bad = b.site("bad");
    for (int i = 0; i < 4; ++i) {
        b.lock(0, l, s);
        b.write(0, x, 8, s);
        b.unlock(0, l, s);
        b.write(1, x, 8, s_bad);
        b.compute(1, 300);
    }
    Program p = b.finish();

    HardConfig cfg;
    cfg.granularityBytes = gran;
    HardDetector det("hard", cfg);
    runProgram(p, {&det});
    EXPECT_GT(det.sink().distinctSiteCount(), 0u) << "gran=" << gran;
}

INSTANTIATE_TEST_SUITE_P(Grans, HardGranularitySweep,
                         ::testing::Values(4u, 8u, 16u, 32u));

} // namespace
} // namespace hard
