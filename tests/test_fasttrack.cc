/**
 * @file
 * Tests for the FastTrack happens-before detector: its epoch rules,
 * equivalence with HappensBeforeDetector (the same rules on MetaCache
 * storage), and agreement with the independent vector-clock oracle.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "detector_test_util.hh"
#include "detectors/fasttrack.hh"
#include "detectors/happens_before.hh"
#include "fuzz/invariants.hh"
#include "fuzz/oracle.hh"
#include "trace/record.hh"
#include "workloads/registry.hh"

namespace hard
{
namespace
{

TEST(FastTrack, DetectsUnorderedWriteWrite)
{
    WorkloadBuilder b("t", 2);
    Addr x = b.alloc("x", 8, 32);
    SiteId s0 = b.site("w0");
    SiteId s1 = b.site("w1");
    b.write(0, x, 8, s0);
    b.compute(1, 2000);
    b.write(1, x, 8, s1);
    Program p = b.finish();

    FastTrackDetector det("ft");
    runProgram(p, {&det});
    EXPECT_TRUE(reportedAt(det.sink(), s1));
}

TEST(FastTrack, LockOrderingSilences)
{
    WorkloadBuilder b("t", 2);
    Addr x = b.alloc("x", 8, 32);
    LockAddr l = b.allocLock("l");
    SiteId s = b.site("cs");
    for (int i = 0; i < 8; ++i) {
        for (unsigned t = 0; t < 2; ++t) {
            b.lock(t, l, s);
            b.read(t, x, 8, s);
            b.write(t, x, 8, s);
            b.unlock(t, l, s);
        }
    }
    Program p = b.finish();

    FastTrackDetector det("ft");
    runProgram(p, {&det});
    EXPECT_EQ(det.sink().distinctSiteCount(), 0u);
}

TEST(FastTrack, SameThreadReadsStayOnFastPath)
{
    WorkloadBuilder b("t", 1);
    Addr x = b.alloc("x", 8, 32);
    SiteId s = b.site("r");
    for (int i = 0; i < 50; ++i)
        b.read(0, x, 8, s);
    Program p = b.finish();

    FastTrackDetector det("ft");
    runProgram(p, {&det});
    EXPECT_EQ(det.inflations(), 0u);
    EXPECT_GE(det.fastPathReads(), 50u);
}

TEST(FastTrack, ConcurrentReadsInflateAndWriteAfterRacesCorrectly)
{
    // Two unordered readers force inflation; a later unordered writer
    // must race against BOTH reads (the inflated vector preserves
    // them).
    WorkloadBuilder b("t", 3);
    Addr x = b.alloc("x", 8, 32);
    SiteId sr = b.site("readers");
    SiteId sw = b.site("writer");
    b.read(0, x, 8, sr);
    b.compute(1, 1000);
    b.read(1, x, 8, sr);
    b.compute(2, 3000);
    b.write(2, x, 8, sw);
    Program p = b.finish();

    FastTrackDetector det("ft");
    runProgram(p, {&det});
    EXPECT_GE(det.inflations(), 1u);
    EXPECT_TRUE(reportedAt(det.sink(), sw));
}

TEST(FastTrack, BarrierOrderedReadersDoNotInflate)
{
    // Reads ordered by barriers keep the single-epoch representation.
    WorkloadBuilder b("t", 2);
    Addr x = b.alloc("x", 8, 32);
    Addr bar = b.allocBarrier("bar");
    SiteId s = b.site("r");
    SiteId sb = b.site("bar");
    b.read(0, x, 8, s);
    b.barrierAll(bar, sb);
    b.read(1, x, 8, s);
    b.barrierAll(bar, sb);
    b.read(0, x, 8, s);
    Program p = b.finish();

    FastTrackDetector det("ft");
    runProgram(p, {&det});
    EXPECT_EQ(det.inflations(), 0u);
    EXPECT_EQ(det.sink().distinctSiteCount(), 0u);
}

/**
 * Equivalence property: FastTrack and the unbounded
 * HappensBeforeDetector report exactly the same sites on the same
 * execution, and FastTrack's report keys are the vector-clock oracle's
 * (full read vectors, no shared code) — on random synthetic programs
 * and on every workload model.
 */
class FastTrackEquivalence : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(FastTrackEquivalence, MatchesVectorClockOnRandomPrograms)
{
    Rng rng(GetParam());
    WorkloadBuilder b("t", 4);
    Addr vars = b.alloc("vars", 64 * 32, 32);
    Addr bar = b.allocBarrier("bar");
    Addr sema = b.allocSema("s");
    LockAddr locks[3] = {b.allocLock("l0"), b.allocLock("l1"),
                         b.allocLock("l2")};
    SiteId site = b.site("rw");

    for (int round = 0; round < 3; ++round) {
        for (unsigned t = 0; t < 4; ++t) {
            for (int i = 0; i < 60; ++i) {
                Addr v = vars + rng.below(64) * 32;
                int l = static_cast<int>(rng.below(4));
                if (l < 3)
                    b.lock(t, locks[l], site);
                if (rng.chance(0.5))
                    b.read(t, v, 8, site);
                else
                    b.write(t, v, 8, site);
                if (l < 3)
                    b.unlock(t, locks[l], site);
            }
            if (t == 0 && rng.chance(0.7))
                b.semaPost(0, sema, site);
        }
        b.barrierAll(bar, site);
    }
    // Drain any posts so no thread can block forever.
    Program p = b.finish();

    FastTrackDetector ft("ft", 4);
    HbConfig cfg = HbConfig::ideal();
    HappensBeforeDetector vc("vc", cfg);
    runProgram(p, {&ft, &vc});

    EXPECT_EQ(ft.sink().sites(), vc.sink().sites())
        << "seed " << GetParam();
    EXPECT_EQ(reportKeys(ft.sink()),
              oracleHappensBefore(recordRun(p, SimConfig{}), 4))
        << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastTrackEquivalence,
                         ::testing::Values(1u, 5u, 9u, 21u, 34u, 55u));

class FastTrackOnWorkloads : public ::testing::TestWithParam<const char *>
{
};

TEST_P(FastTrackOnWorkloads, MatchesVectorClockOnWorkloads)
{
    WorkloadParams params;
    params.scale = 0.05;
    Program p = buildWorkload(GetParam(), params);

    FastTrackDetector ft("ft", 4);
    HappensBeforeDetector vc("vc", HbConfig::ideal());
    runProgram(p, {&ft, &vc});
    EXPECT_EQ(ft.sink().sites(), vc.sink().sites());
    EXPECT_EQ(reportKeys(ft.sink()),
              oracleHappensBefore(recordRun(p, SimConfig{}), 4));
    // The fast path carries the overwhelming majority of reads.
    EXPECT_GT(ft.fastPathReads(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Apps, FastTrackOnWorkloads,
                         ::testing::Values("cholesky", "barnes", "fmm",
                                           "ocean", "water-nsquared",
                                           "raytrace", "server"));

} // namespace
} // namespace hard
