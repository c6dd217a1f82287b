/**
 * @file
 * The workload generators are parameterized by thread count; the
 * paper's setup is 4 threads on 4 cores, but the models must stay
 * valid at 2 and 8 threads (and when oversubscribed), since the
 * thread-count extension bench sweeps them.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/hard_detector.hh"
#include "detector_test_util.hh"
#include "workloads/injector.hh"
#include "workloads/registry.hh"

namespace hard
{
namespace
{

// The app is a std::string, not a const char *: gtest prints a char
// pointer's address into the test's parameter description, which
// would make the discovered CTest names differ from build to build.
class ThreadCountSweep
    : public ::testing::TestWithParam<std::tuple<std::string, unsigned>>
{
};

TEST_P(ThreadCountSweep, BuildsAndRunsAtEveryThreadCount)
{
    auto [app, threads] = GetParam();
    WorkloadParams params;
    params.scale = 0.04;
    params.numThreads = threads;
    // finish() validates structure; building is half the test.
    Program p = buildWorkload(app, params);
    EXPECT_EQ(p.threads.size(), threads);

    SimConfig cfg;
    cfg.memsys.numCores = threads;
    System sys(cfg, p);
    RunResult res = sys.run();
    EXPECT_GT(res.totalCycles, 0u);
    EXPECT_GT(res.lockAcquires, 0u);
}

TEST_P(ThreadCountSweep, DetectionStillWorksWhenInjected)
{
    auto [app, threads] = GetParam();
    WorkloadParams params;
    params.scale = 0.04;
    params.numThreads = threads;

    SharedMap shared(buildWorkload(app, params));
    unsigned caught = 0;
    constexpr unsigned kRuns = 4;
    for (unsigned r = 0; r < kRuns; ++r) {
        Program p = buildWorkload(app, params);
        Injection inj = injectRace(p, 2000 + r, &shared);
        ASSERT_TRUE(inj.valid);
        SimConfig cfg;
        cfg.memsys.numCores = threads;
        HardDetector det("hard", HardConfig{});
        System sys(cfg, p);
        sys.addObserver(&det);
        sys.run();
        for (const auto &rep : det.sink().reports()) {
            if (inj.overlaps(rep.addr, rep.size)) {
                ++caught;
                break;
            }
        }
    }
    EXPECT_GE(caught, kRuns / 2);
}

INSTANTIATE_TEST_SUITE_P(
    Apps, ThreadCountSweep,
    ::testing::Combine(::testing::Values("cholesky", "barnes", "fmm",
                                         "ocean", "water-nsquared",
                                         "raytrace", "server"),
                       ::testing::Values(2u, 8u)));

TEST(ThreadCounts, OversubscribedWorkloadsDetectLikeDedicated)
{
    // 8 threads on 4 cores (time-multiplexed) vs 8 threads on 8
    // cores: HARD's alarms may shift with the interleaving but the
    // runs complete, switch context, and stay deterministic.
    WorkloadParams params;
    params.scale = 0.04;
    params.numThreads = 8;

    Program p1 = buildWorkload("water-nsquared", params);
    SimConfig over;
    over.memsys.numCores = 4;
    System s1(over, p1);
    HardDetector d1("hard", HardConfig{});
    s1.addObserver(&d1);
    RunResult r1 = s1.run();
    EXPECT_GT(r1.contextSwitches, 0u);

    Program p2 = buildWorkload("water-nsquared", params);
    System s2(over, p2);
    HardDetector d2("hard", HardConfig{});
    s2.addObserver(&d2);
    RunResult r2 = s2.run();
    EXPECT_EQ(r1.totalCycles, r2.totalCycles); // determinism
    EXPECT_EQ(d1.sink().sites(), d2.sink().sites());
}

} // namespace
} // namespace hard
