/**
 * @file
 * Record→replay equivalence over every workload model and the FULL
 * detector battery (HARD, exact lockset at two granularities, hybrid,
 * ideal happens-before, FastTrack, DJIT+, RaceTrack): the reports from
 * a live simulated run must equal the reports from TraceReplayer over
 * that run's recording, detector by detector. test_trace.cc asserts
 * this for three detectors; this suite closes the gap for the rest and
 * checks the full (granule, site) report keys, not just the site sets.
 * A second suite repeats the check over fuzz-generated programs with
 * the extended sync grammar (rwlocks, condvars, atomics) so the new
 * event kinds are covered by the same record→replay contract.
 */

#include <gtest/gtest.h>

#include "detector_test_util.hh"
#include "fuzz/generator.hh"
#include "fuzz/runner.hh"
#include "replay_test_util.hh"
#include "sim/system.hh"
#include "trace/recorder.hh"
#include "workloads/registry.hh"

namespace hard
{
namespace
{

class ReplayEquivalence : public ::testing::TestWithParam<const char *>
{
};

TEST_P(ReplayEquivalence, EveryDetectorMatchesLiveRun)
{
    WorkloadParams params;
    params.scale = 0.05;
    Program prog = buildWorkload(GetParam(), params);

    const FuzzConfig cfg;
    FuzzBattery live = makeFuzzBattery(cfg);
    TraceRecorder recorder(prog);
    {
        System sys(SimConfig{}, prog);
        for (AccessObserver *obs : live.observers())
            sys.addObserver(obs);
        sys.addObserver(&recorder);
        sys.run();
        for (RaceDetector *d : live.detectors())
            d->finalize();
    }
    Trace trace = recorder.take();
    ASSERT_FALSE(trace.events.empty());

    FuzzBattery off = replayThroughBattery(trace, cfg);

    const std::vector<RaceDetector *> lives = live.detectors();
    const std::vector<RaceDetector *> offs = off.detectors();
    ASSERT_EQ(lives.size(), offs.size());
    for (std::size_t i = 0; i < lives.size(); ++i) {
        SCOPED_TRACE(lives[i]->name());
        EXPECT_EQ(reportKeys(offs[i]->sink()),
                  reportKeys(lives[i]->sink()));
        EXPECT_EQ(offs[i]->sink().dynamicCount(),
                  lives[i]->sink().dynamicCount());
    }
}

INSTANTIATE_TEST_SUITE_P(Apps, ReplayEquivalence,
                         ::testing::Values("cholesky", "barnes", "fmm",
                                           "ocean", "water-nsquared",
                                           "raytrace"));

/** Same contract over fuzz programs with rwlocks/condvars/atomics. */
class ExtendedGrammarReplayEquivalence
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(ExtendedGrammarReplayEquivalence, EveryDetectorMatchesLiveRun)
{
    FuzzGenConfig gen;
    gen.maxThreads = 4;
    gen.maxPhases = 3;
    gen.numRwLocks = 2;
    gen.pRwLocked = 0.5;
    gen.pRwWriter = 0.5;
    gen.pCond = 0.5;
    gen.numAtomics = 2;
    gen.pAtomic = 0.2;
    Program prog = generateFuzzProgram(GetParam(), gen);

    const FuzzConfig cfg;
    FuzzBattery live = makeFuzzBattery(cfg);
    TraceRecorder recorder(prog);
    {
        System sys(fuzzSimConfig(prog), prog);
        for (AccessObserver *obs : live.observers())
            sys.addObserver(obs);
        sys.addObserver(&recorder);
        sys.run();
        for (RaceDetector *d : live.detectors())
            d->finalize();
    }
    Trace trace = recorder.take();
    ASSERT_FALSE(trace.events.empty());

    FuzzBattery off = replayThroughBattery(trace, cfg);

    const std::vector<RaceDetector *> lives = live.detectors();
    const std::vector<RaceDetector *> offs = off.detectors();
    ASSERT_EQ(lives.size(), offs.size());
    for (std::size_t i = 0; i < lives.size(); ++i) {
        SCOPED_TRACE(lives[i]->name());
        EXPECT_EQ(reportKeys(offs[i]->sink()),
                  reportKeys(lives[i]->sink()));
        EXPECT_EQ(offs[i]->sink().dynamicCount(),
                  lives[i]->sink().dynamicCount());
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExtendedGrammarReplayEquivalence,
                         ::testing::Values(11u, 23u, 47u, 91u));

} // namespace
} // namespace hard
