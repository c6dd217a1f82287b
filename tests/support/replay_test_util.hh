/**
 * @file
 * Shared record→replay helpers.
 *
 * Three subsystems exercise the same loop — record a program's trace
 * once, then push it through a freshly constructed detector battery:
 * the fuzz runner's fast path, the corpus re-judge, and the
 * replay-equivalence / fast-mode identity tests. The production side
 * lives in trace/record.hh (recordRun) and fuzz/runner.hh
 * (analyzeTrace); these wrappers cover the test-only shapes so test
 * binaries stop hand-rolling System + TraceRecorder + replayTrace
 * pilgrimages of their own.
 */

#ifndef HARD_TESTS_REPLAY_TEST_UTIL_HH
#define HARD_TESTS_REPLAY_TEST_UTIL_HH

#include <string>
#include <vector>

#include "fuzz/runner.hh"
#include "trace/record.hh"
#include "trace/replayer.hh"
#include "workloads/builder.hh"
#include "workloads/registry.hh"

namespace hard
{

/** Record one registered workload's trace (no detectors attached). */
inline Trace
recordWorkloadTrace(const std::string &workload, const WorkloadParams &wp,
                    const SimConfig &sim = SimConfig{})
{
    return recordRun(buildWorkload(workload, wp), sim);
}

/**
 * Replay @p trace through a fresh battery under @p cfg and return the
 * battery (finalized) for per-detector report inspection. Tests that
 * only need the (granule, site) key sets should prefer analyzeTrace().
 */
inline FuzzBattery
replayThroughBattery(const Trace &trace, const FuzzConfig &cfg)
{
    FuzzBattery battery = makeFuzzBattery(cfg);
    replayTrace(trace, battery.observers());
    for (RaceDetector *d : battery.detectors())
        d->finalize();
    return battery;
}

} // namespace hard

#endif // HARD_TESTS_REPLAY_TEST_UTIL_HH
