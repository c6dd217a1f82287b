/**
 * @file
 * Experiment harness reproducing the paper's evaluation methodology
 * (§4/§5):
 *
 * - *Effectiveness* runs: for each workload, N runs each with one
 *   randomly injected race (an elided dynamic lock/unlock pair); every
 *   attached detector observes the *identical* execution, and a bug
 *   counts as detected when a detector's report overlaps the elided
 *   critical section's data. One additional race-free run measures
 *   false alarms, counted as distinct source sites.
 * - *Overhead* runs (Figure 8): the same workload is timed without
 *   HARD and with HARD's timing model enabled (candidate-set bus
 *   broadcasts + per-shared-access checking latency).
 */

#ifndef HARD_HARNESS_EXPERIMENT_HH
#define HARD_HARNESS_EXPERIMENT_HH

#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/hard_detector.hh"
#include "detectors/happens_before.hh"
#include "detectors/ideal_lockset.hh"
#include "sim/system.hh"
#include "workloads/injector.hh"
#include "workloads/registry.hh"

namespace hard
{

/**
 * Factory producing one fresh set of detectors per simulated run
 * (detectors are stateful and cannot be reused across runs).
 */
using DetectorFactory =
    std::function<std::vector<std::unique_ptr<RaceDetector>>()>;

/**
 * How a detection run executes.
 *
 * Cycle: the full cycle-level simulation with detectors attached as
 * live observers (the default, and the only mode that measures
 * timing/overhead).
 *
 * Fast: record the run once at cycle level (or fetch the recording
 * from a TraceCache) and replay the trace through the detectors only.
 * Detectors are deterministic functions of the event stream, so fast
 * reports are bit-identical to cycle reports
 * (tests/test_fast_mode_identity.cc); only per-run machine stats and
 * the HARD timing model are unavailable.
 */
enum class ExecMode
{
    Cycle,
    Fast,
};

/** @return "cycle" | "fast". */
const char *execModeName(ExecMode mode);

/** Parse "cycle" | "fast"; throws ConfigError on anything else. */
ExecMode parseExecMode(const std::string &name);

/** Per-detector outcome of an effectiveness experiment. */
struct DetectorScore
{
    /** Injected bugs detected (out of runsAttempted valid runs). */
    unsigned bugsDetected = 0;
    /** Runs where injection succeeded. */
    unsigned runsAttempted = 0;
    /** Distinct-source-site alarms in the race-free run. */
    std::size_t falseAlarms = 0;
    /** Dynamic reports in the race-free run (pre-deduplication). */
    std::uint64_t dynamicReports = 0;
};

/** Result of runEffectiveness: detector name -> score. */
using EffectivenessResult = std::map<std::string, DetectorScore>;

/**
 * Run the paper's effectiveness experiment on one workload.
 *
 * @param workload Registered workload name.
 * @param wp Workload sizing parameters.
 * @param sim Simulator configuration (hardTiming must be disabled so
 * every detector sees identical executions).
 * @param factory Detector set builder, invoked once per run.
 * @param num_runs Number of injected-bug runs (paper: 10).
 * @param seed0 Base seed; run r injects with seed0 + r.
 */
EffectivenessResult runEffectiveness(const std::string &workload,
                                     const WorkloadParams &wp,
                                     const SimConfig &sim,
                                     const DetectorFactory &factory,
                                     unsigned num_runs,
                                     std::uint64_t seed0);

/** Result of one overhead measurement (Figure 8). */
struct OverheadResult
{
    Cycle baseCycles = 0;
    Cycle hardCycles = 0;
    /** (hard - base) / base * 100. */
    double overheadPct = 0.0;
    /** Candidate-set broadcasts performed by HARD (§3.4). */
    std::uint64_t metaBroadcasts = 0;
    /** Bus bytes moved for data vs for HARD metadata. */
    std::uint64_t dataBytes = 0;
    std::uint64_t metaBytes = 0;
    /**
     * Full `hard.stats.v1` snapshots of the baseline and HARD runs
     * (Json null unless stats collection was requested) — the bench
     * tables regenerate their traffic columns from these.
     */
    Json baseStats;
    Json hardStats;
};

/**
 * Measure HARD's execution-time overhead on one workload (Figure 8):
 * a baseline timing run without HARD vs a run with the HARD timing
 * model enabled and a HardDetector charging broadcasts to the bus.
 *
 * @param collect_stats Embed per-run `hard.stats.v1` snapshots in the
 * result (baseStats/hardStats).
 */
OverheadResult measureOverhead(const std::string &workload,
                               const WorkloadParams &wp,
                               const SimConfig &sim,
                               const HardConfig &hard_cfg,
                               bool collect_stats = false);

/**
 * Like measureOverhead, but with the §3.4 directory-variant timing
 * model (per-shared-access metadata round-trips, no broadcasts).
 */
OverheadResult measureOverheadDirectory(const std::string &workload,
                                        const WorkloadParams &wp,
                                        const SimConfig &sim,
                                        const HardConfig &hard_cfg,
                                        bool collect_stats = false);

/**
 * Convenience: run @p prog once with @p detectors attached.
 * @return the simulator run summary.
 */
RunResult runWithDetectors(const Program &prog, const SimConfig &sim,
                           const std::vector<RaceDetector *> &detectors);

/**
 * As above, but additionally snapshot the machine's full stat
 * registry (including each detector's group) into @p stats_out as a
 * `hard.stats.v1` document when @p stats_out is non-null.
 */
RunResult runWithDetectors(const Program &prog, const SimConfig &sim,
                           const std::vector<RaceDetector *> &detectors,
                           Json *stats_out);

/**
 * As above, with additional non-detector observers (e.g. a
 * TraceRecorder) attached to the same run after the detectors.
 */
RunResult runWithDetectors(const Program &prog, const SimConfig &sim,
                           const std::vector<RaceDetector *> &detectors,
                           Json *stats_out,
                           const std::vector<AccessObserver *> &extra);

/**
 * @return true if @p sink holds a report that corresponds to the
 * injected bug: its byte range overlaps the elided critical section's
 * data AND it was reported at a source site that really accesses that
 * data (@p true_sites) — so a coincidental false-sharing alarm on the
 * same cache line does not count as detecting the bug.
 */
bool detectedInjection(const ReportSink &sink, const Injection &inj,
                       const std::set<SiteId> &true_sites);

/** @return every site in @p prog that accesses data overlapping the
 * injection's ranges (the legitimate reporting sites for the bug). */
std::set<SiteId> sitesTouching(const Program &prog, const Injection &inj);

/**
 * @return the cycle of the earliest report in @p sink corresponding to
 * the injected bug (the same matching rule as detectedInjection), or
 * -1 when the bug went undetected. Detection latency is this minus the
 * run's exposure cycle.
 */
std::int64_t firstDetectionCycle(const ReportSink &sink,
                                 const Injection &inj,
                                 const std::set<SiteId> &true_sites);

/**
 * Passive observer recording the cycle at which an injected race is
 * first *exposed*: the first data access that overlaps the injection's
 * byte ranges from a site that really touches them. Detection-latency
 * telemetry measures time from this cycle to a detector's first
 * matching report.
 */
class ExposureObserver : public AccessObserver
{
  public:
    ExposureObserver(const Injection &inj,
                     const std::set<SiteId> &true_sites)
        : inj_(inj), trueSites_(true_sites)
    {
    }

    void
    onEvents(std::span<const Event> evs) override
    {
        if (exposeCycle_ >= 0)
            return;
        for (const Event &ev : evs) {
            if (!ev.isAccess() || !inj_.overlaps(ev.addr, ev.size))
                continue;
            if (!trueSites_.empty() && trueSites_.count(ev.site) == 0)
                continue;
            exposeCycle_ = static_cast<std::int64_t>(ev.at);
            return;
        }
    }

    /** Cycle of the first exposing access, or -1 if none occurred. */
    std::int64_t exposeCycle() const { return exposeCycle_; }

  private:
    const Injection &inj_;
    const std::set<SiteId> &trueSites_;
    std::int64_t exposeCycle_ = -1;
};

/** @return the default (Table 1) simulator configuration. */
SimConfig defaultSimConfig();

/** @return the paper's default detector quartet for Table 2:
 * HARD(default), HARD(ideal = exact unbounded lockset),
 * happens-before(default), happens-before(ideal). */
DetectorFactory table2Detectors();

} // namespace hard

#endif // HARD_HARNESS_EXPERIMENT_HH
