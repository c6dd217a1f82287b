/**
 * @file
 * Parallel batch-experiment driver.
 *
 * The paper's evaluation is a large sweep — 6 workloads x ~10
 * injected-race runs x several detector configurations — in which
 * every (workload, seed, detector-set) run is fully independent: each
 * gets its own Program, System, RNG stream (seed0 + r, identical to
 * the serial harness) and freshly constructed detectors. This driver
 * decomposes runEffectiveness()/measureOverhead() sweeps into such
 * run units, fans them out across a RunPool, and folds the results
 * back *in run-index order*, so the merged EffectivenessResult /
 * OverheadResult values are bit-identical to the serial harness
 * regardless of worker count or completion order
 * (tests/test_batch_equivalence.cc locks this down).
 */

#ifndef HARD_HARNESS_BATCH_HH
#define HARD_HARNESS_BATCH_HH

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/json.hh"
#include "harness/experiment.hh"
#include "harness/journal.hh"
#include "harness/run_pool.hh"
#include "trace/trace_cache.hh"

namespace hard
{

/** Outcome of one detector on one effectiveness run unit. */
struct RunOutcome
{
    /** Injected runs: did the detector find the injected bug? */
    bool detected = false;
    /** Distinct source sites reported in this run. */
    std::set<SiteId> sites;
    /** Dynamic (pre-deduplication) report count in this run. */
    std::uint64_t dynamicReports = 0;
};

/**
 * One effectiveness run unit: injected run r (index == r < numRuns,
 * seeded with seed0 + r) or the final race-free run
 * (index == numRuns).
 */
struct EffectivenessRun
{
    unsigned index = 0;
    bool raceFree = false;
    /** False when no injectable critical section was found. */
    bool injectionValid = false;
    std::map<std::string, RunOutcome> byDetector;

    /**
     * How the unit ended: "ok", a failure label ("failed" |
     * "deadlock" | "budget_exceeded" | "timeout"), "skipped" (not
     * executed because --max-failures was exceeded or the unit was
     * deselected by BatchOptions::unitFilter), or "quarantined"
     * (synthesized by the campaign supervisor for a unit that
     * repeatedly crashed its shard; see harness/campaign.hh). Non-ok
     * runs contribute nothing to the aggregate scores.
     */
    std::string outcome = "ok";
    /** Failure detail (empty when outcome is "ok"/"skipped"). */
    std::string errorType;
    std::string errorMessage;

    /**
     * Per-run `hard.stats.v1` snapshot (Json null unless the item
     * requested stats collection); serialized under "stats" only when
     * present, so stats-off batch JSON is byte-identical to pre-stats
     * output.
     */
    Json stats;

    /**
     * Per-run divergence attribution ({extra, missing, categories},
     * Json null unless the item requested explain collection);
     * serialized under "explain" only when present, so explain-off
     * batch JSON is byte-identical to pre-provenance output.
     */
    Json explain;

    /**
     * Detection-latency telemetry ({exposeCycle, byDetector:{name:
     * {detectCycle, latencyCycles}}}, Json null unless the item
     * requested latency collection); serialized under "latency" only
     * when present, so latency-off batch JSON is byte-identical to
     * prior output. exposeCycle/detectCycle are -1 when the race was
     * never exposed / never detected.
     */
    Json latency;

    bool ok() const { return outcome == "ok"; }
};

/**
 * Execute one effectiveness run unit. Deterministic in its arguments
 * and free of shared mutable state, so units may run on any thread.
 *
 * @param index Run index; index == num_runs selects the race-free run.
 * @param shared Precomputed shared-data map for @p workload / @p wp.
 * @param explain_hard When non-null, also record the run's trace and
 * replay it through the divergence classifier under this HARD shape,
 * filling EffectivenessRun::explain with the attribution summary.
 * @param mode ExecMode::Fast records the run once (or loads it from
 * @p trace_cache) and replays the trace through the detectors with no
 * timing simulation; reports, scores and explain attributions are
 * bit-identical to ExecMode::Cycle. Fast mode cannot collect per-run
 * machine stats (there is no machine on a warm hit) — requesting both
 * throws ConfigError.
 * @param trace_cache Optional content-addressed recording store
 * consulted/filled in fast mode; ignored in cycle mode. May be shared
 * across workers (TraceCache is thread-safe).
 * @param collect_latency Record detection-latency telemetry: an
 * ExposureObserver rides the run (never sampled) and each detector's
 * first matching report cycle fills EffectivenessRun::latency.
 */
EffectivenessRun runEffectivenessUnit(const std::string &workload,
                                      const WorkloadParams &wp,
                                      const SimConfig &sim,
                                      const DetectorFactory &factory,
                                      unsigned index, unsigned num_runs,
                                      std::uint64_t seed0,
                                      const SharedMap &shared,
                                      bool collect_stats = false,
                                      const HardConfig *explain_hard =
                                          nullptr,
                                      ExecMode mode = ExecMode::Cycle,
                                      TraceCache *trace_cache = nullptr,
                                      bool collect_latency = false);

/**
 * Fold per-run outcomes (in run-index order) into the aggregate
 * per-detector scores, exactly as the serial harness accumulates them.
 */
EffectivenessResult
foldEffectiveness(const std::vector<EffectivenessRun> &runs);

/**
 * Parallel runEffectiveness: identical semantics and results to the
 * serial harness entry point, with the num_runs + 1 run units spread
 * across @p pool.
 */
EffectivenessResult runEffectivenessParallel(const std::string &workload,
                                             const WorkloadParams &wp,
                                             const SimConfig &sim,
                                             const DetectorFactory &factory,
                                             unsigned num_runs,
                                             std::uint64_t seed0,
                                             RunPool &pool);

/** One batch row: a workload swept under one detector family. */
struct BatchItem
{
    /** Row label in results/JSON; defaults to @ref workload if empty. */
    std::string label;
    std::string workload;
    WorkloadParams wp;
    SimConfig sim;
    /** Detector set builder; required when @ref effectiveness. */
    DetectorFactory factory;
    /** Injected-bug runs (paper: 10). */
    unsigned runs = 10;
    /** Base injection seed; run r uses seed0 + r. */
    std::uint64_t seed0 = 1000;
    /** Run the Table 2-style effectiveness experiment. */
    bool effectiveness = true;
    /** Also measure Figure 8-style overhead. */
    bool overhead = false;
    /** Overhead variant: §3.4 directory metadata management. */
    bool directory = false;
    /** HARD configuration for the overhead measurement. */
    HardConfig hardCfg;
    /**
     * Embed per-run `hard.stats.v1` snapshots in the results: each
     * EffectivenessRun gains a "stats" block and the overhead unit
     * gains "baseStats"/"hardStats". Off by default — the stats-off
     * batch JSON is byte-identical to pre-stats output.
     */
    bool collectStats = false;
    /**
     * Record each effectiveness run's trace and replay it through the
     * divergence classifier (src/explain) under @ref hardCfg: each
     * EffectivenessRun gains an "explain" attribution block. Off by
     * default — explain-off batch JSON is byte-identical to
     * pre-provenance output.
     */
    bool collectExplain = false;
    /**
     * Record detection-latency telemetry: each injected
     * EffectivenessRun gains a "latency" block (exposure cycle +
     * per-detector first-matching-report cycle). Off by default —
     * latency-off batch JSON is byte-identical to prior output.
     */
    bool collectLatency = false;

    /**
     * Base of the exact single-run repro command reported for this
     * item's failures (e.g. "hardsim --workload=ocean --scale=0.2");
     * the driver appends the failing run's --inject seed. Synthesized
     * from @ref workload when empty.
     */
    std::string reproBase;

    /**
     * Execution mode for this item's effectiveness runs (overhead
     * units always run at cycle level — they measure timing). Fast
     * mode requires @ref collectStats off and is incompatible with
     * @ref overhead on the same item.
     */
    ExecMode mode = ExecMode::Cycle;
    /** Recording store for fast mode (not owned, may be null: fast
     * mode then records every unit without reuse). */
    TraceCache *traceCache = nullptr;
};

/** Results for one BatchItem, merged in run-index order. */
struct BatchItemResult
{
    std::string label;
    std::string workload;
    unsigned runs = 0;
    std::uint64_t seed0 = 0;
    /** Copied from BatchItem::reproBase (synthesized if empty). */
    std::string reproBase;

    /** Aggregate scores (empty unless item.effectiveness; failed runs
     * contribute nothing). */
    EffectivenessResult effectiveness;
    /** Per-run detail, indexed 0..runs (runs == the race-free run). */
    std::vector<EffectivenessRun> runDetail;

    bool haveOverhead = false;
    OverheadResult overhead;
    /** "" (not requested) | "ok" | failure label for the overhead
     * unit. */
    std::string overheadOutcome;
    std::string overheadErrorType;
    std::string overheadErrorMessage;
};

/** Failure-containment and resume knobs for runBatch. */
struct BatchOptions
{
    /**
     * Contain per-unit SimErrors: record the unit's outcome and keep
     * running the rest of the sweep instead of propagating the first
     * failure.
     */
    bool keepGoing = false;
    /**
     * With keepGoing: once this many units have failed, skip the
     * remaining unstarted units (recorded with outcome "skipped").
     * 0 = never stop.
     */
    unsigned maxFailures = 0;
    /** Journal completed units here (resume support); may be null. */
    BatchJournal *journal = nullptr;
    /**
     * Units already completed by a previous interrupted sweep
     * (loadJournal()): restored into their result slots without
     * re-running. May be null.
     */
    const JournalEntries *restored = nullptr;
    /**
     * Test hook called before a unit executes, OUTSIDE the keep-going
     * containment: a throwing hook kills the batch mid-flight the way
     * a crash would (used to test resume).
     */
    std::function<void(std::size_t item, std::int64_t run)> unitStartHook;
    /**
     * Unit-selection predicate (campaign shards: each shard runs only
     * its assigned slice of the unit space). Units for which this
     * returns false are marked "skipped" without executing, never
     * journaled (a resume or merge must treat them as still pending),
     * and their items' shared-map builds are elided when every
     * remaining unit is deselected. Null = run everything.
     */
    std::function<bool(std::size_t item, std::int64_t run)> unitFilter;
    /**
     * Per-unit host wall-clock budget in milliseconds, applied as
     * SimConfig::wallMsBudget to every unit whose item left it at 0
     * (0 = no budget). Catches host-level hangs that the in-simulation
     * watchdog and cycle budgets cannot see: both measure simulated
     * time, which stops advancing precisely when the host wedges. A
     * unit over budget fails with outcome "timeout", which under
     * keepGoing is contained and journaled like any other failure.
     * NOTE: unlike every other outcome, timeouts depend on host speed;
     * a journaled "timeout" may succeed when re-run on a faster
     * machine.
     */
    std::uint64_t unitTimeoutMs = 0;
};

/**
 * Run every item's independent units (effectiveness run units and
 * overhead measurements) across @p pool and return results in item
 * order. Results are bit-identical for any pool size and across
 * journal-resumed re-invocations.
 *
 * Without opts.keepGoing the first (lowest-unit-index) failure
 * propagates after the batch drains, as runIndexed does.
 */
std::vector<BatchItemResult> runBatch(const std::vector<BatchItem> &items,
                                      RunPool &pool,
                                      const BatchOptions &opts = {});

/** @return the repro command for one unit of @p res: the item's
 * reproBase plus the failing run's --inject seed (injected runs) or
 * --overhead flag (run == -1). */
std::string reproCommand(const BatchItemResult &res, std::int64_t run);

/** @name JSON conversion (structured results for archiving/diffing)
 * @{
 */
Json toJson(const DetectorScore &score);
Json toJson(const OverheadResult &overhead);
Json toJson(const EffectivenessResult &result);
Json toJson(const EffectivenessRun &run);

DetectorScore detectorScoreFromJson(const Json &j);
OverheadResult overheadFromJson(const Json &j);
EffectivenessResult effectivenessFromJson(const Json &j);
EffectivenessRun effectivenessRunFromJson(const Json &j);

/**
 * Whole-batch document ("hard.batch.v2"): schema tag, one entry per
 * item with aggregate scores, per-run detail (including each run's
 * outcome) and overhead numbers, plus a top-level "errors" array
 * listing every failed unit with its error type, message and exact
 * single-run repro command. Deliberately independent of the worker
 * count, so dumps are byte-identical for any --jobs value.
 *
 * @param mode The sweep's execution mode: ExecMode::Fast adds a
 * "mode":"fast" field after the schema tag; ExecMode::Cycle (the
 * default) emits no mode field at all, keeping cycle-mode dumps
 * byte-identical to pre-fast-mode output.
 */
Json batchJson(const std::vector<BatchItemResult> &results,
               ExecMode mode = ExecMode::Cycle);

/**
 * The batch harness's own `hard.stats.v1` document: a "harness"
 * StatGroup counting items and unit outcomes (total/ok/failed/
 * skipped, effectiveness runs and overhead units) folded from
 * @p results. hardsim embeds it as "harnessStats" in stats-collecting
 * batch dumps.
 */
Json harnessStatsJson(const std::vector<BatchItemResult> &results);
/** @} */

} // namespace hard

#endif // HARD_HARNESS_BATCH_HH
