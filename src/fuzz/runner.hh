/**
 * @file
 * Differential fuzzing runner: one seed = generate a random program,
 * simulate it once with the full detector battery and a TraceRecorder
 * attached, replay the recording through the independent oracles,
 * cross-check the containment invariants, and — on violation — ddmin
 * the trace to a minimal repro and dump corpus-style artifacts.
 *
 * Seeds are independent, so sweeps fan out through the PR-1 RunPool
 * with index-ordered merging; per-seed failures are contained (PR-2
 * style keep-going) and the hard.fuzz.v1 JSON summary is byte-identical
 * at any --jobs.
 */

#ifndef HARD_FUZZ_RUNNER_HH
#define HARD_FUZZ_RUNNER_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/json.hh"
#include "core/hard_detector.hh"
#include "core/hybrid.hh"
#include "detectors/djit_plus.hh"
#include "detectors/fasttrack.hh"
#include "detectors/happens_before.hh"
#include "detectors/ideal_lockset.hh"
#include "detectors/racetrack.hh"
#include "fuzz/generator.hh"
#include "fuzz/invariants.hh"
#include "fuzz/minimizer.hh"
#include "fuzz/weaken.hh"
#include "harness/experiment.hh"
#include "sim/sampling.hh"
#include "trace/trace.hh"
#include "trace/trace_cache.hh"

namespace hard
{

/** Analysis-side configuration of one fuzz unit. */
struct FuzzConfig
{
    /** HARD/ideal/hybrid comparison granularity (4..32, power of 2). */
    unsigned granularity = 32;
    /** BFVector width for HARD and the hybrid. */
    unsigned bloomBits = 16;
    /** Detector sabotage hook (self-test; None for honest runs). */
    Weaken weaken = Weaken::None;
    /**
     * Detection-sampling rate of the sampled cross-check legs in
     * (0, 1]; 1 disables them. When < 1, two extra detectors (an
     * ideal lockset and an ideal happens-before) run behind a
     * granule-mode SamplingObserver and the fuzzer enforces that
     * their report sets are subsets of the unsampled ones. Granule
     * mode only — epoch duty-cycling voids the subset guarantee.
     */
    double sampleRate = 1.0;
    /** Seed of the sampled legs' granule schedule. */
    std::uint64_t sampleSeed = 1;
};

/** Whole-sweep options. */
struct FuzzOptions
{
    /** Seeds to run (each is one independent fuzz unit). */
    std::vector<std::uint64_t> seeds;
    /** RunPool fan-out (0 = hardware concurrency). */
    unsigned jobs = 1;
    FuzzGenConfig gen;
    FuzzConfig cfg;
    /** ddmin violating traces down to minimal repros. */
    bool minimize = true;
    /** Predicate-probe cap per minimization. */
    std::size_t maxProbes = 2000;
    /** Directory for violation artifacts ("" = don't write any). */
    std::string outDir;
    /**
     * ExecMode::Fast records each seed's program once (or loads the
     * recording from @ref traceCache) and derives every detector and
     * oracle key set from the trace via analyzeTrace(), skipping the
     * live cycle-level run. Results are identical to cycle mode
     * (replay equivalence); only the live-vs-replayed recorder
     * cross-check degenerates, since both sides then share the trace.
     */
    ExecMode mode = ExecMode::Cycle;
    /**
     * Recording store for fast mode (not owned; may be null). Keyed by
     * (seed, generator shape, sim config) — deliberately NOT by the
     * analysis config, so one recording serves sweeps across
     * granularities, bloom widths and weaken variants.
     */
    TraceCache *traceCache = nullptr;
};

/**
 * @return the SimConfig a fuzz unit simulates @p prog under: Table 1
 * defaults widened to one core per generated thread, with the default
 * cycle budget applied (shared by the live and fast paths, and by the
 * tests that re-record fuzz programs).
 */
SimConfig fuzzSimConfig(const Program &prog);

/** @return the fast-mode cache key of fuzz seed @p seed generated
 * under @p gen and simulated under @p sim. */
TraceKey fuzzTraceKey(std::uint64_t seed, const FuzzGenConfig &gen,
                      const SimConfig &sim);

/** The detector battery a fuzz unit drives (one fresh set per run). */
struct FuzzBattery
{
    std::unique_ptr<HardDetector> hard;
    std::unique_ptr<IdealLocksetDetector> ideal;
    std::unique_ptr<IdealLocksetDetector> idealFine;
    std::unique_ptr<HybridDetector> hybrid;
    std::unique_ptr<HappensBeforeDetector> hb;
    std::unique_ptr<FastTrackDetector> fasttrack;
    std::unique_ptr<DjitPlusDetector> djit;
    std::unique_ptr<RaceTrackDetector> racetrack;

    /** Sampled cross-check legs (null unless cfg.sampleRate < 1):
     * clones of the ideal lockset and HB detectors fed through
     * granule-mode SamplingObserver taps. */
    std::unique_ptr<IdealLocksetDetector> idealSampled;
    std::unique_ptr<HappensBeforeDetector> hbSampled;
    std::unique_ptr<SamplingObserver> idealSampledTap;
    std::unique_ptr<SamplingObserver> hbSampledTap;

    /** The filter in front of the weakened member, dropping its
     * weakenedKinds() (null unless cfg.weaken is set). */
    std::unique_ptr<KindFilter> weakenedTap;

    /** All unsampled detectors, in a stable order. */
    std::vector<RaceDetector *> detectors() const;

    /**
     * What to attach to a run, in detectors() order: each detector, or
     * the filter in front of the weakened one; then the sampling taps.
     * Never attach detectors() directly.
     */
    std::vector<AccessObserver *> observers() const;

    /** The sampled legs' detectors, for finalize/key collection
     * (empty when rate = 1). Never attach these directly — they must
     * only see the substream their tap forwards. */
    std::vector<RaceDetector *> sampledDetectors() const;
};

/** @return a fresh battery per @p cfg (weakened member included). */
FuzzBattery makeFuzzBattery(const FuzzConfig &cfg);

/**
 * Post-mortem analysis of a trace: replay it through a fresh battery
 * and the oracles, returning every key set checkInvariants() needs.
 */
FuzzReportSet analyzeTrace(const Trace &trace, const FuzzConfig &cfg);

/** Outcome of one fuzz seed. */
struct SeedResult
{
    std::uint64_t seed = 0;
    /** "ok" | "violation" | "failed" | "quarantined" (the last
     * synthesized by the campaign supervisor for a seed that
     * repeatedly crashed its shard; never produced by runFuzzSeed). */
    std::string outcome = "ok";
    /** Set when outcome == "failed" (or "quarantined"). */
    std::string errorType;
    std::string errorMessage;
    /** Recorded trace length (events). */
    std::size_t events = 0;
    /** Detector name -> distinct (granule, site) report keys. */
    std::map<std::string, std::size_t> detectorKeys;
    std::vector<Violation> violations;
    /** Minimization statistics (when a violation was minimized). */
    bool minimized = false;
    MinimizeStats minStats;
    /** Artifact paths (set when FuzzOptions::outDir is nonempty). */
    std::string tracePath;
    std::string minTracePath;
    std::string casePath;
};

/**
 * Run one fuzz seed end to end. Exceptions from the simulation are
 * contained and reported as outcome "failed".
 */
SeedResult runFuzzSeed(std::uint64_t seed, const FuzzOptions &opts);

/**
 * Run every seed in @p opts across a RunPool. Results are merged in
 * seed-index order regardless of --jobs.
 */
std::vector<SeedResult> runFuzzSeeds(const FuzzOptions &opts);

/** Build the hard.fuzz.v1 summary document (no --jobs dependence). */
Json fuzzJson(const FuzzOptions &opts,
              const std::vector<SeedResult> &results);

/**
 * One seed's entry in the hard.fuzz.v1 "seeds" array — also the
 * journal payload of a fuzz campaign unit. seedResultFromJson() is
 * its lossless inverse (for every field the document carries), so a
 * campaign-merged summary is byte-identical to a single-process one.
 */
Json seedResultJson(const SeedResult &sr);
SeedResult seedResultFromJson(const Json &j);

/**
 * Canonical description of a fuzz sweep (campaign journal headers):
 * the seed set, generator shape, analysis config, minimization and
 * artifact settings. Two invocations with equal signatures produce
 * unit-for-unit interchangeable payloads.
 */
std::string fuzzSignature(const FuzzOptions &opts);

/**
 * Parse a --seeds spec: "N" (seeds 0..N-1) or "A..B" (inclusive).
 * @throws ConfigError on malformed specs.
 */
std::vector<std::uint64_t> parseSeedSpec(const std::string &spec);

} // namespace hard

#endif // HARD_FUZZ_RUNNER_HH
