/**
 * @file
 * Cross-detector containment invariants checked by the fuzzer.
 *
 * All comparisons are over (granule base address, site) report keys —
 * the source-level identity a report dedups on — extracted from each
 * detector's ReportSink after driving every detector over the *same*
 * event stream. The enforced relations:
 *
 *  - hard-subset-of-ideal: with unbounded metadata, equal granularity
 *    and lock nesting within the Counter Register range, HARD's Bloom
 *    candidate sets are supersets of the exact candidate sets (each
 *    held lock keeps its own signature bits alive through every AND),
 *    so a Bloom-empty set implies an exact-empty set and HARD's
 *    reports are contained in the ideal lockset detector's. Aliasing
 *    can only *hide* races (the paper's §3.2 missing-race
 *    probability), never invent ones the exact detector lacks.
 *  - hybrid-subset-of-hard: the hybrid runs HARD's lockset protocol
 *    unchanged and only *suppresses* reports whose parties are ordered
 *    by non-lock synchronization (§7).
 *  - fine-subset-of-coarse: Eraser state is monotone and coarse
 *    granules see a superset of the accesses (and hence a subset of
 *    the candidate locks) of each fine granule they contain, so every
 *    fine-granularity ideal report maps into a coarse-granularity one.
 *  - lockset-matches-oracle: the production exact-lockset detector
 *    must agree exactly with the independent reference implementation
 *    replayed over the recorded trace (both granularities).
 *  - hb-matches-oracle: the production epoch happens-before detector
 *    must agree exactly with the independent full-read-vector
 *    reference: FastTrack's adaptive read epochs are
 *    detection-equivalent to full read vectors (Flanagan & Freund).
 *  - hb-matches-fasttrack: HappensBeforeDetector and FastTrackDetector
 *    run the same epoch rules (EpochHbDetector) on different storage,
 *    MetaCache and ShadowMemory, so this checks that the two storage
 *    backends agree.
 *  - djit-matches-oracle: the DJIT+ full-vector detector must agree
 *    exactly with the reference happens-before oracle run in
 *    full-write-vector mode.
 *  - hb-subset-of-djit: at equal granularity the epoch representation
 *    can only forget history the full vectors keep (the last write is
 *    one of the vector's writes; read clocks are never clobbered), so
 *    every epoch-HB report is also a DJIT+ report.
 *  - racetrack-subset-of-ideal: RaceTrack runs the identical Eraser
 *    state machine and effective-lockset intersection as the fine
 *    ideal lockset detector and only ever *suppresses* alarms via its
 *    full happens-before check.
 *  - sampled-subset-of-ideal / sampled-subset-of-hb (only when the
 *    sweep runs with --sample-rate < 1): granule-mode sampling shows
 *    a detector an exact per-granule substream — every granule is
 *    fully observed or fully invisible, and sync events always pass —
 *    so a per-granule-independent detector's sampled report set must
 *    be contained in its unsampled one. Granule mode only: epoch
 *    duty-cycling can make an HB detector flag a stale last-writer
 *    the full run already ordered, so no subset relation holds there.
 *
 * Deliberately NOT checked: lockset vs happens-before in either
 * direction — the families are incomparable (read-shared suppression
 * vs. interleaving sensitivity).
 */

#ifndef HARD_FUZZ_INVARIANTS_HH
#define HARD_FUZZ_INVARIANTS_HH

#include <string>
#include <vector>

#include "detectors/report.hh"
#include "fuzz/oracle.hh"

namespace hard
{

/** @return the deduplicated (granule, site) keys in @p sink. */
KeySet reportKeys(const ReportSink &sink);

/** @return @p keys with every granule base re-aligned to @p gran. */
KeySet coarsenKeys(const KeySet &keys, unsigned gran);

/** Everything checkInvariants() compares. */
struct FuzzReportSet
{
    /** Granularity of hard/ideal/hybrid report keys (bytes). */
    unsigned granularity = 32;
    KeySet hard;             ///< HardDetector, unbounded, granularity
    KeySet ideal;            ///< IdealLockset at granularity
    KeySet idealFine;        ///< IdealLockset at 4 bytes
    KeySet hybrid;           ///< HybridDetector, unbounded, granularity
    KeySet hb;               ///< HappensBefore, HbConfig::ideal()
    KeySet fasttrack;        ///< FastTrack at 4 bytes
    KeySet djit;             ///< DjitPlus at 4 bytes
    KeySet racetrack;        ///< RaceTrack at 4 bytes
    KeySet oracleLs;         ///< reference lockset at granularity
    KeySet oracleLsFine;     ///< reference lockset at 4 bytes
    KeySet oracleHb;         ///< reference happens-before at 4 bytes
    KeySet oracleHbFull;     ///< reference HB, full-write-vector, 4B
    /** Granule-sampling rate of the sampled legs (1 = legs absent). */
    double sampleRate = 1.0;
    KeySet idealSampled;     ///< IdealLockset at granularity, sampled
    KeySet hbSampled;        ///< HappensBefore ideal, sampled
};

/** One violated invariant, with a bounded witness list. */
struct Violation
{
    /** Stable invariant name (see file comment). */
    std::string invariant;
    /** Human-readable relation that failed, e.g. "hard ⊆ ideal". */
    std::string detail;
    /** Offending keys (sorted, capped at kMaxWitnesses). */
    std::vector<ReportKey> witnesses;
    /** Total offending keys before capping. */
    std::size_t totalWitnesses = 0;

    static constexpr std::size_t kMaxWitnesses = 8;
};

/** Names of every invariant, in the order they are checked. */
const std::vector<std::string> &invariantNames();

/** Names of the sampled-leg invariants, checked only when the sweep
 * runs with a granule sampling rate < 1. */
const std::vector<std::string> &sampledInvariantNames();

/**
 * Check every containment/equality invariant over @p r.
 * @return violations in a deterministic order (empty when all hold).
 */
std::vector<Violation> checkInvariants(const FuzzReportSet &r);

} // namespace hard

#endif // HARD_FUZZ_INVARIANTS_HH
