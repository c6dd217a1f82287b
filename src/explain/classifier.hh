/**
 * @file
 * Divergence classifier: run the subject detector alongside exact-
 * lockset references over one recorded trace and attribute every
 * extra/missing report to a concrete HARD mechanism.
 *
 * Three references are replayed with the subject:
 *
 *  - R  — exact lockset at the *subject's* granularity, unbounded,
 *         mirroring the subject's barrier-reset setting. Any subject
 *         divergence from R is an implementation artifact (Bloom
 *         encoding, Counter Register, bounded metadata); agreement
 *         with R pushes the divergence out to the granularity layer.
 *  - R2 — exact lockset at the subject's granularity *with* the §3.5
 *         flash-reset (only built when the subject disables it), used
 *         to attribute barrier-reset divergences.
 *  - R3 — exact lockset at the subject's granularity with HARD's
 *         mode-blind rwlock view (only built for hard subjects): a
 *         missing report that R has but R3 also lacks is explained by
 *         the hardware seeing one lock-word RMW per rwlock acquire
 *         regardless of mode, not by any Bloom artifact.
 *  - F  — exact lockset at fine (4-byte) granularity with the flash-
 *         reset: the paper's "ideal" (§4). The divergence universe is
 *         subject vs. coarsen(F).
 *
 * Attribution is a priority chain over the provenance evidence, so
 * every divergence lands in exactly one category.
 */

#ifndef HARD_EXPLAIN_CLASSIFIER_HH
#define HARD_EXPLAIN_CLASSIFIER_HH

#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/hard_detector.hh"
#include "detectors/ideal_lockset.hh"
#include "explain/prov.hh"
#include "trace/trace.hh"

namespace hard
{

/** Source-level report identity: (granule base address, site). */
using ExplainKey = std::pair<Addr, SiteId>;
using ExplainKeySet = std::set<ExplainKey>;

/** Root causes a HARD-vs-exact-lockset divergence is attributed to. */
enum class DivergenceCategory : std::uint8_t
{
    /** BFVector signature mis-represents the exact lock set (§3.2). */
    BloomAliasing = 0,
    /** 2-bit Counter Register saturated; a bit cleared early (§3.3). */
    CounterSaturation = 1,
    /** Candidate set lost to L2 displacement (§3.6). */
    MetadataEviction = 2,
    /** §3.5 flash-reset semantics differ from the reference. */
    BarrierReset = 3,
    /** Coarse-granule false sharing vs the 4-byte ideal. */
    Granularity = 4,
    /** HARD's mode-blind rwlock view (one lock-word RMW either way)
     * kept a reader hold in the candidate set where the mode-aware
     * reference excludes it for writes — the report is missing by
     * design, not by Bloom artifact. */
    RwlockModeBlind = 5,
    /** No mechanism matched (must stay empty on honest configs). */
    Unknown = 6,
};

/** @return stable kebab-case name of @p c (JSON vocabulary). */
const char *divergenceCategoryName(DivergenceCategory c);

/** All category names, in enum order (schema validation). */
const std::vector<std::string> &divergenceCategoryNames();

/** What to explain and against which ideal. */
struct ExplainConfig
{
    enum class Subject : std::uint8_t
    {
        Hard,
        IdealLockset,
    };

    Subject subject = Subject::Hard;
    /** Subject hardware config (Subject::Hard). */
    HardConfig hard;
    /** Subject config (Subject::IdealLockset). */
    IdealLocksetConfig ideal;
    /** Granularity of the F reference (the paper ideal: 4 bytes). */
    unsigned fineGranularity = 4;
    /** Events kept per granule in each provenance ring. */
    unsigned ringDepth = ProvRecorder::kDefaultDepth;

    /**
     * Event kinds the subject never sees (the fuzzer's sabotage,
     * fuzz/weaken.hh). The references see every event, so the
     * attribution names what the dropped kinds broke.
     */
    EventKindMask dropKinds = 0;
};

/** One subject report plus the granule's recorded causal chain. */
struct ExplainedReport
{
    RaceReport report;
    /** Recent provenance of the granule, oldest first. */
    std::vector<ProvEvent> chain;
    /** Events that fell off the bounded ring before the report. */
    std::uint64_t dropped = 0;
};

/** One attributed extra/missing report key. */
struct Divergence
{
    /** true: subject-only report; false: reference-only (missing). */
    bool extra = false;
    Addr addr = 0;
    SiteId site = invalidSite;
    DivergenceCategory category = DivergenceCategory::Unknown;
    /** Human-readable causal note backing the attribution. */
    std::string evidence;
};

/** Everything explainTrace() derives from one trace. */
struct ExplainResult
{
    ExplainConfig cfg;
    /** Subject granularity in bytes (divergence keys align to it). */
    unsigned granularity = 32;
    std::size_t eventsReplayed = 0;

    /** Subject reports with their provenance chains, in sink order. */
    std::vector<ExplainedReport> reports;
    /** Attributed divergences: extras first, then missing, each in
     * key order (deterministic). */
    std::vector<Divergence> divergences;
    /** Count per category name; every defined category is present. */
    std::map<std::string, unsigned> categoryCounts;

    /** Subject report keys. */
    ExplainKeySet subjectKeys;
    /** F (fine ideal) keys coarsened to the subject granularity. */
    ExplainKeySet referenceKeys;
    /** R (exact at subject granularity) keys. */
    ExplainKeySet sameGranKeys;

    /** @return true when no divergence fell into Unknown. */
    bool unknownFree() const;
};

/**
 * Replay @p trace through an instrumented subject and the exact
 * references and attribute every divergence.
 */
ExplainResult explainTrace(const Trace &trace, const ExplainConfig &cfg);

} // namespace hard

#endif // HARD_EXPLAIN_CLASSIFIER_HH
