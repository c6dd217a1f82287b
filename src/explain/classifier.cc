#include "explain/classifier.hh"

#include <cstdio>
#include <memory>
#include <span>

#include "common/bitops.hh"
#include "trace/replayer.hh"

namespace hard
{

const char *
divergenceCategoryName(DivergenceCategory c)
{
    switch (c) {
      case DivergenceCategory::BloomAliasing: return "bloom-aliasing";
      case DivergenceCategory::CounterSaturation:
        return "counter-saturation";
      case DivergenceCategory::MetadataEviction:
        return "metadata-eviction";
      case DivergenceCategory::BarrierReset: return "barrier-reset";
      case DivergenceCategory::Granularity: return "granularity";
      case DivergenceCategory::RwlockModeBlind:
        return "rwlock-mode-blind";
      case DivergenceCategory::Unknown: return "unknown";
    }
    return "?";
}

const std::vector<std::string> &
divergenceCategoryNames()
{
    static const std::vector<std::string> names = {
        "bloom-aliasing",   "counter-saturation", "metadata-eviction",
        "barrier-reset",    "granularity",        "rwlock-mode-blind",
        "unknown",
    };
    return names;
}

bool
ExplainResult::unknownFree() const
{
    auto it = categoryCounts.find("unknown");
    return it == categoryCounts.end() || it->second == 0;
}

namespace
{

std::string
hex(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

ExplainKeySet
keysOf(const ReportSink &sink)
{
    ExplainKeySet out;
    for (const RaceReport &r : sink.reports())
        out.insert({r.addr, r.site});
    return out;
}

ExplainKeySet
coarsen(const ExplainKeySet &keys, unsigned gran)
{
    ExplainKeySet out;
    for (const ExplainKey &k : keys)
        out.insert({alignDown(k.first, gran), k.second});
    return out;
}

/**
 * Cross-reference a subject Narrow against the exact reference's
 * ExactNarrow at the same (cycle, thread): bits of the exact held
 * set's signature that the subject's Lock Register lacked. Those are
 * the fingerprints of deaf/mis-hashed Bloom state and of counters
 * that saturated and cleared a bit early.
 */
struct UnderRep
{
    bool found = false;          ///< any matched narrow pair
    std::uint32_t missingBits = 0;
    std::uint32_t missingSat = 0; ///< missing bits that had saturated
    Cycle at = 0;
};

/** R3: exact lockset with HARD's mode-blind rwlock view — a reader
 * hold enters (and leaves) the write-held set like a mutex. */
class ModeBlindLockset final : public IdealLocksetDetector
{
  public:
    using IdealLocksetDetector::IdealLocksetDetector;

    /** Dispatch on this type, so the two rwlock handlers below hide
     * the engine's. */
    void
    onEvents(std::span<const Event> evs) override
    {
        dispatchEvents(*this, evs);
    }

    void onRwLockAcquire(const Event &ev, bool) { onLockAcquire(ev); }
    void onRwLockRelease(const Event &ev, bool) { onLockRelease(ev); }
};

UnderRep
findUnderRepresentation(const GranuleProv *subj, const GranuleProv *ref)
{
    UnderRep u;
    if (subj == nullptr || ref == nullptr)
        return u;
    for (const ProvEvent &n : subj->ring) {
        if (n.kind != ProvKind::Narrow)
            continue;
        for (const ProvEvent &e : ref->ring) {
            if (e.kind != ProvKind::ExactNarrow || e.at != n.at ||
                e.tid != n.tid)
                continue;
            std::uint32_t missing = e.exactSig & ~n.lockset;
            if (missing != 0) {
                u.found = true;
                u.missingBits |= missing;
                u.missingSat |= missing & n.satMask;
                u.at = n.at;
            }
        }
    }
    return u;
}

} // namespace

ExplainResult
explainTrace(const Trace &trace, const ExplainConfig &cfg)
{
    const bool hard_subject =
        cfg.subject == ExplainConfig::Subject::Hard;
    const unsigned gran = hard_subject ? cfg.hard.granularityBytes
                                       : cfg.ideal.granularityBytes;
    const bool subj_reset = hard_subject ? cfg.hard.barrierReset
                                         : cfg.ideal.barrierReset;
    const unsigned bloom_bits = cfg.hard.bloomBits;

    ExplainResult res;
    res.cfg = cfg;
    res.granularity = gran;

    // Subject, instrumented.
    ProvRecorder subj_prov(gran, bloom_bits, cfg.ringDepth);
    std::unique_ptr<HardDetector> hard_det;
    std::unique_ptr<IdealLocksetDetector> ideal_det;
    RaceDetector *subject = nullptr;
    if (hard_subject) {
        hard_det = std::make_unique<HardDetector>("explain-subject",
                                                  cfg.hard);
        hard_det->attachProvenance(&subj_prov);
        subject = hard_det.get();
    } else {
        IdealLocksetConfig ic = cfg.ideal;
        ic.tolerateUnbalanced = true;
        ideal_det = std::make_unique<IdealLocksetDetector>(
            "explain-subject", ic);
        ideal_det->attachProvenance(&subj_prov);
        subject = ideal_det.get();
    }
    KindFilter subject_view(*subject, cfg.dropKinds);

    // R: exact lockset at the subject's granularity and barrier
    // semantics — isolates implementation artifacts.
    IdealLocksetConfig rc;
    rc.granularityBytes = gran;
    rc.barrierReset = subj_reset;
    rc.tolerateUnbalanced = true;
    IdealLocksetDetector ref_same("explain-ref-same", rc);
    ProvRecorder ref_prov(gran, bloom_bits, cfg.ringDepth);
    ref_same.attachProvenance(&ref_prov);

    // R2: exact at subject granularity WITH the flash-reset; only
    // needed to attribute barrier-reset divergences of no-reset
    // subjects.
    std::unique_ptr<IdealLocksetDetector> ref_reset;
    if (!subj_reset) {
        IdealLocksetConfig r2c = rc;
        r2c.barrierReset = true;
        ref_reset = std::make_unique<IdealLocksetDetector>(
            "explain-ref-reset", r2c);
    }

    // R3: exact at subject granularity with HARD's mode-blind rwlock
    // view; only hard subjects can diverge from R this way.
    std::unique_ptr<IdealLocksetDetector> ref_blind;
    if (hard_subject)
        ref_blind =
            std::make_unique<ModeBlindLockset>("explain-ref-blind", rc);

    // F: the paper ideal — exact, fine-grained, flash-reset on.
    IdealLocksetConfig fc;
    fc.granularityBytes = cfg.fineGranularity;
    fc.barrierReset = true;
    fc.tolerateUnbalanced = true;
    IdealLocksetDetector ref_fine("explain-ref-fine", fc);

    std::vector<AccessObserver *> observers = {&subject_view, &ref_same,
                                               &ref_fine};
    if (ref_reset)
        observers.push_back(ref_reset.get());
    if (ref_blind)
        observers.push_back(ref_blind.get());
    res.eventsReplayed = replayTrace(trace, observers);

    res.subjectKeys = keysOf(subject->sink());
    res.sameGranKeys = keysOf(ref_same.sink());
    res.referenceKeys = coarsen(keysOf(ref_fine.sink()), gran);
    const ExplainKeySet ref_reset_keys =
        ref_reset ? keysOf(ref_reset->sink()) : ExplainKeySet{};
    const ExplainKeySet ref_blind_keys =
        ref_blind ? keysOf(ref_blind->sink()) : ExplainKeySet{};

    // Subject reports with causal chains.
    for (const RaceReport &r : subject->sink().reports()) {
        ExplainedReport er;
        er.report = r;
        if (const GranuleProv *gp = subj_prov.find(r.addr)) {
            er.chain.assign(gp->ring.begin(), gp->ring.end());
            er.dropped = gp->dropped;
        }
        res.reports.push_back(std::move(er));
    }

    for (const std::string &name : divergenceCategoryNames())
        res.categoryCounts[name] = 0;
    auto attribute = [&res](bool extra, const ExplainKey &k,
                            DivergenceCategory cat, std::string why) {
        Divergence d;
        d.extra = extra;
        d.addr = k.first;
        d.site = k.second;
        d.category = cat;
        d.evidence = std::move(why);
        ++res.categoryCounts[divergenceCategoryName(cat)];
        res.divergences.push_back(std::move(d));
    };

    // Extra: subject reports the 4-byte ideal does not have.
    for (const ExplainKey &k : res.subjectKeys) {
        if (res.referenceKeys.count(k))
            continue;
        if (res.sameGranKeys.count(k)) {
            if (!subj_reset && ref_reset_keys.count(k) == 0) {
                attribute(true, k, DivergenceCategory::BarrierReset,
                          "exact lockset at " + std::to_string(gran) +
                              "B granules reports this site only when "
                              "the §3.5 flash-reset is disabled — "
                              "pre-barrier evidence was held against "
                              "post-barrier accesses");
                continue;
            }
            attribute(true, k, DivergenceCategory::Granularity,
                      "exact lockset at " + std::to_string(gran) +
                          "B granules reports the same site; the " +
                          std::to_string(cfg.fineGranularity) +
                          "B ideal does not — coarse-granule false "
                          "sharing merged unrelated accesses");
            continue;
        }
        // Even exact tracking at the subject's granularity stays
        // clean: the subject's lock set under-represented the truth.
        UnderRep u = findUnderRepresentation(subj_prov.find(k.first),
                                             ref_prov.find(k.first));
        const GranuleProv *gp = subj_prov.find(k.first);
        if ((u.found && u.missingSat != 0) ||
            (!u.found && gp && gp->satNarrows > 0)) {
            attribute(true, k, DivergenceCategory::CounterSaturation,
                      "Lock Register bits " + hex(u.missingSat) +
                          " had saturated counters (§3.3); lost "
                          "increments cleared them early and the "
                          "candidate set over-narrowed");
        } else if (u.found) {
            attribute(true, k, DivergenceCategory::BloomAliasing,
                      "Lock Register value lacked signature bits " +
                          hex(u.missingBits) +
                          " of the exactly-held locks at cycle " +
                          std::to_string(u.at) +
                          " — the Bloom encoding under-represented "
                          "the lock set");
        } else if (gp && gp->narrows > 0) {
            attribute(true, k, DivergenceCategory::BloomAliasing,
                      "candidate set narrowed to Bloom-empty while the "
                      "exact candidate set stayed non-empty");
        } else {
            attribute(true, k, DivergenceCategory::Unknown,
                      "no provenance recorded for this granule");
        }
    }

    // Missing: 4-byte-ideal reports the subject never produced.
    for (const ExplainKey &k : res.referenceKeys) {
        if (res.subjectKeys.count(k))
            continue;
        const GranuleProv *gp = subj_prov.find(k.first);
        const GranuleProv *rp = ref_prov.find(k.first);
        if (res.sameGranKeys.count(k) == 0) {
            attribute(false, k, DivergenceCategory::Granularity,
                      "exact lockset at " + std::to_string(gran) +
                          "B granules also lacks this report — the "
                          "divergence is purely the granule size");
            continue;
        }
        const Cycle ref_at = rp && rp->reports ? rp->firstReportAt : 0;
        // Mode-blindness is checked first: R3 is exact, so when it
        // also lacks the report no probabilistic artifact needs to be
        // invoked — the miss is fully explained by the hardware's
        // mode-blind rwlock view keeping the reader hold alive.
        if (ref_blind && ref_blind_keys.count(k) == 0) {
            attribute(false, k, DivergenceCategory::RwlockModeBlind,
                      "the mode-blind exact reference also lacks this "
                      "report — a reader-mode rwlock hold stayed in "
                      "the candidate set the hardware tracks, where "
                      "the mode-aware reference excludes it");
            continue;
        }
        if (gp && gp->losses > 0) {
            attribute(false, k, DivergenceCategory::MetadataEviction,
                      "granule metadata was displaced " +
                          std::to_string(gp->losses) +
                          " time(s) (§3.6), last at cycle " +
                          std::to_string(gp->lastLossAt) +
                          "; the narrowing history restarted from the "
                          "all-ones candidate set");
            continue;
        }
        if (hard_subject && gp && gp->narrowed && gp->haveBf &&
            !BfVector::rawSetEmpty(gp->lastBf, bloom_bits)) {
            attribute(false, k, DivergenceCategory::BloomAliasing,
                      "exact candidate set emptied by cycle " +
                          std::to_string(ref_at) +
                          " but the BFVector still held bits " +
                          hex(gp->lastBf) +
                          " — aliased signatures kept the set alive "
                          "(§3.2 missing-race probability)");
            continue;
        }
        if (subj_reset && gp && gp->flashes > 0) {
            attribute(false, k, DivergenceCategory::BarrierReset,
                      "a §3.5 flash-reset wiped the granule's "
                      "evidence before the report point");
            continue;
        }
        if (hard_subject) {
            attribute(false, k, DivergenceCategory::BloomAliasing,
                      "subject kept a non-empty candidate set where "
                      "the exact reference reported");
        } else {
            attribute(false, k, DivergenceCategory::Unknown,
                      "exact subject diverged from the equally-"
                      "configured exact reference");
        }
    }

    return res;
}

} // namespace hard
