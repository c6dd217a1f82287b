#include "fuzz/explain_case.hh"

#include <memory>
#include <string>

#include "common/error.hh"
#include "explain/classifier.hh"
#include "explain/explain_json.hh"
#include "fuzz/invariants.hh"
#include "fuzz/oracle.hh"
#include "trace/replayer.hh"

namespace hard
{

const char *const kSemaEdgesCategory = "semaphore-edges";
const char *const kRwlockEdgesCategory = "rwlock-edges";
const char *const kCondEdgesCategory = "condvar-edges";
const char *const kAtomicEdgesCategory = "atomic-edges";
const char *const kReaderHoldBlindCategory = "reader-hold-blind";

namespace
{

std::string
hexAddr(Addr a)
{
    return errfmt("0x%llx", static_cast<unsigned long long>(a));
}

Json
divergenceEntry(bool extra, Addr addr, SiteId site, const Trace &trace,
                const std::string &category, const std::string &evidence)
{
    Json jd = Json::object();
    jd.set("direction", extra ? "extra" : "missing");
    jd.set("addr", hexAddr(addr));
    jd.set("site", static_cast<std::uint64_t>(site));
    if (site < trace.siteNames.size())
        jd.set("site_name", trace.siteNames[site]);
    jd.set("category", category);
    jd.set("evidence", evidence);
    return jd;
}

/** HARD (honest or Lock-Register-deaf) or no-reset exact lockset vs
 * the exact references, via the hard_explain classifier. */
Json
explainLocksetSubject(const Trace &trace, const FuzzConfig &cfg)
{
    ExplainConfig ec;
    if (cfg.weaken == Weaken::Ideal) {
        // The sabotage drops barriers; an exact subject configured
        // without the flash-reset behaves identically, and the
        // classifier's R2 reference then names the sabotage.
        ec.subject = ExplainConfig::Subject::IdealLockset;
        ec.ideal.granularityBytes = cfg.granularity;
        ec.ideal.barrierReset = false;
    } else {
        ec.subject = ExplainConfig::Subject::Hard;
        ec.hard.granularityBytes = cfg.granularity;
        ec.hard.bloomBits = cfg.bloomBits;
        // The fuzz battery runs HARD unbounded (containment needs it).
        ec.hard.unbounded = true;
        ec.dropKinds = weakenedKinds(cfg.weaken);
    }

    ExplainResult res = explainTrace(trace, ec);

    Json j = Json::object();
    j.set("subject", cfg.weaken == Weaken::Ideal ? "ideal-lockset"
                                                 : "hard");
    j.set("weaken", weakenName(cfg.weaken));
    j.set("attribution", attributionJson(res));
    Json list = Json::array();
    for (const Divergence &d : res.divergences)
        list.push(divergenceEntry(d.extra, d.addr, d.site, trace,
                                  divergenceCategoryName(d.category),
                                  d.evidence));
    j.set("divergences", std::move(list));
    return j;
}

/**
 * Clock-detector edge ablation: compare the subject's keys against the
 * vector-clock oracle (epoch mode for happens-before, full-write-vector
 * mode for DJIT+) with each synchronization edge family removed in
 * turn. An extra key that only an ablated oracle reproduces is
 * attributable to that family's missing edges.
 */
Json
explainClockSubject(const Trace &trace, const FuzzConfig &cfg)
{
    const bool djit = cfg.weaken == Weaken::Djit;

    std::unique_ptr<RaceDetector> subject;
    if (djit)
        subject = std::make_unique<DjitPlusDetector>("explain-subject", 4);
    else
        subject = std::make_unique<HappensBeforeDetector>(
            "explain-subject", HbConfig::ideal());
    KindFilter deaf(*subject, weakenedKinds(cfg.weaken));
    replayTrace(trace, {&deaf});
    subject->finalize();

    const KeySet subj = reportKeys(subject->sink());
    HbOracleOpts base;
    base.fullWriteVector = djit;
    const KeySet full = oracleHappensBefore(trace, 4, base);

    struct Family
    {
        const char *category;
        bool HbOracleOpts::*edge;
        KeySet keys;
    };
    std::vector<Family> families = {
        {kSemaEdgesCategory, &HbOracleOpts::semaEdges, {}},
        {kRwlockEdgesCategory, &HbOracleOpts::rwlockEdges, {}},
        {kCondEdgesCategory, &HbOracleOpts::condEdges, {}},
        {kAtomicEdgesCategory, &HbOracleOpts::atomicEdges, {}},
    };
    for (Family &f : families) {
        HbOracleOpts opts = base;
        opts.*(f.edge) = false;
        f.keys = oracleHappensBefore(trace, 4, opts);
    }

    unsigned extra = 0, missing = 0, unknown = 0;
    std::map<std::string, unsigned> famCounts;
    Json list = Json::array();
    for (const ReportKey &k : subj) {
        if (full.count(k))
            continue;
        ++extra;
        const Family *hit = nullptr;
        for (const Family &f : families)
            if (f.keys.count(k)) {
                hit = &f;
                break;
            }
        if (hit != nullptr) {
            ++famCounts[hit->category];
            list.push(divergenceEntry(
                true, k.first, k.second, trace, hit->category,
                std::string("the vector-clock oracle reports this key "
                            "only with ") +
                    hit->category +
                    " removed — the subject ignored that ordering"));
        } else {
            ++unknown;
            list.push(divergenceEntry(
                true, k.first, k.second, trace, "unknown",
                "neither the full nor any edge-ablated oracle "
                "reproduces this report"));
        }
    }
    for (const ReportKey &k : full) {
        if (subj.count(k))
            continue;
        ++missing;
        ++unknown;
        list.push(divergenceEntry(
            false, k.first, k.second, trace, "unknown",
            "removing synchronization edges can only add reports; a "
            "missing one implicates the subject's clock bookkeeping"));
    }

    Json j = Json::object();
    j.set("subject", djit ? "djit-plus" : "happens-before");
    j.set("weaken", weakenName(cfg.weaken));
    Json attr = Json::object();
    attr.set("extra", extra);
    attr.set("missing", missing);
    Json cats = Json::object();
    for (const Family &f : families)
        cats.set(f.category, famCounts[f.category]);
    cats.set("unknown", unknown);
    attr.set("categories", std::move(cats));
    j.set("attribution", std::move(attr));
    j.set("divergences", std::move(list));
    return j;
}

/**
 * RaceTrack read-blind explain: the sabotaged subject against the
 * honest RaceTrack over the same trace. Every extra key is evidence of
 * the dropped reader-mode holds (lost read-held locks and lost
 * writer→reader ordering); missing keys would implicate something
 * else entirely and stay unknown.
 */
Json
explainRacetrackSubject(const Trace &trace, const FuzzConfig &cfg)
{
    RaceTrackConfig rtc;
    rtc.granularityBytes = 4;
    rtc.tolerateUnbalanced = true;
    RaceTrackDetector subject("explain-subject", rtc);
    KindFilter read_blind(subject, weakenedKinds(cfg.weaken));
    RaceTrackDetector honest("explain-ref", rtc);
    replayTrace(trace, {&read_blind, &honest});
    subject.finalize();
    honest.finalize();

    const KeySet subj = reportKeys(subject.sink());
    const KeySet ref = reportKeys(honest.sink());

    unsigned extra = 0, missing = 0, blind = 0, unknown = 0;
    Json list = Json::array();
    for (const ReportKey &k : subj) {
        if (ref.count(k))
            continue;
        ++extra;
        ++blind;
        list.push(divergenceEntry(
            true, k.first, k.second, trace, kReaderHoldBlindCategory,
            "the honest RaceTrack does not report this key — dropping "
            "reader-mode holds emptied the candidate set or lost the "
            "writer→reader ordering that suppressed it"));
    }
    for (const ReportKey &k : ref) {
        if (subj.count(k))
            continue;
        ++missing;
        ++unknown;
        list.push(divergenceEntry(
            false, k.first, k.second, trace, "unknown",
            "ignoring reader holds can only add reports; a missing "
            "one implicates the subject's state machine"));
    }

    Json j = Json::object();
    j.set("subject", "racetrack");
    j.set("weaken", weakenName(cfg.weaken));
    Json attr = Json::object();
    attr.set("extra", extra);
    attr.set("missing", missing);
    Json cats = Json::object();
    cats.set(kReaderHoldBlindCategory, blind);
    cats.set("unknown", unknown);
    attr.set("categories", std::move(cats));
    j.set("attribution", std::move(attr));
    j.set("divergences", std::move(list));
    return j;
}

} // namespace

Json
explainFuzzCase(const Trace &trace, const FuzzConfig &cfg)
{
    switch (cfg.weaken) {
      case Weaken::Hb:
      case Weaken::Djit:
        return explainClockSubject(trace, cfg);
      case Weaken::Racetrack:
        return explainRacetrackSubject(trace, cfg);
      default:
        return explainLocksetSubject(trace, cfg);
    }
}

} // namespace hard
