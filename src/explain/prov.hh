/**
 * @file
 * Per-granule provenance recorder: the audit trail behind every HARD
 * verdict.
 *
 * A race report (and every HARD-vs-exact-lockset divergence) is the
 * product of invisible micro-state — BFVector intersections, Counter
 * Register saturation (§3.3), metadata displacement (§3.6) and barrier
 * flash-resets (§3.5). The ProvRecorder captures that metadata
 * lifecycle as a bounded ring of events per granule plus a small
 * never-dropped summary, so a report can be rendered as a causal chain
 * and the divergence classifier can attribute extra/missing reports to
 * a concrete mechanism.
 *
 * The recorder is *pull-in only*: detectors hold a `ProvRecorder *`
 * that is null unless explicitly attached (`--explain`), and every
 * hook site is guarded by that null check — the same zero-cost-when-
 * off discipline as the telemetry layers (byte-identity is locked down
 * by tests/test_explain_neutrality.cc). Header-only so the low-level
 * detector libraries can record without a link-time dependency on the
 * classifier library.
 */

#ifndef HARD_EXPLAIN_PROV_HH
#define HARD_EXPLAIN_PROV_HH

#include <cstdint>
#include <deque>
#include <map>
#include <utility>
#include <vector>

#include "core/bloom.hh"
#include "detectors/lockset_core.hh"
#include "detectors/lockset_state.hh"

namespace hard
{

/** Kinds of provenance events in a granule's audit trail. */
enum class ProvKind : std::uint8_t
{
    /** Candidate-set AND with the Lock Register (HARD side). */
    Narrow = 0,
    /** Candidate-set intersection with an exact lock set. */
    ExactNarrow = 1,
    /** A race report was emitted for this granule. */
    Report = 2,
    /** Metadata lost to L2 displacement (§3.6). */
    MetaLoss = 3,
    /** Fresh metadata line (re)created after a loss. */
    Refetch = 4,
    /** Candidate set broadcast on a shared read (§3.4). */
    Broadcast = 5,
    /** Barrier flash-reset wiped the candidate set (§3.5). */
    FlashReset = 6,
};

/** @return printable name of @p k. */
const char *provKindName(ProvKind k);

/** One provenance event. Fields are kind-dependent; unused stay 0. */
struct ProvEvent
{
    /** ExactNarrow candSize value meaning "still the universe". */
    static constexpr unsigned kUniverse = ~0u;

    ProvKind kind = ProvKind::Narrow;
    Cycle at = 0;
    ThreadId tid = invalidThread;
    SiteId site = invalidSite;
    bool write = false;
    /** Narrow/ExactNarrow: LState transition of the access. */
    LState stateBefore = LState::Virgin;
    LState stateAfter = LState::Virgin;
    /** Narrow: raw BFVector before, Lock Register value, BFVector
     * after. Broadcast: bfAfter = the broadcast candidate set. */
    std::uint32_t bfBefore = 0;
    std::uint32_t lockset = 0;
    std::uint32_t bfAfter = 0;
    /** Narrow: Lock Register bits that have saturated since the last
     * register reset (undercounted — may clear early on release). */
    std::uint32_t satMask = 0;
    /** ExactNarrow: union BFVector signature of the exact held set. */
    std::uint32_t exactSig = 0;
    /** ExactNarrow: exact held-lock count. */
    unsigned heldSize = 0;
    /** ExactNarrow: candidate size after (kUniverse if untouched). */
    unsigned candSize = kUniverse;
    /** FlashReset: barrier episode ordinal. */
    unsigned episode = 0;
};

/** Audit trail of one granule: bounded ring + never-dropped summary. */
struct GranuleProv
{
    /** Most recent events, oldest first; bounded by the ring depth. */
    std::deque<ProvEvent> ring;
    /** Events that fell off the front of the ring. */
    std::uint64_t dropped = 0;

    // --- summary: maintained for the whole run, never dropped ---
    bool accessed = false;
    Cycle firstAccessAt = 0;
    ThreadId firstAccessor = invalidThread;
    ThreadId lastAccessor = invalidThread;
    /** Most recent accessor that differs from lastAccessor — the
     * "other side" a lockset report can name (RaceReport::other). */
    ThreadId lastOtherAccessor = invalidThread;
    Cycle lastOtherAt = 0;

    bool narrowed = false;
    Cycle firstNarrowAt = 0;
    std::uint64_t narrows = 0;
    /** Narrowings performed while the Lock Register had saturated
     * (undercounted) bits — counter-saturation suspects. */
    std::uint64_t satNarrows = 0;

    std::uint64_t losses = 0;
    Cycle lastLossAt = 0;
    std::uint64_t refetches = 0;
    std::uint64_t broadcasts = 0;
    std::uint64_t flashes = 0;
    Cycle lastFlashAt = 0;

    std::uint64_t reports = 0;
    Cycle firstReportAt = 0;

    /** Last known candidate state (HARD: raw BFVector). */
    bool haveBf = false;
    std::uint32_t lastBf = 0xffffffffu;
    /** Last known exact candidate size (ExactNarrow side). */
    bool haveExact = false;
    unsigned lastCandSize = ProvEvent::kUniverse;
};

/**
 * Bounded per-granule provenance store for one detector instance.
 *
 * Granules are keyed by their base address in an ordered map, so every
 * iteration (and hence every JSON dump built from one) is
 * deterministic.
 */
class ProvRecorder
{
  public:
    /**
     * @param granularity_bytes Granule size of the observed detector.
     * @param bloom_bits BFVector width (for exact-set signatures).
     * @param ring_depth Events kept per granule before dropping.
     */
    explicit ProvRecorder(unsigned granularity_bytes,
                          unsigned bloom_bits = 16,
                          unsigned ring_depth = kDefaultDepth)
        : gran_(granularity_bytes),
          bloomBits_(BfVector::checkWidth(bloom_bits)),
          depth_(ring_depth ? ring_depth : 1)
    {
    }

    static constexpr unsigned kDefaultDepth = 32;

    /** Track accessor history of @p granule (call once per access). */
    void
    noteAccess(Addr granule, ThreadId tid, Cycle at)
    {
        GranuleProv &g = granules_[granule];
        if (!g.accessed) {
            g.accessed = true;
            g.firstAccessAt = at;
            g.firstAccessor = tid;
        }
        if (g.lastAccessor != invalidThread && g.lastAccessor != tid) {
            g.lastOtherAccessor = g.lastAccessor;
            g.lastOtherAt = at;
        }
        g.lastAccessor = tid;
    }

    /** @return the last accessor of @p granule other than the current
     * one (invalidThread when single-threaded so far). */
    ThreadId
    lastOther(Addr granule) const
    {
        auto it = granules_.find(granule);
        return it == granules_.end() ? invalidThread
                                     : it->second.lastOtherAccessor;
    }

    /** A HARD candidate-set AND against the Lock Register. */
    void
    recordNarrow(Addr granule, ThreadId tid, SiteId site, bool write,
                 Cycle at, LState state_before, LState state_after,
                 std::uint32_t bf_before, std::uint32_t lockset,
                 std::uint32_t bf_after, std::uint32_t sat_mask)
    {
        GranuleProv &g = granules_[granule];
        if (!g.narrowed) {
            g.narrowed = true;
            g.firstNarrowAt = at;
        }
        ++g.narrows;
        if (sat_mask != 0)
            ++g.satNarrows;
        g.haveBf = true;
        g.lastBf = bf_after;
        ProvEvent e;
        e.kind = ProvKind::Narrow;
        e.at = at;
        e.tid = tid;
        e.site = site;
        e.write = write;
        e.stateBefore = state_before;
        e.stateAfter = state_after;
        e.bfBefore = bf_before;
        e.lockset = lockset;
        e.bfAfter = bf_after;
        e.satMask = sat_mask;
        push(g, e);
    }

    /** An exact-lockset candidate intersection (reference side);
     * @p held is the interned protecting set in @p locksets. */
    void
    recordExactNarrow(Addr granule, ThreadId tid, SiteId site,
                      bool write, Cycle at, LState state_before,
                      LState state_after, const LocksetTable &locksets,
                      LocksetId held, bool universe_after,
                      unsigned cand_size_after)
    {
        GranuleProv &g = granules_[granule];
        if (!g.narrowed) {
            g.narrowed = true;
            g.firstNarrowAt = at;
        }
        ++g.narrows;
        g.haveExact = true;
        g.lastCandSize =
            universe_after ? ProvEvent::kUniverse : cand_size_after;
        ProvEvent e;
        e.kind = ProvKind::ExactNarrow;
        e.at = at;
        e.tid = tid;
        e.site = site;
        e.write = write;
        e.stateBefore = state_before;
        e.stateAfter = state_after;
        e.heldSize = static_cast<unsigned>(locksets.size(held));
        for (LockAddr l : locksets.locks(held))
            e.exactSig |= BfVector::signatureBits(l, bloomBits_);
        e.candSize = g.lastCandSize;
        push(g, e);
    }

    /** A race report was emitted for @p granule. */
    void
    recordReport(Addr granule, ThreadId tid, SiteId site, bool write,
                 Cycle at)
    {
        GranuleProv &g = granules_[granule];
        if (g.reports == 0)
            g.firstReportAt = at;
        ++g.reports;
        ProvEvent e;
        e.kind = ProvKind::Report;
        e.at = at;
        e.tid = tid;
        e.site = site;
        e.write = write;
        push(g, e);
    }

    /**
     * Metadata of the line at @p line_addr was displaced (§3.6): every
     * already-tracked granule inside the line loses its history.
     */
    void
    recordMetaLoss(Addr line_addr, unsigned line_bytes, Cycle at)
    {
        forEachInLine(line_addr, line_bytes, [&](GranuleProv &g) {
            ++g.losses;
            g.lastLossAt = at;
            g.haveBf = false;
            g.haveExact = false;
            ProvEvent e;
            e.kind = ProvKind::MetaLoss;
            e.at = at;
            push(g, e);
        });
    }

    /** A fresh metadata line replaced previously-lost state. */
    void
    recordRefetch(Addr line_addr, unsigned line_bytes, Cycle at)
    {
        forEachInLine(line_addr, line_bytes, [&](GranuleProv &g) {
            if (g.losses == 0)
                return; // first fetch, nothing was lost
            ++g.refetches;
            ProvEvent e;
            e.kind = ProvKind::Refetch;
            e.at = at;
            push(g, e);
        });
    }

    /** The candidate set of @p granule rode a §3.4 broadcast. */
    void
    recordBroadcast(Addr granule, Cycle at, std::uint32_t bf)
    {
        GranuleProv &g = granules_[granule];
        ++g.broadcasts;
        ProvEvent e;
        e.kind = ProvKind::Broadcast;
        e.at = at;
        e.bfAfter = bf;
        push(g, e);
    }

    /** A §3.5 barrier flash-reset wiped every candidate set. */
    void
    recordFlashReset(Cycle at, unsigned episode)
    {
        flashResets_.emplace_back(at, episode);
        for (auto &kv : granules_) {
            GranuleProv &g = kv.second;
            ++g.flashes;
            g.lastFlashAt = at;
            g.haveBf = false;
            g.haveExact = false;
            ProvEvent e;
            e.kind = ProvKind::FlashReset;
            e.at = at;
            e.episode = episode;
            push(g, e);
        }
    }

    /** @return the trail for @p granule, or null if never touched. */
    const GranuleProv *
    find(Addr granule) const
    {
        auto it = granules_.find(granule);
        return it == granules_.end() ? nullptr : &it->second;
    }

    /** All granule trails, in address order (deterministic). */
    const std::map<Addr, GranuleProv> &granules() const
    {
        return granules_;
    }

    /** Every flash-reset as (cycle, episode), in occurrence order. */
    const std::vector<std::pair<Cycle, unsigned>> &flashResets() const
    {
        return flashResets_;
    }

    /** @return true if a flash-reset happened in cycles (lo, hi]. */
    bool
    flashBetween(Cycle lo, Cycle hi) const
    {
        for (const auto &fr : flashResets_)
            if (fr.first > lo && fr.first <= hi)
                return true;
        return false;
    }

    unsigned granularity() const { return gran_; }
    unsigned bloomBits() const { return bloomBits_; }
    unsigned ringDepth() const { return depth_; }

  private:
    void
    push(GranuleProv &g, const ProvEvent &e)
    {
        if (g.ring.size() >= depth_) {
            g.ring.pop_front();
            ++g.dropped;
        }
        g.ring.push_back(e);
    }

    template <typename Fn>
    void
    forEachInLine(Addr line_addr, unsigned line_bytes, Fn &&fn)
    {
        auto it = granules_.lower_bound(line_addr);
        for (; it != granules_.end() && it->first < line_addr + line_bytes;
             ++it)
            fn(it->second);
    }

    unsigned gran_;
    unsigned bloomBits_;
    unsigned depth_;
    std::map<Addr, GranuleProv> granules_;
    std::vector<std::pair<Cycle, unsigned>> flashResets_;
};

inline const char *
provKindName(ProvKind k)
{
    switch (k) {
      case ProvKind::Narrow: return "narrow";
      case ProvKind::ExactNarrow: return "exact-narrow";
      case ProvKind::Report: return "report";
      case ProvKind::MetaLoss: return "meta-loss";
      case ProvKind::Refetch: return "refetch";
      case ProvKind::Broadcast: return "broadcast";
      case ProvKind::FlashReset: return "flash-reset";
    }
    return "?";
}

} // namespace hard

#endif // HARD_EXPLAIN_PROV_HH
