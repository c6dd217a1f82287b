/**
 * @file
 * The "ideal" lockset implementation of paper §4: candidate sets kept
 * per 4-byte variable, for *all* variables (unbounded storage), with a
 * complete (exact) set representation instead of Bloom filters — i.e.
 * an Eraser-style software implementation used as the upper bound on
 * HARD's detection capability. It is the lockset engine
 * (lockset_engine.hh) on exact sets, ShadowMemory and HeldLocks: the
 * same step as HARD, with the exact set algebra and rwlock-mode-aware
 * lock tracking in place of the Bloom sets and Lock Registers.
 */

#ifndef HARD_DETECTORS_IDEAL_LOCKSET_HH
#define HARD_DETECTORS_IDEAL_LOCKSET_HH

#include <algorithm>
#include <array>
#include <set>

#include "detectors/lockset_engine.hh"

namespace hard
{

/** Configuration of the two exact lockset detectors: the ideal lockset
 * and RaceTrack (RaceTrackConfig). */
struct IdealLocksetConfig
{
    /** Candidate-set granularity in bytes (paper's ideal: 4). */
    unsigned granularityBytes = 4;
    /** Apply the §3.5 barrier flash-reset of candidate sets. */
    bool barrierReset = true;
    /**
     * Tolerate unbalanced lock events (re-acquire keeps the lock held,
     * release-of-unheld is a no-op) instead of panicking. Needed when
     * replaying minimizer-reduced fuzz traces, whose event streams are
     * not guaranteed lock-balanced; live runs keep the strict checks.
     */
    bool tolerateUnbalanced = false;
};

/** Eraser-style exact lockset detector, unbounded and fine-grained:
 * the lockset engine on exact sets, shadow memory and HeldLocks. */
class IdealLocksetDetector
    : public LocksetEngine<IdealLocksetDetector, ExactMeet, ShadowMemory,
                           HeldLocks, NoFilter>
{
  public:
    IdealLocksetDetector(const std::string &name,
                         const IdealLocksetConfig &cfg)
        : Engine(name, "ideal-lockset",
                 HeldLocks("ideal-lockset", cfg.tolerateUnbalanced),
                 checkedGranularity("ideal-lockset", cfg.granularityBytes)),
          cfg_(cfg)
    {
    }

    /** @return the current exact write-held lock set of @p tid
     * (mutexes + writer-mode rwlock holds). */
    const std::set<LockAddr> &
    lockset(ThreadId tid) const
    {
        checkThread(tid);
        return locks_.writeHeld(tid);
    }

    /** @return the current reader-mode rwlock hold set of @p tid. */
    const std::set<LockAddr> &
    readLockset(ThreadId tid) const
    {
        checkThread(tid);
        return locks_.readHeld(tid);
    }

    /**
     * Measured set-size statistics, supporting the paper's §5.2.3
     * claim that candidate/lock sets are tiny in real programs (max 1
     * for its applications, 3 for radix) — the justification for the
     * 16-bit BFVector.
     */
    struct SetSizeStats
    {
        /** Largest finite candidate set observed at an update. */
        std::size_t maxCandidate = 0;
        /** Largest thread lock set observed at an acquire. */
        std::size_t maxLockset = 0;
        /** Histogram of finite candidate-set sizes 0..7 (7 = >=7). */
        std::array<std::uint64_t, 8> candidateHist{};
    };

    const SetSizeStats &
    setSizeStats() const
    {
        sizeStats_.maxLockset = locks_.maxHeld();
        return sizeStats_;
    }

    const IdealLocksetConfig &config() const { return cfg_; }

    /** Provenance also logs exact candidate intersections. */
    using Engine::attachProvenance;

  private:
    friend Engine;

    template <bool kTraced>
    void
    onMeet(const Event &ev, Addr a, bool write, LState before,
           const Granule &g, Set, Set held)
    {
        const LocksetTable &table = locks_.table();
        const bool universe = g.cand == kUniverseLockset;
        const std::size_t sz = table.size(g.cand);
        if (!universe) {
            sizeStats_.maxCandidate = std::max(sizeStats_.maxCandidate, sz);
            ++sizeStats_.candidateHist[std::min<std::size_t>(sz, 7)];
        }
        if constexpr (kTraced)
            prov_->recordExactNarrow(a, ev.tid, ev.site, write, ev.at,
                                     before, g.state, table, held, universe,
                                     static_cast<unsigned>(sz));
    }

    IdealLocksetConfig cfg_;
    /** maxLockset is read from the held locks when asked for. */
    mutable SetSizeStats sizeStats_;
};

} // namespace hard

#endif // HARD_DETECTORS_IDEAL_LOCKSET_HH
