/**
 * @file
 * The "ideal" lockset implementation of paper §4: candidate sets kept
 * per 4-byte variable, for *all* variables (unbounded storage), with a
 * complete (exact) set representation instead of Bloom filters — i.e.
 * an Eraser-style software implementation used as the upper bound on
 * HARD's detection capability.
 */

#ifndef HARD_DETECTORS_IDEAL_LOCKSET_HH
#define HARD_DETECTORS_IDEAL_LOCKSET_HH

#include <array>
#include <set>

#include "detectors/lockset_core.hh"
#include "detectors/lockset_state.hh"
#include "detectors/report.hh"

namespace hard
{

class ProvRecorder;

/** Configuration of the ideal lockset detector. */
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

/** Eraser-style exact lockset detector, unbounded and fine-grained. */
class IdealLocksetDetector : public RaceDetector
{
  public:
    IdealLocksetDetector(const std::string &name,
                         const IdealLocksetConfig &cfg);

    void onRead(const Event &ev) override;
    void onWrite(const Event &ev) override;
    void onLockAcquire(const Event &ev) override;
    void onLockRelease(const Event &ev) override;
    void onBarrier(const Event &ev) override;

    /**
     * Rwlock-aware lockset maintenance: a writer hold protects like a
     * mutex; a reader hold protects reads only (concurrent readers
     * are admitted, so a write under a reader hold is unprotected).
     * Accesses intersect with HeldLocks::protecting(write).
     */
    void onRwLockAcquire(const Event &ev, bool writer) override;
    void onRwLockRelease(const Event &ev, bool writer) override;

    /** @return the current exact write-held lock set of @p tid
     * (mutexes + writer-mode rwlock holds). */
    const std::set<LockAddr> &lockset(ThreadId tid) const;

    /** @return the current reader-mode rwlock hold set of @p tid. */
    const std::set<LockAddr> &readLockset(ThreadId tid) const;

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

    const SetSizeStats &setSizeStats() const { return sizeStats_; }

    const IdealLocksetConfig &config() const { return cfg_; }

    /**
     * Attach a provenance recorder (explain/prov.hh): exact candidate
     * intersections, reports and flash-resets are logged, and reports
     * carry the last conflicting accessor in RaceReport::other. Null
     * (default) keeps every hook a single pointer test.
     */
    void attachProvenance(ProvRecorder *prov) { prov_ = prov; }

  private:
    /** Shadow record of one granule. */
    struct Granule
    {
        LState state = LState::Virgin;
        ThreadId owner = invalidThread;
        LocksetId candidate = kUniverseLockset;

        /** §3.5: a barrier forgets everything. */
        void barrierReset() { *this = Granule{}; }
    };

    void access(const Event &ev, bool write);

    IdealLocksetConfig cfg_;
    ShadowMemory<Granule> shadow_;
    /** Per-thread write-held/read-held lock sets and their table. */
    HeldLocks held_;
    SetSizeStats sizeStats_;
    /** Provenance recorder; null unless an explain run attached one. */
    ProvRecorder *prov_ = nullptr;
};

} // namespace hard

#endif // HARD_DETECTORS_IDEAL_LOCKSET_HH
