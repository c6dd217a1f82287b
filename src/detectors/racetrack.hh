/**
 * @file
 * RaceTrack-style adaptive lockset + happens-before hybrid detector
 * (after Yu, Rodeheffer & Chen, SOSP'05), with reader/writer-aware
 * lock sets.
 *
 * Like the ideal lockset detector it runs the Eraser state machine
 * (Figure 2) over exact per-granule candidate sets, intersecting with
 * HeldLocks::protecting(write) so reader-mode rwlock holds protect
 * reads but not writes. Unlike plain lockset, every empty-candidate
 * alarm is then re-checked against a *full* happens-before relation —
 * one that includes lock release->acquire edges as well as barriers,
 * semaphores, rwlocks, condvars and atomics. If every other thread's
 * last access to the granule is HB-ordered before the current one,
 * the alarm is suppressed as a synchronized hand-off; only genuinely
 * concurrent unprotected sharing is reported.
 *
 * Because the lockset side is identical to IdealLocksetDetector
 * (same granularity, same state machine, same effective-set
 * intersection) and suppression only ever removes reports, the
 * battery invariant racetrack-subset-of-ideal holds structurally.
 *
 * This differs from HARD's HybridDetector, whose prune clock carries
 * only *non-lock* edges (it must not launder the very lock discipline
 * the lockset checks) and whose candidate sets are Bloom vectors.
 * RaceTrack accepts the laundering on purpose: its adaptive design
 * trades Eraser's discipline checking for fewer false alarms.
 */

#ifndef HARD_DETECTORS_RACETRACK_HH
#define HARD_DETECTORS_RACETRACK_HH

#include <array>
#include <set>

#include "detectors/lockset_core.hh"
#include "detectors/lockset_state.hh"
#include "detectors/sync_order.hh"

namespace hard
{

/** Configuration of the RaceTrack hybrid detector. */
struct RaceTrackConfig
{
    /** Candidate-set granularity in bytes. */
    unsigned granularityBytes = 4;
    /** Apply the §3.5 barrier flash-reset of candidate sets. */
    bool barrierReset = true;
    /**
     * Tolerate unbalanced lock events instead of panicking (needed
     * when replaying minimizer-reduced fuzz traces).
     */
    bool tolerateUnbalanced = false;
};

/** Adaptive lockset/happens-before hybrid with rwlock-aware sets. */
class RaceTrackDetector : public ClockedDetector
{
  public:
    RaceTrackDetector(const std::string &name,
                      const RaceTrackConfig &cfg);

    void onRead(const Event &ev) override;
    void onWrite(const Event &ev) override;
    void onLockAcquire(const Event &ev) override;
    void onLockRelease(const Event &ev) override;
    void onBarrier(const Event &ev) override;
    void onRwLockAcquire(const Event &ev, bool writer) override;
    void onRwLockRelease(const Event &ev, bool writer) override;

    /** @return lockset alarms suppressed by the happens-before check. */
    std::uint64_t suppressed() const { return suppressed_; }

    /** @return the current write-held lock set of @p tid. */
    const std::set<LockAddr> &lockset(ThreadId tid) const;

    /** @return the current reader-mode rwlock hold set of @p tid. */
    const std::set<LockAddr> &readLockset(ThreadId tid) const;

    const RaceTrackConfig &config() const { return cfg_; }

  private:
    /** Shadow record of one granule. */
    struct Granule
    {
        LState state = LState::Virgin;
        ThreadId owner = invalidThread;
        LocksetId candidate = kUniverseLockset;
        /** Clock of each thread's last access (own component). */
        std::array<std::uint32_t, kMaxThreads> accessClk{};

        /** A barrier forgets the lockset side only: the access clocks
         * are happens-before history, which the barrier itself orders. */
        void
        barrierReset()
        {
            state = LState::Virgin;
            owner = invalidThread;
            candidate = kUniverseLockset;
        }
    };

    void access(const Event &ev, bool write);

    RaceTrackConfig cfg_;
    ShadowMemory<Granule> shadow_;
    /** Per-thread write-held/read-held lock sets and their table. */
    HeldLocks held_;
    std::uint64_t suppressed_ = 0;
};

} // namespace hard

#endif // HARD_DETECTORS_RACETRACK_HH
