/**
 * @file
 * RaceTrack-style adaptive lockset + happens-before hybrid detector
 * (after Yu, Rodeheffer & Chen, SOSP'05), with reader/writer-aware
 * lock sets.
 *
 * It is the ideal lockset detector's engine binding (exact candidate
 * sets over shadow memory, intersected with HeldLocks::protecting(write)
 * so reader-mode rwlock holds protect reads but not writes) with a
 * happens-before report filter added. Every empty-candidate alarm is
 * re-checked against a *full* happens-before relation — one that
 * includes lock release->acquire edges as well as barriers,
 * semaphores, rwlocks, condvars and atomics. If every other thread's
 * last access to the granule is HB-ordered before the current one,
 * the alarm is suppressed as a synchronized hand-off; only genuinely
 * concurrent unprotected sharing is reported, naming the first
 * unordered thread.
 *
 * Both detectors run one LocksetEngine step and differ only in that
 * filter, which only ever removes reports, so the battery invariant
 * racetrack-subset-of-ideal holds structurally.
 *
 * This differs from HARD's HybridDetector, whose filter clock carries
 * only *non-lock* edges (it must not launder the very lock discipline
 * the lockset checks) and whose candidate sets are Bloom vectors.
 * RaceTrack accepts the laundering on purpose: its adaptive design
 * trades Eraser's discipline checking for fewer false alarms.
 */

#ifndef HARD_DETECTORS_RACETRACK_HH
#define HARD_DETECTORS_RACETRACK_HH

#include "detectors/ideal_lockset.hh"

namespace hard
{

/** RaceTrack takes the ideal lockset detector's configuration. */
using RaceTrackConfig = IdealLocksetConfig;

/** Adaptive lockset/happens-before hybrid with rwlock-aware sets. */
class RaceTrackDetector final
    : public LocksetEngine<RaceTrackDetector, ExactMeet, ShadowMemory,
                           HeldLocks, HbFilter<true, true>>
{
  public:
    RaceTrackDetector(const std::string &name, const RaceTrackConfig &cfg)
        : Engine(name, "racetrack",
                 HeldLocks("racetrack", cfg.tolerateUnbalanced),
                 checkedGranularity("racetrack", cfg.granularityBytes)),
          cfg_(cfg)
    {
    }

    /** @return lockset alarms suppressed by the happens-before check. */
    std::uint64_t suppressed() const { return filtered_; }

    /** @return the current write-held lock set of @p tid. */
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

    const RaceTrackConfig &config() const { return cfg_; }

  private:
    RaceTrackConfig cfg_;
};

} // namespace hard

#endif // HARD_DETECTORS_RACETRACK_HH
