/**
 * @file
 * Hybrid lockset + happens-before detector — the paper's §7 future
 * work ("combine with the happens-before algorithm to prune false
 * alarms caused by other synchronizations"), in the spirit of
 * O'Callahan & Choi's hybrid detection and RaceTrack.
 *
 * The detector runs HARD's lockset protocol (BFVector candidate sets,
 * LState machine, Lock Register) unchanged, but additionally keeps
 * *non-lock* happens-before state: vector clocks advanced only by
 * barrier and semaphore (hand-crafted synchronization) edges, plus a
 * per-granule last-access epoch. A lockset violation is reported only
 * if the racing access is NOT ordered after the granule's previous
 * conflicting access by those non-lock edges. Lock edges are
 * deliberately excluded so the detector keeps lockset's
 * interleaving-insensitivity for lock-discipline bugs (Figure 1
 * still detects), while semaphore/barrier-ordered hand-offs (the
 * residual false-alarm source of §5.1) are pruned.
 */

#ifndef HARD_CORE_HYBRID_HH
#define HARD_CORE_HYBRID_HH

#include <array>

#include "core/hard_detector.hh"
#include "detectors/sync_order.hh"

namespace hard
{

/** Hybrid HARD+happens-before detector (paper §7). */
class HybridDetector : public ClockedDetector
{
  public:
    /**
     * @param name Detector name for reporting.
     * @param cfg The underlying HARD hardware configuration.
     */
    HybridDetector(const std::string &name, const HardConfig &cfg);

    void onRead(const Event &ev) override;
    void onWrite(const Event &ev) override;

    /** Locks drive the Lock Registers only and never reach the
     * base's SyncOrder, so its clocks carry non-lock edges alone
     * (barrier, semaphore, condvar, atomic release/acquire). */
    void onLockAcquire(const Event &ev) override;
    void onLockRelease(const Event &ev) override;
    void onBarrier(const Event &ev) override;

    /** Rwlocks update the Lock Register mode-blind (see HardDetector);
     * their edges stay out of the non-lock clock domain so lock-
     * discipline bugs remain interleaving-insensitive. */
    void
    onRwLockAcquire(const Event &ev, bool writer) override
    {
        (void)writer;
        onLockAcquire(ev);
    }

    void
    onRwLockRelease(const Event &ev, bool writer) override
    {
        (void)writer;
        onLockRelease(ev);
    }

    /** @return lockset violations suppressed by non-lock ordering. */
    std::uint64_t prunedAlarms() const { return pruned_; }

    const HardConfig &config() const { return cfg_; }

  private:
    /** Per-granule hybrid metadata. */
    struct Granule
    {
        /** Raw candidate-set bits; starts all-ones. */
        std::uint32_t bf = 0xffffffffu;
        LState state = LState::Virgin;
        ThreadId owner = invalidThread;
        /**
         * Per-thread clock of the last access to this granule, in
         * the non-lock vector-clock domain. This is the "more
         * hardware resource" the paper's Section 7 anticipates the
         * hybrid needs.
         */
        VClock accessClk{};

        /** §3.5 flash-reset of the lockset side; the access clocks
         * survive (the barrier edge orders them). */
        void
        barrierReset()
        {
            bf = 0xffffffffu;
            state = LState::Virgin;
            owner = invalidThread;
        }
    };

    void access(const Event &ev, bool write);

    HardConfig cfg_;
    MetaCache<Granule> meta_;
    std::array<LockRegister, kMaxThreads> lockRegs_;
    std::uint64_t pruned_ = 0;
};

} // namespace hard

#endif // HARD_CORE_HYBRID_HH
