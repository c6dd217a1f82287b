/**
 * @file
 * Hybrid lockset + happens-before detector — the paper's §7 future
 * work ("combine with the happens-before algorithm to prune false
 * alarms caused by other synchronizations"), in the spirit of
 * O'Callahan & Choi's hybrid detection and RaceTrack.
 *
 * The detector is the lockset engine (detectors/lockset_engine.hh)
 * with HARD's set algebra, storage and lock tracking (BFVector
 * candidate sets, LState machine, Lock Registers) and a
 * happens-before report filter. Its vector clocks are advanced only
 * by *non-lock* edges (barriers, semaphores, condvars, atomics), and
 * each granule keeps every thread's last-access clock. A lockset
 * violation is reported only if the racing access is NOT ordered
 * after the granule's previous conflicting accesses by those edges.
 * Lock edges are deliberately excluded so the detector keeps
 * lockset's interleaving-insensitivity for lock-discipline bugs
 * (Figure 1 still detects), while semaphore/barrier-ordered hand-offs
 * (the residual false-alarm source of §5.1) are pruned. Its reports
 * are pairless, like HARD's.
 *
 * None of HARD's hardware beyond the Bloom sets is modelled:
 * coupleToCaches, perCoreRegisters and saveRestoreOnSwitch = false
 * are rejected at construction.
 */

#ifndef HARD_CORE_HYBRID_HH
#define HARD_CORE_HYBRID_HH

#include "core/hard_detector.hh"

namespace hard
{

/** Hybrid HARD+happens-before detector (paper §7). */
class HybridDetector final
    : public LocksetEngine<HybridDetector, BloomAnd, MetaCache,
                           LockRegisterFile, HbFilter<false, false>>
{
  public:
    /**
     * @param name Detector name for reporting.
     * @param cfg The underlying HARD hardware configuration.
     */
    HybridDetector(const std::string &name, const HardConfig &cfg)
        : Engine(name, "hybrid",
                 LockRegisterFile(cfg.bloomBits, cfg.counterBits),
                 cfg.metaGeometry, cfg.unbounded,
                 metaGranulesPerLine("hybrid", cfg.metaGeometry,
                                     cfg.granularityBytes)),
          cfg_(cfg)
    {
        hard_fatal_if(cfg.coupleToCaches,
                      "hybrid: coupleToCaches is not supported");
        hard_fatal_if(cfg.perCoreRegisters,
                      "hybrid: perCoreRegisters is not supported");
        hard_fatal_if(!cfg.saveRestoreOnSwitch,
                      "hybrid: saveRestoreOnSwitch=false is not supported");
    }

    /** @return lockset violations suppressed by non-lock ordering. */
    std::uint64_t prunedAlarms() const { return filtered_; }

    const HardConfig &config() const { return cfg_; }

  private:
    HardConfig cfg_;
};

} // namespace hard

#endif // HARD_CORE_HYBRID_HH
