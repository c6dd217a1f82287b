/**
 * @file
 * HARD — the paper's hardware lockset race detector (§3).
 *
 * Per cache line (or finer granule, Table 3) the detector keeps a
 * BFVector candidate set and an LState, stored in cache-geometry-
 * limited metadata (lost on L2 displacement, §3.6). Each hardware
 * context has a Lock Register/Counter Register pair (§3.3). Candidate
 * sets travel with coherence transfers and, when a read leaves a line
 * in Shared CState with a changed candidate set, are broadcast to the
 * other caches (§3.4) — which costs bus occupancy in overhead runs.
 * Barrier exits flash-reset every BFVector to all-ones (§3.5).
 */

#ifndef HARD_CORE_HARD_DETECTOR_HH
#define HARD_CORE_HARD_DETECTOR_HH

#include <array>
#include <optional>

#include "coherence/bus.hh"
#include "core/lock_register.hh"
#include "detectors/lockset_state.hh"
#include "detectors/meta_cache.hh"
#include "detectors/report.hh"
#include "detectors/vclock.hh"

namespace hard
{

class ProvRecorder;

/** Configuration of a HARD detector instance. */
struct HardConfig
{
    /** BFVector width in bits (Table 6 sweeps 16 vs 32). */
    unsigned bloomBits = 16;
    /** Candidate-set/LState granularity in bytes (Table 3: 4..32). */
    unsigned granularityBytes = 32;
    /**
     * Geometry of the metadata store, mirroring the simulated L2
     * (Tables 4/5 sweep its size from 128KB to 1MB).
     */
    CacheConfig metaGeometry{1024 * 1024, 8, 32, 0};
    /** Unbounded metadata (used by cost-effectiveness comparisons). */
    bool unbounded = false;
    /**
     * Most faithful §3.6 model: store metadata unbounded but drop a
     * line's metadata exactly when the *simulated* L2 displaces that
     * line (requires the LineEvicted events of a live System or a
     * trace that recorded them). The default instead mirrors the L2
     * geometry inside the detector, which tracks data accesses only.
     */
    bool coupleToCaches = false;
    /** Apply the §3.5 barrier flash-reset. */
    bool barrierReset = true;
    /** Counter Register width per bit (paper: 2). */
    unsigned counterBits = 2;
    /**
     * Model the Lock/Counter Registers as *per-processor* structures
     * (the paper's actual hardware, §3.1) rather than per-thread.
     * Requires the OS to save and restore them on context switches
     * (the ContextSwitch event); equivalent to per-thread registers
     * when that support works.
     */
    bool perCoreRegisters = false;
    /**
     * OS support for saving/restoring the per-processor registers on
     * a context switch. Disable only for failure injection: without
     * it, lock sets leak between threads sharing a core and the
     * detector mis-reports.
     */
    bool saveRestoreOnSwitch = true;

    /** @return a config with an L2-mirror of @p l2_bytes capacity. */
    static HardConfig
    withL2(std::uint64_t l2_bytes)
    {
        HardConfig cfg;
        cfg.metaGeometry.sizeBytes = l2_bytes;
        return cfg;
    }
};

/** HARD statistics of interest to the evaluation. */
struct HardStats
{
    /** Candidate-set broadcasts performed (§3.4). */
    std::uint64_t metaBroadcasts = 0;
    /** Metadata lines lost to displacement (§3.6). */
    std::uint64_t metadataEvictions = 0;
    /** Barrier flash-resets executed (§3.5). */
    std::uint64_t barrierResets = 0;
    /** Candidate-set intersections performed. */
    std::uint64_t intersections = 0;
};

/** The HARD hardware lockset detector. */
class HardDetector : public RaceDetector
{
  public:
    /**
     * @param name Detector name for reporting.
     * @param cfg Hardware configuration.
     * @param bus If non-null, metadata broadcasts occupy this bus —
     * enable only in overhead-measurement (Figure 8) runs.
     */
    HardDetector(const std::string &name, const HardConfig &cfg,
                 Bus *bus = nullptr);

    void onRead(const Event &ev) override;
    void onWrite(const Event &ev) override;
    void onLockAcquire(const Event &ev) override;
    void onLockRelease(const Event &ev) override;
    void onBarrier(const Event &ev) override;
    void onContextSwitch(const Event &ev) override;
    void onLineEvicted(const Event &ev) override;

    /**
     * Rwlocks feed the Lock Register mode-blind: the hardware sees
     * one lock-word RMW either way (§3.3 tracks acquires, not modes),
     * so a reader hold protects accesses exactly like a writer hold.
     * Software detectors that honor the mode can only have smaller
     * effective locksets, preserving hard ⊆ ideal containment.
     */
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

    /**
     * Mirror HardStats + metadata-store state into stats(), including
     * a BFVector-occupancy histogram (population count per tracked
     * granule) refilled from the resident metadata on each sync.
     */
    void syncStats() override;

    /** Probes: resident metadata lines, hit rate, broadcast volume. */
    void registerProbes(IntervalSampler &sampler) override;

    /** @return the Lock Register of thread @p tid's context. */
    const LockRegister &lockRegister(ThreadId tid) const;

    /** @return the LState of the granule containing @p addr, if its
     * metadata is resident. */
    std::optional<LState> lstateOf(Addr addr);

    /** @return the raw BFVector of the granule containing @p addr, if
     * resident. */
    std::optional<std::uint32_t> bfOf(Addr addr);

    const HardConfig &config() const { return cfg_; }
    const HardStats &hardStats() const { return stats_; }

    /**
     * Attach a provenance recorder (explain/prov.hh): every candidate-
     * set narrowing, report, metadata loss/refetch, broadcast and
     * flash-reset is logged, and emitted reports carry the granule's
     * last conflicting accessor in RaceReport::other. Null (the
     * default) keeps every hook a single pointer test — detection
     * output is byte-identical with no recorder attached.
     */
    void attachProvenance(ProvRecorder *prov) { prov_ = prov; }

  private:
    /** Per-granule hardware metadata (BFVector + LState + owner). */
    struct Granule
    {
        /** Raw candidate-set bits; starts all-ones ("all locks"). */
        std::uint32_t bf = 0xffffffffu;
        LState state = LState::Virgin;
        ThreadId owner = invalidThread;

        /** §3.5 flash-reset: back to the fresh state. */
        void barrierReset() { *this = Granule{}; }
    };

    void access(const Event &ev, bool write);

    /** @return the Lock Register used for (thread @p tid, core
     * @p core) under the configured register model. */
    LockRegister &regFor(ThreadId tid, CoreId core);

    HardConfig cfg_;
    Bus *bus_;
    MetaCache<Granule> meta_;
    /** Per-thread registers (also the OS save area in per-core mode). */
    std::array<LockRegister, kMaxThreads> lockRegs_;
    /** The physical per-processor registers (per-core mode). */
    std::array<LockRegister, kMaxThreads> coreRegs_;
    HardStats stats_;
    /** Provenance recorder; null unless an explain run attached one. */
    ProvRecorder *prov_ = nullptr;
};

} // namespace hard

#endif // HARD_CORE_HARD_DETECTOR_HH
