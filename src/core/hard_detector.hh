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
 *
 * The Eraser step itself is the lockset engine's
 * (detectors/lockset_engine.hh) on Bloom sets, a MetaCache and the
 * Lock Registers, the same step the ideal lockset runs on exact sets.
 * What stays here is HARD's hardware side, reached through the
 * engine's hooks: the §3.4 broadcast, per-core registers with
 * save/restore on a context switch, coupled-metadata eviction, and the
 * provenance of metadata loss, narrowing and broadcasts.
 */

#ifndef HARD_CORE_HARD_DETECTOR_HH
#define HARD_CORE_HARD_DETECTOR_HH

#include <array>
#include <optional>
#include <utility>

#include "coherence/bus.hh"
#include "core/lock_register.hh"
#include "detectors/lockset_engine.hh"

namespace hard
{

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

/**
 * The HARD hardware lockset detector: the lockset engine on Bloom
 * sets, a MetaCache mirroring the L2 and the Lock Registers, plus the
 * hardware side that is HARD's alone.
 */
class HardDetector final
    : public LocksetEngine<HardDetector, BloomAnd, MetaCache,
                           LockRegisterFile, NoFilter>
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

    /** Out of line, hiding the engine's, so the access step is
     * instantiated only beside the step hooks it inlines. */
    void onRead(const Event &ev);
    void onWrite(const Event &ev);
    void onContextSwitch(const Event &ev);
    void onLineEvicted(const Event &ev);

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
    const HardStats &hardStats() const;

    /** Provenance also logs metadata loss/refetch and broadcasts. */
    using Engine::attachProvenance;

  private:
    friend Engine;

    /** Per-core mode: a core's registers hold its running thread's
     * lock set (§3.1), in slot kMaxThreads + core. */
    unsigned
    lockSlot(const Event &ev) const
    {
        if (!cfg_.perCoreRegisters)
            return ev.tid;
        hard_panic_if(ev.core >= kMaxThreads, "hard: bad core %u",
                      ev.core);
        return kMaxThreads + ev.core;
    }

    template <bool kTraced>
    void onFetch(const Event &ev, Addr line, bool fresh, Addr victim);
    template <bool kTraced>
    void onMeet(const Event &ev, Addr a, bool write, LState before,
                const Granule &g, Set old, Set held);
    template <bool kTraced>
    void afterAccess(const Event &ev, bool write, bool changed);
    void onFlashReset(const Event &ev);

    HardConfig cfg_;
    Bus *bus_;
    /** metadataEvictions is read from the store when asked for. */
    mutable HardStats stats_;
    /** Traced only: this access's narrowed granules, for §3.4
     * broadcast provenance. */
    std::array<std::pair<Addr, std::uint32_t>, 8> bcast_{};
    std::size_t nBcast_ = 0;
};

} // namespace hard

#endif // HARD_CORE_HARD_DETECTOR_HH
