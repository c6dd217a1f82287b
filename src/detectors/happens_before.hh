/**
 * @file
 * Happens-before race detector — the comparison baseline of the paper.
 *
 * Timestamps are kept per granule (default: cache-line granularity, in
 * cache-limited storage, mirroring how the paper's hardware
 * happens-before implementation stores timestamps in cache lines and
 * loses them on L2 displacement). The "ideal" variant uses 4-byte
 * granules and unbounded storage.
 *
 * The algorithm is DJIT+/FastTrack-style: a last-write epoch and a
 * per-thread read clock per granule; lock release->acquire and barrier
 * episodes create the synchronization order.
 */

#ifndef HARD_DETECTORS_HAPPENS_BEFORE_HH
#define HARD_DETECTORS_HAPPENS_BEFORE_HH

#include <array>

#include "detectors/meta_cache.hh"
#include "detectors/sync_order.hh"

namespace hard
{

/** Configuration of a happens-before detector instance. */
struct HbConfig
{
    /** Timestamp granularity in bytes (4..lineBytes; Table 3 sweep). */
    unsigned granularityBytes = 32;
    /**
     * Geometry of the timestamp store (mirrors the simulated L2;
     * Tables 4/5 sweep its size).
     */
    CacheConfig metaGeometry{1024 * 1024, 8, 32, 0};
    /** Ideal mode: unbounded storage (use with 4-byte granules). */
    bool unbounded = false;

    /** @return the paper's "ideal happens-before" configuration. */
    static HbConfig
    ideal()
    {
        HbConfig cfg;
        cfg.granularityBytes = 4;
        cfg.unbounded = true;
        return cfg;
    }
};

/** Vector-clock happens-before detector. */
class HappensBeforeDetector : public ClockedDetector
{
  public:
    /**
     * @param name Detector name for reporting.
     * @param cfg Granularity/storage configuration.
     */
    HappensBeforeDetector(const std::string &name, const HbConfig &cfg);

    void onRead(const Event &ev) override;
    void onWrite(const Event &ev) override;

    /** @return timestamp lines displaced (history lost). */
    std::uint64_t metadataEvictions() const { return meta_.evictions(); }

    const HbConfig &config() const { return cfg_; }

  private:
    /** Shadow state of one granule. */
    struct Granule
    {
        Epoch lastWrite{};
        std::array<std::uint32_t, kMaxThreads> readClk{};

        /** Timestamps survive barriers: the barrier's clock join
         * orders them. */
        void barrierReset() {}
    };

    /** Apply one access to every granule it overlaps. */
    void access(const Event &ev, bool write);

    HbConfig cfg_;
    MetaCache<Granule> meta_;
};

} // namespace hard

#endif // HARD_DETECTORS_HAPPENS_BEFORE_HH
