/**
 * @file
 * Happens-before race detector — the comparison baseline of the paper —
 * and the one epoch engine it shares with FastTrackDetector.
 *
 * The engine is FastTrack's (Flanagan & Freund, PLDI'09): per granule
 * a last-write epoch and a read epoch that inflates to a full read
 * vector only while reads are genuinely concurrent, so the common case
 * does O(1) work instead of O(threads). Lock release->acquire, barrier
 * episodes and the other SyncOrder edges create the synchronization
 * order.
 *
 * HappensBeforeDetector keeps its granules in a MetaCache (default:
 * cache-line granularity, in cache-limited storage, mirroring how the
 * paper's hardware happens-before implementation stores timestamps in
 * cache lines and loses them on L2 displacement). The "ideal" variant
 * uses 4-byte granules and unbounded storage.
 */

#ifndef HARD_DETECTORS_HAPPENS_BEFORE_HH
#define HARD_DETECTORS_HAPPENS_BEFORE_HH

#include <memory>
#include <span>

#include "detectors/meta_cache.hh"
#include "detectors/sync_order.hh"

namespace hard
{

/** FastTrack's shadow state of one granule. */
struct EpochGranule
{
    Epoch lastWrite{};
    /** Read epoch (valid while not inflated). */
    Epoch lastRead{};
    /** Inflated read vector (allocated only when needed). */
    std::unique_ptr<VClock> readVc;

    /** Epochs survive barriers: the barrier's clock join orders them. */
    void barrierReset() {}
};

/**
 * FastTrack's epoch rules over EpochGranules kept in a @p Storage: a
 * MetaCache or a ShadowMemory, walked by forEach(addr, size, fetched,
 * visit) as the lockset engine walks them.
 */
template <template <typename> class Storage>
class EpochHbDetector : public ClockedDetector
{
  public:
    void
    onEvents(std::span<const Event> evs) override
    {
        dispatchEvents(*this, evs);
    }

    void onRead(const Event &ev) { access(ev, false); }
    void onWrite(const Event &ev) { access(ev, true); }

    /** @return reads handled on the O(1) single-epoch fast path. */
    std::uint64_t fastPathReads() const { return fastReads_; }

    /** @return read epochs inflated to a read vector so far. */
    std::uint64_t inflations() const { return inflations_; }

  protected:
    /** @param store The storage's constructor arguments. */
    template <typename... StoreArgs>
    EpochHbDetector(const std::string &name, StoreArgs... store)
        : ClockedDetector(name), store_(store...)
    {
    }

    Storage<EpochGranule> store_;

  private:
    void
    access(const Event &ev, bool write)
    {
        const VClock &vc = clock(ev.tid);
        store_.forEach(ev.addr, ev.size, [](Addr, bool, Addr) {},
                       [&](Addr a, EpochGranule &g) {
                           apply(g, ev, vc, a, store_.granularity(), write);
                       });
    }

    /**
     * Check and record @p ev's access to granule @p g, whose base is
     * @p a and size @p gran; @p vc is the accessing thread's clock.
     */
    void
    apply(EpochGranule &g, const Event &ev, const VClock &vc, Addr a,
          unsigned gran, bool write)
    {
        // Write-write / read-write with the last writer.
        bool race = !g.lastWrite.ordered(vc);
        ThreadId other = race ? g.lastWrite.tid : invalidThread;

        if (write) {
            // A write must also be ordered after every read.
            if (!race) {
                if (g.readVc) {
                    other = g.readVc->firstUnordered(vc, ev.tid);
                    race = other != invalidThread;
                } else if (g.lastRead.tid != ev.tid &&
                           !g.lastRead.ordered(vc)) {
                    race = true;
                    other = g.lastRead.tid;
                }
            }
            if (race)
                emit(ev.tid, a, gran, ev.site, write, ev.at, other);
            // The write shadows every previous read.
            g.lastWrite = Epoch{ev.tid, vc[ev.tid]};
            g.lastRead = Epoch{};
            g.readVc.reset();
            return;
        }

        if (race)
            emit(ev.tid, a, gran, ev.site, write, ev.at, other);

        if (g.readVc) {
            // Already inflated: O(threads) slow path.
            (*g.readVc)[ev.tid] = vc[ev.tid];
        } else if (g.lastRead.ordered(vc)) {
            // The first read, or one ordered after the last (a
            // same-thread read always is): one epoch still suffices.
            g.lastRead = Epoch{ev.tid, vc[ev.tid]};
            ++fastReads_;
        } else {
            // Concurrent reads: inflate to a read vector.
            g.readVc = std::make_unique<VClock>();
            (*g.readVc)[g.lastRead.tid] = g.lastRead.clk;
            (*g.readVc)[ev.tid] = vc[ev.tid];
            g.lastRead = Epoch{};
            ++inflations_;
        }
    }

    std::uint64_t fastReads_ = 0;
    std::uint64_t inflations_ = 0;
};

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

/** Epoch happens-before detector on cache-geometry storage. */
class HappensBeforeDetector final : public EpochHbDetector<MetaCache>
{
  public:
    /**
     * @param name Detector name for reporting.
     * @param cfg Granularity/storage configuration.
     */
    HappensBeforeDetector(const std::string &name, const HbConfig &cfg)
        : EpochHbDetector(name, cfg.metaGeometry, cfg.unbounded,
                          metaGranulesPerLine("hb", cfg.metaGeometry,
                                              cfg.granularityBytes)),
          cfg_(cfg)
    {
    }

    /** @return timestamp lines displaced (history lost). */
    std::uint64_t metadataEvictions() const { return store_.evictions(); }

    const HbConfig &config() const { return cfg_; }

  private:
    HbConfig cfg_;
};

} // namespace hard

#endif // HARD_DETECTORS_HAPPENS_BEFORE_HH
