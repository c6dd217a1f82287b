/**
 * @file
 * Cache-geometry-limited metadata storage.
 *
 * HARD keeps candidate sets/LStates in cache lines and loses them when
 * a line is displaced from the L2 (paper §3.6 "Cache Displacement");
 * the happens-before comparison stores its timestamps the same way. We
 * model that lifetime with a set-associative metadata store that
 * mirrors the configured L2 geometry. The "ideal" detector variants
 * use the same store in unbounded mode (infinite L2, paper §4).
 *
 * Storage is flat arrays, and a line holds exactly lineBytes /
 * granularity granules. The bounded store keeps one contiguous tag
 * array (a whole 8-way set of line addresses is one 64-byte host
 * line) beside separate LRU-stamp, barrier-epoch and granule arrays.
 * The unbounded store is a two-level page directory of lines, like
 * ShadowMemory (lockset_core.hh), with a present bit per line and a
 * one-entry last-page cache in front.
 *
 * Both make the §3.5 barrier flash-reset O(1): onBarrier() bumps an
 * epoch, and a resident line stamped with an older epoch has
 * T::barrierReset() applied to each of its granules the next time
 * lookup(), find() or forEach() reaches it. That reset is not a
 * refetch: the line stays resident and lookup() does not report it
 * fresh.
 */

#ifndef HARD_DETECTORS_META_CACHE_HH
#define HARD_DETECTORS_META_CACHE_HH

#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "mem/cache_cfg.hh"

namespace hard
{

/**
 * Validate a detector's metadata granularity against @p geom (the
 * geometry first, as MetaCache would).
 *
 * @param who Fatal-message prefix (the detector's kind).
 * @return the granules per line. Fatal unless @p granularity_bytes
 * divides the line into at most 8 granules.
 */
inline unsigned
metaGranulesPerLine(const char *who, const CacheConfig &geom,
                    unsigned granularity_bytes)
{
    geom.validate("metaCache");
    const unsigned line = geom.lineBytes;
    hard_fatal_if(granularity_bytes == 0 || granularity_bytes > line ||
                      line % granularity_bytes != 0,
                  "%s: granularity %u does not divide line size %u", who,
                  granularity_bytes, line);
    hard_fatal_if(line / granularity_bytes > 8,
                  "%s: more than 8 granules per line unsupported", who);
    return line / granularity_bytes;
}

/**
 * Set-associative (or unbounded) store of per-granule detector
 * metadata, grouped by cache line.
 *
 * @tparam T Metadata of one granule; it may be move-only (a refill
 * move-assigns a fresh T over the displaced line's granules, which
 * frees what they owned). A default-constructed T is the "fresh"
 * state a granule has after its line is (re)fetched with no surviving
 * metadata; T::barrierReset() forgets what a barrier discards (it is
 * called only after onBarrier()).
 */
template <typename T>
class MetaCache
{
  public:
    /**
     * @param geom Geometry to mirror (typically the simulated L2).
     * @param unbounded If true, never evict (the paper's "ideal"
     * infinite-L2 configuration); @p geom then only defines lineBytes.
     * @param granules_per_line Granules each line holds.
     * @param first_epoch Starting barrier epoch (tests use it to reach
     * the wrap-around).
     */
    MetaCache(const CacheConfig &geom, bool unbounded,
              unsigned granules_per_line = 1,
              std::uint32_t first_epoch = 0)
        : geom_(geom), index_(geom, "metaCache"), unbounded_(unbounded),
          granules_(granules_per_line),
          lineShift_(static_cast<unsigned>(floorLog2(geom.lineBytes))),
          granShift_(static_cast<unsigned>(
              floorLog2(geom.lineBytes / granules_per_line))),
          epoch_(first_epoch)
    {
        if (unbounded_)
            return;
        const std::size_t ways = geom_.numSets() * geom_.assoc;
        tagBlocks_.resize((ways + kTagsPerBlock - 1) / kTagsPerBlock);
        for (TagBlock &b : tagBlocks_)
            b.line.fill(invalidAddr);
        lastUse_.resize(ways, 0);
        stamps_.resize(ways);
        data_.resize(ways * granules_);
    }

    MetaCache(const MetaCache &) = delete;
    MetaCache &operator=(const MetaCache &) = delete;

    /**
     * Find the metadata line for @p addr, creating it if absent.
     *
     * @param addr Any byte address within the line.
     * @param[out] fresh Set true if the line had to be (re)created,
     * i.e. any previous metadata for it has been lost.
     * @param[out] evicted If non-null, set to the line address whose
     * metadata this lookup displaced (invalidAddr when nothing was).
     * @return the line's first granule; the line holds
     * granulesPerLine() of them.
     */
    T *
    lookup(Addr addr, bool &fresh, Addr *evicted = nullptr)
    {
        if (evicted != nullptr)
            *evicted = invalidAddr;
        const Addr line = index_.lineAddr(addr);
        ++lookups_;
        if (unbounded_)
            return lookupUnbounded(line, fresh);

        const std::size_t way = wayOf(line);
        if (way != kNoWay) {
            lastUse_[way] = ++useClock_;
            fresh = false;
            ++hits_;
            return current(way);
        }
        // Miss: fill the first invalid way, else evict the LRU one.
        const std::size_t first = index_.setIndex(line) * geom_.assoc;
        const std::size_t last = first + geom_.assoc;
        std::size_t victim = first;
        for (std::size_t i = first; i < last; ++i) {
            if (tag(i) == invalidAddr) {
                victim = i;
                break;
            }
            if (lastUse_[i] < lastUse_[victim])
                victim = i;
        }
        if (tag(victim) != invalidAddr) {
            ++evictions_;
            if (evicted != nullptr)
                *evicted = tag(victim);
        } else {
            ++resident_;
        }
        tag(victim) = line;
        lastUse_[victim] = ++useClock_;
        stamps_[victim] = epoch_;
        fresh = true;
        return clear(&data_[victim * granules_]);
    }

    /**
     * Look up the line of [@p addr, @p addr + @p size) (a size of 0
     * counts as one byte) and pass fetched(line address, fresh,
     * displaced line or invalidAddr) as lookup() reports them; then
     * visit(granule address, granule) for each granule the access
     * touches. An access that leaves its line panics.
     */
    template <typename Fetched, typename Visit>
    void
    forEach(Addr addr, unsigned size, Fetched &&fetched, Visit &&visit)
    {
        bool fresh = false;
        Addr victim = invalidAddr;
        T *line = lookup(addr, fresh, &victim);
        const Addr base = index_.lineAddr(addr);
        const Addr hi = addr + (size ? size : 1);
        hard_panic_if(hi > base + geom_.lineBytes,
                      "metaCache: access %llx+%u crosses a metadata line",
                      static_cast<unsigned long long>(addr), size);
        fetched(base, fresh, victim);
        const Addr gran = granularity();
        for (Addr a = alignDown(addr, gran); a < hi; a += gran)
            visit(a, line[(a - base) >> granShift_]);
    }

    /** @return the granule holding @p addr if its line is resident,
     * else null. */
    T *
    granule(Addr addr)
    {
        T *line = find(addr);
        return line == nullptr
            ? nullptr
            : &line[(addr - index_.lineAddr(addr)) >> granShift_];
    }

    /** @return the first granule of @p addr's line if resident, else
     * null. */
    T *
    find(Addr addr)
    {
        const Addr line = index_.lineAddr(addr);
        if (unbounded_) {
            Page *p = pageOf(line, false);
            const std::size_t slot = slotOf(line);
            return p != nullptr && p->isPresent(slot) ? current(*p, slot)
                                                      : nullptr;
        }
        const std::size_t way = wayOf(line);
        return way == kNoWay ? nullptr : current(way);
    }

    /**
     * Drop the metadata line containing @p addr, if resident (used by
     * cache-coupled storage when the simulated L2 evicts the line).
     * @return true if a line was dropped.
     */
    bool
    erase(Addr addr)
    {
        const Addr line = index_.lineAddr(addr);
        if (unbounded_) {
            Page *p = pageOf(line, false);
            const std::size_t slot = slotOf(line);
            if (p == nullptr || !p->isPresent(slot))
                return false;
            p->present &= ~(std::uint64_t{1} << slot);
        } else {
            const std::size_t way = wayOf(line);
            if (way == kNoWay)
                return false;
            tag(way) = invalidAddr;
        }
        --resident_;
        ++evictions_;
        return true;
    }

    /**
     * Apply fn(line_address, first_granule) to every resident line,
     * after any pending barrier reset.
     */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        forEachResident([this, &fn](Addr line, std::uint32_t &stamp,
                                    T *g) {
            fn(line, resetIfStale(stamp, g));
        });
    }

    /**
     * A barrier discards pre-barrier state: every resident line
     * becomes stale, and is reset when next reached.
     */
    void
    onBarrier()
    {
        if (epoch_ != std::numeric_limits<std::uint32_t>::max()) {
            ++epoch_;
            return;
        }
        // The epoch wraps: reset every resident line now, so no old
        // stamp can alias the new epoch.
        epoch_ = 0;
        forEachResident([this](Addr, std::uint32_t &stamp, T *g) {
            for (unsigned k = 0; k < granules_; ++k)
                g[k].barrierReset();
            stamp = epoch_;
        });
    }

    /** @return the current barrier epoch. */
    std::uint32_t epoch() const { return epoch_; }

    /** @return number of lines displaced (metadata lost) so far. */
    std::uint64_t evictions() const { return evictions_; }

    /** @return lookup() calls so far. */
    std::uint64_t lookups() const { return lookups_; }

    /** @return lookup() calls that found the line resident. */
    std::uint64_t hits() const { return hits_; }

    /** @return number of currently resident metadata lines. */
    std::size_t residentLines() const { return resident_; }

    /** @return the granules each line holds. */
    unsigned granulesPerLine() const { return granules_; }

    /** @return the granule size in bytes. */
    unsigned granularity() const { return 1u << granShift_; }

    const CacheConfig &geometry() const { return geom_; }
    bool unbounded() const { return unbounded_; }

  private:
    /** Line addresses per 64-byte tag block. */
    static constexpr std::size_t kTagsPerBlock = 64 / sizeof(Addr);

    /** Tags on host-cache-line boundaries: an aligned 8-way set is
     * one block. invalidAddr marks an invalid way. */
    struct alignas(64) TagBlock
    {
        std::array<Addr, kTagsPerBlock> line;
    };

    /** log2 of the lines per unbounded page (one present word). */
    static constexpr unsigned kPageBits = 6;
    static constexpr std::size_t kPageLines = std::size_t{1} << kPageBits;

    /** One page of the unbounded store. */
    struct Page
    {
        explicit Page(std::size_t granules)
            : data(std::make_unique<T[]>(kPageLines * granules))
        {
        }

        bool
        isPresent(std::size_t slot) const
        {
            return (present >> slot) & 1;
        }

        std::unique_ptr<T[]> data;
        std::array<std::uint32_t, kPageLines> stamps{};
        std::uint64_t present = 0;
    };

    /** Apply fn(line_address, epoch_stamp, first_granule) to every
     * resident line, as it is. */
    template <typename Fn>
    void
    forEachResident(Fn &&fn)
    {
        if (unbounded_) {
            for (auto &kv : pages_) {
                Page &p = *kv.second;
                for (std::uint64_t bits = p.present; bits != 0;
                     bits &= bits - 1) {
                    const unsigned slot = std::countr_zero(bits);
                    fn(lineAddrOf(kv.first, slot), p.stamps[slot],
                       &p.data[slot * granules_]);
                }
            }
            return;
        }
        for (std::size_t i = 0; i < lastUse_.size(); ++i)
            if (tag(i) != invalidAddr)
                fn(tag(i), stamps_[i], &data_[i * granules_]);
    }

    Addr &tag(std::size_t way)
    {
        return tagBlocks_[way / kTagsPerBlock].line[way % kTagsPerBlock];
    }

    static constexpr std::size_t kNoWay = ~std::size_t{0};

    /** @return the way holding @p line, or kNoWay. */
    std::size_t
    wayOf(Addr line)
    {
        const std::size_t first = index_.setIndex(line) * geom_.assoc;
        for (std::size_t i = first; i < first + geom_.assoc; ++i)
            if (tag(i) == line)
                return i;
        return kNoWay;
    }

    /** Bring @p g's granules up to the current epoch. */
    T *
    resetIfStale(std::uint32_t &stamp, T *g)
    {
        if (stamp != epoch_) {
            for (unsigned k = 0; k < granules_; ++k)
                g[k].barrierReset();
            stamp = epoch_;
        }
        return g;
    }

    /** Make @p g's granules fresh (T may be move-only). */
    T *
    clear(T *g)
    {
        for (unsigned k = 0; k < granules_; ++k)
            g[k] = T{};
        return g;
    }

    /** @return way @p way's granules, current. */
    T *
    current(std::size_t way)
    {
        return resetIfStale(stamps_[way], &data_[way * granules_]);
    }

    /** @return page @p p's line @p slot's granules, current. */
    T *
    current(Page &p, std::size_t slot)
    {
        return resetIfStale(p.stamps[slot], &p.data[slot * granules_]);
    }

    std::uint64_t
    lineIndex(Addr line) const
    {
        return line >> lineShift_;
    }

    std::size_t
    slotOf(Addr line) const
    {
        return lineIndex(line) & (kPageLines - 1);
    }

    Addr
    lineAddrOf(std::uint64_t page, unsigned slot) const
    {
        return ((page << kPageBits) | slot) << lineShift_;
    }

    /** @return the page holding @p line; null if absent and not
     * @p create. */
    Page *
    pageOf(Addr line, bool create)
    {
        const std::uint64_t page = lineIndex(line) >> kPageBits;
        if (lastPage_ != nullptr && page == lastPageNo_)
            return lastPage_;
        Page *p = nullptr;
        if (create) {
            std::unique_ptr<Page> &slot = pages_[page];
            if (!slot)
                slot = std::make_unique<Page>(granules_);
            p = slot.get();
        } else {
            auto it = pages_.find(page);
            if (it == pages_.end())
                return nullptr;
            p = it->second.get();
        }
        lastPageNo_ = page;
        lastPage_ = p;
        return p;
    }

    T *
    lookupUnbounded(Addr line, bool &fresh)
    {
        Page &p = *pageOf(line, true);
        const std::size_t slot = slotOf(line);
        T *g = &p.data[slot * granules_];
        fresh = !p.isPresent(slot);
        if (!fresh) {
            ++hits_;
            return resetIfStale(p.stamps[slot], g);
        }
        p.present |= std::uint64_t{1} << slot;
        p.stamps[slot] = epoch_;
        ++resident_;
        return clear(g);
    }

    CacheConfig geom_;
    CacheIndex index_;
    bool unbounded_;
    unsigned granules_;
    unsigned lineShift_;
    unsigned granShift_;
    std::uint32_t epoch_;

    // Bounded store: way w of set s is index s * assoc + w.
    std::vector<TagBlock> tagBlocks_;
    std::vector<std::uint64_t> lastUse_;
    std::vector<std::uint32_t> stamps_;
    std::vector<T> data_;
    std::uint64_t useClock_ = 0;

    // Unbounded store.
    std::unordered_map<std::uint64_t, std::unique_ptr<Page>> pages_;
    std::uint64_t lastPageNo_ = 0;
    Page *lastPage_ = nullptr;

    std::size_t resident_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t lookups_ = 0;
    std::uint64_t hits_ = 0;
};

} // namespace hard

#endif // HARD_DETECTORS_META_CACHE_HH
