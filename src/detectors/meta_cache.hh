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
 */

#ifndef HARD_DETECTORS_META_CACHE_HH
#define HARD_DETECTORS_META_CACHE_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/logging.hh"
#include "mem/cache_cfg.hh"

namespace hard
{

/**
 * Set-associative (or unbounded) store of per-line detector metadata.
 *
 * @tparam LineData Metadata attached to one cache line. Must be
 * default-constructible; a default-constructed LineData is the "fresh"
 * state a line has after being (re)fetched with no surviving metadata.
 */
template <typename LineData>
class MetaCache
{
  public:
    /**
     * @param geom Geometry to mirror (typically the simulated L2).
     * @param unbounded If true, never evict (the paper's "ideal"
     * infinite-L2 configuration); @p geom then only defines lineBytes.
     */
    MetaCache(const CacheConfig &geom, bool unbounded)
        : geom_(geom), index_(geom, "metaCache"), unbounded_(unbounded)
    {
        if (!unbounded_)
            ways_.resize(geom_.numSets() * geom_.assoc);
    }

    /**
     * Find the metadata line for @p addr, creating it if absent.
     *
     * @param addr Any byte address within the line.
     * @param[out] fresh Set true if the line had to be (re)created,
     * i.e. any previous metadata for it has been lost.
     * @param[out] evicted If non-null, set to the line address whose
     * metadata this lookup displaced (invalidAddr when nothing was).
     */
    LineData &
    lookup(Addr addr, bool &fresh, Addr *evicted = nullptr)
    {
        if (evicted != nullptr)
            *evicted = invalidAddr;
        const Addr line = index_.lineAddr(addr);
        ++lookups_;
        if (unbounded_) {
            auto [it, inserted] = map_.try_emplace(line);
            fresh = inserted;
            if (!inserted)
                ++hits_;
            return it->second;
        }

        auto [first, last] = setRange(line);
        for (std::size_t i = first; i < last; ++i) {
            if (ways_[i].valid && ways_[i].lineAddr == line) {
                ways_[i].lastUse = ++useClock_;
                fresh = false;
                ++hits_;
                return ways_[i].data;
            }
        }
        // Miss: fill, evicting LRU if needed.
        std::size_t victim = first;
        for (std::size_t i = first; i < last; ++i) {
            if (!ways_[i].valid) {
                victim = i;
                break;
            }
            if (ways_[i].lastUse < ways_[victim].lastUse)
                victim = i;
        }
        if (ways_[victim].valid) {
            ++evictions_;
            if (evicted != nullptr)
                *evicted = ways_[victim].lineAddr;
        }
        ways_[victim].valid = true;
        ways_[victim].lineAddr = line;
        ways_[victim].lastUse = ++useClock_;
        ways_[victim].data = LineData{};
        fresh = true;
        return ways_[victim].data;
    }

    /** @return the metadata line for @p addr if resident, else null. */
    LineData *
    find(Addr addr)
    {
        const Addr line = index_.lineAddr(addr);
        if (unbounded_) {
            auto it = map_.find(line);
            return it == map_.end() ? nullptr : &it->second;
        }
        auto [first, last] = setRange(line);
        for (std::size_t i = first; i < last; ++i)
            if (ways_[i].valid && ways_[i].lineAddr == line)
                return &ways_[i].data;
        return nullptr;
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
            if (map_.erase(line) == 0)
                return false;
            ++evictions_;
            return true;
        }
        auto [first, last] = setRange(line);
        for (std::size_t i = first; i < last; ++i) {
            if (ways_[i].valid && ways_[i].lineAddr == line) {
                ways_[i].valid = false;
                ++evictions_;
                return true;
            }
        }
        return false;
    }

    /** Apply @p fn to every resident line (barrier flash operations). */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        if (unbounded_) {
            for (auto &kv : map_)
                fn(kv.first, kv.second);
            return;
        }
        for (auto &w : ways_)
            if (w.valid)
                fn(w.lineAddr, w.data);
    }

    /** @return number of lines displaced (metadata lost) so far. */
    std::uint64_t evictions() const { return evictions_; }

    /** @return lookup() calls so far. */
    std::uint64_t lookups() const { return lookups_; }

    /** @return lookup() calls that found the line resident. */
    std::uint64_t hits() const { return hits_; }

    /** @return number of currently resident metadata lines. */
    std::size_t
    residentLines() const
    {
        if (unbounded_)
            return map_.size();
        std::size_t n = 0;
        for (const auto &w : ways_)
            if (w.valid)
                ++n;
        return n;
    }

    const CacheConfig &geometry() const { return geom_; }
    bool unbounded() const { return unbounded_; }

  private:
    struct Way
    {
        Addr lineAddr = invalidAddr;
        std::uint64_t lastUse = 0;
        bool valid = false;
        LineData data{};
    };

    std::pair<std::size_t, std::size_t>
    setRange(Addr line) const
    {
        std::size_t first = index_.setIndex(line) * geom_.assoc;
        return {first, first + geom_.assoc};
    }

    CacheConfig geom_;
    CacheIndex index_;
    bool unbounded_;
    std::vector<Way> ways_;
    std::unordered_map<Addr, LineData> map_;
    std::uint64_t useClock_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t lookups_ = 0;
    std::uint64_t hits_ = 0;
};

} // namespace hard

#endif // HARD_DETECTORS_META_CACHE_HH
