/**
 * @file
 * Set-associative tag store with true-LRU replacement.
 *
 * The cache tracks tags and MESI states only; simulated programs carry
 * no data values (race detection depends on the access/sync trace, not
 * on arithmetic results). Timing and coherence are orchestrated by the
 * bus/MemorySystem layer above.
 */

#ifndef HARD_MEM_CACHE_HH
#define HARD_MEM_CACHE_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/cache_cfg.hh"
#include "mem/cstate.hh"

namespace hard
{

/** One way of one set in the tag store. */
struct CacheLine
{
    std::uint64_t tag = 0;
    CState cstate = CState::Invalid;
    /** LRU timestamp: larger = more recently used. */
    std::uint64_t lastUse = 0;

    bool valid() const { return cstate != CState::Invalid; }
    bool dirty() const { return cstate == CState::Modified; }
};

/** Description of a line displaced to make room for a fill. */
struct Eviction
{
    Addr lineAddr = invalidAddr;
    bool dirty = false;
};

/**
 * A single cache level (used for both the private L1s and the shared
 * L2). Pure bookkeeping: no latency, no coherence decisions.
 */
class SetAssocCache
{
  public:
    /**
     * @param name Stats prefix (e.g. "l1.0", "l2").
     * @param cfg Geometry; validated on construction.
     */
    SetAssocCache(const std::string &name, const CacheConfig &cfg);

    /** @return pointer to the line holding @p addr, or nullptr. */
    CacheLine *findLine(Addr addr);
    const CacheLine *findLine(Addr addr) const;

    /**
     * Insert (fill) the line containing @p addr in state @p st,
     * evicting the LRU way if the set is full.
     *
     * @return the eviction performed, if any.
     */
    std::optional<Eviction> insert(Addr addr, CState st);

    /** Mark the line holding @p addr as most recently used. */
    void touch(Addr addr);

    /** Mark @p line (found by findLine()) as most recently used. */
    void touch(CacheLine &line) { line.lastUse = ++useClock_; }

    /** Drop the line holding @p addr, if present. @return it was held. */
    bool invalidate(Addr addr);

    /**
     * Change the coherence state of a resident line.
     * Panics if the line is absent.
     */
    void setState(Addr addr, CState st);

    /** @return the line's state, or Invalid if absent. */
    CState state(Addr addr) const;

    /** Invalidate every line (used on flush-style resets in tests). */
    void invalidateAll();

    /** Enumerate valid lines: cb(lineAddr, line). */
    void forEachLine(
        const std::function<void(Addr, const CacheLine &)> &cb) const;

    const CacheConfig &config() const { return cfg_; }
    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

    /** @return count of currently valid lines. */
    std::size_t validLines() const;

  private:
    /** @return [first,last) way index range of @p addr's set. */
    std::pair<std::size_t, std::size_t> setRange(Addr addr) const;

    CacheConfig cfg_;
    CacheIndex index_;
    std::vector<CacheLine> lines_;
    std::uint64_t useClock_ = 0;
    StatGroup stats_;
    CounterHandle evictions_{stats_, "evictions"};
    CounterHandle writebacks_{stats_, "writebacks"};
    CounterHandle fills_{stats_, "fills"};
    CounterHandle invalidations_{stats_, "invalidations"};
};

} // namespace hard

#endif // HARD_MEM_CACHE_HH
