/**
 * @file
 * Cache geometry/latency configuration (Table 1 of the paper provides
 * the default values used in the evaluation).
 */

#ifndef HARD_MEM_CACHE_CFG_HH
#define HARD_MEM_CACHE_CFG_HH

#include <cstdint>

#include "common/bitops.hh"
#include "common/error.hh"
#include "common/types.hh"

namespace hard
{

/** Geometry and hit latency of one cache level. */
struct CacheConfig
{
    /** Total capacity in bytes. */
    std::uint64_t sizeBytes = 16 * 1024;
    /** Set associativity (ways). */
    unsigned assoc = 4;
    /** Line size in bytes. */
    unsigned lineBytes = 32;
    /** Hit latency in cycles. */
    Cycle hitLatency = 3;

    /** @return the number of sets implied by the geometry. */
    std::uint64_t
    numSets() const
    {
        return sizeBytes / (static_cast<std::uint64_t>(assoc) * lineBytes);
    }

    /** Throw ConfigError if the geometry is not realizable. */
    void
    validate(const char *what) const
    {
        hard_throw_if(!isPowerOf2(lineBytes), ConfigError,
                      "%s: line size %u not a power of two", what,
                      lineBytes);
        hard_throw_if(assoc == 0, ConfigError, "%s: zero associativity",
                      what);
        hard_throw_if(sizeBytes % (std::uint64_t{assoc} * lineBytes) != 0,
                      ConfigError,
                      "%s: size %llu not divisible by assoc*line", what,
                      static_cast<unsigned long long>(sizeBytes));
        hard_throw_if(!isPowerOf2(numSets()), ConfigError,
                      "%s: set count %llu not a power of two", what,
                      static_cast<unsigned long long>(numSets()));
    }

    /** @return the line-aligned base address containing @p a. */
    Addr lineAddr(Addr a) const { return alignDown(a, lineBytes); }

    /** @return the set index for @p a. */
    std::uint64_t
    setIndex(Addr a) const
    {
        return (a / lineBytes) & (numSets() - 1);
    }

    /** @return the tag for @p a (line address bits above the index). */
    std::uint64_t
    tag(Addr a) const
    {
        return (a / lineBytes) >> floorLog2(numSets());
    }
};

/**
 * The address split of a CacheConfig as shifts and masks, computed
 * once: the per-lookup form of CacheConfig's lineAddr(), setIndex()
 * and tag(), which stay as the reference.
 */
class CacheIndex
{
  public:
    /** Validates @p cfg first (ConfigError names @p what). */
    CacheIndex(const CacheConfig &cfg, const char *what)
        : offsetBits_((cfg.validate(what), floorLog2(cfg.lineBytes))),
          tagShift_(offsetBits_ + floorLog2(cfg.numSets())),
          setMask_(cfg.numSets() - 1)
    {
    }

    /** @return the line-aligned base address containing @p a. */
    Addr
    lineAddr(Addr a) const
    {
        return a & ~((Addr{1} << offsetBits_) - 1);
    }

    /** @return the set index for @p a. */
    std::uint64_t
    setIndex(Addr a) const
    {
        return (a >> offsetBits_) & setMask_;
    }

    /** @return the tag for @p a. */
    std::uint64_t tag(Addr a) const { return a >> tagShift_; }

    /** @return the line address with tag @p tag in set @p set. */
    Addr
    lineAddrOf(std::uint64_t tag, std::uint64_t set) const
    {
        return (tag << tagShift_) | (set << offsetBits_);
    }

  private:
    unsigned offsetBits_;
    unsigned tagShift_;
    std::uint64_t setMask_;
};

} // namespace hard

#endif // HARD_MEM_CACHE_CFG_HH
