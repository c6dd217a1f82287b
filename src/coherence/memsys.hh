/**
 * @file
 * The CMP memory system: per-core private L1s, a shared inclusive L2,
 * main memory, and the snoopy MESI bus, following Table 1 of the paper
 * (16KB 4-way L1 / 1MB 8-way L2, 32B lines, 3/10/200-cycle latencies).
 */

#ifndef HARD_COHERENCE_MEMSYS_HH
#define HARD_COHERENCE_MEMSYS_HH

#include <functional>
#include <memory>
#include <vector>

#include "coherence/bus.hh"
#include "mem/cache.hh"

namespace hard
{

/** Where an access was ultimately serviced from. */
enum class AccessSource
{
    L1,
    OtherL1,
    L2,
    Memory,
};

/** @return printable name of @p s. */
const char *accessSourceName(AccessSource s);

/** Timing/coherence outcome of one memory access. */
struct AccessOutcome
{
    /** Cycle at which the access completes. */
    Cycle completeAt = 0;
    /** True if the access hit in the requester's L1 without a bus txn. */
    bool l1Hit = false;
    /** Supplier of the data. */
    AccessSource source = AccessSource::L1;
    /** Number of L1 caches (incl. requester) holding the line after. */
    unsigned sharers = 1;
    /** Requester's L1 coherence state after the access. */
    CState stateAfter = CState::Invalid;
    /** True if the line moved into this L1 (piggyback opportunity). */
    bool lineTransferred = false;
};

/** Snoopy coherence protocol flavour. */
enum class CoherenceProtocol
{
    /** Default: Exclusive state enables silent first-write upgrades. */
    MESI,
    /** Ablation: no E state; every first write pays a BusUpgr. */
    MSI,
};

/** Configuration of the whole memory system. */
struct MemSysConfig
{
    unsigned numCores = 4;
    CoherenceProtocol protocol = CoherenceProtocol::MESI;
    CacheConfig l1{16 * 1024, 4, 32, 3};
    CacheConfig l2{1024 * 1024, 8, 32, 10};
    Cycle memLatency = 200;
    BusConfig bus{};
};

/**
 * Snoopy MESI CMP memory hierarchy.
 *
 * Timing is "atomic with contention": each access computes its full
 * latency synchronously, but bus transactions serialize through the
 * shared Bus so contention (and HARD's metadata broadcasts) lengthen
 * execution.
 */
class MemorySystem
{
  public:
    explicit MemorySystem(const MemSysConfig &cfg);

    /**
     * Perform one data access.
     *
     * @param core Requesting core.
     * @param addr Byte address (the whole access must sit in one line).
     * @param size Access size in bytes.
     * @param write True for stores / read-modify-writes.
     * @param now Cycle at which the core issues the access.
     */
    AccessOutcome access(CoreId core, Addr addr, unsigned size, bool write,
                         Cycle now);

    /** @return number of L1 caches currently holding @p addr's line. */
    unsigned sharerCount(Addr addr) const;

    /**
     * Callback fired whenever a line is displaced from the shared L2
     * (back-invalidating any L1 copies). HARD's per-line metadata
     * lives in the cache hierarchy, so this is the moment candidate
     * sets are lost (§3.6).
     */
    void
    setL2EvictionCallback(std::function<void(Addr)> cb)
    {
        onL2Evict_ = std::move(cb);
    }

    /**
     * Attach a trace sink (not owned; may be null): bus transactions
     * on the bus track, L1 miss completions on the requesting core's
     * track, L2 displacements as instants.
     */
    void setTracer(EventTracer *tracer);

    Bus &bus() { return bus_; }
    const Bus &bus() const { return bus_; }
    SetAssocCache &l1(CoreId core) { return l1s_.at(core)->cache; }
    const SetAssocCache &
    l1(CoreId core) const
    {
        return l1s_.at(core)->cache;
    }
    SetAssocCache &l2() { return *l2_; }
    const SetAssocCache &l2() const { return *l2_; }
    const MemSysConfig &config() const { return cfg_; }
    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

  private:
    /**
     * A private L1 and the per-access outcome counters the memory
     * system keeps in that L1's stats group.
     */
    struct PrivateL1
    {
        PrivateL1(const std::string &name, const CacheConfig &cfg)
            : cache(name, cfg)
        {
        }

        SetAssocCache cache;
        CounterHandle readHits{cache.stats(), "readHits"};
        CounterHandle writeHits{cache.stats(), "writeHits"};
        CounterHandle readMisses{cache.stats(), "readMisses"};
        CounterHandle writeMisses{cache.stats(), "writeMisses"};
        CounterHandle upgrades{cache.stats(), "upgrades"};
    };

    /** Fill @p line into @p core's L1, handling the displaced victim. */
    void fillL1(CoreId core, Addr line, CState st, Cycle at);

    /** Ensure @p line is present in L2; @return true if it missed. */
    bool ensureInL2(Addr line, bool dirty, Cycle &completeAt, Cycle now);

    /** Invalidate all L1 copies of @p line (except @p keep). */
    void backInvalidate(Addr line, CoreId keep);

    MemSysConfig cfg_;
    std::function<void(Addr)> onL2Evict_;
    Bus bus_;
    std::vector<std::unique_ptr<PrivateL1>> l1s_;
    std::unique_ptr<SetAssocCache> l2_;
    StatGroup stats_;
    CounterHandle reads_{stats_, "reads"};
    CounterHandle writes_{stats_, "writes"};
    CounterHandle backInvalidations_{stats_, "backInvalidations"};
    CounterHandle l2Evictions_{stats_, "l2Evictions"};
    CounterHandle cacheToCache_{stats_, "cacheToCache"};
    CounterHandle memFetches_{stats_, "memFetches"};
    EventTracer *tracer_ = nullptr;
};

} // namespace hard

#endif // HARD_COHERENCE_MEMSYS_HH
