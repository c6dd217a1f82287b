/**
 * @file
 * The exact-lockset core shared by the ideal lockset detector and
 * RaceTrack:
 *
 *  - LocksetTable interns every distinct exact lock set as a small id
 *    (Eraser's lockset-index table) and memoizes intersections by id
 *    pair, so an access meets two ids instead of copying std::sets;
 *  - ShadowMemory is a two-level page-table shadow (DRD/TSan style)
 *    whose granules carry a barrier epoch stamp, which makes the §3.5
 *    flash-reset O(1): a stale granule forgets its lockset state the
 *    next time it is touched (FastTrack and DJIT+ keep their shadows
 *    in it too, and never reset them);
 *  - HeldLocks keeps each thread's write-held and read-held sets as
 *    table ids, with the unbalanced-lock checks of both detectors.
 *
 * ExactLockset stays the one reference intersection routine: the table
 * calls it on every memo miss. The fuzz oracles keep their own
 * std::set code on purpose and do not use any of this.
 */

#ifndef HARD_DETECTORS_LOCKSET_CORE_HH
#define HARD_DETECTORS_LOCKSET_CORE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "common/types.hh"
#include "detectors/vclock.hh"

namespace hard
{

/**
 * An exact candidate set: either the universe of all locks (the
 * initial value) or an explicit finite set.
 */
class ExactLockset
{
  public:
    /** Start as the universe ("all possible locks"). */
    ExactLockset() = default;

    /** Reset to the universe (barrier pruning, §3.5). */
    void
    resetToUniverse()
    {
        universe_ = true;
        set_.clear();
    }

    /** Intersect with the exact thread lock set @p held. */
    void
    intersect(const std::set<LockAddr> &held)
    {
        if (universe_) {
            universe_ = false;
            set_ = held;
            return;
        }
        for (auto it = set_.begin(); it != set_.end();) {
            if (held.count(*it) == 0)
                it = set_.erase(it);
            else
                ++it;
        }
    }

    bool isUniverse() const { return universe_; }
    bool
    empty() const
    {
        return !universe_ && set_.empty();
    }
    const std::set<LockAddr> &locks() const { return set_; }

  private:
    bool universe_ = true;
    std::set<LockAddr> set_;
};

/** Interned id of an exact lock set (see LocksetTable). */
using LocksetId = std::uint32_t;
/** The empty set ∅. */
constexpr LocksetId kEmptyLockset = 0;
/** The universe of all locks (a fresh candidate set). */
constexpr LocksetId kUniverseLockset =
    std::numeric_limits<LocksetId>::max();

/**
 * Interns exact lock sets as ids and memoizes the operations on them.
 * Real programs hold one to three locks at a time (§5.2.3), so the
 * table stays tiny and almost every operation is a memo hit. Ids are
 * never freed; references returned by locks() stay valid for the
 * table's lifetime.
 */
class LocksetTable
{
  public:
    LocksetTable() { intern({}); }

    /** @return the id of @p locks, interning it on first sight. */
    LocksetId
    intern(const std::set<LockAddr> &locks)
    {
        auto [it, inserted] =
            ids_.emplace(locks, static_cast<LocksetId>(sets_.size()));
        if (inserted) {
            hard_panic_if(it->second == kUniverseLockset,
                          "lockset table: too many distinct sets");
            sets_.push_back(&it->first);
        }
        return it->second;
    }

    /** @return the locks of @p id; the universe reads as no locks. */
    const std::set<LockAddr> &
    locks(LocksetId id) const
    {
        return *sets_[id == kUniverseLockset ? kEmptyLockset : id];
    }

    /** @return |@p id|; the universe has size 0, as in ExactLockset. */
    std::size_t size(LocksetId id) const { return locks(id).size(); }

    /** @return true if @p lock is in @p id (the universe excluded). */
    bool
    contains(LocksetId id, LockAddr lock) const
    {
        return locks(id).count(lock) != 0;
    }

    /** @return the number of distinct sets interned so far. */
    std::size_t count() const { return sets_.size(); }

    /** @return @p a ∩ @p b. */
    LocksetId
    meet(LocksetId a, LocksetId b)
    {
        if (a == b || b == kUniverseLockset)
            return a;
        if (a == kUniverseLockset)
            return b;
        if (a == kEmptyLockset || b == kEmptyLockset)
            return kEmptyLockset;
        const std::uint64_t key =
            (std::uint64_t{std::min(a, b)} << 32) | std::max(a, b);
        auto it = meets_.find(key);
        if (it != meets_.end())
            return it->second;
        ExactLockset c;
        c.intersect(locks(a));
        c.intersect(locks(b));
        const LocksetId out = intern(c.locks());
        meets_.emplace(key, out);
        return out;
    }

    /** @return @p id ∪ {@p lock}. */
    LocksetId
    with(LocksetId id, LockAddr lock)
    {
        return step(id, lock, true);
    }

    /** @return @p id \ {@p lock}. */
    LocksetId
    without(LocksetId id, LockAddr lock)
    {
        return step(id, lock, false);
    }

  private:
    struct StepKey
    {
        LocksetId id;
        bool add;
        LockAddr lock;
        bool operator==(const StepKey &) const = default;
    };

    struct StepHash
    {
        std::size_t
        operator()(const StepKey &k) const
        {
            return std::hash<std::uint64_t>()(
                k.lock * 0x9e3779b97f4a7c15ull ^
                ((std::uint64_t{k.id} << 1) | k.add));
        }
    };

    LocksetId
    step(LocksetId id, LockAddr lock, bool add)
    {
        hard_panic_if(id == kUniverseLockset,
                      "lockset table: lock set cannot be the universe");
        const StepKey key{id, add, lock};
        auto it = steps_.find(key);
        if (it != steps_.end())
            return it->second;
        std::set<LockAddr> s = locks(id);
        if (add)
            s.insert(lock);
        else
            s.erase(lock);
        const LocksetId out = intern(s);
        steps_.emplace(key, out);
        return out;
    }

    /** Set → id; the map's keys are the interned sets themselves. */
    std::map<std::set<LockAddr>, LocksetId> ids_;
    /** Id → set, pointing into ids_ (map nodes never move). */
    std::vector<const std::set<LockAddr> *> sets_;
    /** Memoized meets, keyed by the ordered id pair. */
    std::unordered_map<std::uint64_t, LocksetId> meets_;
    /** Memoized single-lock inserts and erases. */
    std::unordered_map<StepKey, LocksetId, StepHash> steps_;
};

/**
 * @return @p bytes if it is a valid ShadowMemory granularity (a power
 * of two); fatal otherwise, naming @p who, so a detector rejects its
 * configuration before building its shadow.
 */
inline unsigned
checkedGranularity(const char *who, unsigned bytes)
{
    hard_fatal_if(bytes == 0 || !isPowerOf2(bytes),
                  "%s: bad granularity %u", who, bytes);
    return bytes;
}

/**
 * Two-level page-table shadow of per-granule records of type @p T,
 * with an O(1) barrier reset.
 *
 * Granule index = address >> log2(granularity); a page directory keyed
 * by index >> kPageBits holds pages of 2^kPageBits granules, with a
 * one-entry last-page cache in front. Any 64-bit address works.
 *
 * Every granule carries the barrier epoch in which it was last reset.
 * onBarrier() only bumps the epoch; a granule with an older stamp is
 * passed to T::barrierReset() the next time it is looked up. @p T
 * must be default-constructible to its never-touched value and provide
 * barrierReset(), which forgets what a barrier discards.
 */
template <typename T>
class ShadowMemory
{
  public:
    /**
     * @param granularity_bytes Power-of-two granule size.
     * @param first_epoch Starting epoch (tests use it to reach the
     *        wrap-around).
     */
    explicit ShadowMemory(unsigned granularity_bytes,
                          std::uint32_t first_epoch = 0)
        : granShift_(floorLog2(granularity_bytes)), epoch_(first_epoch)
    {
        hard_panic_if(granularity_bytes == 0 ||
                          !isPowerOf2(granularity_bytes),
                      "shadow memory: bad granularity %u",
                      granularity_bytes);
    }

    ShadowMemory(const ShadowMemory &) = delete;
    ShadowMemory &operator=(const ShadowMemory &) = delete;

    /** @return the record of the granule containing @p addr. */
    T &
    at(Addr addr)
    {
        const std::uint64_t index = addr >> granShift_;
        const std::uint64_t page = index >> kPageBits;
        if (lastCells_ == nullptr || page != lastPage_) {
            std::unique_ptr<Cell[]> &cells = pages_[page];
            if (!cells) {
                cells = std::make_unique<Cell[]>(kPageGranules);
                for (std::size_t i = 0; i < kPageGranules; ++i)
                    cells[i].stamp = epoch_;
            }
            lastPage_ = page;
            lastCells_ = cells.get();
        }
        Cell &c = lastCells_[index & (kPageGranules - 1)];
        if (c.stamp != epoch_) {
            c.value.barrierReset();
            c.stamp = epoch_;
        }
        return c.value;
    }

    /**
     * Visit every granule that [@p addr, @p addr + @p size) touches as
     * visit(granule_address, record); a size of 0 counts as one byte.
     */
    template <typename Visit>
    void
    forEach(Addr addr, unsigned size, Visit &&visit)
    {
        const Addr gran = Addr{1} << granShift_;
        const Addr hi = addr + (size ? size : 1);
        for (Addr a = alignDown(addr, gran); a < hi; a += gran)
            visit(a, at(a));
    }

    /** forEach() in MetaCache's form, which the detector engines walk;
     * shadow memory has no line fetches to report. */
    template <typename Fetched, typename Visit>
    void
    forEach(Addr addr, unsigned size, Fetched &&, Visit &&visit)
    {
        forEach(addr, size, visit);
    }

    /** @return the granule size in bytes. */
    unsigned granularity() const { return 1u << granShift_; }

    /** Discard pre-barrier state: every granule becomes stale. */
    void
    onBarrier()
    {
        if (epoch_ != std::numeric_limits<std::uint32_t>::max()) {
            ++epoch_;
            return;
        }
        // The stamp wraps: reset every granule now, so no old stamp
        // can alias the new epoch.
        epoch_ = 0;
        for (auto &kv : pages_) {
            for (std::size_t i = 0; i < kPageGranules; ++i) {
                kv.second[i].value.barrierReset();
                kv.second[i].stamp = epoch_;
            }
        }
    }

    /** @return the current barrier epoch. */
    std::uint32_t epoch() const { return epoch_; }

    /** @return the number of allocated pages. */
    std::size_t pageCount() const { return pages_.size(); }

    /** log2 of the granules per page. */
    static constexpr unsigned kPageBits = 10;

  private:
    static constexpr std::size_t kPageGranules = std::size_t{1}
                                                 << kPageBits;

    struct Cell
    {
        T value{};
        std::uint32_t stamp = 0;
    };

    unsigned granShift_;
    std::uint32_t epoch_;
    std::unordered_map<std::uint64_t, std::unique_ptr<Cell[]>> pages_;
    std::uint64_t lastPage_ = 0;
    Cell *lastCells_ = nullptr;
};

/**
 * Per-thread write-held and read-held lock sets, as LocksetTable ids.
 * Mutex and writer-mode rwlock holds are write-held; reader-mode
 * rwlock holds are read-held. A write is protected only by write-held
 * locks (a reader hold admits concurrent readers of the same data),
 * while a read is protected by locks held in either mode; both ids are
 * cached per thread and change only at acquire and release. Thread ids
 * must be below kMaxThreads (the lockset engine checks them).
 */
class HeldLocks
{
  public:
    /** Rwlock holds keep their mode (see LocksetEngine). */
    static constexpr bool kModeBlind = false;

    /**
     * @param who Panic-message prefix (the detector's name).
     * @param tolerate_unbalanced Make re-acquire keep the lock held and
     *        release-of-unheld a no-op instead of panicking.
     */
    HeldLocks(const char *who, bool tolerate_unbalanced)
        : who_(who), tolerateUnbalanced_(tolerate_unbalanced)
    {
    }

    LocksetTable &table() { return table_; }
    const LocksetTable &table() const { return table_; }

    /** @p tid acquires @p lock in write (@p writer) or read mode;
     * @p rw names it a rwlock in the panic text. */
    void
    acquire(ThreadId tid, LockAddr lock, bool writer, bool rw)
    {
        Thread &t = threads_[tid];
        LocksetId &mode = writer ? t.write : t.read;
        const bool fresh = !table_.contains(mode, lock);
        hard_panic_if(!fresh && !tolerateUnbalanced_,
                      "%s: thread %u re-acquired %s %llx", who_, tid,
                      rw ? "rwlock" : "lock",
                      static_cast<unsigned long long>(lock));
        if (fresh) {
            mode = table_.with(mode, lock);
            t.either = table_.with(t.either, lock);
        }
        maxHeld_ = std::max(maxHeld_,
                            table_.size(t.write) + table_.size(t.read));
    }

    /** @p tid releases @p lock from write (@p writer) or read mode. */
    void
    release(ThreadId tid, LockAddr lock, bool writer, bool rw)
    {
        Thread &t = threads_[tid];
        LocksetId &mode = writer ? t.write : t.read;
        const bool held = table_.contains(mode, lock);
        hard_panic_if(!held && !tolerateUnbalanced_,
                      "%s: thread %u released unheld %s %llx", who_, tid,
                      rw ? "rwlock" : "lock",
                      static_cast<unsigned long long>(lock));
        if (!held)
            return;
        mode = table_.without(mode, lock);
        if (!table_.contains(writer ? t.read : t.write, lock))
            t.either = table_.without(t.either, lock);
    }

    /** @return the set that protects an access of @p tid. */
    LocksetId
    protecting(ThreadId tid, bool write) const
    {
        const Thread &t = threads_[tid];
        return write ? t.write : t.either;
    }

    /** @return the write-held locks of @p tid. */
    const std::set<LockAddr> &
    writeHeld(ThreadId tid) const
    {
        return table_.locks(threads_[tid].write);
    }

    /** @return the read-held locks of @p tid. */
    const std::set<LockAddr> &
    readHeld(ThreadId tid) const
    {
        return table_.locks(threads_[tid].read);
    }

    /** @return the most locks any thread held at an acquire. */
    std::size_t maxHeld() const { return maxHeld_; }

  private:
    struct Thread
    {
        LocksetId write = kEmptyLockset;
        LocksetId read = kEmptyLockset;
        /** write ∪ read: what protects a read. */
        LocksetId either = kEmptyLockset;
    };

    const char *who_;
    bool tolerateUnbalanced_;
    LocksetTable table_;
    /** A thread never seen holds nothing. */
    std::array<Thread, kMaxThreads> threads_{};
    std::size_t maxHeld_ = 0;
};

} // namespace hard

#endif // HARD_DETECTORS_LOCKSET_CORE_HH
