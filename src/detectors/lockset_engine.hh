/**
 * @file
 * The one lockset engine, run by HARD, the ideal lockset, the §7
 * hybrid and RaceTrack. In the paper HARD and the ideal lockset are
 * one algorithm with two set representations (§3.2, §5). Per granule
 * the engine applies the Figure 2 transition, meets the candidate set
 * with the protecting lock set, and reports an empty set, each when
 * the state says so. Four compile-time axes: the set algebra
 * (BloomAnd, ExactMeet), the storage (MetaCache, ShadowMemory), the
 * lock tracking (LockRegisterFile, HeldLocks) and the report filter
 * (NoFilter, HbFilter). A detector derives from the engine as
 * @p Binding: the engine's onEvents() runs dispatchEvents() (report.hh)
 * on the Binding's static type, so a Binding adds or replaces a
 * handler by declaring one of the same name, and may hide the step
 * hooks, which do nothing by default.
 * With a provenance recorder attached, the engine logs accesses,
 * reports and flash-resets; otherwise it runs an instantiation that
 * holds no provenance code.
 */

#ifndef HARD_DETECTORS_LOCKSET_ENGINE_HH
#define HARD_DETECTORS_LOCKSET_ENGINE_HH

#include <span>
#include <string>
#include <utility>

#include "common/logging.hh"
#include "detectors/lockset_core.hh"
#include "detectors/lockset_state.hh"
#include "detectors/meta_cache.hh"
#include "detectors/sync_order.hh"
#include "explain/prov.hh"

namespace hard
{

/** Exact candidate sets: LocksetTable ids, met in HeldLocks' table. */
struct ExactMeet
{
    using Set = LocksetId;
    static constexpr Set kUniverse = kUniverseLockset;

    static Set
    meet(HeldLocks &held, Set a, Set b)
    {
        return held.table().meet(a, b);
    }

    static bool empty(const HeldLocks &, Set s) { return s == kEmptyLockset; }
};

/** Report every empty-set alarm (HARD, the ideal lockset). */
struct NoFilter
{
    using Base = RaceDetector;
    static constexpr bool kClocked = false;
    static constexpr bool kLockEdges = false;
    struct History
    {
    };
};

/** Withdraw an alarm that every other thread's last access to the
 * granule happens-before, by ClockedDetector::clock(). RaceTrack's
 * clock has lock edges and its reports name the first unordered
 * thread; the hybrid's has neither. */
template <bool LockEdges, bool NamesOther>
struct HbFilter
{
    using Base = ClockedDetector;
    static constexpr bool kClocked = true;
    static constexpr bool kLockEdges = LockEdges;
    static constexpr bool kNamesOther = NamesOther;
    /** For the hybrid, the "more hardware resource" §7 anticipates. */
    struct History
    {
        VClock accessClk{};
    };
};

/** The Eraser step over @p Sets, @p Storage, @p Locks and @p Filter. */
template <typename Binding, typename Sets, template <typename> class Storage,
          typename Locks, typename Filter>
class LocksetEngine : public Filter::Base
{
    using Base = typename Filter::Base;

  public:
    using Set = typename Sets::Set;

    /** One granule: candidate set, state, owner and access history. */
    struct Granule : Filter::History
    {
        Set cand = Sets::kUniverse;
        LState state = LState::Virgin;
        ThreadId owner = invalidThread;

        /** §3.5 flash-reset of the lockset side. The access history
         * survives: the barrier's own edge orders it. */
        void
        barrierReset()
        {
            cand = Sets::kUniverse;
            state = LState::Virgin;
            owner = invalidThread;
        }
    };

    void
    onEvents(std::span<const Event> evs) override
    {
        dispatchEvents(self(), evs);
    }

    void onRead(const Event &ev) { access(ev, false); }
    void onWrite(const Event &ev) { access(ev, true); }

    /** The sync order's lock edge first, if the filter's clock has
     * them, then the lock tracking. */
    void
    onLockAcquire(const Event &ev)
    {
        checkThread(ev.tid);
        if constexpr (Filter::kLockEdges)
            Base::onLockAcquire(ev);
        locks_.acquire(self().lockSlot(ev), ev.addr, true, false);
    }

    void
    onLockRelease(const Event &ev)
    {
        checkThread(ev.tid);
        if constexpr (Filter::kLockEdges)
            Base::onLockRelease(ev);
        locks_.release(self().lockSlot(ev), ev.addr, true, false);
    }

    /** A mode-blind tracker takes an rwlock as a mutex. */
    void
    onRwLockAcquire(const Event &ev, bool writer)
    {
        if constexpr (Locks::kModeBlind) {
            onLockAcquire(ev);
        } else {
            checkThread(ev.tid);
            if constexpr (Filter::kLockEdges)
                Base::onRwLockAcquire(ev, writer);
            locks_.acquire(self().lockSlot(ev), ev.addr, writer, true);
        }
    }

    void
    onRwLockRelease(const Event &ev, bool writer)
    {
        if constexpr (Locks::kModeBlind) {
            onLockRelease(ev);
        } else {
            checkThread(ev.tid);
            if constexpr (Filter::kLockEdges)
                Base::onRwLockRelease(ev, writer);
            locks_.release(self().lockSlot(ev), ev.addr, writer, true);
        }
    }

    /**
     * §3.5: "the accesses and their lock information before the
     * barrier are discarded". Both the candidate set and the state
     * must go: resetting only the set would leave the Figure 7 pattern
     * (cross-barrier hand-off with no locks) reported through the
     * persisting SharedModified state. The reset is lazy (storage
     * epochs).
     */
    void
    onBarrier(const Event &ev)
    {
        if (self().config().barrierReset) {
            store_.onBarrier();
            if (prov_)
                prov_->recordFlashReset(ev.at, ev.episode);
            self().onFlashReset(ev);
        }
        if constexpr (Filter::kClocked)
            Base::onBarrier(ev);
    }

  protected:
    using Engine = LocksetEngine;

    /** @param who Thread-check prefix; @p store: storage ctor args. */
    template <typename... StoreArgs>
    LocksetEngine(const std::string &name, const char *who, Locks locks,
                  StoreArgs... store)
        : Base(name), locks_(std::move(locks)), store_(store...), who_(who)
    {
    }

    /** Apply @p ev, a read or (@p write) a write, to its granules. */
    void
    access(const Event &ev, bool write)
    {
        checkThread(ev.tid);
        if (prov_)
            run<true>(ev, write);
        else
            run<false>(ev, write);
    }

    /** The one thread-id check, before any per-thread state. */
    void
    checkThread(ThreadId tid) const
    {
        hard_panic_if(tid >= kMaxThreads, "%s: thread id %u too large",
                      who_, tid);
    }

    /** Attach a provenance recorder (explain/prov.hh); reports then
     * carry the last conflicting accessor in RaceReport::other. Null
     * (the default) runs the untraced path, with the same output. */
    void attachProvenance(ProvRecorder *prov) { prov_ = prov; }

    /** @name Hooks: lock slot of a context, MetaCache line fetched,
     * candidate set met, access done (any set changed), flash-reset
     * @{ */
    unsigned lockSlot(const Event &ev) const { return ev.tid; }
    template <bool kTraced> void onFetch(const Event &, Addr, bool, Addr) {}
    template <bool kTraced>
    void onMeet(const Event &, Addr, bool, LState, const Granule &, Set, Set)
    {
    }
    template <bool kTraced> void afterAccess(const Event &, bool, bool) {}
    void onFlashReset(const Event &) {}
    /** @} */

    Locks locks_;
    Storage<Granule> store_;
    /** Alarms the filter withdrew. */
    std::uint64_t filtered_ = 0;
    /** Provenance recorder; null unless an explain run attached one. */
    ProvRecorder *prov_ = nullptr;

  private:
    Binding &self() { return static_cast<Binding &>(*this); }

    template <bool kTraced>
    void
    run(const Event &ev, bool write)
    {
        const ThreadId tid = ev.tid;
        const Set held = locks_.protecting(self().lockSlot(ev), write);
        const VClock *vc = nullptr;
        if constexpr (Filter::kClocked)
            vc = &this->clock(tid);
        bool changed = false;
        store_.forEach(
            ev.addr, ev.size,
            [&](Addr line, bool fresh, Addr victim) {
                self().template onFetch<kTraced>(ev, line, fresh, victim);
            },
            [&](Addr a, Granule &g) {
                if constexpr (kTraced)
                    prov_->noteAccess(a, tid, ev.at);
                const LState before = g.state;
                const LStateStep s =
                    lstateAccess(g.state, g.owner, tid, write);
                g.state = s.next;
                g.owner = s.owner;
                if (s.updateCandidate) {
                    const Set old = g.cand;
                    g.cand = Sets::meet(locks_, old, held);
                    changed |= g.cand != old;
                    self().template onMeet<kTraced>(ev, a, write, before,
                                                    g, old, held);
                    if (s.reportIfEmpty && Sets::empty(locks_, g.cand))
                        report<kTraced>(ev, a, write, g, vc);
                }
                if constexpr (Filter::kClocked)
                    g.accessClk[tid] = (*vc)[tid];
            });
        self().template afterAccess<kTraced>(ev, write, changed);
    }

    template <bool kTraced>
    void
    report(const Event &ev, Addr a, bool write, const Granule &g,
           const VClock *vc)
    {
        ThreadId other = invalidThread;
        if constexpr (Filter::kClocked) {
            other = g.accessClk.firstUnordered(*vc, ev.tid);
            if (other == invalidThread) {
                ++filtered_;
                return;
            }
            if constexpr (!Filter::kNamesOther)
                other = invalidThread;
        }
        if constexpr (kTraced) {
            prov_->recordReport(a, ev.tid, ev.site, write, ev.at);
            other = prov_->lastOther(a);
        }
        this->emit(ev.tid, a, store_.granularity(), ev.site, write, ev.at,
                   other);
    }

    const char *who_;
};

} // namespace hard

#endif // HARD_DETECTORS_LOCKSET_ENGINE_HH
