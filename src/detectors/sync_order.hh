/**
 * @file
 * The happens-before synchronization order shared by every clocked
 * detector (happens-before, FastTrack, DJIT+, RaceTrack and the §7
 * hybrid): per-thread vector clocks plus the release clocks of each
 * synchronization object, and the ClockedDetector base class that
 * implements every sync handler on top of them. The handlers are plain
 * members, reached through dispatchEvents() (report.hh) on the
 * concrete detector's type.
 *
 * A release joins the releasing thread's clock into the object and
 * advances the thread into a fresh epoch, so its later accesses are
 * not ordered before the released history; an acquire joins the
 * object's clock into the acquiring thread. Locks, semaphores,
 * condition variables and atomics all have this shape. Each kind keeps
 * its own map, so one address used as two kinds carries two
 * independent clocks.
 *
 * Kept header-only so the sync-heavy path inlines into the detectors'
 * hooks.
 */

#ifndef HARD_DETECTORS_SYNC_ORDER_HH
#define HARD_DETECTORS_SYNC_ORDER_HH

#include <array>
#include <unordered_map>

#include "common/logging.hh"
#include "detectors/report.hh"
#include "detectors/vclock.hh"

namespace hard
{

/** Kinds of release/acquire synchronization object. */
enum class SyncKind : unsigned
{
    Lock,
    Sema,
    Cond,
    Atomic,
};

/** Vector-clock synchronization order over all sync objects. */
class SyncOrder
{
  public:
    SyncOrder()
    {
        // Each thread starts at its own epoch 1.
        for (unsigned t = 0; t < kMaxThreads; ++t)
            vc_[t][t] = 1;
    }

    /** Panic unless @p tid indexes a tracked thread. */
    static void
    checkThread(ThreadId tid)
    {
        hard_panic_if(tid >= kMaxThreads,
                      "sync order: thread id %u too large", tid);
    }

    /** @return the current vector clock of @p tid. */
    const VClock &
    clock(ThreadId tid) const
    {
        checkThread(tid);
        return vc_[tid];
    }

    /** @p tid releases its history into the @p kind object at @p addr. */
    void
    release(SyncKind kind, ThreadId tid, Addr addr)
    {
        checkThread(tid);
        publish(objects_[static_cast<unsigned>(kind)][addr], tid);
    }

    /** @p tid acquires the history released into @p addr so far. */
    void
    acquire(SyncKind kind, ThreadId tid, Addr addr)
    {
        checkThread(tid);
        const auto &objs = objects_[static_cast<unsigned>(kind)];
        auto it = objs.find(addr);
        if (it != objs.end())
            vc_[tid].join(it->second);
    }

    /** @p tid releases a @p writer-mode hold of the rwlock @p addr. */
    void
    rwRelease(ThreadId tid, LockAddr addr, bool writer)
    {
        checkThread(tid);
        RwClocks &rw = rw_[addr];
        publish(writer ? rw.writeVc : rw.readVc, tid);
    }

    /**
     * @p tid acquires the rwlock @p addr in @p writer mode. Writers are
     * ordered after every prior holder; readers only after prior
     * writers, so readers in one read-side epoch stay concurrent.
     */
    void
    rwAcquire(ThreadId tid, LockAddr addr, bool writer)
    {
        checkThread(tid);
        auto it = rw_.find(addr);
        if (it == rw_.end())
            return;
        vc_[tid].join(it->second.writeVc);
        if (writer)
            vc_[tid].join(it->second.readVc);
    }

    /** All threads meet: join every clock, then advance each thread. */
    void
    barrier()
    {
        VClock all;
        for (unsigned t = 0; t < kMaxThreads; ++t)
            all.join(vc_[t]);
        for (unsigned t = 0; t < kMaxThreads; ++t) {
            vc_[t] = all;
            ++vc_[t][t];
        }
    }

  private:
    /** Release clocks of one rwlock, split by the releasing mode. */
    struct RwClocks
    {
        VClock writeVc;
        VClock readVc;
    };

    /** Join @p tid's clock into @p obj and advance @p tid's epoch. */
    void
    publish(VClock &obj, ThreadId tid)
    {
        obj.join(vc_[tid]);
        ++vc_[tid][tid];
    }

    std::array<VClock, kMaxThreads> vc_{};
    /** Release clocks per object, one map per SyncKind. */
    std::array<std::unordered_map<Addr, VClock>, 4> objects_;
    std::unordered_map<LockAddr, RwClocks> rw_;
};

/**
 * A RaceDetector whose synchronization order is a SyncOrder. Every
 * sync handler is implemented here, once; subclasses keep only their
 * shadow state and access() check, reading the accessing thread's
 * clock through clock(). A subclass that needs more from a handler
 * (RaceTrack's held-lock sets, barrier flash-resets) hides it and
 * calls the base; one that must keep an edge out of its order (the
 * hybrid's lock edges) hides it without calling the base.
 */
class ClockedDetector : public RaceDetector
{
  public:
    using RaceDetector::RaceDetector;

    void
    onLockAcquire(const Event &ev)
    {
        sync_.acquire(SyncKind::Lock, ev.tid, ev.addr);
    }

    void
    onLockRelease(const Event &ev)
    {
        sync_.release(SyncKind::Lock, ev.tid, ev.addr);
    }

    void
    onRwLockAcquire(const Event &ev, bool writer)
    {
        sync_.rwAcquire(ev.tid, ev.addr, writer);
    }

    void
    onRwLockRelease(const Event &ev, bool writer)
    {
        sync_.rwRelease(ev.tid, ev.addr, writer);
    }

    /** Hand-crafted synchronization — precisely where happens-before
     * raises fewer false alarms than lockset: a post releases the
     * poster's history, a completed wait acquires it. */
    void
    onSemaPost(const Event &ev)
    {
        sync_.release(SyncKind::Sema, ev.tid, ev.addr);
    }

    void
    onSemaWait(const Event &ev)
    {
        sync_.acquire(SyncKind::Sema, ev.tid, ev.addr);
    }

    /** Signal and broadcast release into the condvar; a completed wait
     * acquires (the same shape as semaphores). */
    void
    onCondSignal(const Event &ev)
    {
        sync_.release(SyncKind::Cond, ev.tid, ev.addr);
    }

    void
    onCondBroadcast(const Event &ev)
    {
        sync_.release(SyncKind::Cond, ev.tid, ev.addr);
    }

    void
    onCondWait(const Event &ev)
    {
        sync_.acquire(SyncKind::Cond, ev.tid, ev.addr);
    }

    /** Store-release publishes at the location and load-acquire picks
     * it up. Sound for the recorded global completion order (each
     * load observes the latest prior store). */
    void
    onAtomicStore(const Event &ev)
    {
        sync_.release(SyncKind::Atomic, ev.tid, ev.addr);
    }

    void
    onAtomicLoad(const Event &ev)
    {
        sync_.acquire(SyncKind::Atomic, ev.tid, ev.addr);
    }

    void
    onBarrier(const Event &ev)
    {
        (void)ev;
        sync_.barrier();
    }

  protected:
    /** @return the current clock of @p tid (panics on a bad id). */
    const VClock &clock(ThreadId tid) const { return sync_.clock(tid); }

  private:
    SyncOrder sync_;
};

} // namespace hard

#endif // HARD_DETECTORS_SYNC_ORDER_HH
