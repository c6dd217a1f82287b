/**
 * @file
 * Observation interface between the timing simulator and race
 * detectors.
 *
 * Detectors are passive observers of the global (cycle-ordered) memory
 * and synchronization event stream, so a single simulated execution can
 * drive HARD, happens-before and the ideal-lockset detector on an
 * *identical* interleaving — the comparison methodology of paper §5.1.
 * The stream is one record type, Event, from the simulator through the
 * trace (trace/trace.hh stores the same record) to the detectors, and
 * one entry point, AccessObserver::onEvents(), which takes a block of
 * events: the replayer hands each observer a whole decoded block, the
 * live simulator a block of one. An observer that filters the stream
 * (sampling, the fuzzer's sabotage) is a ForwardingObserver: it hands
 * its inner observer the maximal runs of the events it keeps, so no
 * event is copied.
 */

#ifndef HARD_SIM_OBSERVER_HH
#define HARD_SIM_OBSERVER_HH

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/types.hh"
#include "mem/cstate.hh"

namespace hard
{

class StatRegistry;
class EventTracer;
class IntervalSampler;

/**
 * Kinds of observable event. The values up to AtomicLoad are the
 * trace's on-disk kind byte; ContextSwitch is live-only.
 */
enum class EventKind : std::uint8_t
{
    /** A data read completed (lock words are reported as sync). */
    Read = 0,
    /** A data write completed. */
    Write = 1,
    /** Thread tid acquired the lock at addr. */
    LockAcquire = 2,
    /** Thread tid released the lock at addr. */
    LockRelease = 3,
    /** All threads passed the barrier at addr (§3.5 reset point). */
    Barrier = 4,
    /**
     * Hand-crafted synchronization: tid posted the semaphore at addr.
     * Lockset-style detectors cannot interpret this (paper §5.1's
     * residual false-alarm source); happens-before can.
     */
    SemaPost = 5,
    /** Thread tid completed a wait on the semaphore at addr. */
    SemaWait = 6,
    /** Thread tid ran off the end of its stream. */
    ThreadEnd = 7,
    /**
     * The line at addr was displaced from the shared L2 (its L1 copies
     * were back-invalidated). Any detector metadata stored with the
     * line is lost at this point (§3.6 "Cache Displacement").
     */
    LineEvicted = 8,
    /**
     * Rwlock holds, by mode. HARD's Lock Register is mode-blind (the
     * hardware sees one lock word either way); software detectors may
     * honor the mode.
     */
    RwRdAcquire = 9,
    RwRdRelease = 10,
    RwWrAcquire = 11,
    RwWrRelease = 12,
    /** Thread tid signalled the condition variable at addr. */
    CondSignal = 13,
    /** Thread tid broadcast the condition variable at addr. */
    CondBroadcast = 14,
    /** Thread tid returned from a wait on the condvar at addr. */
    CondWait = 15,
    /** Thread tid performed a store-release at addr. */
    AtomicStore = 16,
    /** Thread tid performed a load-acquire at addr. Highest kind a
     * trace may hold (bounds-checked on decode). */
    AtomicLoad = 17,
    /**
     * Core `core` switched from running switchedOut() to running tid
     * (only fired when threads are oversubscribed onto cores). This is
     * where the OS saves and restores HARD's per-processor Lock/Counter
     * Registers (§3.1/§3.3). Not stored in traces.
     */
    ContextSwitch = 18,
};

/**
 * One observable event. Which fields are meaningful depends on kind:
 * memory events use all but episode/participants, sync events leave
 * size, stateAfter and sharers zero, Barrier and LineEvicted carry no
 * thread. Field order keeps the record at 48 bytes.
 */
struct Event
{
    EventKind kind = EventKind::Read;
    /** Memory events: coherence state after the access. */
    CState stateAfter = CState::Invalid;
    ThreadId tid = invalidThread;
    CoreId core = invalidCore;
    /** Memory events: access size in bytes. */
    unsigned size = 0;
    /**
     * The object: data address, lock/semaphore/condvar/atomic word,
     * barrier object or evicted line. ContextSwitch: the thread
     * switched out (read it through switchedOut()).
     */
    Addr addr = 0;
    /** Completion cycle (barrier: release cycle). */
    Cycle at = 0;
    SiteId site = invalidSite;
    /** Memory events: L1 sharers after the access. */
    unsigned sharers = 0;
    /** Barrier events: episode ordinal for this barrier object. */
    unsigned episode = 0;
    /** Barrier events: number of participating threads. */
    unsigned participants = 0;

    /** @return true for a data read or write. */
    bool
    isAccess() const
    {
        return kind == EventKind::Read || kind == EventKind::Write;
    }

    /** ContextSwitch: the thread that left the core. */
    ThreadId switchedOut() const { return static_cast<ThreadId>(addr); }

    bool operator==(const Event &) const = default;

    /** @name Trace encoding (defined in trace/trace.hh)
     * @{ */
    struct Packed;
    Packed pack() const;
    static Event unpack(const Packed &p);
    /** @} */
};

static_assert(sizeof(Event) <= 48, "the event record must stay 48 bytes");

/**
 * Passive observer of the simulated execution. onEvents() is invoked
 * with consecutive blocks of the event stream, in global
 * completion-cycle order; how the stream is cut into blocks carries no
 * meaning.
 */
class AccessObserver
{
  public:
    virtual ~AccessObserver() = default;

    /** Observe the next @p evs.size() events, in order. */
    virtual void onEvents(std::span<const Event> evs) = 0;

    /** @name Telemetry hooks (all optional)
     * Called by System when the corresponding telemetry facility is
     * attached; observers without stats/tracing simply inherit the
     * no-ops, so plain detectors pay nothing.
     * @{
     */

    /** Register this observer's StatGroup(s) into @p registry. */
    virtual void registerStats(StatRegistry &registry) { (void)registry; }

    /** Attach @p tracer for event-timeline emission (not owned). */
    virtual void attachTracer(EventTracer *tracer) { (void)tracer; }

    /** Contribute interval-sampler probes (live gauges/counters). */
    virtual void registerProbes(IntervalSampler &sampler)
    {
        (void)sampler;
    }
    /** @} */
};

/**
 * Base of the observers that pass a filtered stream on to one inner
 * observer. The telemetry registrations forward untouched.
 */
class ForwardingObserver : public AccessObserver
{
  public:
    explicit ForwardingObserver(AccessObserver &inner) : inner_(inner) {}

    void
    registerStats(StatRegistry &registry) override
    {
        inner_.registerStats(registry);
    }
    void attachTracer(EventTracer *tracer) override
    {
        inner_.attachTracer(tracer);
    }
    void
    registerProbes(IntervalSampler &sampler) override
    {
        inner_.registerProbes(sampler);
    }

    /** @return the observer the kept events go to. */
    AccessObserver &inner() const { return inner_; }

  protected:
    /** Hand inner() every event of @p evs that @p keep accepts, as one
     * onEvents() call per maximal run of kept events. */
    template <typename Keep>
    void
    forwardRuns(std::span<const Event> evs, const Keep &keep) const
    {
        std::size_t first = 0;
        for (std::size_t i = 0; i < evs.size(); ++i) {
            if (keep(evs[i]))
                continue;
            if (i > first)
                inner_.onEvents(evs.subspan(first, i - first));
            first = i + 1;
        }
        if (first < evs.size())
            inner_.onEvents(evs.subspan(first));
    }

  private:
    AccessObserver &inner_;
};

/** A set of EventKinds, one bit per kind. */
using EventKindMask = std::uint32_t;

/** @return the mask holding @p kind alone. */
constexpr EventKindMask
kindBit(EventKind kind)
{
    return EventKindMask{1} << static_cast<unsigned>(kind);
}

/**
 * Forwards every event whose kind is not in a mask. The fuzzer's
 * self-test runs a production detector behind one of these to make it
 * deaf to chosen events (fuzz/weaken.hh).
 */
class KindFilter : public ForwardingObserver
{
  public:
    KindFilter(AccessObserver &inner, EventKindMask drop)
        : ForwardingObserver(inner), drop_(drop)
    {
    }

    void
    onEvents(std::span<const Event> evs) override
    {
        forwardRuns(evs, [this](const Event &ev) {
            return (drop_ & kindBit(ev.kind)) == 0;
        });
    }

  private:
    EventKindMask drop_;
};

} // namespace hard

#endif // HARD_SIM_OBSERVER_HH
