/**
 * @file
 * The simulated CMP: in-order timing cores, the MESI memory system,
 * spin-lock/barrier/semaphore runtime, and the observer fan-out that
 * feeds the race detectors.
 *
 * Threads are assigned to cores round-robin. With at most one thread
 * per core the machine behaves like the paper's 4-thread/4-core
 * setup; with more threads than cores each core time-multiplexes its
 * thread set (quantum-based, with a context-switch penalty and a
 * ContextSwitch observer event — the situation in which HARD's
 * per-processor Lock/Counter Registers must be saved and restored by
 * the OS, §3.1).
 */

#ifndef HARD_SIM_SYSTEM_HH
#define HARD_SIM_SYSTEM_HH

#include <memory>
#include <unordered_map>
#include <vector>

#include "common/error.hh"
#include "sim/observer.hh"
#include "sim/program.hh"
#include "sim/sim_config.hh"
#include "telemetry/sampler.hh"
#include "telemetry/stat_registry.hh"
#include "telemetry/trace_event.hh"

namespace hard
{

/** Summary of a completed simulation. */
struct RunResult
{
    /** Cycle at which the last thread finished. */
    Cycle totalCycles = 0;
    /** Data reads/writes executed (excludes lock-word traffic). */
    std::uint64_t dataReads = 0;
    std::uint64_t dataWrites = 0;
    /** Lock acquires performed. */
    std::uint64_t lockAcquires = 0;
    /** Barrier episodes completed. */
    std::uint64_t barrierEpisodes = 0;
    /** Context switches performed (0 when threads <= cores). */
    std::uint64_t contextSwitches = 0;
};

/**
 * Runs one Program to completion on the simulated CMP.
 *
 * The scheduler is an event loop over per-core ready times; ties
 * break by core id, so runs are fully deterministic for a given
 * (program, config).
 */
class System
{
  public:
    /**
     * @param cfg Simulation configuration (Table 1 defaults).
     * @param prog Program to execute; must outlive the System.
     */
    System(const SimConfig &cfg, const Program &prog);
    ~System();

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /** Attach a detector/observer; not owned. Call before run(). */
    void addObserver(AccessObserver *obs);

    /**
     * Execute the program to completion. Callable once.
     *
     * @throws DeadlockError when every live thread is blocked on sync
     * that can never be signalled, or when the forward-progress
     * watchdog (SimConfig::watchdogCycles) sees no retired op for too
     * long; carries a per-thread diagnostic snapshot.
     * @throws CycleBudgetError when simulated time exceeds
     * SimConfig::maxCycles (if nonzero).
     * @throws WorkloadError on workload misbehaviour the validator
     * cannot catch statically (unlocking a lock the thread does not
     * hold, exiting while holding a lock).
     */
    RunResult run();

    MemorySystem &memsys() { return *memsys_; }
    const MemorySystem &memsys() const { return *memsys_; }
    const SimConfig &config() const { return cfg_; }

    /** Flat dump of every statistics counter in the machine. */
    std::vector<std::pair<std::string, std::uint64_t>> statsDump() const;

    /**
     * The machine's stat registry: memsys, bus, caches, the "system"
     * group (cycles/ops/sync activity) and every registered observer's
     * groups, all under dotted names.
     */
    StatRegistry &statsRegistry() { return registry_; }

    /** Full `hard.stats.v1` JSON snapshot (refreshes mirrors first). */
    Json statsJson() { return registry_.toJson(); }

    /**
     * Attach @p tracer (not owned; may be null) for event-timeline
     * emission. Forwards to the memory system and to every observer
     * registered before or after this call. Call before run().
     */
    void setTracer(EventTracer *tracer);

    /**
     * Attach @p sampler (not owned; may be null) for interval
     * time-series sampling; registers the machine-level probes and
     * every observer's probes. Call before run(); the final row and
     * the file write happen when run() returns.
     */
    void setSampler(IntervalSampler *sampler);

    /** Ops retired so far (monotonic; read by sampler probes). */
    std::uint64_t retiredOps() const { return retiredOps_; }

  private:
    /** Execution status of one software thread. */
    enum class ThreadStatus
    {
        Ready,
        WaitLock,
        WaitBarrier,
        WaitSema,
        WaitCond,
        Done,
    };

    /** Per-thread execution state. */
    struct ThreadCtx
    {
        ThreadId tid = invalidThread;
        const std::vector<Op> *ops = nullptr;
        std::size_t pc = 0;
        /** Earliest cycle at which this thread can execute again. */
        Cycle readyAt = 0;
        ThreadStatus status = ThreadStatus::Ready;
        /** Lock being spun on while in WaitLock. */
        LockAddr waitLock = 0;
        /** Barrier/semaphore being awaited in WaitBarrier/WaitSema. */
        Addr waitObj = invalidAddr;
        SiteId waitSite = invalidSite;
        /** Set when a SemaPost handed this blocked thread its token. */
        bool semaGranted = false;
        /** Set when a CondSignal/Broadcast woke this blocked thread. */
        bool condGranted = false;
    };

    /** Per-hardware-core state. */
    struct HwCore
    {
        CoreId id = 0;
        /** Indices into threads_ of the threads bound to this core. */
        std::vector<std::size_t> bound;
        /** Position in @ref bound of the currently loaded thread. */
        std::size_t current = 0;
        /** Cycle from which the core is free to execute. */
        Cycle freeAt = 0;
        /** Cycle at which the current thread was scheduled in. */
        Cycle quantumStart = 0;
    };

    /** A scheduling decision: run thread @p slot on the core at @p at. */
    struct Pick
    {
        bool valid = false;
        std::size_t slot = 0; // position in core.bound
        Cycle at = 0;
    };

    /** State of one barrier object. */
    struct BarrierState
    {
        unsigned arrived = 0;
        unsigned episode = 0;
        Cycle lastArrival = 0;
    };

    /** State of one counting semaphore. */
    struct SemaState
    {
        std::uint64_t count = 0;
        /** FIFO of blocked threads (indices into threads_). */
        std::vector<std::size_t> waiters;
    };

    /** State of one reader-writer lock. */
    struct RwState
    {
        ThreadId writer = invalidThread;
        /** Threads currently holding the lock in reader mode. */
        std::vector<ThreadId> readers;
    };

    /**
     * State of one condition variable. Signals delivered before any
     * thread waits are banked as tickets (FIFO hand-off), and a
     * broadcast additionally latches sticky, so a waiter arriving
     * after the broadcast still returns — the runtime is deadlock-free
     * for any interleaving of a generated signal/wait pairing.
     */
    struct CondState
    {
        /** Banked signals not yet consumed by a wait. */
        std::uint64_t pending = 0;
        /** A broadcast happened; every future wait returns at once. */
        bool latched = false;
        /** FIFO of blocked threads (indices into threads_). */
        std::vector<std::size_t> waiters;
    };

    /** Choose the next thread for @p core (deterministic). */
    Pick nextForCore(const HwCore &core) const;

    /** Diagnostic snapshot of every thread (for DeadlockError). */
    std::vector<ThreadSnapshot> snapshotThreads() const;

    /** Execute one step of @p th on @p core starting at @p now. */
    void step(HwCore &core, ThreadCtx &th, Cycle now);

    /** Handle a Lock op / spin probe. */
    void doLock(HwCore &core, ThreadCtx &th, Cycle now, LockAddr lock,
                SiteId site);

    /** Handle a RwRdLock/RwWrLock op (spins in place while busy). */
    void doRwLock(HwCore &core, ThreadCtx &th, Cycle now, const Op &op,
                  bool writer);

    /** Handle a RwRdUnlock/RwWrUnlock op. */
    void doRwUnlock(HwCore &core, ThreadCtx &th, Cycle now, const Op &op,
                    bool writer);

    /** Perform the data access of @p op. */
    void doAccess(HwCore &core, ThreadCtx &th, Cycle now, const Op &op);

    /** Hand @p ev to every observer. */
    void notify(const Event &ev);

    /** Notify a @p kind sync event by @p th on @p core at @p at. */
    void notifySync(EventKind kind, const HwCore &core,
                    const ThreadCtx &th, Addr addr, SiteId site,
                    Cycle at);

    /** Label the tracer's fixed tracks (cores, bus, sync, detector). */
    void nameTraceTracks();

    const SimConfig cfg_;
    const Program &prog_;
    std::unique_ptr<MemorySystem> memsys_;
    std::vector<ThreadCtx> threads_;
    std::vector<HwCore> cores_;
    std::vector<AccessObserver *> observers_;

    StatRegistry registry_;
    StatGroup systemStats_{"system"};
    EventTracer *tracer_ = nullptr;
    IntervalSampler *sampler_ = nullptr;

    /** lock word address -> holding thread (or invalidThread). */
    std::unordered_map<LockAddr, ThreadId> lockHolder_;
    std::unordered_map<Addr, BarrierState> barriers_;
    std::unordered_map<Addr, SemaState> semas_;
    std::unordered_map<LockAddr, RwState> rwlocks_;
    std::unordered_map<Addr, CondState> conds_;

    unsigned liveThreads_ = 0;
    bool ran_ = false;
    RunResult result_;

    /** Ops retired so far (forward-progress signal for the watchdog). */
    std::uint64_t retiredOps_ = 0;
    /** Cycle of the most recent retirement. */
    Cycle lastProgressAt_ = 0;
};

/**
 * A finite default cycle budget for batch runs of @p prog, scaled
 * from the workload's size so that no legitimate run can hit it: a
 * generous fixed floor plus a per-op allowance far above the
 * worst-case cost of any single operation (memory latency, bus
 * contention, spin convoys included). Batch run units substitute this
 * when SimConfig::maxCycles is 0 so a sweep can never hang on one
 * pathological run even with the watchdog disabled.
 */
Cycle defaultCycleBudget(const Program &prog);

} // namespace hard

#endif // HARD_SIM_SYSTEM_HH
