/**
 * @file
 * Race reports and the common RaceDetector base class.
 *
 * The paper counts false positives "at source code level" (§5.1): every
 * report is mapped back to a static site and distinct sites are counted
 * once. ReportSink performs that deduplication eagerly so that long
 * runs do not accumulate unbounded dynamic-report lists.
 *
 * dispatchEvents() is the one kind switch between the event stream and
 * a detector: it is instantiated on each concrete detector type, so a
 * block of events costs one virtual call (onEvents) per detector and
 * none per event.
 */

#ifndef HARD_DETECTORS_REPORT_HH
#define HARD_DETECTORS_REPORT_HH

#include <cstdint>
#include <set>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/stats.hh"
#include "sim/observer.hh"

namespace hard
{

/** One potential data race, reported at granule granularity. */
struct RaceReport
{
    /** Thread whose access triggered the report. */
    ThreadId tid = invalidThread;
    /** Base address of the racing granule. */
    Addr addr = 0;
    /** Granule size in bytes. */
    unsigned size = 0;
    /** Static site of the triggering access. */
    SiteId site = invalidSite;
    /** True if the triggering access was a write. */
    bool write = false;
    /** Report cycle. */
    Cycle at = 0;
    /**
     * The other side of the race, when the algorithm knows it
     * (happens-before variants report the unordered prior accessor;
     * lockset is pairless and leaves this invalid).
     */
    ThreadId other = invalidThread;
};

/**
 * Collects race reports with source-level deduplication.
 *
 * Only the first dynamic report per (site, granule) pair is stored;
 * total dynamic report counts are still tracked.
 */
class ReportSink
{
  public:
    /** Record a report (deduplicated). */
    void report(const RaceReport &r);

    /** @return stored (first-per-site-and-granule) reports. */
    const std::vector<RaceReport> &reports() const { return kept_; }

    /** @return the set of distinct static sites reported. */
    const std::set<SiteId> &sites() const { return sites_; }

    /** @return distinct source-level alarm count (the paper's metric). */
    std::size_t distinctSiteCount() const { return sites_.size(); }

    /** @return total dynamic reports, including deduplicated ones. */
    std::uint64_t dynamicCount() const { return dynamic_; }

    /**
     * @return true if any stored report's byte range overlaps
     * [lo, lo+len).
     */
    bool overlaps(Addr lo, unsigned len) const;

    /** Forget everything (reused sinks in sweeps). */
    void clear();

  private:
    std::vector<RaceReport> kept_;
    std::set<SiteId> sites_;
    std::unordered_set<std::uint64_t> seenPairs_;
    std::uint64_t dynamic_ = 0;
};

/**
 * Base class for all race detectors: an AccessObserver with a name and
 * a ReportSink. It declares no per-kind handler: each concrete
 * detector implements onEvents() as one dispatchEvents() call on its
 * own static type.
 */
class RaceDetector : public AccessObserver
{
  public:
    explicit RaceDetector(std::string name)
        : name_(std::move(name)), stats_("detector." + name_)
    {
    }

    const std::string &name() const { return name_; }
    ReportSink &sink() { return sink_; }
    const ReportSink &sink() const { return sink_; }

    /** This detector's "detector.<name>" statistics group. */
    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

    /** Hook invoked by the harness after the simulation finishes. */
    virtual void finalize() {}

    /**
     * Mirror internal state (sink counts, algorithm-specific structs)
     * into stats(). Invoked by the registry's refresh hook before
     * every dump/sample, never on the access hot path.
     */
    virtual void syncStats();

    /**
     * Register stats() under "detector.<name>". When two same-named
     * detectors observe one System only the first registers (the
     * registry's group names are unique).
     */
    void registerStats(StatRegistry &registry) override;

    void attachTracer(EventTracer *tracer) override { tracer_ = tracer; }

    /** Base probes: dynamic reports per Mcycle. */
    void registerProbes(IntervalSampler &sampler) override;

  protected:
    /**
     * Emit a race report into the sink (and onto the detector trace
     * track when tracing is enabled).
     */
    void emit(ThreadId tid, Addr addr, unsigned size, SiteId site,
              bool write, Cycle at, ThreadId other = invalidThread);

    /** Trace sink for subclass instants; null when tracing is off. */
    EventTracer *tracer_ = nullptr;

  private:
    std::string name_;
    ReportSink sink_;
    StatGroup stats_;
};

/**
 * The one adapter from the event stream to a detector's per-kind
 * handlers: hand each event of @p evs to @p det's handler for its
 * kind, called non-virtually on @p Det. The handlers are the public
 * members onRead, onWrite, onLockAcquire, onLockRelease, onBarrier,
 * onSemaPost, onSemaWait, onRwLockAcquire(ev, writer),
 * onRwLockRelease(ev, writer), onCondSignal, onCondBroadcast,
 * onCondWait, onAtomicStore, onAtomicLoad, onLineEvicted and
 * onContextSwitch (EventKind documents each kind); a kind @p Det has
 * no handler for is skipped.
 */
template <typename Det>
void
dispatchEvents(Det &det, std::span<const Event> evs)
{
#define HARD_DISPATCH(handler, ...)                                     \
    if constexpr (requires { det.handler(__VA_ARGS__); })               \
        det.handler(__VA_ARGS__);                                       \
    break
    for (const Event &ev : evs) {
        switch (ev.kind) {
          case EventKind::Read: HARD_DISPATCH(onRead, ev);
          case EventKind::Write: HARD_DISPATCH(onWrite, ev);
          case EventKind::LockAcquire: HARD_DISPATCH(onLockAcquire, ev);
          case EventKind::LockRelease: HARD_DISPATCH(onLockRelease, ev);
          case EventKind::Barrier: HARD_DISPATCH(onBarrier, ev);
          case EventKind::SemaPost: HARD_DISPATCH(onSemaPost, ev);
          case EventKind::SemaWait: HARD_DISPATCH(onSemaWait, ev);
          case EventKind::ThreadEnd: break;
          case EventKind::LineEvicted: HARD_DISPATCH(onLineEvicted, ev);
          case EventKind::RwRdAcquire:
          case EventKind::RwWrAcquire:
            HARD_DISPATCH(onRwLockAcquire, ev,
                          ev.kind == EventKind::RwWrAcquire);
          case EventKind::RwRdRelease:
          case EventKind::RwWrRelease:
            HARD_DISPATCH(onRwLockRelease, ev,
                          ev.kind == EventKind::RwWrRelease);
          case EventKind::CondSignal: HARD_DISPATCH(onCondSignal, ev);
          case EventKind::CondBroadcast: HARD_DISPATCH(onCondBroadcast, ev);
          case EventKind::CondWait: HARD_DISPATCH(onCondWait, ev);
          case EventKind::AtomicStore: HARD_DISPATCH(onAtomicStore, ev);
          case EventKind::AtomicLoad: HARD_DISPATCH(onAtomicLoad, ev);
          case EventKind::ContextSwitch: HARD_DISPATCH(onContextSwitch, ev);
        }
    }
#undef HARD_DISPATCH
}

} // namespace hard

#endif // HARD_DETECTORS_REPORT_HH
