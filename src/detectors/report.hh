/**
 * @file
 * Race reports and the common RaceDetector base class.
 *
 * The paper counts false positives "at source code level" (§5.1): every
 * report is mapped back to a static site and distinct sites are counted
 * once. ReportSink performs that deduplication eagerly so that long
 * runs do not accumulate unbounded dynamic-report lists.
 */

#ifndef HARD_DETECTORS_REPORT_HH
#define HARD_DETECTORS_REPORT_HH

#include <cstdint>
#include <set>
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
 * a ReportSink. onEvent() is the one adapter from the event stream to
 * the named per-kind handlers below, which subclasses override.
 */
class RaceDetector : public AccessObserver
{
  public:
    explicit RaceDetector(std::string name)
        : name_(std::move(name)), stats_("detector." + name_)
    {
    }

    /** Dispatch @p ev to its handler by kind. */
    void
    onEvent(const Event &ev) final
    {
        switch (ev.kind) {
          case EventKind::Read:
            onRead(ev);
            break;
          case EventKind::Write:
            onWrite(ev);
            break;
          case EventKind::LockAcquire:
            onLockAcquire(ev);
            break;
          case EventKind::LockRelease:
            onLockRelease(ev);
            break;
          case EventKind::Barrier:
            onBarrier(ev);
            break;
          case EventKind::SemaPost:
            onSemaPost(ev);
            break;
          case EventKind::SemaWait:
            onSemaWait(ev);
            break;
          case EventKind::ThreadEnd:
            break;
          case EventKind::LineEvicted:
            onLineEvicted(ev);
            break;
          case EventKind::RwRdAcquire:
          case EventKind::RwWrAcquire:
            onRwLockAcquire(ev, ev.kind == EventKind::RwWrAcquire);
            break;
          case EventKind::RwRdRelease:
          case EventKind::RwWrRelease:
            onRwLockRelease(ev, ev.kind == EventKind::RwWrRelease);
            break;
          case EventKind::CondSignal:
            onCondSignal(ev);
            break;
          case EventKind::CondBroadcast:
            onCondBroadcast(ev);
            break;
          case EventKind::CondWait:
            onCondWait(ev);
            break;
          case EventKind::AtomicStore:
            onAtomicStore(ev);
            break;
          case EventKind::AtomicLoad:
            onAtomicLoad(ev);
            break;
          case EventKind::ContextSwitch:
            onContextSwitch(ev);
            break;
        }
    }

    /** @name Per-kind handlers (EventKind documents each kind)
     * @{ */
    virtual void onRead(const Event &ev) { (void)ev; }
    virtual void onWrite(const Event &ev) { (void)ev; }
    virtual void onLockAcquire(const Event &ev) { (void)ev; }
    virtual void onLockRelease(const Event &ev) { (void)ev; }
    virtual void onBarrier(const Event &ev) { (void)ev; }
    virtual void onSemaPost(const Event &ev) { (void)ev; }
    virtual void onSemaWait(const Event &ev) { (void)ev; }
    /** Rwlock holds; @p writer is the exclusive mode. */
    virtual void
    onRwLockAcquire(const Event &ev, bool writer)
    {
        (void)ev;
        (void)writer;
    }
    virtual void
    onRwLockRelease(const Event &ev, bool writer)
    {
        (void)ev;
        (void)writer;
    }
    virtual void onCondSignal(const Event &ev) { (void)ev; }
    virtual void onCondBroadcast(const Event &ev) { (void)ev; }
    virtual void onCondWait(const Event &ev) { (void)ev; }
    virtual void onAtomicStore(const Event &ev) { (void)ev; }
    virtual void onAtomicLoad(const Event &ev) { (void)ev; }
    virtual void onLineEvicted(const Event &ev) { (void)ev; }
    virtual void onContextSwitch(const Event &ev) { (void)ev; }
    /** @} */

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

} // namespace hard

#endif // HARD_DETECTORS_REPORT_HH
