/**
 * @file
 * Shared helpers for detector tests: build small programs with the
 * workload builder and run them under one or more detectors.
 */

#ifndef HARD_TESTS_DETECTOR_TEST_UTIL_HH
#define HARD_TESTS_DETECTOR_TEST_UTIL_HH

#include <vector>

#include "detectors/report.hh"
#include "sim/system.hh"
#include "workloads/builder.hh"

namespace hard
{

/** Run @p prog with @p detectors on the default CMP. */
inline RunResult
runProgram(const Program &prog, std::vector<RaceDetector *> detectors,
           SimConfig cfg = SimConfig{})
{
    System sys(cfg, prog);
    for (RaceDetector *d : detectors)
        sys.addObserver(d);
    RunResult res = sys.run();
    for (RaceDetector *d : detectors)
        d->finalize();
    return res;
}

/** @return true if @p sink contains a report at site @p s. */
inline bool
reportedAt(const ReportSink &sink, SiteId s)
{
    return sink.sites().count(s) > 0;
}

/**
 * Drives one detector directly with a hand-built event trace, one
 * event per onEvents() call: 4-byte accesses, one cycle apart, each
 * thread on its own core.
 */
class HandTrace
{
  public:
    explicit HandTrace(RaceDetector &det) : det_(det) {}

    void
    write(ThreadId tid, Addr addr, SiteId site = 0)
    {
        feed(mem(tid, addr, true, site));
    }

    void
    read(ThreadId tid, Addr addr, SiteId site = 0)
    {
        feed(mem(tid, addr, false, site));
    }

    void lock(ThreadId t, LockAddr l) { sync(EventKind::LockAcquire, t, l); }
    void unlock(ThreadId t, LockAddr l) { sync(EventKind::LockRelease, t, l); }
    void post(ThreadId t, Addr sema) { sync(EventKind::SemaPost, t, sema); }
    void wait(ThreadId t, Addr sema) { sync(EventKind::SemaWait, t, sema); }

    /** Complete the next episode of one barrier object. */
    void
    barrier(unsigned participants)
    {
        Event ev;
        ev.kind = EventKind::Barrier;
        ev.addr = 0xba00;
        ev.episode = episode_++;
        ev.at = ++at_;
        ev.participants = participants;
        feed(ev);
    }

  private:
    void feed(const Event &ev) { det_.onEvents({&ev, 1}); }

    Event
    mem(ThreadId tid, Addr addr, bool write, SiteId site)
    {
        Event ev;
        ev.kind = write ? EventKind::Write : EventKind::Read;
        ev.tid = tid;
        ev.core = tid;
        ev.addr = addr;
        ev.size = 4;
        ev.site = site;
        ev.at = ++at_;
        return ev;
    }

    void
    sync(EventKind kind, ThreadId tid, Addr obj)
    {
        Event ev;
        ev.kind = kind;
        ev.tid = tid;
        ev.core = tid;
        ev.addr = obj;
        ev.at = ++at_;
        feed(ev);
    }

    RaceDetector &det_;
    Cycle at_ = 0;
    unsigned episode_ = 0;
};

} // namespace hard

#endif // HARD_TESTS_DETECTOR_TEST_UTIL_HH
