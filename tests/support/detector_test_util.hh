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
 * Drives one detector's hooks directly with a hand-built event trace:
 * 4-byte accesses, one cycle apart, each thread on its own core.
 */
class HandTrace
{
  public:
    explicit HandTrace(RaceDetector &det) : det_(det) {}

    void
    write(ThreadId tid, Addr addr, SiteId site = 0)
    {
        det_.onWrite(mem(tid, addr, true, site));
    }

    void
    read(ThreadId tid, Addr addr, SiteId site = 0)
    {
        det_.onRead(mem(tid, addr, false, site));
    }

    void lock(ThreadId tid, LockAddr l) { det_.onLockAcquire(sync(tid, l)); }
    void unlock(ThreadId tid, LockAddr l) { det_.onLockRelease(sync(tid, l)); }
    void post(ThreadId tid, Addr sema) { det_.onSemaPost(sync(tid, sema)); }
    void wait(ThreadId tid, Addr sema) { det_.onSemaWait(sync(tid, sema)); }

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
        det_.onBarrier(ev);
    }

  private:
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

    Event
    sync(ThreadId tid, Addr obj)
    {
        Event ev;
        ev.tid = tid;
        ev.core = tid;
        ev.addr = obj;
        ev.at = ++at_;
        return ev;
    }

    RaceDetector &det_;
    Cycle at_ = 0;
    unsigned episode_ = 0;
};

} // namespace hard

#endif // HARD_TESTS_DETECTOR_TEST_UTIL_HH
