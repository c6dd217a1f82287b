#include "detectors/racetrack.hh"

#include "common/bitops.hh"
#include "common/logging.hh"

namespace hard
{

RaceTrackDetector::RaceTrackDetector(const std::string &name,
                                     const RaceTrackConfig &cfg)
    : ClockedDetector(name), cfg_(cfg),
      shadow_(checkedGranularity("racetrack", cfg.granularityBytes)),
      held_("racetrack", cfg.tolerateUnbalanced)
{
}

const std::set<LockAddr> &
RaceTrackDetector::lockset(ThreadId tid) const
{
    return held_.writeHeld(tid);
}

const std::set<LockAddr> &
RaceTrackDetector::readLockset(ThreadId tid) const
{
    return held_.readHeld(tid);
}

void
RaceTrackDetector::access(const Event &ev, bool write)
{
    const VClock &vc = clock(ev.tid);
    const unsigned gran = cfg_.granularityBytes;
    LocksetTable &table = held_.table();
    const LocksetId locks = held_.protecting(ev.tid, write);

    shadow_.forEach(ev.addr, ev.size, [&](Addr a, Granule &g) {
        LStateStep step = lstateAccess(g.state, g.owner, ev.tid, write);
        g.state = step.next;
        g.owner = step.owner;
        if (step.updateCandidate) {
            g.candidate = table.meet(g.candidate, locks);
            if (step.reportIfEmpty && g.candidate == kEmptyLockset) {
                // The lockset side flags a violation; the adaptive
                // side withdraws it when every other thread's last
                // access is ordered before this one by *any*
                // synchronization, lock edges included.
                bool all_ordered = true;
                ThreadId other = invalidThread;
                for (unsigned u = 0; u < kMaxThreads; ++u) {
                    if (u == ev.tid)
                        continue;
                    if (g.accessClk[u] > vc[u]) {
                        all_ordered = false;
                        other = static_cast<ThreadId>(u);
                        break;
                    }
                }
                if (all_ordered)
                    ++suppressed_;
                else
                    emit(ev.tid, a, gran, ev.site, write, ev.at, other);
            }
        }
        g.accessClk[ev.tid] = vc[ev.tid];
    });
}

void
RaceTrackDetector::onRead(const Event &ev)
{
    access(ev, false);
}

void
RaceTrackDetector::onWrite(const Event &ev)
{
    access(ev, true);
}

void
RaceTrackDetector::onLockAcquire(const Event &ev)
{
    // The base goes first in the lock hooks: it checks the thread id
    // before held_ is touched.
    ClockedDetector::onLockAcquire(ev);
    held_.acquire(ev.tid, ev.addr, true, false);
}

void
RaceTrackDetector::onLockRelease(const Event &ev)
{
    ClockedDetector::onLockRelease(ev);
    held_.release(ev.tid, ev.addr, true, false);
}

void
RaceTrackDetector::onRwLockAcquire(const Event &ev, bool writer)
{
    ClockedDetector::onRwLockAcquire(ev, writer);
    held_.acquire(ev.tid, ev.addr, writer, true);
}

void
RaceTrackDetector::onRwLockRelease(const Event &ev, bool writer)
{
    ClockedDetector::onRwLockRelease(ev, writer);
    held_.release(ev.tid, ev.addr, writer, true);
}

void
RaceTrackDetector::onBarrier(const Event &ev)
{
    if (cfg_.barrierReset) {
        // §3.5-equivalent flash reset: pre-barrier evidence must not
        // be held against post-barrier accesses (matches the ideal
        // lockset detector, preserving racetrack-subset-of-ideal).
        // Each granule's lockset fields read as reset from now on;
        // its access clocks survive.
        shadow_.onBarrier();
    }
    ClockedDetector::onBarrier(ev);
}

} // namespace hard
