#include "detectors/racetrack.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace hard
{

RaceTrackDetector::RaceTrackDetector(const std::string &name,
                                     const RaceTrackConfig &cfg)
    : ClockedDetector(name), cfg_(cfg)
{
    hard_fatal_if(cfg_.granularityBytes == 0 ||
                      !isPowerOf2(cfg_.granularityBytes),
                  "racetrack: bad granularity %u", cfg_.granularityBytes);
}

const std::set<LockAddr> &
RaceTrackDetector::lockset(ThreadId tid) const
{
    static const std::set<LockAddr> empty;
    auto it = held_.find(tid);
    return it == held_.end() ? empty : it->second.writeHeld;
}

const std::set<LockAddr> &
RaceTrackDetector::readLockset(ThreadId tid) const
{
    static const std::set<LockAddr> empty;
    auto it = held_.find(tid);
    return it == held_.end() ? empty : it->second.readHeld;
}

void
RaceTrackDetector::access(const MemEvent &ev, bool write)
{
    const VClock &vc = clock(ev.tid);
    const unsigned gran = cfg_.granularityBytes;
    const Addr lo = alignDown(ev.addr, gran);
    const Addr hi = ev.addr + (ev.size ? ev.size : 1);
    const std::set<LockAddr> locks = held_[ev.tid].effective(write);

    for (Addr a = lo; a < hi; a += gran) {
        Granule &g = shadow_[a];
        LStateStep step = lstateAccess(g.state, g.owner, ev.tid, write);
        g.state = step.next;
        g.owner = step.owner;
        if (step.updateCandidate) {
            g.candidate.intersect(locks);
            if (step.reportIfEmpty && g.candidate.empty()) {
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
    }
}

void
RaceTrackDetector::onRead(const MemEvent &ev)
{
    access(ev, false);
}

void
RaceTrackDetector::onWrite(const MemEvent &ev)
{
    access(ev, true);
}

void
RaceTrackDetector::onLockAcquire(const SyncEvent &ev)
{
    // The base goes first in the lock hooks: it checks the thread id
    // before held_ is touched.
    ClockedDetector::onLockAcquire(ev);
    ThreadLocksets &ls = held_[ev.tid];
    bool inserted = ls.writeHeld.insert(ev.lock).second;
    hard_panic_if(!inserted && !cfg_.tolerateUnbalanced,
                  "racetrack: thread %u re-acquired lock %llx", ev.tid,
                  static_cast<unsigned long long>(ev.lock));
}

void
RaceTrackDetector::onLockRelease(const SyncEvent &ev)
{
    ClockedDetector::onLockRelease(ev);
    std::size_t erased = held_[ev.tid].writeHeld.erase(ev.lock);
    hard_panic_if(erased == 0 && !cfg_.tolerateUnbalanced,
                  "racetrack: thread %u released unheld lock %llx",
                  ev.tid, static_cast<unsigned long long>(ev.lock));
}

void
RaceTrackDetector::onRwLockAcquire(const SyncEvent &ev, bool writer)
{
    ClockedDetector::onRwLockAcquire(ev, writer);
    ThreadLocksets &ls = held_[ev.tid];
    bool inserted =
        (writer ? ls.writeHeld : ls.readHeld).insert(ev.lock).second;
    hard_panic_if(!inserted && !cfg_.tolerateUnbalanced,
                  "racetrack: thread %u re-acquired rwlock %llx", ev.tid,
                  static_cast<unsigned long long>(ev.lock));
}

void
RaceTrackDetector::onRwLockRelease(const SyncEvent &ev, bool writer)
{
    ClockedDetector::onRwLockRelease(ev, writer);
    ThreadLocksets &ls = held_[ev.tid];
    std::size_t erased =
        (writer ? ls.writeHeld : ls.readHeld).erase(ev.lock);
    hard_panic_if(erased == 0 && !cfg_.tolerateUnbalanced,
                  "racetrack: thread %u released unheld rwlock %llx",
                  ev.tid, static_cast<unsigned long long>(ev.lock));
}

void
RaceTrackDetector::onBarrier(const BarrierEvent &ev)
{
    if (cfg_.barrierReset) {
        // §3.5-equivalent flash reset: pre-barrier evidence must not
        // be held against post-barrier accesses (matches the ideal
        // lockset detector, preserving racetrack-subset-of-ideal).
        for (auto &kv : shadow_) {
            kv.second.candidate.resetToUniverse();
            kv.second.state = LState::Virgin;
            kv.second.owner = invalidThread;
        }
    }
    ClockedDetector::onBarrier(ev);
}

} // namespace hard
