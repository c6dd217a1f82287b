#include "detectors/ideal_lockset.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "explain/prov.hh"

namespace hard
{

IdealLocksetDetector::IdealLocksetDetector(const std::string &name,
                                           const IdealLocksetConfig &cfg)
    : RaceDetector(name), cfg_(cfg),
      shadow_(checkedGranularity("ideal-lockset", cfg.granularityBytes)),
      held_("ideal-lockset", cfg.tolerateUnbalanced)
{
}

const std::set<LockAddr> &
IdealLocksetDetector::lockset(ThreadId tid) const
{
    return held_.writeHeld(tid);
}

const std::set<LockAddr> &
IdealLocksetDetector::readLockset(ThreadId tid) const
{
    return held_.readHeld(tid);
}

void
IdealLocksetDetector::access(const Event &ev, bool write)
{
    const unsigned gran = cfg_.granularityBytes;
    LocksetTable &table = held_.table();
    const LocksetId locks = held_.protecting(ev.tid, write);

    shadow_.forEach(ev.addr, ev.size, [&](Addr a, Granule &g) {
        if (prov_)
            prov_->noteAccess(a, ev.tid, ev.at);
        const LState state_before = g.state;
        LStateStep step = lstateAccess(g.state, g.owner, ev.tid, write);
        g.state = step.next;
        g.owner = step.owner;
        if (step.updateCandidate) {
            g.candidate = table.meet(g.candidate, locks);
            const bool universe = g.candidate == kUniverseLockset;
            const std::size_t sz = table.size(g.candidate);
            if (!universe) {
                sizeStats_.maxCandidate =
                    std::max(sizeStats_.maxCandidate, sz);
                ++sizeStats_.candidateHist[std::min<std::size_t>(sz, 7)];
            }
            if (prov_)
                prov_->recordExactNarrow(a, ev.tid, ev.site, write, ev.at,
                                         state_before, g.state, table,
                                         locks, universe,
                                         static_cast<unsigned>(sz));
        }
        if (step.reportIfEmpty && g.candidate == kEmptyLockset) {
            emit(ev.tid, a, gran, ev.site, write, ev.at,
                 prov_ ? prov_->lastOther(a) : invalidThread);
            if (prov_)
                prov_->recordReport(a, ev.tid, ev.site, write, ev.at);
        }
    });
}

void
IdealLocksetDetector::onRead(const Event &ev)
{
    access(ev, false);
}

void
IdealLocksetDetector::onWrite(const Event &ev)
{
    access(ev, true);
}

void
IdealLocksetDetector::onLockAcquire(const Event &ev)
{
    held_.acquire(ev.tid, ev.addr, true, false);
    sizeStats_.maxLockset = held_.maxHeld();
}

void
IdealLocksetDetector::onLockRelease(const Event &ev)
{
    held_.release(ev.tid, ev.addr, true, false);
}

void
IdealLocksetDetector::onRwLockAcquire(const Event &ev, bool writer)
{
    held_.acquire(ev.tid, ev.addr, writer, true);
    sizeStats_.maxLockset = held_.maxHeld();
}

void
IdealLocksetDetector::onRwLockRelease(const Event &ev, bool writer)
{
    held_.release(ev.tid, ev.addr, writer, true);
}

void
IdealLocksetDetector::onBarrier(const Event &ev)
{
    if (!cfg_.barrierReset)
        return;
    if (prov_)
        prov_->recordFlashReset(ev.at, ev.episode);
    // §3.5: discard pre-barrier evidence — accesses on either side of
    // the barrier are ordered, so neither their lock sets nor their
    // sharing history may be held against post-barrier accesses (see
    // HardDetector::onBarrier for the Figure 7 rationale). Every
    // granule reads as Virgin with a universe candidate set from now on.
    shadow_.onBarrier();
}

} // namespace hard
