#include "detectors/ideal_lockset.hh"

#include <algorithm>


namespace hard
{

IdealLocksetDetector::IdealLocksetDetector(const std::string &name,
                                           const IdealLocksetConfig &cfg)
    : Engine(name, "ideal-lockset",
             HeldLocks("ideal-lockset", cfg.tolerateUnbalanced),
             checkedGranularity("ideal-lockset", cfg.granularityBytes)),
      cfg_(cfg)
{
}

template <bool kTraced>
void
IdealLocksetDetector::onMeet(const Event &ev, Addr a, bool write,
                             LState before, const Granule &g, Set,
                             Set held)
{
    const LocksetTable &table = locks_.table();
    const bool universe = g.cand == kUniverseLockset;
    const std::size_t sz = table.size(g.cand);
    if (!universe) {
        sizeStats_.maxCandidate = std::max(sizeStats_.maxCandidate, sz);
        ++sizeStats_.candidateHist[std::min<std::size_t>(sz, 7)];
    }
    if constexpr (kTraced)
        prov_->recordExactNarrow(a, ev.tid, ev.site, write, ev.at, before,
                                 g.state, table, held, universe,
                                 static_cast<unsigned>(sz));
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

} // namespace hard
