#include "core/hybrid.hh"

#include "common/bitops.hh"
#include "common/logging.hh"

namespace hard
{

HybridDetector::HybridDetector(const std::string &name,
                               const HardConfig &cfg)
    : ClockedDetector(name),
      cfg_(cfg),
      meta_(cfg.metaGeometry, cfg.unbounded)
{
    const unsigned line = cfg_.metaGeometry.lineBytes;
    hard_fatal_if(cfg_.granularityBytes == 0 ||
                      cfg_.granularityBytes > line ||
                      line % cfg_.granularityBytes != 0,
                  "hybrid: granularity %u does not divide line size %u",
                  cfg_.granularityBytes, line);
    hard_fatal_if(line / cfg_.granularityBytes > 8,
                  "hybrid: more than 8 granules per line unsupported");
    lockRegs_.fill(LockRegister(cfg_.bloomBits, cfg_.counterBits));
}

void
HybridDetector::access(const MemEvent &ev, bool write)
{
    const VClock &vc = clock(ev.tid);
    bool fresh = false;
    Line &line = meta_.lookup(ev.addr, fresh);

    const unsigned gran = cfg_.granularityBytes;
    const Addr line_base = cfg_.metaGeometry.lineAddr(ev.addr);
    const Addr lo = alignDown(ev.addr, gran);
    const Addr hi = ev.addr + (ev.size ? ev.size : 1);
    const std::uint32_t lockset = lockRegs_[ev.tid].vector().raw();

    for (Addr a = lo; a < hi; a += gran) {
        Granule &g = line.g[(a - line_base) / gran];
        LStateStep step = lstateAccess(g.state, g.owner, ev.tid, write);
        g.state = step.next;
        g.owner = step.owner;
        if (step.updateCandidate) {
            g.bf &= lockset;
            if (step.reportIfEmpty &&
                BfVector::rawSetEmpty(g.bf, cfg_.bloomBits)) {
                // Lockset flags a violation. Prune it when *every*
                // other thread's previous access to this granule is
                // ordered before this one by non-lock synchronization
                // (barrier or semaphore edges): the hand-off is safe
                // even though no common lock protects it.
                bool all_ordered = true;
                for (unsigned u = 0; u < kMaxThreads; ++u) {
                    if (u == ev.tid)
                        continue;
                    if (g.accessClk[u] > vc[u]) {
                        all_ordered = false;
                        break;
                    }
                }
                if (all_ordered) {
                    ++pruned_;
                } else {
                    emit(ev.tid, a, gran, ev.site, write, ev.at);
                }
            }
        }
        g.accessClk[ev.tid] = vc[ev.tid];
    }
}

void
HybridDetector::onRead(const MemEvent &ev)
{
    access(ev, false);
}

void
HybridDetector::onWrite(const MemEvent &ev)
{
    access(ev, true);
}

void
HybridDetector::onLockAcquire(const SyncEvent &ev)
{
    SyncOrder::checkThread(ev.tid);
    lockRegs_[ev.tid].acquire(ev.lock);
}

void
HybridDetector::onLockRelease(const SyncEvent &ev)
{
    SyncOrder::checkThread(ev.tid);
    lockRegs_[ev.tid].release(ev.lock);
}

void
HybridDetector::onBarrier(const BarrierEvent &ev)
{
    if (cfg_.barrierReset) {
        meta_.forEach([](Addr, Line &line) {
            for (Granule &g : line.g) {
                g.bf = 0xffffffffu;
                g.state = LState::Virgin;
                g.owner = invalidThread;
            }
        });
    }
    // Barrier = non-lock synchronization: join and advance the
    // non-lock vector clocks.
    ClockedDetector::onBarrier(ev);
}

} // namespace hard
