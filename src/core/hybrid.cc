#include "core/hybrid.hh"

#include <bit>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace hard
{

HybridDetector::HybridDetector(const std::string &name,
                               const HardConfig &cfg)
    : ClockedDetector(name),
      cfg_(cfg),
      meta_(cfg.metaGeometry, cfg.unbounded,
            metaGranulesPerLine("hybrid", cfg.metaGeometry,
                                cfg.granularityBytes))
{
    lockRegs_.fill(LockRegister(cfg_.bloomBits, cfg_.counterBits));
}

void
HybridDetector::access(const Event &ev, bool write)
{
    const VClock &vc = clock(ev.tid);
    bool fresh = false;
    Granule *line = meta_.lookup(ev.addr, fresh);

    const unsigned gran = cfg_.granularityBytes;
    const int shift = std::countr_zero(gran);
    const Addr line_base = cfg_.metaGeometry.lineAddr(ev.addr);
    const Addr lo = alignDown(ev.addr, gran);
    const Addr hi = ev.addr + (ev.size ? ev.size : 1);
    hard_panic_if(hi > line_base + cfg_.metaGeometry.lineBytes,
                  "hybrid: access %llx+%u crosses a metadata line",
                  static_cast<unsigned long long>(ev.addr), ev.size);
    const std::uint32_t lockset = lockRegs_[ev.tid].vector().raw();

    for (Addr a = lo; a < hi; a += gran) {
        Granule &g = line[(a - line_base) >> shift];
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
HybridDetector::onRead(const Event &ev)
{
    access(ev, false);
}

void
HybridDetector::onWrite(const Event &ev)
{
    access(ev, true);
}

void
HybridDetector::onLockAcquire(const Event &ev)
{
    SyncOrder::checkThread(ev.tid);
    lockRegs_[ev.tid].acquire(ev.addr);
}

void
HybridDetector::onLockRelease(const Event &ev)
{
    SyncOrder::checkThread(ev.tid);
    lockRegs_[ev.tid].release(ev.addr);
}

void
HybridDetector::onBarrier(const Event &ev)
{
    if (cfg_.barrierReset)
        meta_.onBarrier();
    // Barrier = non-lock synchronization: join and advance the
    // non-lock vector clocks.
    ClockedDetector::onBarrier(ev);
}

} // namespace hard
