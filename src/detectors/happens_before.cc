#include "detectors/happens_before.hh"

#include <bit>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace hard
{

HappensBeforeDetector::HappensBeforeDetector(const std::string &name,
                                             const HbConfig &cfg)
    : ClockedDetector(name),
      cfg_(cfg),
      meta_(cfg.metaGeometry, cfg.unbounded,
            metaGranulesPerLine("hb", cfg.metaGeometry,
                                cfg.granularityBytes))
{
}

void
HappensBeforeDetector::access(const Event &ev, bool write)
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
                  "hb: access %llx+%u crosses a metadata line",
                  static_cast<unsigned long long>(ev.addr), ev.size);

    for (Addr a = lo; a < hi; a += gran) {
        Granule &g = line[(a - line_base) >> shift];

        bool race = !g.lastWrite.ordered(vc);
        ThreadId other = race ? g.lastWrite.tid : invalidThread;
        if (write && !race) {
            for (unsigned u = 0; u < kMaxThreads; ++u) {
                if (u != ev.tid && g.readClk[u] > vc[u]) {
                    race = true;
                    other = static_cast<ThreadId>(u);
                    break;
                }
            }
        }
        if (race)
            emit(ev.tid, a, gran, ev.site, write, ev.at, other);

        if (write) {
            g.lastWrite = Epoch{ev.tid, vc[ev.tid]};
            g.readClk.fill(0);
        } else {
            g.readClk[ev.tid] = vc[ev.tid];
        }
    }
}

void
HappensBeforeDetector::onRead(const Event &ev)
{
    access(ev, false);
}

void
HappensBeforeDetector::onWrite(const Event &ev)
{
    access(ev, true);
}

} // namespace hard
