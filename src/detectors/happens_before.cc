#include "detectors/happens_before.hh"

#include "common/bitops.hh"
#include "common/logging.hh"

namespace hard
{

HappensBeforeDetector::HappensBeforeDetector(const std::string &name,
                                             const HbConfig &cfg)
    : ClockedDetector(name),
      cfg_(cfg),
      meta_(cfg.metaGeometry, cfg.unbounded)
{
    const unsigned line = cfg_.metaGeometry.lineBytes;
    hard_fatal_if(cfg_.granularityBytes == 0 ||
                      cfg_.granularityBytes > line ||
                      line % cfg_.granularityBytes != 0,
                  "hb: granularity %u does not divide line size %u",
                  cfg_.granularityBytes, line);
    hard_fatal_if(line / cfg_.granularityBytes > 8,
                  "hb: more than 8 granules per line unsupported");
}

void
HappensBeforeDetector::access(const MemEvent &ev, bool write)
{
    const VClock &vc = clock(ev.tid);
    bool fresh = false;
    Line &line = meta_.lookup(ev.addr, fresh);

    const unsigned gran = cfg_.granularityBytes;
    const Addr line_base = cfg_.metaGeometry.lineAddr(ev.addr);
    const Addr lo = alignDown(ev.addr, gran);
    const Addr hi = ev.addr + (ev.size ? ev.size : 1);

    for (Addr a = lo; a < hi; a += gran) {
        Granule &g = line.g[(a - line_base) / gran];

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
HappensBeforeDetector::onRead(const MemEvent &ev)
{
    access(ev, false);
}

void
HappensBeforeDetector::onWrite(const MemEvent &ev)
{
    access(ev, true);
}

} // namespace hard
