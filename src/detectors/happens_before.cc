#include "detectors/happens_before.hh"

#include <bit>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace hard
{

HappensBeforeDetector::HappensBeforeDetector(const std::string &name,
                                             const HbConfig &cfg)
    : EpochHbDetector(name),
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
    EpochGranule *line = meta_.lookup(ev.addr, fresh);

    const unsigned gran = cfg_.granularityBytes;
    const int shift = std::countr_zero(gran);
    const Addr line_base = cfg_.metaGeometry.lineAddr(ev.addr);
    const Addr lo = alignDown(ev.addr, gran);
    const Addr hi = ev.addr + (ev.size ? ev.size : 1);
    hard_panic_if(hi > line_base + cfg_.metaGeometry.lineBytes,
                  "hb: access %llx+%u crosses a metadata line",
                  static_cast<unsigned long long>(ev.addr), ev.size);

    for (Addr a = lo; a < hi; a += gran)
        apply(line[(a - line_base) >> shift], ev, vc, a, gran, write);
}

} // namespace hard
