#include "detectors/djit_plus.hh"

namespace hard
{

DjitPlusDetector::DjitPlusDetector(const std::string &name,
                                   unsigned granularity_bytes)
    : ClockedDetector(name),
      shadow_(checkedGranularity("djit+", granularity_bytes))
{
}

void
DjitPlusDetector::access(const Event &ev, bool write)
{
    const VClock &vc = clock(ev.tid);
    shadow_.forEach(ev.addr, ev.size, [&](Addr a, Shadow &g) {
        if (!g.tracked) {
            g.tracked = true;
            ++tracked_;
        }

        // A race with *any* unordered prior write, not just the
        // latest one — the full vector remembers writes an epoch
        // representation would have overwritten.
        ThreadId other = g.writeClk.firstUnordered(vc, ev.tid);
        if (other != invalidThread && other != g.lastWriter)
            ++nonLatest_;
        if (write && other == invalidThread)
            other = g.readClk.firstUnordered(vc, ev.tid);
        if (other != invalidThread)
            emit(ev.tid, a, shadow_.granularity(), ev.site, write, ev.at,
                 other);

        if (write) {
            g.writeClk[ev.tid] = vc[ev.tid];
            g.lastWriter = ev.tid;
        } else {
            g.readClk[ev.tid] = vc[ev.tid];
        }
    });
}

} // namespace hard
