#include "detectors/djit_plus.hh"

#include "common/bitops.hh"
#include "common/logging.hh"

namespace hard
{

DjitPlusDetector::DjitPlusDetector(const std::string &name,
                                   unsigned granularity_bytes)
    : ClockedDetector(name),
      gran_(checkedGranularity("djit+", granularity_bytes)),
      shadow_(gran_)
{
}

void
DjitPlusDetector::access(const Event &ev, bool write)
{
    const VClock &vc = clock(ev.tid);
    const Addr lo = alignDown(ev.addr, gran_);
    const Addr hi = ev.addr + (ev.size ? ev.size : 1);

    for (Addr a = lo; a < hi; a += gran_) {
        Shadow &g = shadow_.at(a);
        if (!g.tracked) {
            g.tracked = true;
            ++tracked_;
        }

        // A race with *any* unordered prior write, not just the
        // latest one — the full vector remembers writes an epoch
        // representation would have overwritten.
        bool race = false;
        ThreadId other = invalidThread;
        for (unsigned u = 0; u < kMaxThreads; ++u) {
            if (u == ev.tid)
                continue;
            if (g.writeClk[u] > vc[u]) {
                race = true;
                other = static_cast<ThreadId>(u);
                if (other != g.lastWriter)
                    ++nonLatest_;
                break;
            }
        }
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
            emit(ev.tid, a, gran_, ev.site, write, ev.at, other);

        if (write) {
            g.writeClk[ev.tid] = vc[ev.tid];
            g.lastWriter = ev.tid;
        } else {
            g.readClk[ev.tid] = vc[ev.tid];
        }
    }
}

void
DjitPlusDetector::onRead(const Event &ev)
{
    access(ev, false);
}

void
DjitPlusDetector::onWrite(const Event &ev)
{
    access(ev, true);
}

} // namespace hard
