#include "detectors/fasttrack.hh"

#include "common/bitops.hh"
#include "common/logging.hh"

namespace hard
{

FastTrackDetector::FastTrackDetector(const std::string &name,
                                     unsigned granularity_bytes)
    : ClockedDetector(name),
      gran_(checkedGranularity("fasttrack", granularity_bytes)),
      shadow_(gran_)
{
}

void
FastTrackDetector::access(const Event &ev, bool write)
{
    const VClock &vc = clock(ev.tid);
    const Addr lo = alignDown(ev.addr, gran_);
    const Addr hi = ev.addr + (ev.size ? ev.size : 1);

    for (Addr a = lo; a < hi; a += gran_) {
        Shadow &s = shadow_.at(a);

        // Write-write / read-write with the last writer.
        bool race = !s.lastWrite.ordered(vc);
        ThreadId other = race ? s.lastWrite.tid : invalidThread;

        if (write) {
            // Write must also be ordered after all reads.
            if (!race) {
                if (s.readVc) {
                    for (unsigned u = 0; u < kMaxThreads && !race;
                         ++u) {
                        if (u != ev.tid && (*s.readVc)[u] > vc[u]) {
                            race = true;
                            other = static_cast<ThreadId>(u);
                        }
                    }
                } else if (s.lastRead.tid != ev.tid &&
                           !s.lastRead.ordered(vc)) {
                    race = true;
                    other = s.lastRead.tid;
                }
            }
            if (race)
                emit(ev.tid, a, gran_, ev.site, write, ev.at, other);
            // Write shadows all previous reads (FastTrack's "write
            // exclusive" fast state).
            s.lastWrite = Epoch{ev.tid, vc[ev.tid]};
            s.lastRead = Epoch{};
            s.readVc.reset();
            continue;
        }

        if (race)
            emit(ev.tid, a, gran_, ev.site, write, ev.at, other);

        // Read bookkeeping.
        if (s.readVc) {
            // Already inflated: O(threads) slow path.
            (*s.readVc)[ev.tid] = vc[ev.tid];
        } else if (s.lastRead.tid == ev.tid ||
                   s.lastRead.tid == invalidThread) {
            // Same-thread (or first) read: O(1) fast path.
            s.lastRead = Epoch{ev.tid, vc[ev.tid]};
            ++fastReads_;
        } else if (s.lastRead.ordered(vc)) {
            // Previous read happens-before this one: the single epoch
            // still suffices.
            s.lastRead = Epoch{ev.tid, vc[ev.tid]};
            ++fastReads_;
        } else {
            // Genuinely concurrent reads: inflate to a read vector.
            s.readVc = std::make_unique<VClock>();
            (*s.readVc)[s.lastRead.tid] = s.lastRead.clk;
            (*s.readVc)[ev.tid] = vc[ev.tid];
            s.lastRead = Epoch{};
            ++inflations_;
        }
    }
}

void
FastTrackDetector::onRead(const Event &ev)
{
    access(ev, false);
}

void
FastTrackDetector::onWrite(const Event &ev)
{
    access(ev, true);
}

} // namespace hard
