/**
 * @file
 * DJIT+ vector-clock race detector (Pozniansky & Schuster, PPoPP'03).
 *
 * Where the epoch engine (EpochHbDetector, which HappensBeforeDetector
 * and FastTrackDetector run) keeps only the *last* write as a scalar
 * epoch and clears the read history on every store, DJIT+ keeps a
 * full write vector clock and a full read vector clock per granule:
 * component u holds the clock of thread u's most recent write (resp.
 * read) to the granule. A read races with any unordered
 * prior write; a write races with any unordered prior write or read.
 *
 * Keeping the whole vectors makes DJIT+ strictly more complete per
 * dynamic access than the epoch representation: every race the epoch
 * detector reports is also a DJIT+ race (the last write is one of the
 * writes in the vector, and read clocks are never clobbered), which
 * the differential battery checks as hb-subset-of-djit. Against an
 * oracle carrying the same full vectors, detection is exact
 * (djit-matches-oracle).
 *
 * Storage is unbounded with 4-byte granules by default — this is a
 * software reference detector, not a hardware model.
 */

#ifndef HARD_DETECTORS_DJIT_PLUS_HH
#define HARD_DETECTORS_DJIT_PLUS_HH

#include <span>

#include "detectors/lockset_core.hh"
#include "detectors/sync_order.hh"

namespace hard
{

/** Full-vector DJIT+ happens-before detector. */
class DjitPlusDetector final : public ClockedDetector
{
  public:
    /**
     * @param name Detector name for reporting.
     * @param granularity_bytes Shadow granularity (4..32).
     */
    DjitPlusDetector(const std::string &name,
                     unsigned granularity_bytes = 4);

    void
    onEvents(std::span<const Event> evs) override
    {
        dispatchEvents(*this, evs);
    }

    void onRead(const Event &ev) { access(ev, false); }
    void onWrite(const Event &ev) { access(ev, true); }

    /**
     * @return races whose unordered prior write was *not* the latest
     * write to the granule — exactly the reports an epoch-based
     * (last-write-only) detector can miss.
     */
    std::uint64_t nonLatestWriteRaces() const { return nonLatest_; }

    /** @return granules any access has touched. */
    std::size_t granulesTracked() const { return tracked_; }

  private:
    /** Shadow state of one granule: full write and read vectors. */
    struct Shadow
    {
        /** writeClk[u] = clock of thread u's latest write. */
        VClock writeClk;
        /** readClk[u] = clock of thread u's latest read. */
        VClock readClk;
        /** Thread of the most recent write (for nonLatest_ stats). */
        ThreadId lastWriter = invalidThread;
        /** Touched by an access (counted in tracked_). */
        bool tracked = false;

        /** Unused: the shadow never sees a barrier (the barrier's
         * clock join orders the history instead). */
        void barrierReset() {}
    };

    void access(const Event &ev, bool write);

    ShadowMemory<Shadow> shadow_;
    std::size_t tracked_ = 0;
    std::uint64_t nonLatest_ = 0;
};

} // namespace hard

#endif // HARD_DETECTORS_DJIT_PLUS_HH
