/**
 * @file
 * FastTrack-style epoch-optimized happens-before detector.
 *
 * The baseline HappensBeforeDetector keeps a full read vector clock
 * per granule. FastTrack's observation (Flanagan & Freund, PLDI'09)
 * is that reads are usually totally ordered too, so a single "read
 * epoch" suffices on the fast path; the representation adaptively
 * inflates to a full read vector only while reads are genuinely
 * concurrent. Detection results are identical — asserted against the
 * vector-clock implementation by property tests — while the common
 * case does O(1) work instead of O(threads).
 *
 * Included as an alternative baseline implementation: it shows the
 * detector interface supports different algorithmic trade-offs, and
 * bench_micro quantifies the constant-factor win.
 */

#ifndef HARD_DETECTORS_FASTTRACK_HH
#define HARD_DETECTORS_FASTTRACK_HH

#include <memory>

#include "detectors/lockset_core.hh"
#include "detectors/sync_order.hh"

namespace hard
{

/** Epoch-optimized happens-before detector (FastTrack-style). */
class FastTrackDetector : public ClockedDetector
{
  public:
    /**
     * @param name Detector name for reporting.
     * @param granularity_bytes Shadow granularity (4..32).
     */
    FastTrackDetector(const std::string &name,
                      unsigned granularity_bytes = 4);

    void onRead(const Event &ev) override;
    void onWrite(const Event &ev) override;

    /** @return reads handled on the O(1) same-epoch fast path. */
    std::uint64_t fastPathReads() const { return fastReads_; }

    /** @return granules currently holding an inflated read vector. */
    std::uint64_t inflations() const { return inflations_; }

  private:
    /** Shadow state of one granule. */
    struct Shadow
    {
        Epoch lastWrite{};
        /** Read epoch (valid while not inflated). */
        Epoch lastRead{};
        /** Inflated read vector (allocated only when needed). */
        std::unique_ptr<VClock> readVc;

        /** Unused: the shadow never sees a barrier (the barrier's
         * clock join orders the history instead). */
        void barrierReset() {}
    };

    void access(const Event &ev, bool write);

    unsigned gran_;
    ShadowMemory<Shadow> shadow_;
    std::uint64_t fastReads_ = 0;
    std::uint64_t inflations_ = 0;
};

} // namespace hard

#endif // HARD_DETECTORS_FASTTRACK_HH
