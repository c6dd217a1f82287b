/**
 * @file
 * FastTrack happens-before detector (Flanagan & Freund, PLDI'09).
 *
 * The epoch rules are EpochHbDetector's, the same ones that
 * HappensBeforeDetector runs; this detector keeps its granules in an
 * unbounded ShadowMemory of any power-of-two granularity instead of a
 * MetaCache. The hb-matches-fasttrack fuzz invariant therefore checks
 * that the two storages agree, and hb-matches-oracle checks the rules
 * against an independent vector-clock oracle.
 */

#ifndef HARD_DETECTORS_FASTTRACK_HH
#define HARD_DETECTORS_FASTTRACK_HH

#include "detectors/happens_before.hh"
#include "detectors/lockset_core.hh"

namespace hard
{

/** Epoch happens-before detector on flat shadow memory. */
class FastTrackDetector final : public EpochHbDetector<ShadowMemory>
{
  public:
    /**
     * @param name Detector name for reporting.
     * @param granularity_bytes Shadow granularity (a power of two).
     */
    FastTrackDetector(const std::string &name,
                      unsigned granularity_bytes = 4)
        : EpochHbDetector(name,
                          checkedGranularity("fasttrack", granularity_bytes))
    {
    }
};

} // namespace hard

#endif // HARD_DETECTORS_FASTTRACK_HH
