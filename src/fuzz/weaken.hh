/**
 * @file
 * Deliberately broken detectors — fuzzer self-test hooks.
 *
 * A differential fuzzer that never fires is indistinguishable from one
 * that cannot fire. Each Weaken value makes one production detector
 * deaf to the event kinds one load-bearing piece of it handles, so the
 * corresponding invariant *must* trip on workloads that exercise it;
 * `hardfuzz --weaken=...` (and the ctest wired as WILL_FAIL) prove the
 * whole generate→check→minimize→repro pipeline end to end. The
 * sabotage is a table, weakenedKinds(): no detector is subclassed, so
 * a weakened detector is the production code minus some events.
 */

#ifndef HARD_FUZZ_WEAKEN_HH
#define HARD_FUZZ_WEAKEN_HH

#include <string>

#include "sim/observer.hh"

namespace hard
{

/** Which production detector to sabotage (None = honest run). */
enum class Weaken
{
    None,
    /** HARD ignores lock acquire/release: Lock Register stays empty,
     * every armed access reports → breaks hard-subset-of-ideal. */
    Hard,
    /** Happens-before ignores semaphore edges: sema-ordered hand-offs
     * look racy → breaks hb-matches-oracle and hb-matches-fasttrack
     * (and hb-subset-of-djit, since DJIT+ stays honest). */
    Hb,
    /** Ideal lockset skips the §3.5 barrier flash-reset: stale
     * pre-barrier evidence persists → breaks lockset-matches-oracle
     * (and typically fine-subset-of-coarse, since only the
     * coarse-granularity instance is sabotaged). */
    Ideal,
    /** DJIT+ ignores rwlock release→acquire edges: rwlock-ordered
     * hand-offs look racy → breaks djit-matches-oracle (and
     * hb-subset-of-djit stays intact — the sabotage only *adds*
     * DJIT+ reports). */
    Djit,
    /** RaceTrack drops reader-mode rwlock holds on the floor: reads
     * under a reader hold look unprotected and its HB side loses the
     * writer→reader edges → breaks racetrack-subset-of-ideal. */
    Racetrack,
};

/** Parse a --weaken= value; empty/"none" → None; fatal on junk. */
Weaken parseWeaken(const std::string &name);

/** @return the CLI name of @p w. */
const char *weakenName(Weaken w);

/**
 * @return the event kinds the sabotaged detector of @p w never sees
 * (none for Weaken::None). The runner runs the production detector
 * behind a KindFilter (sim/observer.hh) that drops exactly these.
 */
constexpr EventKindMask
weakenedKinds(Weaken w)
{
    constexpr EventKindMask kRwRead = kindBit(EventKind::RwRdAcquire) |
        kindBit(EventKind::RwRdRelease);
    constexpr EventKindMask kRw = kRwRead |
        kindBit(EventKind::RwWrAcquire) | kindBit(EventKind::RwWrRelease);
    switch (w) {
      case Weaken::None:
        return 0;
      case Weaken::Hard:
        // HARD's rwlock holds take the mutex path: mode-blind (§3.3).
        return kindBit(EventKind::LockAcquire) |
            kindBit(EventKind::LockRelease) | kRw;
      case Weaken::Hb:
        return kindBit(EventKind::SemaPost) | kindBit(EventKind::SemaWait);
      case Weaken::Ideal:
        return kindBit(EventKind::Barrier);
      case Weaken::Djit:
        return kRw;
      case Weaken::Racetrack:
        return kRwRead;
    }
    return 0;
}

} // namespace hard

#endif // HARD_FUZZ_WEAKEN_HH
