/**
 * @file
 * Deliberately broken detector variants — fuzzer self-test hooks.
 *
 * A differential fuzzer that never fires is indistinguishable from one
 * that cannot fire. These subclasses each disable one load-bearing
 * piece of a production detector so the corresponding invariant *must*
 * trip on workloads that exercise it; `hardfuzz --weaken=...` (and the
 * ctest wired as WILL_FAIL) prove the whole
 * generate→check→minimize→repro pipeline end to end.
 */

#ifndef HARD_FUZZ_WEAKEN_HH
#define HARD_FUZZ_WEAKEN_HH

#include <string>

#include "core/hard_detector.hh"
#include "detectors/djit_plus.hh"
#include "detectors/happens_before.hh"
#include "detectors/ideal_lockset.hh"
#include "detectors/racetrack.hh"

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

/** HARD that never updates its Lock/Counter Registers. */
class DeafHardDetector : public HardDetector
{
  public:
    DeafHardDetector(const std::string &name, const HardConfig &cfg)
        : HardDetector(name, cfg)
    {
    }

    void onLockAcquire(const Event &ev) override { (void)ev; }
    void onLockRelease(const Event &ev) override { (void)ev; }
};

/** Happens-before that is deaf to semaphore synchronization. */
class DeafHbDetector : public HappensBeforeDetector
{
  public:
    DeafHbDetector(const std::string &name, const HbConfig &cfg)
        : HappensBeforeDetector(name, cfg)
    {
    }

    void onSemaPost(const Event &ev) override { (void)ev; }
    void onSemaWait(const Event &ev) override { (void)ev; }
};

/** Ideal lockset that forgets to flash-reset at barriers. */
class NoResetIdealLockset : public IdealLocksetDetector
{
  public:
    NoResetIdealLockset(const std::string &name,
                        const IdealLocksetConfig &cfg)
        : IdealLocksetDetector(name, cfg)
    {
    }

    void onBarrier(const Event &ev) override { (void)ev; }
};

/** DJIT+ that is deaf to rwlock release→acquire edges. */
class RwDeafDjitDetector : public DjitPlusDetector
{
  public:
    RwDeafDjitDetector(const std::string &name, unsigned granularity)
        : DjitPlusDetector(name, granularity)
    {
    }

    void
    onRwLockAcquire(const Event &ev, bool writer) override
    {
        (void)ev;
        (void)writer;
    }

    void
    onRwLockRelease(const Event &ev, bool writer) override
    {
        (void)ev;
        (void)writer;
    }
};

/** RaceTrack that ignores reader-mode rwlock holds entirely: neither
 * the read-held lockset nor the writer→reader ordering is tracked. */
class ReadBlindRaceTrack : public RaceTrackDetector
{
  public:
    ReadBlindRaceTrack(const std::string &name,
                       const RaceTrackConfig &cfg)
        : RaceTrackDetector(name, cfg)
    {
    }

    void
    onRwLockAcquire(const Event &ev, bool writer) override
    {
        if (writer)
            RaceTrackDetector::onRwLockAcquire(ev, writer);
    }

    void
    onRwLockRelease(const Event &ev, bool writer) override
    {
        if (writer)
            RaceTrackDetector::onRwLockRelease(ev, writer);
    }
};

} // namespace hard

#endif // HARD_FUZZ_WEAKEN_HH
