/**
 * @file
 * The Eraser per-variable state machine (paper Figure 2) used for
 * false-positive pruning in both HARD and the ideal lockset detector.
 *
 * Variables start Virgin; the first access makes them Exclusive to the
 * accessing thread (initialization is lock-free but safe); a second
 * thread moves them to Shared (read) or SharedModified (write); any
 * write in Shared also moves to SharedModified. Candidate sets are
 * updated in Shared and SharedModified; races are only *reported* in
 * SharedModified.
 */

#ifndef HARD_DETECTORS_LOCKSET_STATE_HH
#define HARD_DETECTORS_LOCKSET_STATE_HH

#include <cstdint>

#include "common/types.hh"

namespace hard
{

/** Lockset algorithm variable state (distinct from coherence CState). */
enum class LState : std::uint8_t
{
    Virgin,
    Exclusive,
    Shared,
    SharedModified,
};

/** @return printable name of @p s. */
const char *lstateName(LState s);

/** Result of applying one access to the state machine. */
struct LStateStep
{
    /** State after the access. */
    LState next = LState::Virgin;
    /** Owner after the access (meaningful in Exclusive). */
    ThreadId owner = invalidThread;
    /** True if the candidate set must be intersected with L(t). */
    bool updateCandidate = false;
    /** True if an empty candidate set must be reported as a race. */
    bool reportIfEmpty = false;
};

/**
 * Apply one access to the Figure 2 state machine.
 *
 * @param cur Current state.
 * @param owner Current owning thread (Exclusive state only).
 * @param tid Accessing thread.
 * @param write True for stores.
 */
inline LStateStep
lstateAccess(LState cur, ThreadId owner, ThreadId tid, bool write)
{
    // First touch: Exclusive to the toucher, where its own later
    // accesses keep it. No candidate update and no report:
    // initialization is lock-free but safe.
    if (cur == LState::Virgin)
        return {LState::Exclusive, tid, false, false};
    if (cur == LState::Exclusive && tid == owner)
        return {LState::Exclusive, owner, false, false};
    // A second thread starts the sharing phase, in which the candidate
    // set is maintained. Unlocked read-only sharing is safe, so only a
    // write, or a granule a write already made SharedModified, reports.
    const bool modified = write || cur == LState::SharedModified;
    return {modified ? LState::SharedModified : LState::Shared,
            invalidThread, true, modified};
}

} // namespace hard

#endif // HARD_DETECTORS_LOCKSET_STATE_HH
