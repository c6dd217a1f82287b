#include "detectors/lockset_state.hh"

#include "common/logging.hh"

namespace hard
{

const char *
lstateName(LState s)
{
    switch (s) {
      case LState::Virgin:
        return "Virgin";
      case LState::Exclusive:
        return "Exclusive";
      case LState::Shared:
        return "Shared";
      case LState::SharedModified:
        return "SharedModified";
    }
    return "?";
}

LStateStep
lstateAccess(LState cur, ThreadId owner, ThreadId tid, bool write)
{
    LStateStep out;
    switch (cur) {
      case LState::Virgin:
        // First touch: enter Exclusive owned by the toucher. No
        // candidate update, no reports (initialization is safe).
        out.next = LState::Exclusive;
        out.owner = tid;
        break;

      case LState::Exclusive:
        if (tid == owner) {
            // Still single-threaded: remain Exclusive, no updates.
            out.next = LState::Exclusive;
            out.owner = owner;
            break;
        }
        // Second thread arrives: the sharing phase begins and the
        // candidate set starts being maintained.
        out.next = write ? LState::SharedModified : LState::Shared;
        out.owner = invalidThread;
        out.updateCandidate = true;
        out.reportIfEmpty = write;
        break;

      case LState::Shared:
        // Read-shared data: keep refining the candidate set but stay
        // silent; unlocked read-only sharing is safe.
        out.next = write ? LState::SharedModified : LState::Shared;
        out.owner = invalidThread;
        out.updateCandidate = true;
        out.reportIfEmpty = write;
        break;

      case LState::SharedModified:
        out.next = LState::SharedModified;
        out.owner = invalidThread;
        out.updateCandidate = true;
        out.reportIfEmpty = true;
        break;
    }
    return out;
}

} // namespace hard
