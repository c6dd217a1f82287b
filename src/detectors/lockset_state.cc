#include "detectors/lockset_state.hh"

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

} // namespace hard
