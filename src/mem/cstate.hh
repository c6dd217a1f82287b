/**
 * @file
 * MESI coherence states. Note these are the *CState* of the paper's
 * Figure 3 — distinct from the lockset LState kept by HARD.
 */

#ifndef HARD_MEM_CSTATE_HH
#define HARD_MEM_CSTATE_HH

#include <cstdint>

namespace hard
{

/** MESI coherence state of a cache line (one byte, so the event
 * record stays small). */
enum class CState : std::uint8_t
{
    Invalid,
    Shared,
    Exclusive,
    Modified,
};

/** @return a short printable name for @p s. */
inline const char *
cstateName(CState s)
{
    switch (s) {
      case CState::Invalid:
        return "I";
      case CState::Shared:
        return "S";
      case CState::Exclusive:
        return "E";
      case CState::Modified:
        return "M";
    }
    return "?";
}

/** @return true if a local read hit is allowed in state @p s. */
inline bool
canRead(CState s)
{
    return s != CState::Invalid;
}

/** @return true if a local write hit is allowed in state @p s. */
inline bool
canWrite(CState s)
{
    return s == CState::Exclusive || s == CState::Modified;
}

} // namespace hard

#endif // HARD_MEM_CSTATE_HH
