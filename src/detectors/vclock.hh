/**
 * @file
 * Fixed-width vector clocks for the happens-before detector.
 */

#ifndef HARD_DETECTORS_VCLOCK_HH
#define HARD_DETECTORS_VCLOCK_HH

#include <algorithm>
#include <array>
#include <cstdint>

#include "common/types.hh"

namespace hard
{

/** Maximum simultaneously tracked threads (CMP cores are <= 8 here). */
constexpr unsigned kMaxThreads = 8;

/** A vector clock over kMaxThreads components. */
struct VClock
{
    std::array<std::uint32_t, kMaxThreads> c{};

    std::uint32_t operator[](ThreadId t) const { return c[t]; }
    std::uint32_t &operator[](ThreadId t) { return c[t]; }

    /** Component-wise maximum with @p o. */
    void
    join(const VClock &o)
    {
        for (unsigned i = 0; i < kMaxThreads; ++i)
            c[i] = std::max(c[i], o.c[i]);
    }

    bool
    operator==(const VClock &o) const
    {
        return c == o.c;
    }

    /**
     * @return the first thread other than @p self whose component
     * exceeds @p vc's (an access recorded here that @p vc is not
     * ordered after), or invalidThread if there is none.
     */
    ThreadId
    firstUnordered(const VClock &vc, ThreadId self) const
    {
        for (unsigned u = 0; u < kMaxThreads; ++u)
            if (u != self && c[u] > vc.c[u])
                return static_cast<ThreadId>(u);
        return invalidThread;
    }
};

/** A scalar epoch: clock value @p clk of thread @p tid. */
struct Epoch
{
    ThreadId tid = invalidThread;
    std::uint32_t clk = 0;

    /** @return true if this epoch happens-before (or equals) @p vc. */
    bool
    ordered(const VClock &vc) const
    {
        return tid == invalidThread || clk <= vc[tid];
    }
};

} // namespace hard

#endif // HARD_DETECTORS_VCLOCK_HH
