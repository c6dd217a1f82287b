/**
 * @file
 * Fundamental scalar types shared by every HARD module.
 */

#ifndef HARD_COMMON_TYPES_HH
#define HARD_COMMON_TYPES_HH

#include <cstdint>
#include <limits>

namespace hard
{

/** Simulated physical/virtual address (flat address space). */
using Addr = std::uint64_t;

/** Simulated time in clock cycles. */
using Cycle = std::uint64_t;

/** Identifier of a simulated software thread. */
using ThreadId = std::uint32_t;

/** Identifier of a processor core in the CMP. */
using CoreId = std::uint32_t;

/** Identifier of a lock object (its simulated address). */
using LockAddr = Addr;

/** Interned identifier of a static source site (see SiteRegistry). */
using SiteId = std::uint32_t;

/** Sentinel for "no thread". */
constexpr ThreadId invalidThread = std::numeric_limits<ThreadId>::max();

/** Sentinel for "no core". */
constexpr CoreId invalidCore = std::numeric_limits<CoreId>::max();

/** Sentinel for "no site". */
constexpr SiteId invalidSite = std::numeric_limits<SiteId>::max();

/** Sentinel address. */
constexpr Addr invalidAddr = std::numeric_limits<Addr>::max();

/**
 * Cache line size of every simulated program (Table 1). No data access
 * crosses a line: WorkloadBuilder rejects such a program and
 * openPackedTrace() such a trace.
 */
constexpr unsigned kLineBytes = 32;

} // namespace hard

#endif // HARD_COMMON_TYPES_HH
