/**
 * @file
 * TraceReplayer: re-drive RaceDetectors from a recorded trace, with
 * no simulator in the loop (post-mortem analysis).
 *
 * The replay walks the trace in blocks of kReplayBlock records on one
 * or more lanes. Lane l owns the observers whose index is l modulo the
 * lane count. For each block, a lane decodes the records once into its
 * own Event buffer and then hands the whole block to each of its
 * observers in turn, in one onEvents() call. Lanes share nothing but the read-only trace, so
 * an observer sees exactly the event sequence a live run would have
 * dispatched to it, at any lane count.
 *
 * That makes lanes safe only for observers that are independent of one
 * another: the detectors of a battery each own their sync order,
 * storage and report sink. Observer sets that share mutable state (a
 * provenance recorder consulted by two detectors, say) keep the
 * default single lane. With one lane the same walk runs on the calling
 * thread and no thread is created.
 *
 * An observer that throws is dropped from the rest of the replay; the
 * others still see the whole trace. After every lane has finished,
 * the exception of the lowest-index failed observer is rethrown, the
 * same rule RunPool applies to task indices.
 */

#ifndef HARD_TRACE_REPLAYER_HH
#define HARD_TRACE_REPLAYER_HH

#include <cstddef>
#include <string>
#include <vector>

#include "detectors/report.hh"
#include "trace/trace.hh"

namespace hard
{

/** Records per replay block. */
inline constexpr std::size_t kReplayBlock = 4096;

/** How one replay spreads over threads and reports its cost. */
struct ReplayOptions
{
    /**
     * Lanes to walk the trace on, capped at the observer count. One
     * runs on the calling thread; more spawn lanes - 1 threads that
     * are joined before the replay returns.
     */
    unsigned lanes = 1;
    /**
     * Profiler phase path per observer (empty or missing: untimed).
     * While the profiler is on, each (observer, block) pair is timed
     * with two clock reads and folded into its phase, with calls
     * counting the events the observer was offered: the whole block,
     * also when it throws inside it.
     */
    std::vector<std::string> phases;
};

/**
 * Replay @p trace into @p observers, dispatching to each observer
 * exactly the event sequence the live simulation would have.
 *
 * @return the number of events replayed.
 */
std::size_t replayTrace(const Trace &trace,
                        const std::vector<AccessObserver *> &observers,
                        const ReplayOptions &opts = {});

/**
 * Replay a validated packed event stream (trace.hh, openPackedTrace)
 * into @p observers, decoding each block of records into a lane-local
 * buffer. What each observer sees is identical to replayTrace() on the
 * deserialized trace — the warm cache path uses this to skip
 * materializing the event vector entirely.
 *
 * @return the number of events replayed.
 */
std::size_t replayPacked(const PackedTraceView &view,
                         const std::vector<AccessObserver *> &observers,
                         const ReplayOptions &opts = {});

} // namespace hard

#endif // HARD_TRACE_REPLAYER_HH
