#include "trace/replayer.hh"

#include <algorithm>
#include <chrono>
#include <exception>
#include <system_error>
#include <thread>

#include "telemetry/profile.hh"

namespace hard
{

namespace
{

/** One lane: its observers, its decode buffer and its block timings. */
struct Lane
{
    /** Indices into the replay's observer list. */
    std::vector<std::size_t> members;
    /** Profiler phase per member; null when the member is untimed. */
    std::vector<const std::string *> phases;
    std::vector<Event> buffer;
    /** Timed wall seconds and events handed over, per member. */
    std::vector<double> wall;
    std::vector<std::uint64_t> calls;
    /** A failure of the lane itself, not of one of its observers. */
    std::exception_ptr failure;
};

/**
 * The one replay walk behind replayTrace() and replayPacked().
 * @p block(first, n, buf) returns the @p n events starting at record
 * @p first, decoding them into @p buf (buffer_events long) if it must.
 */
template <typename Block>
std::size_t
replayBlocks(std::size_t nevents,
             const std::vector<AccessObserver *> &observers,
             const ReplayOptions &opts, std::size_t buffer_events,
             const Block &block)
{
    // With no observers one lane still walks (and decodes) the trace,
    // so a bare replay measures decoding alone.
    const std::size_t nobs = observers.size();
    Profiler *prof = Profiler::active();
    const std::size_t nlanes = std::clamp<std::size_t>(
        opts.lanes, 1, std::max<std::size_t>(nobs, 1));
    std::vector<Lane> lanes(nlanes);
    for (std::size_t k = 0; k < nobs; ++k) {
        Lane &lane = lanes[k % nlanes];
        lane.members.push_back(k);
        const bool timed = prof != nullptr && k < opts.phases.size() &&
            !opts.phases[k].empty();
        lane.phases.push_back(timed ? &opts.phases[k] : nullptr);
    }
    for (Lane &lane : lanes) {
        lane.buffer.resize(buffer_events);
        lane.wall.resize(lane.members.size());
        lane.calls.resize(lane.members.size());
    }
    // Slot k is written only by the lane owning observer k, and read
    // by the caller after every lane has been joined.
    std::vector<std::exception_ptr> errors(nobs);

    // An observer's exception lands in its slot and drops it from the
    // walk; anything else a lane throws (the profiler's bookkeeping)
    // lands in the lane's. Neither escapes a lane thread.
    auto walk = [&](Lane &lane) {
        using Clock = std::chrono::steady_clock;
        try {
            for (std::size_t first = 0; first < nevents;
                 first += kReplayBlock) {
                const std::size_t n =
                    std::min(kReplayBlock, nevents - first);
                const Event *evs = block(first, n, lane.buffer.data());
                for (std::size_t m = 0; m < lane.members.size(); ++m) {
                    const std::size_t k = lane.members[m];
                    if (errors[k])
                        continue;
                    AccessObserver *obs = observers[k];
                    const bool timed = lane.phases[m] != nullptr;
                    const Clock::time_point t0 =
                        timed ? Clock::now() : Clock::time_point{};
                    try {
                        obs->onEvents({evs, n});
                    } catch (...) {
                        errors[k] = std::current_exception();
                    }
                    if (timed) {
                        lane.wall[m] += std::chrono::duration<double>(
                                            Clock::now() - t0)
                                            .count();
                        lane.calls[m] += n;
                    }
                }
            }
            for (std::size_t m = 0; m < lane.members.size(); ++m)
                if (lane.phases[m] != nullptr && lane.calls[m] != 0)
                    prof->addPhase(*lane.phases[m], lane.wall[m], 0.0,
                                   lane.calls[m]);
        } catch (...) {
            lane.failure = std::current_exception();
        }
    };

    // Lane 0 runs on the caller. A lane whose thread cannot be
    // created runs there too, after it: slower, never different.
    std::vector<std::thread> threads;
    std::vector<Lane *> inline_lanes{&lanes[0]};
    threads.reserve(nlanes - 1);
    inline_lanes.reserve(nlanes);
    for (std::size_t l = 1; l < nlanes; ++l) {
        try {
            threads.emplace_back(walk, std::ref(lanes[l]));
        } catch (const std::system_error &) {
            inline_lanes.push_back(&lanes[l]);
        }
    }
    for (Lane *lane : inline_lanes)
        walk(*lane);
    for (std::thread &t : threads)
        t.join();

    for (const std::exception_ptr &err : errors)
        if (err)
            std::rethrow_exception(err);
    for (const Lane &lane : lanes)
        if (lane.failure)
            std::rethrow_exception(lane.failure);
    return nevents;
}

} // namespace

std::size_t
replayTrace(const Trace &trace,
            const std::vector<AccessObserver *> &observers,
            const ReplayOptions &opts)
{
    const Event *events = trace.events.data();
    return replayBlocks(trace.events.size(), observers, opts, 0,
                        [events](std::size_t first, std::size_t,
                                 Event *) { return events + first; });
}

std::size_t
replayPacked(const PackedTraceView &view,
             const std::vector<AccessObserver *> &observers,
             const ReplayOptions &opts)
{
    const std::size_t nevents = static_cast<std::size_t>(view.nevents);
    const char *records = view.records;
    return replayBlocks(
        nevents, observers, opts, std::min(kReplayBlock, nevents),
        [records](std::size_t first, std::size_t n, Event *buf) {
            decodeRecords(records, first, n, buf);
            return static_cast<const Event *>(buf);
        });
}

} // namespace hard
