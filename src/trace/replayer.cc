#include "trace/replayer.hh"

#include <cstring>

namespace hard
{

std::size_t
replayTrace(const Trace &trace,
            const std::vector<AccessObserver *> &observers)
{
    for (const Event &ev : trace.events)
        for (AccessObserver *obs : observers)
            obs->onEvent(ev);
    return trace.events.size();
}

std::size_t
replayPacked(const PackedTraceView &view,
             const std::vector<AccessObserver *> &observers)
{
    // Records may sit unaligned after the variable-length site table;
    // the per-record memcpy keeps the loads well-defined.
    for (std::uint64_t i = 0; i < view.nevents; ++i) {
        Event::Packed p;
        std::memcpy(&p, view.records + i * sizeof(p), sizeof(p));
        const Event ev = Event::unpack(p);
        for (AccessObserver *obs : observers)
            obs->onEvent(ev);
    }
    return view.nevents;
}

} // namespace hard
