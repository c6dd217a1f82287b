/**
 * @file
 * TraceRecorder: an AccessObserver that captures a simulated run into
 * an in-memory Trace (write it out with writeTrace()).
 */

#ifndef HARD_TRACE_RECORDER_HH
#define HARD_TRACE_RECORDER_HH

#include <span>

#include "sim/program.hh"
#include "trace/trace.hh"

namespace hard
{

/** Records every observable event of a run. */
class TraceRecorder : public AccessObserver
{
  public:
    /**
     * @param prog The program being recorded (source of site names;
     * must outlive the recorder).
     */
    explicit TraceRecorder(const Program &prog) : prog_(&prog) {}

    /**
     * Store @p evs as the trace keeps them: no core (replay binds
     * thread t to core t) and no context switches, so an in-memory
     * recording replays exactly as its serialized bytes do.
     */
    void
    onEvents(std::span<const Event> evs) override
    {
        for (const Event &ev : evs) {
            if (ev.kind == EventKind::ContextSwitch)
                continue;
            Event &te = trace_.events.emplace_back(ev);
            te.core = te.tid;
        }
    }

    /** Finish recording and take the trace (site table filled in). */
    Trace
    take()
    {
        trace_.siteNames.clear();
        for (SiteId s = 0; s < prog_->sites.size(); ++s)
            trace_.siteNames.push_back(
                prog_->sites.name(static_cast<SiteId>(s)));
        return std::move(trace_);
    }

  private:
    const Program *prog_;
    Trace trace_;
};

} // namespace hard

#endif // HARD_TRACE_RECORDER_HH
