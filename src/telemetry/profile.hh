/**
 * @file
 * Wall-clock self-profiling plane (hard.profile.v1).
 *
 * Everything else under src/telemetry is keyed to *simulated* cycles
 * and is part of the deterministic output contract. This file is the
 * other plane: where the harness itself spends real time — recording,
 * replaying, detector dispatch, trace-cache I/O, journal I/O — plus
 * peak RSS and byte counters. The two planes obey one rule:
 *
 *   The wall-clock plane may observe, but must never perturb, a
 *   deterministic byte. Profile data only ever appears in a separate
 *   "profile" block (or file) that is absent when profiling is off;
 *   reports, stats, journals and campaign merges are byte-identical
 *   either way.
 *
 * The profiler is process-global and off by default; every probe is a
 * cheap null-check when disabled. Phases are identified by dotted
 * paths ("batch.unit.record"); the flat map is folded into a tree at
 * dump time. Aggregation is at phase granularity (one mutexed update
 * per ScopedPhase destruction), so contention is negligible even with
 * per-event detector dispatch timing, which batches its updates.
 */

#ifndef HARD_TELEMETRY_PROFILE_HH
#define HARD_TELEMETRY_PROFILE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "common/json.hh"
#include "sim/observer.hh"

namespace hard
{

/** Process-global wall-clock profiler; null when profiling is off. */
class Profiler
{
  public:
    /** Accumulated cost of one dotted phase path. */
    struct PhaseStats
    {
        std::uint64_t calls = 0;
        double wallSeconds = 0.0;
        double cpuSeconds = 0.0;
    };

    /** Turn the process-global profiler on (idempotent). */
    static void enable();
    /** Turn it off and drop all recorded data (tests). */
    static void disable();
    /** @return the enabled profiler, or null when profiling is off. */
    static Profiler *active();

    /** Fold one timed interval into phase @p path. */
    void addPhase(const std::string &path, double wall_seconds,
                  double cpu_seconds, std::uint64_t calls = 1);
    /** Bump named counter @p name by @p delta. */
    void addCounter(const std::string &name, std::uint64_t delta);

    /** Snapshot of one phase (zeroes when never recorded; tests). */
    PhaseStats phase(const std::string &path) const;

    /**
     * The hard.profile.v1 document: schema tag, wall seconds since
     * enable(), peak RSS, the phase tree and the counters. Key order
     * is sorted (std::map), so the *structure* is deterministic even
     * though the timings are wall-clock.
     */
    Json toJson() const;

    /** Drop all recorded phases/counters, keep profiling on (tests). */
    void reset();

  private:
    mutable std::mutex mu_;
    std::map<std::string, PhaseStats> phases_;
    std::map<std::string, std::uint64_t> counters_;
    std::chrono::steady_clock::time_point enabledAt_ =
        std::chrono::steady_clock::now();
};

/** @return this thread's consumed CPU time (user+sys) in seconds. */
double threadCpuSeconds();

/** @return the process's consumed CPU time (user+sys) in seconds. */
double processCpuSeconds();

/** @return the process's peak resident set size in bytes. */
std::uint64_t peakRssBytes();

/**
 * RAII phase timer: measures wall (steady_clock) + CPU
 * (CLOCK_THREAD_CPUTIME_ID) between construction and destruction and
 * folds them into the active profiler. A no-op (two branches) when
 * profiling is off. @p path must outlive the scope (string literals).
 */
class ScopedPhase
{
  public:
    explicit ScopedPhase(const char *path)
        : path_(path), prof_(Profiler::active())
    {
        if (prof_ == nullptr)
            return;
        wall0_ = std::chrono::steady_clock::now();
        cpu0_ = threadCpuSeconds();
    }

    ~ScopedPhase()
    {
        if (prof_ == nullptr)
            return;
        const double wall =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - wall0_)
                .count();
        prof_->addPhase(path_, wall, threadCpuSeconds() - cpu0_);
    }

    ScopedPhase(const ScopedPhase &) = delete;
    ScopedPhase &operator=(const ScopedPhase &) = delete;

  private:
    const char *path_;
    Profiler *prof_;
    std::chrono::steady_clock::time_point wall0_;
    double cpu0_ = 0.0;
};

/** Bump counter @p name by @p delta iff profiling is on. */
inline void
profileCount(const char *name, std::uint64_t delta)
{
    if (Profiler *p = Profiler::active())
        p->addCounter(name, delta);
}

/**
 * Forwarding observer that attributes replay dispatch time to one
 * detector. Wrapping each battery member lets a *single* joint replay
 * (identical event stream, identical trace-cache counters) produce a
 * per-detector cost breakdown: each event is forwarded verbatim
 * and its wall time accumulated locally, folded into the profiler
 * once at flush()/destruction. Wall only — a per-event thread-CPU
 * syscall would dwarf what it measures. Only constructed when the
 * profiler is active, so profiling off costs nothing.
 */
class TimedObserver : public AccessObserver
{
  public:
    /** Forward to @p inner, attributing time to phase @p path. */
    TimedObserver(AccessObserver *inner, std::string path)
        : inner_(inner), path_(std::move(path))
    {
    }

    ~TimedObserver() override { flush(); }

    /** Fold the accumulated time into the profiler now. */
    void
    flush()
    {
        if (calls_ == 0)
            return;
        if (Profiler *p = Profiler::active())
            p->addPhase(path_, wallSeconds_, 0.0, calls_);
        calls_ = 0;
        wallSeconds_ = 0.0;
    }

    /** Forward @p ev, timed with two steady_clock reads. */
    void
    onEvent(const Event &ev) override
    {
        const auto t0 = std::chrono::steady_clock::now();
        inner_->onEvent(ev);
        wallSeconds_ += std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
        ++calls_;
    }

  private:
    AccessObserver *inner_;
    std::string path_;
    std::uint64_t calls_ = 0;
    double wallSeconds_ = 0.0;
};

} // namespace hard

#endif // HARD_TELEMETRY_PROFILE_HH
