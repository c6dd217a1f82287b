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
 * per ScopedPhase destruction), so contention is negligible. The
 * replay's per-detector dispatch timing (trace/replayer.hh) reads the
 * clock per block of events and folds its totals in once per replay.
 */

#ifndef HARD_TELEMETRY_PROFILE_HH
#define HARD_TELEMETRY_PROFILE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "common/json.hh"

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

} // namespace hard

#endif // HARD_TELEMETRY_PROFILE_HH
