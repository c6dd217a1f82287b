/**
 * @file
 * Deterministic detection sampling: run any detector at a rate
 * r ∈ (0,1] of the data-access stream, the mechanism behind the
 * always-on monitoring deployments of paper §7 (and the HardRace /
 * O(1)-samples line of follow-on work). Two duty-cycling modes:
 *
 *  - granule: a seeded hash of the address granule decides, once and
 *    for all, whether that granule is monitored. A granule is either
 *    fully observed or fully invisible, so per-granule-independent
 *    detectors see an exact substream and their report set is a
 *    subset of the unsampled run's (the fuzzer enforces this).
 *    Decisions are nested across rates: lowering r only removes
 *    granules, never swaps them, so overhead falls monotonically.
 *  - epoch: a duty cycle over simulated time — the detector is on for
 *    ceil(r * period) cycles out of every period (seeded phase).
 *    Bounds detection latency for every granule at the cost of the
 *    subset guarantee (epoch-based HB detectors may flag a stale
 *    last-writer the full run already ordered).
 *
 * Synchronization events (locks, barriers, semaphores, rwlocks,
 * condvars, atomics) are never sampled out: they are rare, cheap to
 * observe, and skipping them would corrupt detector sync state rather
 * than merely narrow coverage.
 *
 * Everything is a pure function of (spec, addr, cycle), so sampled
 * runs are deterministic and byte-identical at any --jobs, and rate
 * 1.0 is byte-identical to an unsampled run (active() gates every
 * call site).
 *
 * Deliberately NOT part of the fast-mode trace-cache key: sampling
 * filters what detectors *observe* at replay time; it never perturbs
 * the recorded interleaving.
 */

#ifndef HARD_SIM_SAMPLING_HH
#define HARD_SIM_SAMPLING_HH

#include <cmath>
#include <cstdint>
#include <string>

#include "sim/observer.hh"

namespace hard
{

/** Detection-sampling schedule (see file comment). */
struct SamplingSpec
{
    enum class Mode
    {
        granule, ///< seeded per-granule coin, stable for the whole run
        epoch,   ///< duty cycle over simulated time
    };

    Mode mode = Mode::granule;
    /** Fraction of the access stream observed, in (0, 1]. */
    double rate = 1.0;
    /** Seed for the granule hash / epoch phase. */
    std::uint64_t seed = 1;
    /** Epoch mode: duty-cycle period in cycles. */
    Cycle period = 65536;
    /** Address bytes sharing one granule decision (power of two). */
    unsigned granuleBytes = 32;

    /** True when sampling actually filters anything (r < 1). */
    bool active() const { return rate < 1.0; }
};

/** splitmix64 finalizer: well-mixed 64-bit hash of @p x. */
inline std::uint64_t
sampleMix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * @return the 33-bit acceptance threshold for @p rate: a granule is
 * monitored iff its 32-bit hash falls below rate * 2^32. Thresholds
 * are monotone in rate, so the monitored sets nest across rates.
 */
inline std::uint64_t
sampleThreshold(double rate)
{
    if (rate >= 1.0)
        return 1ull << 32;
    if (rate <= 0.0)
        return 0;
    return static_cast<std::uint64_t>(
        std::llround(rate * 4294967296.0));
}

/** Granule-mode decision: is @p addr's granule monitored? */
inline bool
sampleGranule(const SamplingSpec &s, Addr addr)
{
    const std::uint64_t g = addr / s.granuleBytes;
    const std::uint64_t h =
        sampleMix(g ^ sampleMix(s.seed)) >> 32;
    return h < sampleThreshold(s.rate);
}

/** Epoch-mode decision: is the duty cycle on at cycle @p at? */
inline bool
sampleEpoch(const SamplingSpec &s, Cycle at)
{
    const Cycle period = s.period == 0 ? 1 : s.period;
    Cycle on = static_cast<Cycle>(
        std::ceil(s.rate * static_cast<double>(period)));
    if (on < 1)
        on = 1;
    if (on > period)
        on = period;
    const Cycle phase = sampleMix(s.seed) % period;
    return (at + phase) % period < on;
}

/**
 * The one decision function every consumer shares (observer wrapper,
 * timing charges, traffic): should the access at (@p addr, @p at) be
 * observed? Always true when sampling is inactive.
 */
inline bool
sampleDecision(const SamplingSpec &s, Addr addr, Cycle at)
{
    if (!s.active())
        return true;
    return s.mode == SamplingSpec::Mode::granule ? sampleGranule(s, addr)
                                                 : sampleEpoch(s, at);
}

/**
 * Forwarding wrapper that feeds an inner observer the sampled
 * substream: data accesses pass through sampleDecision(); every other
 * event — synchronization, thread lifecycle, line evictions, context
 * switches — and the telemetry registrations forward untouched. Each
 * maximal run of kept events in a block reaches the inner observer as
 * one onEvents() call. Wrap a detector in one of these to run it at
 * rate r.
 */
class SamplingObserver : public ForwardingObserver
{
  public:
    SamplingObserver(AccessObserver &inner, const SamplingSpec &spec)
        : ForwardingObserver(inner), spec_(spec)
    {
    }

    void
    onEvents(std::span<const Event> evs) override
    {
        forwardRuns(evs, [this](const Event &ev) {
            return !ev.isAccess() || sampleDecision(spec_, ev.addr, ev.at);
        });
    }

    const SamplingSpec &spec() const { return spec_; }

  private:
    SamplingSpec spec_;
};

/** Parse a sampling-mode name; @return true on success. */
inline bool
parseSamplingMode(const std::string &name, SamplingSpec::Mode &out)
{
    if (name == "granule") {
        out = SamplingSpec::Mode::granule;
        return true;
    }
    if (name == "epoch") {
        out = SamplingSpec::Mode::epoch;
        return true;
    }
    return false;
}

/** @return the stable name of @p mode ("granule" / "epoch"). */
inline const char *
samplingModeName(SamplingSpec::Mode mode)
{
    return mode == SamplingSpec::Mode::granule ? "granule" : "epoch";
}

} // namespace hard

#endif // HARD_SIM_SAMPLING_HH
