/**
 * @file
 * Shared definitions of the repository benchmark (see README.md in
 * this directory): the workload table, the detector names, a small
 * in-memory span recorder, and the output check against expected.json.
 *
 * The benchmark only calls the simulator's public headers; nothing in
 * src/ knows it is being measured.
 */

#ifndef HARD_PERFBENCH_PERFBENCH_HH
#define HARD_PERFBENCH_PERFBENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/json.hh"
#include "harness/batch.hh"
#include "harness/experiment.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** One application of a workload, with its own sizing. */
struct AppSpec
{
    std::string name;
    double scale = 1.0;
};

/** One benchmark workload: a fixed sweep of effectiveness units. */
struct WorkloadSpec
{
    std::string name;
    /** Key of this workload's block in expected.json. */
    std::string expectKey;
    std::vector<AppSpec> apps;
    /** Injected runs per app; each app also gets one race-free run. */
    unsigned runs = 3;
    /** Cycle, or Fast against a cache filled during set-up. */
    hard::ExecMode mode = hard::ExecMode::Cycle;
    /** Detector names the sweep runs, in factory order. */
    std::vector<std::string> detectors;

    unsigned
    unitsPerSweep() const
    {
        return static_cast<unsigned>(apps.size()) * (runs + 1);
    }
};

/** @return the workload called @p name; nullptr when unknown. */
const WorkloadSpec *findWorkload(const std::string &name);

/** @return every workload name, in BENCHMARK.json order. */
std::vector<std::string> workloadNames();

/** The eight detectors the per-layer run times, by metric name. */
const std::vector<std::string> &allDetectorNames();

/** @return a fresh detector for a name of allDetectorNames(). */
std::unique_ptr<hard::RaceDetector> makeDetector(const std::string &name);

/**
 * @return the factory of @p w's sweep. The Table 2 workloads use
 * table2Detectors() itself, so they time the reproduction's own path.
 */
hard::DetectorFactory factoryFor(const WorkloadSpec &w);

/** @return the batch items of one sweep of @p w with base seed @p seed0. */
std::vector<hard::BatchItem> sweepItems(const WorkloadSpec &w,
                                        std::uint64_t seed0,
                                        hard::ExecMode mode,
                                        hard::TraceCache *cache,
                                        const hard::DetectorFactory &f);

/**
 * Spans kept in memory while the traced run works and written out when
 * it ends. A span's self time is its duration minus its children's.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        /** Index of the enclosing span, or -1. */
        std::int64_t parent = -1;
        /** Unit label ("ocean#3") the span belongs to; may be empty. */
        std::string unit;
        double start = 0.0;
        double end = 0.0;
        double childSeconds = 0.0;

        double seconds() const { return end - start; }
        double selfSeconds() const { return seconds() - childSeconds; }
    };

    /** Open a span under the innermost open one. @return its index. */
    std::size_t open(const std::string &name, const std::string &unit);
    /** Close span @p id (must be the innermost open span). */
    void close(std::size_t id);

    const std::vector<Span> &spans() const { return spans_; }

    /** Write every span as JSON lines to @p path. */
    void write(const std::string &path) const;

  private:
    Clock::time_point t0_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<std::size_t> stack_;
};

/** RAII span. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, const std::string &name, const std::string &unit)
        : log_(log), id_(log.open(name, unit))
    {
    }
    ~ScopedSpan() { log_.close(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanLog &log_;
    std::size_t id_;
};

/** Result of checking one sweep's outcomes. */
struct CheckResult
{
    unsigned attempted = 0;
    unsigned failed = 0;
    /** Per unit of the sweep, in sweep order (checkSweep only). */
    std::vector<bool> failedUnit;
    std::vector<std::string> problems;
};

/**
 * Check one sweep against expected.json and against @p reference
 * (per-unit result documents of an earlier sweep of the same units,
 * possibly in the other execution mode; empty = no reference).
 *
 * A unit fails when its outcome is not "ok", when its document differs
 * from the reference, or when a score it feeds differs from the
 * expected one: race-free false alarms and dynamic reports for any
 * seed (the race-free run does not depend on the seed), bugs detected
 * and runs attempted for the seed expected.json was recorded with.
 */
CheckResult checkSweep(const WorkloadSpec &w, std::uint64_t seed0,
                       const std::vector<hard::BatchItemResult> &results,
                       const std::vector<std::string> &reference,
                       const hard::Json &expected);

/** Add @p c's counts and problems to @p into. */
void merge(CheckResult &into, const CheckResult &c);

/**
 * Count every unit of a checked sweep whose document (@p docs, from
 * unitDocuments) differs from @p reference's as failed, once.
 */
void markMismatches(CheckResult &check, const std::vector<std::string> &docs,
                    const std::vector<std::string> &reference);

/** @return one result document per unit, in sweep order. */
std::vector<std::string>
unitDocuments(const std::vector<hard::BatchItemResult> &results);

/** @return @p results' scores in expected.json's per-workload layout. */
hard::Json expectedBlock(std::uint64_t seed0,
                         const std::vector<hard::BatchItemResult> &results);

/** Per-layer metrics of the traced run, by metric name. */
struct LayerMetric
{
    double value = 0.0;
    std::string unit;
};
using LayerMetrics = std::map<std::string, LayerMetric>;

/** What the traced run needs from the end-to-end part of the run. */
struct TracedContext
{
    const WorkloadSpec *workload = nullptr;
    std::uint64_t seed0 = 0;
    /** Trace cache filled during set-up (fast-warm workloads). */
    hard::TraceCache *cache = nullptr;
    /** Scratch directory for the per-layer run's own trace cache. */
    std::string workDir;
    /** Untraced closed-loop throughput of this run (units/s). */
    double untracedUnitsPerSec = 0.0;
    const hard::Json *expected = nullptr;
};

/**
 * The traced run: per-layer spans around calls into each module's
 * public functions, on the workload's own units.
 *
 * @param check Receives the traced sweep's check and failures of the
 * exact-count assertions.
 * @param exact_out Receives the exact counts per app, in
 * expected.json's layout.
 */
LayerMetrics runTraced(const TracedContext &ctx, SpanLog &spans,
                       CheckResult &check, hard::Json *exact_out);

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/**
 * Harrell-Davis estimate of the median of @p v: a Beta-weighted mean of
 * all order statistics. Unit times cluster by app with gaps between
 * the clusters, and the plain sample median then jumps between two
 * clusters from run to run; this estimate moves smoothly instead.
 */
double hdMedian(std::vector<double> v);

/** FNV-1a 64 digest of @p s as 16 hex digits. */
std::string digest(const std::string &s);

} // namespace perfbench

#endif // HARD_PERFBENCH_PERFBENCH_HH
