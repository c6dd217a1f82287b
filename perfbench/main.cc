/**
 * @file
 * hard_perfbench: the repository benchmark (see README.md).
 *
 *   hard_perfbench --workload <name> --seed <n> --seconds <s>
 *                  --trace <0|1> --workdir <dir> --expected <file>
 *                  [--expected-out <file>]
 *
 * One process runs one workload: set-up (timed several times), then a
 * closed loop of whole sweeps through runBatch on one worker until
 * --seconds have passed, then the output check. With --trace 1 the
 * traced run (layers.cc) follows and the per-layer metrics are
 * reported instead of the end-to-end ones. The last line of standard
 * output is the result object.
 */

#include <malloc.h>
#include <signal.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>

#include "common/logging.hh"
#include "perfbench.hh"
#include "telemetry/profile.hh"
#include "trace/trace_cache.hh"
#include "workloads/injector.hh"

using namespace hard;
using namespace perfbench;

namespace
{

/**
 * Set-ups per run: at least kMinSetups, and more, up to kMaxSetups,
 * until kMinSetupSeconds of set-up were timed, so that a set-up of a
 * fraction of a second is not a single noisy sample. setup_s is their
 * median.
 */
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 9;
constexpr double kMinSetupSeconds = 3.0;
/** Workers of the cold recording pass and of the cross-mode check. */
constexpr unsigned kSideJobs = 2;
/** Workers of the measured loop. */
constexpr unsigned kJobs = 1;
/** Largest |bench.unattributed_pct| the self-time accounting accepts. */
constexpr double kAttributionTolerancePct = 15.0;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1000;
    double seconds = 10.0;
    bool trace = false;
    std::string workdir;
    std::string expected;
    std::string expectedOut;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "hard_perfbench: %s\n"
                 "usage: hard_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --workdir <dir> "
                 "--expected <file> [--expected-out <file>]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + k).c_str());
        const std::string v = argv[++i];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::atof(v.c_str());
        else if (k == "--trace")
            a.trace = v == "1";
        else if (k == "--workdir")
            a.workdir = v;
        else if (k == "--expected")
            a.expected = v;
        else if (k == "--expected-out")
            a.expectedOut = v;
        else
            usage(("unknown argument " + k).c_str());
    }
    if (a.workdir.empty() || a.expected.empty())
        usage("--workdir and --expected are required");
    if (!(a.seconds > 0.0))
        usage("--seconds must be positive");
    return a;
}

/** @return why this build must not be measured, or "" if it may. */
std::string
unfitBuild()
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return "sanitizer build";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
    return "sanitizer build";
#endif
#endif
    if (std::strcmp(PERFBENCH_BUILD_TYPE, "Debug") == 0)
        return "Debug build";
    if (std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize") != nullptr)
        return "sanitizer flags in CMAKE_CXX_FLAGS";
    return "";
}

Json
fingerprint(const Args &a, const WorkloadSpec &w)
{
    struct utsname u;
    uname(&u);
    Json j = Json::object();
    j.set("nproc", std::thread::hardware_concurrency());
    j.set("arch", std::string(u.machine));
#if defined(__clang__)
    j.set("compiler", "clang " __VERSION__);
#else
    j.set("compiler", "gcc " __VERSION__);
#endif
    j.set("buildType", PERFBENCH_BUILD_TYPE);
    Json scales = Json::object();
    for (const AppSpec &app : w.apps)
        scales.set(app.name, app.scale);
    j.set("scale", std::move(scales));
    j.set("runsPerApp", w.runs + 1);
    j.set("seed", a.seed);
    j.set("workers", kJobs);
    j.set("sideWorkers", kSideJobs);
    j.set("mode", execModeName(w.mode));
    return j;
}

Json
loadJson(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    std::string err;
    Json j = Json::parse(ss.str(), &err);
    if (!err.empty()) {
        std::fprintf(stderr, "hard_perfbench: %s: %s\n", path.c_str(),
                     err.c_str());
        std::exit(2);
    }
    return j;
}

/**
 * Generate every unit's input program: each app's workload, its
 * shared-data map, and one race-injected copy per injected run.
 */
void
generateInputs(const WorkloadSpec &w, std::uint64_t seed0)
{
    for (const BatchItem &item : sweepItems(w, seed0, w.mode, nullptr, {})) {
        const Program prog = buildWorkload(item.workload, item.wp);
        const SharedMap shared(prog);
        for (unsigned r = 0; r < w.runs; ++r) {
            Program copy = prog;
            const Injection inj = injectRace(copy, seed0 + r, &shared);
            if (inj.valid)
                (void)sitesTouching(copy, inj);
        }
    }
}

/** Record and store every unit's trace into an empty cache at @p dir. */
void
recordAll(const WorkloadSpec &w, std::uint64_t seed0, TraceCache &cache)
{
    RunPool pool(kSideJobs);
    const DetectorFactory none = [] {
        return std::vector<std::unique_ptr<RaceDetector>>{};
    };
    BatchOptions opts;
    opts.keepGoing = true;
    for (const BatchItemResult &res :
         runBatch(sweepItems(w, seed0, ExecMode::Fast, &cache, none), pool,
                  opts))
        for (const EffectivenessRun &run : res.runDetail)
            hard_fatal_if(!run.ok(), "set-up: recording %s run %u failed: %s",
                          res.label.c_str(), run.index,
                          run.errorMessage.c_str());
}

/**
 * Return freed set-up memory to the system and restart the kernel's
 * resident high-water mark, so the peak that follows is the measured
 * loop's. @return false when the kernel does not allow the reset.
 */
bool
resetPeakRss()
{
    malloc_trim(0);
    std::ofstream f("/proc/self/clear_refs");
    f << "5";
    f.flush();
    return static_cast<bool>(f);
}

/** @return VmHWM of /proc/self/status in bytes (0 if unreadable). */
std::uint64_t
loopPeakRssBytes()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtoull(line.c_str() + 6, nullptr, 10) * 1024;
    return 0;
}

struct Measured
{
    double seconds = 0.0;
    double cpuSeconds = 0.0;
    unsigned units = 0;
    std::vector<double> sweepSeconds;
    std::vector<double> unitSeconds;
};

/**
 * Whole sweeps back to back on one worker until @p seconds passed (at
 * least one sweep). Each sweep's results go to @p on_sweep between
 * sweeps, outside the timed window, and are not kept, so memory does
 * not grow with the number of sweeps.
 */
Measured
closedLoop(const WorkloadSpec &w, std::uint64_t seed0, TraceCache *cache,
           double seconds,
           const std::function<void(std::vector<BatchItemResult>)> &on_sweep)
{
    Measured m;
    RunPool pool(kJobs);
    const std::vector<BatchItem> items =
        sweepItems(w, seed0, w.mode, cache, factoryFor(w));
    std::vector<Clock::time_point> starts;
    BatchOptions opts;
    opts.keepGoing = true;
    opts.unitStartHook = [&starts](std::size_t, std::int64_t) {
        starts.push_back(Clock::now());
    };
    do {
        starts.clear();
        const double c0 = processCpuSeconds();
        const Clock::time_point t0 = Clock::now();
        std::vector<BatchItemResult> results = runBatch(items, pool, opts);
        const Clock::time_point t1 = Clock::now();
        m.cpuSeconds += processCpuSeconds() - c0;
        const double dt = std::chrono::duration<double>(t1 - t0).count();
        m.sweepSeconds.push_back(dt);
        m.seconds += dt;
        m.units += w.unitsPerSweep();
        // One worker: a unit ends where the next one starts.
        for (std::size_t k = 0; k < starts.size(); ++k) {
            const Clock::time_point end =
                k + 1 < starts.size() ? starts[k + 1] : t1;
            m.unitSeconds.push_back(
                std::chrono::duration<double>(end - starts[k]).count());
        }
        on_sweep(std::move(results));
    } while (m.seconds < seconds);
    return m;
}

std::string
number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
addMetric(std::string &out, const std::string &name, double v,
          const std::string &unit)
{
    if (out.size() > 1)
        out += ", ";
    out += "\"" + name + "\": {\"value\": " + number(v) + ", \"unit\": \"" +
        unit + "\"}";
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const WorkloadSpec *wp = findWorkload(args.workload);
    if (wp == nullptr) {
        std::string names;
        for (const std::string &n : workloadNames())
            names += " " + n;
        usage(("unknown workload '" + args.workload + "' (known:" + names +
               ")")
                  .c_str());
    }
    const WorkloadSpec &w = *wp;
    if (const std::string why = unfitBuild(); !why.empty()) {
        std::fprintf(stderr, "hard_perfbench: refusing to measure a %s\n",
                     why.c_str());
        return 3;
    }
    setQuiet(true);
    const Json expected = loadJson(args.expected);
    const Json fp = fingerprint(args, w);
    std::printf("fingerprint %s\n", fp.dump().c_str());
    std::printf("model: simulated CMP, not validated against hardware; "
                "simulated counts carry no error figure\n");

    namespace fs = std::filesystem;
    fs::create_directories(args.workdir);
    // Scratch left behind by runs that were killed.
    for (const fs::directory_entry &e : fs::directory_iterator(args.workdir)) {
        const std::string name = e.path().filename().string();
        if (name.rfind("run-", 0) == 0 &&
            ::kill(std::atoi(name.c_str() + 4), 0) != 0 && errno == ESRCH)
            fs::remove_all(e.path());
    }
    const fs::path work = fs::path(args.workdir) /
        ("run-" + std::to_string(::getpid()));
    fs::create_directories(work);

    // Set-up, timed several times; the last cache is the one measured.
    // The traced run reports no set-up time and only needs the cache.
    const bool warm = w.mode == ExecMode::Fast;
    std::vector<double> setups;
    double setup_total = 0.0;
    std::unique_ptr<TraceCache> cache;
    for (int k = 0; k < (args.trace ? 1 : kMaxSetups) &&
         (k < kMinSetups || setup_total < kMinSetupSeconds);
         ++k) {
        cache.reset();
        const fs::path dir = work / ("cache-" + std::to_string(k));
        fs::remove_all(work / ("cache-" + std::to_string(k - 1)));
        const Clock::time_point t0 = Clock::now();
        generateInputs(w, args.seed);
        if (warm) {
            cache = std::make_unique<TraceCache>(dir.string(), 0);
            recordAll(w, args.seed, *cache);
        }
        setups.push_back(secondsSince(t0));
        setup_total += setups.back();
    }
    const bool rss_reset = resetPeakRss();

    // Output check, sweep by sweep: outcomes and expected scores, and
    // for cycle sweeps identity with the first sweep.
    std::vector<std::vector<std::string>> sweep_docs;
    std::vector<CheckResult> sweep_checks;
    std::vector<BatchItemResult> first_sweep;
    auto on_sweep = [&](std::vector<BatchItemResult> results) {
        const std::vector<std::string> none;
        sweep_checks.push_back(checkSweep(
            w, args.seed, results,
            warm || sweep_docs.empty() ? none : sweep_docs.front(),
            expected));
        sweep_docs.push_back(unitDocuments(results));
        if (first_sweep.empty())
            first_sweep = std::move(results);
    };
    // The traced run needs only the untraced rate to compare against,
    // so it measures a single sweep.
    const Measured m = closedLoop(w, args.seed, cache.get(),
                                  args.trace ? 0.0 : args.seconds, on_sweep);
    const double ups = w.unitsPerSweep() / median(m.sweepSeconds);
    const double rss_mb =
        static_cast<double>(rss_reset ? loopPeakRssBytes() : peakRssBytes()) /
        1e6;

    // Fast sweeps must match a cycle-mode sweep of the same units,
    // result document by result document.
    if (warm) {
        RunPool side(kSideJobs);
        BatchOptions opts;
        opts.keepGoing = true;
        const std::vector<std::string> reference = unitDocuments(runBatch(
            sweepItems(w, args.seed, ExecMode::Cycle, nullptr, factoryFor(w)),
            side, opts));
        for (std::size_t s = 0; s < sweep_docs.size(); ++s)
            markMismatches(sweep_checks[s], sweep_docs[s], reference);
    }
    CheckResult check;
    for (const CheckResult &c : sweep_checks)
        merge(check, c);
    if (warm) {
        const TraceCache::Counters c = cache->counters();
        std::printf("trace cache: %llu hits, %llu misses, %llu stores\n",
                    static_cast<unsigned long long>(c.hits),
                    static_cast<unsigned long long>(c.misses),
                    static_cast<unsigned long long>(c.stores));
    }

    const double setup_s = median(setups);
    const double unit_ms_p50 = hdMedian(m.unitSeconds) * 1e3;
    std::printf("units_per_s %.4f units/s (median of %zu sweeps of %u "
                "units; %u units in %.3f s, %.3f CPU s, %u worker)\n",
                ups, m.sweepSeconds.size(), w.unitsPerSweep(), m.units,
                m.seconds, m.cpuSeconds, kJobs);
    std::printf("sweep seconds:");
    for (double t : m.sweepSeconds)
        std::printf(" %.3f", t);
    std::printf("\n");
    std::printf("unit_ms_p50 %.3f ms (Harrell-Davis median of %zu "
                "samples)\n",
                unit_ms_p50, m.unitSeconds.size());
    std::printf("setup_s %.4f s (median of %zu)\n", setup_s, setups.size());
    std::printf("peak_rss_mb %.1f MB (%s)\n", rss_mb,
                rss_reset ? "peak during the measured loop"
                          : "process peak; could not reset it after set-up");

    Json exact;
    LayerMetrics layers;
    if (args.trace) {
        SpanLog spans;
        TracedContext ctx;
        ctx.workload = &w;
        ctx.seed0 = args.seed;
        ctx.cache = cache.get();
        ctx.workDir = work.string();
        ctx.untracedUnitsPerSec = ups;
        ctx.expected = &expected;
        layers = runTraced(ctx, spans, check, &exact);
        const fs::path span_file = fs::path(args.workdir) /
            ("spans-" + w.name + "-" + std::to_string(args.seed) + ".jsonl");
        spans.write(span_file.string());
        std::printf("spans written to %s (%zu spans)\n",
                    span_file.string().c_str(), spans.spans().size());
        const double unattributed = layers["bench.unattributed_pct"].value;
        std::printf("self-time accounting: attributed unit %.3f ms vs "
                    "unit_ms_p50 %.3f ms; unattributed %.2f%% (tolerance "
                    "%.0f%%: %s)\n",
                    layers["bench.attributed_unit_ms"].value, unit_ms_p50,
                    unattributed, kAttributionTolerancePct,
                    std::abs(unattributed) <= kAttributionTolerancePct
                        ? "within"
                        : "OUTSIDE");
        for (const auto &[name, lm] : layers)
            std::printf("%s %.6g %s\n", name.c_str(), lm.value,
                        lm.unit.c_str());
    }

    std::printf("unit_fail_ratio %.4f (%u failed of %u attempted)\n",
                check.attempted ? double(check.failed) / check.attempted
                                : 1.0,
                check.failed, check.attempted);
    for (const std::string &p : check.problems)
        std::printf("check: %s\n", p.c_str());

    if (!args.expectedOut.empty()) {
        Json doc = expected.isObject() ? expected : Json::object();
        if (!doc.has("workloads"))
            doc.set("workloads", Json::object());
        Json block = expectedBlock(args.seed, first_sweep);
        const Json &wls = doc["workloads"];
        if (wls.has(w.expectKey) && wls[w.expectKey].has("exact"))
            block.set("exact", wls[w.expectKey]["exact"]);
        if (args.trace)
            block.set("exact", exact);
        Json all = wls;
        all.set(w.expectKey, std::move(block));
        doc.set("workloads", std::move(all));
        writeJsonFile(args.expectedOut, doc);
        std::printf("expected scores written to %s\n",
                    args.expectedOut.c_str());
    }

    cache.reset();
    fs::remove_all(work);

    std::string metrics = "{";
    if (args.trace) {
        for (const auto &[name, lm] : layers)
            addMetric(metrics, name, lm.value, lm.unit);
    } else {
        addMetric(metrics, "units_per_s", ups, "1/s");
        addMetric(metrics, "unit_ms_p50", unit_ms_p50, "ms");
        addMetric(metrics, "setup_s", setup_s, "s");
        addMetric(metrics, "peak_rss_mb", rss_mb, "MB");
        addMetric(metrics, "unit_ok_ratio",
                  check.attempted
                      ? double(check.attempted - check.failed) /
                          check.attempted
                      : 0.0,
                  "ratio");
    }
    metrics += "}";
    std::printf("{\"correct\": %s, \"attempted\": %u, \"failed\": %u, "
                "\"metrics\": %s}\n",
                check.failed == 0 ? "true" : "false", check.attempted,
                check.failed, metrics.c_str());
    std::fflush(stdout);
    return 0;
}
