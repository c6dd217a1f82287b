/**
 * @file
 * hardsim — the full-featured simulator front-end.
 *
 * Drives the entire library from the command line: pick a workload,
 * shape the machine (Table 1 by default), choose any combination of
 * detectors, inject a race, record or replay a trace, measure
 * overhead, run a whole parallel experiment batch, and dump machine
 * statistics.
 *
 * Examples:
 *   hardsim --workload=water-nsquared --detectors=hard,hb
 *   hardsim --workload=ocean --inject=7 --detectors=hard,ideal,hybrid
 *   hardsim --workload=server --l2-kb=256 --stats
 *   hardsim --workload=fmm --overhead [--directory]
 *   hardsim --workload=raytrace --record=/tmp/run.trc
 *   hardsim --replay=/tmp/run.trc --detectors=hard
 *   hardsim --batch --jobs=4 --json=out.json          (Table 2 sweep)
 *   hardsim --batch --overhead --runs=10 --json=all.json
 *   hardsim --batch --mode=fast --trace-cache=/tmp/tc --json=out.json
 *   hardsim --list
 */

#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/table.hh"
#include "core/hybrid.hh"
#include "detectors/djit_plus.hh"
#include "detectors/fasttrack.hh"
#include "detectors/racetrack.hh"
#include "explain/classifier.hh"
#include "explain/explain_json.hh"
#include "harness/batch.hh"
#include "harness/campaign.hh"
#include "harness/experiment.hh"
#include "harness/frontier.hh"
#include "telemetry/sampler.hh"
#include "telemetry/profile.hh"
#include "telemetry/trace_event.hh"
#include "trace/record.hh"
#include "trace/recorder.hh"
#include "trace/replayer.hh"
#include "trace/trace_cache.hh"

using namespace hard;

namespace
{

struct Options
{
    std::string workload = "water-nsquared";
    /** True once --workload= was given (batch defaults to all). */
    bool workloadSet = false;
    std::string detectors = "hard,ideal,hb,hb-ideal";
    std::string record;
    std::string replay;
    double scale = 1.0;
    std::uint64_t seed = 1;
    bool inject = false;
    std::uint64_t injectSeed = 1;
    bool overhead = false;
    bool directory = false;
    bool stats = false;
    bool list = false;

    // Open-loop production scenario (server workload).
    bool openLoop = false;
    double arrivalGap = 300.0;
    std::uint64_t arrivalWindow = 500000;
    std::uint64_t churnPeriod = 64;

    // Detection sampling (sim/sampling.hh; rate 1.0 = monitor all).
    std::string sampleMode = "granule";
    double sampleRate = 1.0;
    std::uint64_t sampleSeed = 1;
    Cycle samplePeriod = 65536;

    // Detection-latency telemetry (batch mode; always on in frontier).
    bool latency = false;

    // Frontier mode (overhead-vs-latency sampling-rate sweep).
    bool frontier = false;
    std::string ratesCsv = "1,0.5,0.25,0.125";

    // Telemetry (docs/observability.md).
    bool statsJson = false;
    std::string statsJsonPath;
    Cycle statsInterval = 0;
    std::string intervalsPath;
    std::string traceEvents;
    std::string traceCategories;
    bool traceCategoriesSet = false;

    // Provenance / divergence attribution (src/explain).
    bool explain = false;
    std::string explainPath;

    // Wall-clock self-profiling (hard.profile.v1; strictly separate
    // from the deterministic simulated-cycle telemetry plane).
    bool profile = false;
    std::string profilePath;

    // Fast functional mode (trace-once/replay-many detection).
    std::string modeName = "cycle";
    bool modeSet = false;
    std::string traceCacheDir;
    std::string traceCacheStatsPath;

    // Batch mode (parallel experiment sweeps).
    bool batch = false;
    unsigned jobs = 0; // 0 = all hardware threads
    unsigned runs = 10;
    std::uint64_t batchSeed = 1000;
    std::string jsonPath;

    // Campaign mode (crash-tolerant sharded multi-process sweeps).
    bool campaign = false;
    bool monitor = false;
    unsigned shards = 2;
    unsigned maxUnitRetries = 2;
    std::uint64_t unitTimeoutMs = 0;  // 0 = no per-unit wall budget
    std::uint64_t shardTimeoutMs = 0; // 0 = stall detector off
    std::uint64_t retryBackoffMs = 25;
    std::uint64_t cacheSweepAgeSec = 900;
    std::string injectShardCrash;

    // Failure containment / resume.
    bool keepGoing = false;
    unsigned maxFailures = 0; // 0 = unlimited
    bool resume = false;
    Cycle maxCycles = 0; // 0 = default budget (batch) / unlimited
    Cycle watchdogCycles = 0;
    bool watchdogSet = false;

    /**
     * Flags that also apply to a single run, in the order given —
     * the tail of the exact repro command reported for batch
     * failures.
     */
    std::vector<std::string> reproArgs;

    // Machine shape (defaults = Table 1).
    unsigned cores = 4;
    std::string protocol = "mesi";
    std::uint64_t l1Kb = 16;
    std::uint64_t l2Kb = 1024;
    unsigned lineBytes = 32;
    Cycle memLatency = 200;

    // HARD shape.
    unsigned bloomBits = 16;
    unsigned granularity = 32;
    bool barrierReset = true;
    bool unbounded = false;
};

void
usage()
{
    std::puts(
        "hardsim — HARD lockset race-detection simulator\n"
        "\n"
        "single run:\n"
        "  --list                    list workloads and exit\n"
        "  --workload=<name>         workload to run (single-run mode)\n"
        "  --scale=<f>               workload scale factor (1.0 = paper)\n"
        "  --seed=<n>                workload layout seed\n"
        "  --inject=<seed>           elide one dynamic lock/unlock pair\n"
        "  --detectors=<a,b,...>     hard, ideal, hb, hb-ideal, hybrid,\n"
        "                            fasttrack, djit, racetrack (or\n"
        "                            'none')\n"
        "  --record=<file>           write the run's trace\n"
        "  --replay=<file>           analyze a trace offline instead of\n"
        "                            simulating\n"
        "  --overhead [--directory]  Figure 8-style overhead run (snoopy\n"
        "                            or directory metadata management)\n"
        "  --stats                   dump machine statistics\n"
        "\n"
        "open-loop production scenario (server workload):\n"
        "  --open-loop               drive the server with a seeded\n"
        "                            exponential request-arrival process\n"
        "                            plus connection churn instead of a\n"
        "                            fixed request count\n"
        "  --arrival-gap=<cycles>    mean inter-arrival gap per worker\n"
        "                            thread (300)\n"
        "  --arrival-window=<cycles> arrival window length: each thread\n"
        "                            serves requests arriving within this\n"
        "                            many cycles of think time (500000)\n"
        "  --churn-period=<n>        retire/rebuild one connection and\n"
        "                            migrate the hot set every n requests\n"
        "                            per thread (64; 0 = off)\n"
        "\n"
        "detection sampling (always-on monitoring; single runs, batch\n"
        "and frontier):\n"
        "  --sample-rate=<r>         fraction of data accesses the\n"
        "                            detectors observe, in (0,1]; 1.0\n"
        "                            (default) is byte-identical to an\n"
        "                            unsampled run\n"
        "  --sample-mode=granule|epoch\n"
        "                            granule: seeded per-granule coin\n"
        "                            (reports are a subset of the\n"
        "                            unsampled run's); epoch: duty cycle\n"
        "                            over simulated time (bounds latency)\n"
        "  --sample-seed=<n>         sampling schedule seed (1)\n"
        "  --sample-period=<cycles>  epoch-mode duty-cycle period (65536)\n"
        "\n"
        "frontier mode (overhead-vs-latency sweep; docs/observability.md):\n"
        "  --frontier                sweep sampling rates over one\n"
        "                            workload (default: server): per rate,\n"
        "                            --runs injected runs with detection-\n"
        "                            latency telemetry + one overhead\n"
        "                            unit; writes hard.frontier.v1 to\n"
        "                            --json (or stdout). Effectiveness\n"
        "                            legs default to --mode=fast\n"
        "  --rates=<r1,r2,...>       rates to sweep (1,0.5,0.25,0.125)\n"
        "\n"
        "telemetry (single runs; see docs/observability.md):\n"
        "  --stats-json=<file>       write the full hierarchical stat\n"
        "                            registry as JSON (hard.stats.v1)\n"
        "  --stats-interval=<n>      sample probes every n cycles into a\n"
        "                            JSONL time series (hard.intervals.v1);\n"
        "                            path from --intervals or derived from\n"
        "                            --stats-json\n"
        "  --intervals=<file>        interval time-series output path\n"
        "  --trace-events=<file>     write a Chrome/Perfetto trace_event\n"
        "                            JSON timeline (load in ui.perfetto.dev)\n"
        "  --trace-categories=<csv>  mem,coherence,detector,sync,all\n"
        "                            (default: all)\n"
        "  --explain[=FILE]          record the run's trace and replay\n"
        "                            it through the divergence\n"
        "                            classifier: print per-report\n"
        "                            causal chains plus HARD-vs-exact-\n"
        "                            lockset attribution, and with\n"
        "                            =FILE write hard.explain.v1 JSON\n"
        "                            (also usable with --replay)\n"
        "  --profile[=FILE]          wall-clock self-profile: per-phase\n"
        "                            wall/CPU time, peak RSS, and cache/\n"
        "                            journal counters (hard.profile.v1);\n"
        "                            embedded in the --json document in\n"
        "                            batch mode, written to FILE when\n"
        "                            given, printed otherwise. Never\n"
        "                            changes deterministic outputs\n"
        "\n"
        "fast functional mode (single runs and batch):\n"
        "  --mode=fast|cycle         fast: record each run once at cycle\n"
        "                            level (or fetch the recording from\n"
        "                            the trace cache) and replay it\n"
        "                            through the detectors only — same\n"
        "                            reports, no timing simulation;\n"
        "                            cycle (default): full simulation\n"
        "  --trace-cache=<dir>       content-addressed recording store\n"
        "                            for --mode=fast, shared across\n"
        "                            invocations and --jobs workers\n"
        "  --trace-cache-stats=<file> write the cache's hit/miss/store/\n"
        "                            eviction counters (hard.stats.v1)\n"
        "\n"
        "batch mode (parallel experiment sweeps):\n"
        "  --batch                   run the Table 2-style effectiveness\n"
        "                            sweep: per workload, --runs injected-\n"
        "                            race runs + one race-free run, under\n"
        "                            the --detectors set; with --overhead,\n"
        "                            also a Figure 8 overhead row each\n"
        "  --workload=<a,b|all>      workloads to sweep (default: all)\n"
        "  --jobs=<n>                worker threads (default: all cores);\n"
        "                            results are identical for any n\n"
        "  --runs=<n>                injected-race runs per workload (10)\n"
        "  --inject=<seed0>          base injection seed (1000); run r\n"
        "                            injects with seed0 + r\n"
        "  --json=<file>             write per-run + aggregate results as\n"
        "                            JSON (schema hard.batch.v2)\n"
        "  --keep-going              contain per-run failures: record each\n"
        "                            run's outcome (ok | failed | deadlock\n"
        "                            | budget_exceeded) with a repro\n"
        "                            command and finish the sweep (exit 0)\n"
        "  --max-failures=<n>        with --keep-going: skip remaining\n"
        "                            runs after n failures (exit 1)\n"
        "  --resume                  continue an interrupted sweep from\n"
        "                            <json>.journal.jsonl; the final JSON\n"
        "                            is byte-identical to an uninterrupted\n"
        "                            run at any --jobs value\n"
        "  --stats-json              (batch) embed a hard.stats.v1 block\n"
        "                            per run in the --json document\n"
        "  --explain                 (batch) embed a per-run divergence\n"
        "                            attribution block and a per-item\n"
        "                            aggregate in the --json document\n"
        "  --latency                 (batch) embed a per-run detection-\n"
        "                            latency block (exposure cycle +\n"
        "                            per-detector first-matching-report\n"
        "                            cycle) in the --json document\n"
        "\n"
        "campaign mode (crash-tolerant sharded sweeps; docs/campaigns.md):\n"
        "  --campaign                run the --batch sweep as a supervised\n"
        "                            multi-process campaign: shard\n"
        "                            subprocesses execute disjoint unit\n"
        "                            slices, each journaling to its own\n"
        "                            file; crashed shards are detected,\n"
        "                            their completed units salvaged, and\n"
        "                            the blamed unit retried with backoff\n"
        "                            or quarantined. The merged --json\n"
        "                            document is byte-identical to a\n"
        "                            crash-free single-process sweep.\n"
        "                            Requires --json; implies --batch\n"
        "  --shards=<n>              max concurrent shard processes (2)\n"
        "  --max-unit-retries=<n>    quarantine a unit after it crashes\n"
        "                            its shard n times (2); quarantined\n"
        "                            units are reported and exit status\n"
        "                            is 1\n"
        "  --unit-timeout=<ms>       per-unit host wall-clock budget\n"
        "                            (outcome \"timeout\"; also honored by\n"
        "                            plain --batch); 0 = off\n"
        "  --shard-timeout=<ms>      supervisor-side stall detector: kill\n"
        "                            a shard whose journal stops growing\n"
        "                            for this long; 0 = off\n"
        "  --retry-backoff-ms=<n>    base retry backoff, doubled per\n"
        "                            crash of the same unit (25)\n"
        "  --trace-cache-sweep-age=<sec> age threshold for sweeping\n"
        "                            orphaned trace-cache temp files on\n"
        "                            open (900; 0 = sweep all)\n"
        "  --inject-shard-crash=ITEM.RUN:KIND[:TIMES]\n"
        "                            crash-fault injector (tests/CI):\n"
        "                            SIGKILL the shard processing unit\n"
        "                            ITEM.RUN at KIND = pre-unit |\n"
        "                            mid-journal-write | mid-cache-store,\n"
        "                            at most TIMES times (1)\n"
        "  --monitor                 live campaign monitoring: shards\n"
        "                            heartbeat per completed unit and the\n"
        "                            supervisor publishes an atomically-\n"
        "                            renamed hard.campaign.status.v1 file\n"
        "                            (<json stem>.status.json) with\n"
        "                            progress, throughput, ETA, and retry/\n"
        "                            quarantine rates — watch it live with\n"
        "                            hardtop. Wall-clock plane only: all\n"
        "                            deterministic outputs stay identical\n"
        "\n"
        "failure detection (single runs and batch):\n"
        "  --max-cycles=<n>          cycle budget per run; 0 = unlimited\n"
        "                            for single runs, a workload-scaled\n"
        "                            default for batch runs\n"
        "  --watchdog-cycles=<n>     declare deadlock after n cycles with\n"
        "                            no retired op (default 1000000;\n"
        "                            0 = off)\n"
        "\n"
        "machine shape (defaults = paper Table 1):\n"
        "  --cores=<n>               core count (4)\n"
        "  --l1-kb=<n> --l2-kb=<n>   cache sizes (16, 1024)\n"
        "  --line-bytes=<n>          cache line size (32)\n"
        "  --mem-latency=<cycles>    memory latency (200)\n"
        "  --protocol=mesi|msi       coherence protocol (mesi)\n"
        "\n"
        "HARD shape:\n"
        "  --bloom-bits=<n>          BFVector width (16)\n"
        "  --granularity=<bytes>     monitoring granularity (32)\n"
        "  --barrier-reset=0|1       §3.5 barrier flash-reset (1)\n"
        "  --unbounded               unlimited metadata (no L2 capacity\n"
        "                            eviction)");
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        auto eat = [&](const char *flag, std::string &dst) {
            std::size_t n = std::strlen(flag);
            if (std::strncmp(a, flag, n) == 0) {
                dst = a + n;
                return true;
            }
            return false;
        };
        // Flags meaningful for a single run are replayed verbatim in
        // the repro commands batch mode reports for failed runs.
        static const char *const kSingleRunFlags[] = {
            "--scale=",       "--seed=",        "--detectors=",
            "--cores=",       "--l1-kb=",       "--l2-kb=",
            "--line-bytes=",  "--mem-latency=", "--protocol=",
            "--bloom-bits=",  "--granularity=", "--barrier-reset=",
            "--max-cycles=",  "--watchdog-cycles=",
            "--open-loop",    "--arrival-gap=", "--arrival-window=",
            "--churn-period=",
            "--sample-mode=", "--sample-rate=", "--sample-seed=",
            "--sample-period=",
            "--unbounded",    "--directory",
        };
        for (const char *flag : kSingleRunFlags) {
            std::size_t n = std::strlen(flag);
            bool match = flag[n - 1] == '='
                ? std::strncmp(a, flag, n) == 0
                : std::strcmp(a, flag) == 0;
            if (match) {
                o.reproArgs.push_back(a);
                break;
            }
        }
        std::string v;
        if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) {
            usage();
            std::exit(0);
        } else if (std::strcmp(a, "--list") == 0) {
            o.list = true;
        } else if (eat("--workload=", v)) {
            o.workload = v;
            o.workloadSet = true;
        } else if (std::strcmp(a, "--batch") == 0) {
            o.batch = true;
        } else if (std::strcmp(a, "--campaign") == 0) {
            o.campaign = true;
            o.batch = true;
        } else if (std::strcmp(a, "--monitor") == 0) {
            o.monitor = true;
        } else if (eat("--shards=", v)) {
            o.shards = static_cast<unsigned>(std::atoi(v.c_str()));
            hard_fatal_if(o.shards == 0, "--shards must be positive");
        } else if (eat("--max-unit-retries=", v)) {
            o.maxUnitRetries =
                static_cast<unsigned>(std::atoi(v.c_str()));
            hard_fatal_if(o.maxUnitRetries == 0,
                          "--max-unit-retries must be positive");
        } else if (eat("--unit-timeout=", v)) {
            o.unitTimeoutMs = std::strtoull(v.c_str(), nullptr, 10);
        } else if (eat("--shard-timeout=", v)) {
            o.shardTimeoutMs = std::strtoull(v.c_str(), nullptr, 10);
        } else if (eat("--retry-backoff-ms=", v)) {
            o.retryBackoffMs = std::strtoull(v.c_str(), nullptr, 10);
            hard_fatal_if(o.retryBackoffMs == 0,
                          "--retry-backoff-ms must be positive");
        } else if (eat("--trace-cache-sweep-age=", v)) {
            o.cacheSweepAgeSec = std::strtoull(v.c_str(), nullptr, 10);
        } else if (eat("--inject-shard-crash=", v)) {
            o.injectShardCrash = v;
        } else if (eat("--jobs=", v)) {
            o.jobs = static_cast<unsigned>(std::atoi(v.c_str()));
        } else if (eat("--runs=", v)) {
            o.runs = static_cast<unsigned>(std::atoi(v.c_str()));
            hard_fatal_if(o.runs == 0, "--runs must be positive");
        } else if (eat("--json=", v)) {
            o.jsonPath = v;
        } else if (std::strcmp(a, "--keep-going") == 0) {
            o.keepGoing = true;
        } else if (eat("--max-failures=", v)) {
            o.maxFailures = static_cast<unsigned>(std::atoi(v.c_str()));
        } else if (std::strcmp(a, "--resume") == 0) {
            o.resume = true;
        } else if (eat("--max-cycles=", v)) {
            o.maxCycles = std::strtoull(v.c_str(), nullptr, 10);
        } else if (eat("--watchdog-cycles=", v)) {
            o.watchdogCycles = std::strtoull(v.c_str(), nullptr, 10);
            o.watchdogSet = true;
        } else if (eat("--detectors=", v)) {
            o.detectors = v;
        } else if (eat("--record=", v)) {
            o.record = v;
        } else if (eat("--replay=", v)) {
            o.replay = v;
        } else if (eat("--scale=", v)) {
            o.scale = std::atof(v.c_str());
        } else if (eat("--seed=", v)) {
            o.seed = std::strtoull(v.c_str(), nullptr, 10);
        } else if (eat("--inject=", v)) {
            o.inject = true;
            o.injectSeed = std::strtoull(v.c_str(), nullptr, 10);
        } else if (std::strcmp(a, "--overhead") == 0) {
            o.overhead = true;
        } else if (std::strcmp(a, "--directory") == 0) {
            o.directory = true;
        } else if (std::strcmp(a, "--open-loop") == 0) {
            o.openLoop = true;
        } else if (eat("--arrival-gap=", v)) {
            o.arrivalGap = std::atof(v.c_str());
            hard_fatal_if(o.arrivalGap <= 0.0,
                          "--arrival-gap must be positive");
        } else if (eat("--arrival-window=", v)) {
            o.arrivalWindow = std::strtoull(v.c_str(), nullptr, 10);
            hard_fatal_if(o.arrivalWindow == 0,
                          "--arrival-window must be positive");
        } else if (eat("--churn-period=", v)) {
            o.churnPeriod = std::strtoull(v.c_str(), nullptr, 10);
        } else if (eat("--sample-mode=", v)) {
            o.sampleMode = v;
        } else if (eat("--sample-rate=", v)) {
            o.sampleRate = std::atof(v.c_str());
            hard_fatal_if(!(o.sampleRate > 0.0 && o.sampleRate <= 1.0),
                          "--sample-rate must be in (0, 1]");
        } else if (eat("--sample-seed=", v)) {
            o.sampleSeed = std::strtoull(v.c_str(), nullptr, 10);
        } else if (eat("--sample-period=", v)) {
            o.samplePeriod = std::strtoull(v.c_str(), nullptr, 10);
            hard_fatal_if(o.samplePeriod == 0,
                          "--sample-period must be positive");
        } else if (std::strcmp(a, "--latency") == 0) {
            o.latency = true;
        } else if (std::strcmp(a, "--frontier") == 0) {
            o.frontier = true;
        } else if (eat("--rates=", v)) {
            o.ratesCsv = v;
        } else if (std::strcmp(a, "--stats") == 0) {
            o.stats = true;
        } else if (eat("--stats-json=", v)) {
            o.statsJson = true;
            o.statsJsonPath = v;
        } else if (std::strcmp(a, "--stats-json") == 0) {
            o.statsJson = true;
        } else if (eat("--stats-interval=", v)) {
            o.statsInterval = std::strtoull(v.c_str(), nullptr, 10);
            hard_fatal_if(o.statsInterval == 0,
                          "--stats-interval must be positive");
        } else if (eat("--intervals=", v)) {
            o.intervalsPath = v;
        } else if (eat("--trace-events=", v)) {
            o.traceEvents = v;
        } else if (eat("--trace-categories=", v)) {
            o.traceCategories = v;
            o.traceCategoriesSet = true;
        } else if (eat("--explain=", v)) {
            o.explain = true;
            o.explainPath = v;
        } else if (std::strcmp(a, "--explain") == 0) {
            o.explain = true;
        } else if (eat("--profile=", v)) {
            o.profile = true;
            o.profilePath = v;
        } else if (std::strcmp(a, "--profile") == 0) {
            o.profile = true;
        } else if (eat("--mode=", v)) {
            o.modeName = v;
            o.modeSet = true;
        } else if (eat("--trace-cache=", v)) {
            o.traceCacheDir = v;
        } else if (eat("--trace-cache-stats=", v)) {
            o.traceCacheStatsPath = v;
        } else if (eat("--cores=", v)) {
            o.cores = static_cast<unsigned>(std::atoi(v.c_str()));
        } else if (eat("--l1-kb=", v)) {
            o.l1Kb = std::strtoull(v.c_str(), nullptr, 10);
        } else if (eat("--l2-kb=", v)) {
            o.l2Kb = std::strtoull(v.c_str(), nullptr, 10);
        } else if (eat("--line-bytes=", v)) {
            o.lineBytes = static_cast<unsigned>(std::atoi(v.c_str()));
        } else if (eat("--mem-latency=", v)) {
            o.memLatency = std::strtoull(v.c_str(), nullptr, 10);
        } else if (eat("--protocol=", v)) {
            o.protocol = v;
        } else if (eat("--bloom-bits=", v)) {
            o.bloomBits = static_cast<unsigned>(std::atoi(v.c_str()));
        } else if (eat("--granularity=", v)) {
            o.granularity = static_cast<unsigned>(std::atoi(v.c_str()));
        } else if (eat("--barrier-reset=", v)) {
            o.barrierReset = std::atoi(v.c_str()) != 0;
        } else if (std::strcmp(a, "--unbounded") == 0) {
            o.unbounded = true;
        } else {
            fatal("unknown argument '%s' (try --help)", a);
        }
    }
    return o;
}

SimConfig
makeSimConfig(const Options &o)
{
    SimConfig cfg;
    cfg.memsys.numCores = o.cores;
    cfg.memsys.l1.sizeBytes = o.l1Kb * 1024;
    cfg.memsys.l1.lineBytes = o.lineBytes;
    cfg.memsys.l2.sizeBytes = o.l2Kb * 1024;
    cfg.memsys.l2.lineBytes = o.lineBytes;
    cfg.memsys.memLatency = o.memLatency;
    cfg.maxCycles = o.maxCycles;
    if (o.watchdogSet)
        cfg.watchdogCycles = o.watchdogCycles;
    if (o.protocol == "msi")
        cfg.memsys.protocol = CoherenceProtocol::MSI;
    else if (o.protocol != "mesi")
        fatal("unknown protocol '%s' (mesi, msi)", o.protocol.c_str());
    if (!parseSamplingMode(o.sampleMode, cfg.sampling.mode))
        fatal("unknown sampling mode '%s' (granule, epoch)",
              o.sampleMode.c_str());
    cfg.sampling.rate = o.sampleRate;
    cfg.sampling.seed = o.sampleSeed;
    cfg.sampling.period = o.samplePeriod;
    return cfg;
}

WorkloadParams
makeWorkloadParams(const Options &o)
{
    WorkloadParams params;
    params.scale = o.scale;
    params.seed = o.seed;
    params.openLoop = o.openLoop;
    params.arrivalMeanGap = o.arrivalGap;
    params.openLoopWindow = o.arrivalWindow;
    params.churnPeriod = o.churnPeriod;
    return params;
}

HardConfig
makeHardConfig(const Options &o)
{
    HardConfig cfg;
    cfg.bloomBits = o.bloomBits;
    cfg.granularityBytes = o.granularity;
    cfg.metaGeometry.sizeBytes = o.l2Kb * 1024;
    cfg.metaGeometry.lineBytes = o.lineBytes;
    cfg.barrierReset = o.barrierReset;
    cfg.unbounded = o.unbounded;
    return cfg;
}

std::vector<std::unique_ptr<RaceDetector>>
makeDetectors(const Options &o)
{
    std::vector<std::unique_ptr<RaceDetector>> dets;
    std::stringstream ss(o.detectors);
    std::string name;
    while (std::getline(ss, name, ',')) {
        if (name.empty() || name == "none") {
            continue;
        } else if (name == "hard") {
            dets.push_back(std::make_unique<HardDetector>(
                "hard", makeHardConfig(o)));
        } else if (name == "ideal") {
            dets.push_back(std::make_unique<IdealLocksetDetector>(
                "ideal-lockset", IdealLocksetConfig{}));
        } else if (name == "hb") {
            HbConfig cfg;
            cfg.granularityBytes = o.granularity;
            cfg.metaGeometry.sizeBytes = o.l2Kb * 1024;
            cfg.metaGeometry.lineBytes = o.lineBytes;
            dets.push_back(std::make_unique<HappensBeforeDetector>(
                "happens-before", cfg));
        } else if (name == "hb-ideal") {
            dets.push_back(std::make_unique<HappensBeforeDetector>(
                "happens-before-ideal", HbConfig::ideal()));
        } else if (name == "hybrid") {
            dets.push_back(std::make_unique<HybridDetector>(
                "hybrid", makeHardConfig(o)));
        } else if (name == "fasttrack") {
            dets.push_back(
                std::make_unique<FastTrackDetector>("fasttrack", 4));
        } else if (name == "djit") {
            dets.push_back(
                std::make_unique<DjitPlusDetector>("djit-plus", 4));
        } else if (name == "racetrack") {
            dets.push_back(std::make_unique<RaceTrackDetector>(
                "racetrack", RaceTrackConfig{}));
        } else {
            fatal("unknown detector '%s' (hard, ideal, hb, hb-ideal, "
                  "hybrid, fasttrack, djit, racetrack)",
                  name.c_str());
        }
    }
    return dets;
}

/**
 * --batch: fan the (workload x run x detector-set) sweep out across a
 * RunPool and print Table 2-style effectiveness rows (plus Figure
 * 8-style overhead rows with --overhead), optionally dumping the full
 * per-run results as JSON.
 */
int
runBatchMode(const Options &o, ExecMode mode, TraceCache *cache)
{
    const WorkloadParams params = makeWorkloadParams(o);

    // Workload list: explicit comma list, or every paper workload.
    std::vector<std::string> apps;
    if (o.workloadSet && o.workload != "all") {
        std::stringstream ss(o.workload);
        std::string name;
        while (std::getline(ss, name, ','))
            if (!name.empty())
                apps.push_back(name);
    } else {
        for (const WorkloadInfo &w : allWorkloads())
            apps.push_back(w.name);
    }
    hard_fatal_if(apps.empty(), "batch: no workloads selected");

    DetectorFactory factory = [o] { return makeDetectors(o); };

    // Stable column order = the factory's emission order.
    std::vector<std::string> det_names;
    for (const auto &d : factory())
        det_names.push_back(d->name());
    hard_fatal_if(det_names.empty(),
                  "batch: --detectors=none leaves nothing to measure");

    const std::uint64_t seed0 = o.inject ? o.injectSeed : o.batchSeed;

    std::vector<BatchItem> items;
    for (const std::string &app : apps) {
        BatchItem item;
        item.workload = app;
        item.wp = params;
        item.sim = makeSimConfig(o);
        item.factory = factory;
        item.runs = o.runs;
        item.seed0 = seed0;
        item.overhead = o.overhead;
        item.directory = o.directory;
        item.hardCfg = makeHardConfig(o);
        item.collectStats = o.statsJson;
        item.collectExplain = o.explain;
        item.collectLatency = o.latency;
        item.mode = mode;
        item.traceCache = cache;
        item.reproBase = "hardsim --workload=" + app;
        for (const std::string &arg : o.reproArgs)
            item.reproBase += " " + arg;
        items.push_back(std::move(item));
    }

    // Canonical description of this sweep; a journal written under a
    // different signature cannot be resumed into this one.
    std::string signature = "apps=";
    for (std::size_t i = 0; i < apps.size(); ++i)
        signature += (i ? "," : "") + apps[i];
    signature += ";runs=" + std::to_string(o.runs);
    signature += ";seed0=" + std::to_string(seed0);
    signature += ";overhead=" + std::to_string(o.overhead ? 1 : 0);
    // Stats-bearing journals can't be resumed into stats-less sweeps
    // (and vice versa): the payloads differ.
    if (o.statsJson)
        signature += ";stats=1";
    // Same rule for explain-bearing journals.
    if (o.explain)
        signature += ";explain=1";
    // And for latency-bearing journals.
    if (o.latency)
        signature += ";latency=1";
    // Fast-mode journals are unit-for-unit interchangeable with cycle
    // journals (identical payloads), but the mode is part of what the
    // sweep *was*; cycle sweeps omit the field so their signatures are
    // byte-identical to pre-fast-mode ones.
    if (mode == ExecMode::Fast)
        signature += ";mode=fast";
    // A per-unit wall budget changes what a journaled "timeout"
    // outcome meant, so sweeps with different budgets refuse to
    // resume each other.
    if (o.unitTimeoutMs != 0)
        signature += ";unit-timeout=" + std::to_string(o.unitTimeoutMs);
    for (const std::string &arg : o.reproArgs)
        signature += ";" + arg;

    hard_throw_if(o.resume && o.jsonPath.empty(), ConfigError,
                  "--resume requires --json=<file> (the journal lives "
                  "next to the JSON output)");
    std::vector<BatchItemResult> results;
    CampaignResult camp;
    if (o.campaign) {
        hard_throw_if(o.jsonPath.empty(), ConfigError,
                      "--campaign requires --json=<file> (shard "
                      "journals and the manifest live next to the JSON "
                      "output)");
        CampaignOptions copts;
        copts.shards = o.shards;
        copts.maxUnitRetries = o.maxUnitRetries;
        copts.backoffBaseMs = o.retryBackoffMs;
        copts.shardStallTimeoutMs = o.shardTimeoutMs;
        copts.outputBase = o.jsonPath;
        copts.signature = signature;
        copts.resume = o.resume;
        copts.monitor = o.monitor;
        if (!o.injectShardCrash.empty())
            copts.injectCrash = parseCrashSpec(o.injectShardCrash);
        copts.quarantinePayload = [&items](const JournalKey &key,
                                           unsigned attempts) {
            return batchQuarantinePayload(items, key, attempts);
        };
        const std::vector<JournalKey> units = batchCampaignUnits(items);
        std::printf("campaign: %zu unit(s) over up to %u shard "
                    "process(es), max %u crash(es)/unit, seed0=%llu\n\n",
                    units.size(), o.shards, o.maxUnitRetries,
                    static_cast<unsigned long long>(seed0));
        camp = runCampaign(
            units, copts,
            makeBatchShardBody(items, o.unitTimeoutMs, cache));
        // Deterministic merge: every unit is restored from the merged
        // shard journals (plus synthesized quarantined payloads), so
        // nothing re-runs here and the document written below is
        // byte-identical to a crash-free single-process sweep.
        BatchOptions merge;
        merge.keepGoing = true;
        merge.restored = &camp.entries;
        RunPool serial(1);
        results = runBatch(items, serial, merge);
    } else {
        BatchOptions bopts;
        bopts.keepGoing = o.keepGoing;
        bopts.maxFailures = o.maxFailures;
        bopts.unitTimeoutMs = o.unitTimeoutMs;
        std::unique_ptr<BatchJournal> journal;
        JournalEntries restored;
        if (!o.jsonPath.empty()) {
            const std::string jpath = journalPathFor(o.jsonPath);
            if (o.resume) {
                restored = loadJournal(jpath, signature);
                bopts.restored = &restored;
                std::printf("resuming: %zu unit(s) restored from %s\n",
                            restored.size(), jpath.c_str());
            }
            journal = std::make_unique<BatchJournal>(jpath, signature,
                                                     o.resume);
            bopts.journal = journal.get();
        }

        RunPool pool(o.jobs);
        std::printf(
            "batch: %zu workload(s) x (%u injected + 1 race-free) "
            "runs x %zu detector(s) on %u worker(s), seed0=%llu\n\n",
            apps.size(), o.runs, det_names.size(), pool.jobs(),
            static_cast<unsigned long long>(seed0));
        results = runBatch(items, pool, bopts);
    }

    Table t("Batch effectiveness (bugs detected out of attempted runs; "
            "race-free-run false alarms)");
    std::vector<std::string> header{"Application"};
    for (const std::string &d : det_names) {
        header.push_back(d + " bugs");
        header.push_back(d + " FAs");
    }
    t.setHeader(header);
    for (const BatchItemResult &res : results) {
        std::vector<std::string> row{res.label};
        for (const std::string &d : det_names) {
            // An item whose runs all failed has no score for d.
            auto it = res.effectiveness.find(d);
            if (it == res.effectiveness.end()) {
                row.push_back("-");
                row.push_back("-");
                continue;
            }
            const DetectorScore &s = it->second;
            row.push_back(std::to_string(s.bugsDetected) + "/" +
                          std::to_string(s.runsAttempted));
            row.push_back(std::to_string(s.falseAlarms));
        }
        t.addRow(row);
    }
    std::fputs(t.render().c_str(), stdout);

    if (o.overhead) {
        Table oh(std::string("Batch overhead (") +
                 (o.directory ? "directory" : "snoopy") +
                 " metadata management)");
        oh.setHeader({"Application", "Base cycles", "HARD cycles",
                      "Overhead %", "Meta bytes", "Data bytes"});
        for (const BatchItemResult &res : results) {
            if (!res.haveOverhead) {
                oh.addRow({res.label,
                           res.overheadOutcome.empty()
                               ? "-"
                               : res.overheadOutcome,
                           "-", "-", "-", "-"});
                continue;
            }
            char pct[32];
            std::snprintf(pct, sizeof(pct), "%.2f", res.overhead.overheadPct);
            oh.addRow({res.label, std::to_string(res.overhead.baseCycles),
                       std::to_string(res.overhead.hardCycles), pct,
                       std::to_string(res.overhead.metaBytes),
                       std::to_string(res.overhead.dataBytes)});
        }
        std::fputs("\n", stdout);
        std::fputs(oh.render().c_str(), stdout);
    }

    // Per-failure report with exact single-run repro commands, and
    // the exit status: failures contained by --keep-going still exit
    // 0 (the sweep itself succeeded); an aborted sweep
    // (--max-failures) exits 1.
    unsigned failed = 0, skipped = 0;
    for (const BatchItemResult &res : results) {
        for (const EffectivenessRun &run : res.runDetail) {
            if (run.outcome == "skipped") {
                ++skipped;
            } else if (!run.ok()) {
                ++failed;
                std::printf("\n%s run %u: %s (%s)\n  %s\n  repro: %s\n",
                            res.label.c_str(), run.index,
                            run.outcome.c_str(), run.errorType.c_str(),
                            run.errorMessage.c_str(),
                            reproCommand(
                                res,
                                static_cast<std::int64_t>(run.index))
                                .c_str());
            }
        }
        if (res.overheadOutcome == "skipped") {
            ++skipped;
        } else if (!res.overheadOutcome.empty() &&
                   res.overheadOutcome != "ok") {
            ++failed;
            std::printf("\n%s overhead: %s (%s)\n  %s\n  repro: %s\n",
                        res.label.c_str(), res.overheadOutcome.c_str(),
                        res.overheadErrorType.c_str(),
                        res.overheadErrorMessage.c_str(),
                        reproCommand(res, -1).c_str());
        }
    }
    if (failed != 0 || skipped != 0)
        std::printf("\nbatch: %u unit(s) failed, %u skipped\n", failed,
                    skipped);

    if (o.campaign) {
        const CampaignCounters &cc = camp.counters;
        std::printf("\ncampaign: %llu shard(s) spawned, %llu exited "
                    "ok, %llu crashed (%llu stalled), %llu unit "
                    "retry(ies), %llu restored, %llu injected "
                    "crash(es)\n",
                    static_cast<unsigned long long>(cc.shardsSpawned),
                    static_cast<unsigned long long>(cc.shardExitsOk),
                    static_cast<unsigned long long>(cc.shardCrashes),
                    static_cast<unsigned long long>(cc.shardStalls),
                    static_cast<unsigned long long>(cc.retries),
                    static_cast<unsigned long long>(cc.restored),
                    static_cast<unsigned long long>(
                        cc.injectedCrashes));
        for (const JournalKey &key : camp.quarantined) {
            const BatchItemResult &res = results[key.first];
            const std::string unit = key.second == -1
                ? std::string("overhead")
                : std::to_string(key.second);
            std::printf("campaign: QUARANTINED %s unit %s after %u "
                        "shard crash(es)\n  repro: %s\n",
                        res.label.c_str(), unit.c_str(),
                        camp.attempts.at(key),
                        reproCommand(res, key.second).c_str());
        }
        std::printf("campaign report written to %s\n",
                    campaignManifestPathFor(o.jsonPath).c_str());
    }

    if (!o.jsonPath.empty()) {
        Json doc = batchJson(results, mode);
        // Stats-collecting sweeps also carry the harness's own group;
        // stats-off dumps stay byte-identical to pre-telemetry output.
        if (o.statsJson)
            doc.set("harnessStats", harnessStatsJson(results));
        // The wall-clock profile rides along as the last top-level
        // key; without --profile the document is byte-identical to a
        // profile-less build's output.
        if (Profiler::active() != nullptr)
            doc.set("profile", Profiler::active()->toJson());
        writeJsonFile(o.jsonPath, doc);
        std::printf("\nresults written to %s\n", o.jsonPath.c_str());
    }

    if (cache != nullptr) {
        const TraceCache::Counters c = cache->counters();
        std::printf("\ntrace cache %s: %llu hit(s), %llu miss(es), "
                    "%llu store(s), %llu corrupt + %llu stale "
                    "eviction(s)\n",
                    cache->dir().c_str(),
                    static_cast<unsigned long long>(c.hits),
                    static_cast<unsigned long long>(c.misses),
                    static_cast<unsigned long long>(c.stores),
                    static_cast<unsigned long long>(c.evictedCorrupt),
                    static_cast<unsigned long long>(c.evictedStale));
    }
    if (!o.traceCacheStatsPath.empty()) {
        writeJsonFile(o.traceCacheStatsPath, cache->statsJson());
        std::printf("trace-cache stats written to %s\n",
                    o.traceCacheStatsPath.c_str());
    }
    // A campaign that had to quarantine units did not fully complete
    // the sweep — surface that in the exit status.
    if (o.campaign && !camp.quarantined.empty())
        return 1;
    return skipped != 0 ? 1 : 0;
}

/**
 * --frontier: sweep detection-sampling rates over one workload and
 * emit the overhead-vs-latency frontier (hard.frontier.v1).
 */
int
runFrontierMode(const Options &o, ExecMode mode, TraceCache *cache)
{
    FrontierOptions fo;
    fo.workload = o.workloadSet ? o.workload : "server";
    fo.wp = makeWorkloadParams(o);
    fo.sim = makeSimConfig(o);
    fo.hardCfg = makeHardConfig(o);
    if (!parseSamplingMode(o.sampleMode, fo.sampleMode))
        fatal("unknown sampling mode '%s' (granule, epoch)",
              o.sampleMode.c_str());
    fo.sampleSeed = o.sampleSeed;
    fo.samplePeriod = o.samplePeriod;
    fo.runs = o.runs;
    fo.seed0 = o.inject ? o.injectSeed : o.batchSeed;
    fo.effMode = mode;
    fo.traceCache = cache;
    fo.directory = o.directory;

    fo.rates.clear();
    std::stringstream ss(o.ratesCsv);
    std::string tok;
    while (std::getline(ss, tok, ','))
        if (!tok.empty())
            fo.rates.push_back(std::atof(tok.c_str()));

    BatchOptions bopts;
    bopts.keepGoing = o.keepGoing;
    bopts.maxFailures = o.maxFailures;
    bopts.unitTimeoutMs = o.unitTimeoutMs;

    RunPool pool(o.jobs);
    std::printf("frontier: %s, %zu rate(s), (%u injected + 1 race-free) "
                "runs + 1 overhead unit each, %s sampling, %s "
                "effectiveness legs, %u worker(s)\n\n",
                fo.workload.c_str(), fo.rates.size(), o.runs,
                samplingModeName(fo.sampleMode), execModeName(mode),
                pool.jobs());
    const Json doc = runFrontier(fo, pool, bopts);

    Table t("Overhead-vs-latency frontier (" + fo.workload + ", " +
            std::string(samplingModeName(fo.sampleMode)) + " sampling)");
    t.setHeader({"Rate", "Coverage", "Latency p50", "Latency max",
                 "Overhead %", "Bus occ %", "Reports/Mcyc"});
    for (std::size_t i = 0; i < doc["points"].size(); ++i) {
        const Json &p = doc["points"].at(i);
        // First detector of the point (frontier default: "hard").
        const auto &dets = p["detectors"].members();
        char rate[32], cov[32], ovh[32], bus[32], rpm[32];
        std::snprintf(rate, sizeof(rate), "%g", p["rate"].asDouble());
        std::string p50 = "-", max = "-";
        if (!dets.empty()) {
            const Json &d = dets.front().second;
            std::snprintf(cov, sizeof(cov), "%.2f",
                          d["coverage"].asDouble());
            const Json &lat = d["latency"];
            if (lat["samples"].asUint() > 0) {
                p50 = std::to_string(lat["p50Cycles"].asInt());
                max = std::to_string(lat["maxCycles"].asInt());
            }
        } else {
            std::snprintf(cov, sizeof(cov), "-");
        }
        if (p.has("overhead")) {
            const Json &ov = p["overhead"];
            std::snprintf(ovh, sizeof(ovh), "%.2f",
                          ov["overheadPct"].asDouble());
            std::snprintf(bus, sizeof(bus), "%.2f",
                          ov["busOccupancyPct"].asDouble());
            std::snprintf(rpm, sizeof(rpm), "%.2f",
                          ov["reportsPerMcycle"].asDouble());
        } else {
            std::snprintf(ovh, sizeof(ovh), "-");
            std::snprintf(bus, sizeof(bus), "-");
            std::snprintf(rpm, sizeof(rpm), "-");
        }
        t.addRow({rate, cov, p50, max, ovh, bus, rpm});
    }
    std::fputs(t.render().c_str(), stdout);

    if (!o.jsonPath.empty()) {
        writeJsonFile(o.jsonPath, doc);
        std::printf("\nfrontier written to %s\n", o.jsonPath.c_str());
    } else {
        std::fputs("\n", stdout);
        std::fputs(doc.dump(2).c_str(), stdout);
        std::fputs("\n", stdout);
    }
    return 0;
}

void
printReports(const std::vector<std::unique_ptr<RaceDetector>> &dets,
             const std::vector<std::string> &site_names,
             const Injection *inj, const std::set<SiteId> *true_sites)
{
    std::printf("\n%-22s %8s %12s %10s\n", "detector", "alarms",
                "dynamic", inj ? "bug found" : "");
    for (const auto &d : dets) {
        std::string found;
        if (inj != nullptr && true_sites != nullptr) {
            found = detectedInjection(d->sink(), *inj, *true_sites)
                ? "YES"
                : "no";
        }
        std::printf("%-22s %8zu %12llu %10s\n", d->name().c_str(),
                    d->sink().distinctSiteCount(),
                    static_cast<unsigned long long>(
                        d->sink().dynamicCount()),
                    found.c_str());
    }
    for (const auto &d : dets) {
        if (d->sink().sites().empty())
            continue;
        std::printf("\n%s sites:\n", d->name().c_str());
        for (SiteId s : d->sink().sites()) {
            std::printf("  %s\n",
                        s < site_names.size() ? site_names[s].c_str()
                                              : "<unknown>");
        }
    }
}

/** --explain: classify one recorded trace and emit the results. */
void
runExplain(const Options &o, const Trace &trace,
           const std::string &workload)
{
    ExplainConfig ec;
    ec.subject = ExplainConfig::Subject::Hard;
    ec.hard = makeHardConfig(o);
    ExplainResult res = [&] {
        ScopedPhase phase("run.explain");
        return explainTrace(trace, ec);
    }();
    std::fputs("\n", stdout);
    std::fputs(renderExplain(res, trace).c_str(), stdout);
    if (!o.explainPath.empty()) {
        writeJsonFile(o.explainPath, explainJson(res, trace, workload));
        std::printf("explain written to %s\n", o.explainPath.c_str());
    }
}

/**
 * Emit the wall-clock profile at process end: to --profile=FILE when
 * a path was given, otherwise (when no batch JSON already embeds it)
 * as a compact stdout summary of the top-level phases.
 */
void
emitProfile(const Options &o)
{
    Profiler *prof = Profiler::active();
    if (prof == nullptr)
        return;
    if (!o.profilePath.empty()) {
        writeJsonFile(o.profilePath, prof->toJson());
        std::printf("profile written to %s\n", o.profilePath.c_str());
        return;
    }
    if (o.batch && !o.jsonPath.empty())
        return; // already embedded in the batch document
    Json doc = prof->toJson();
    std::printf("\nprofile (%s): wall %.3f s, cpu %.3f s, peak rss "
                "%llu KB\n",
                doc["schema"].asString().c_str(),
                doc["wallSeconds"].asDouble(),
                doc["cpuSeconds"].asDouble(),
                static_cast<unsigned long long>(
                    doc["peakRssBytes"].asUint() / 1024));
    const std::function<void(const Json &, const std::string &)> walk =
        [&](const Json &node, const std::string &prefix) {
            for (const auto &[name, child] : node.members()) {
                const std::string path =
                    prefix.empty() ? name : prefix + "." + name;
                if (child.has("wallSeconds"))
                    std::printf("  %-32s %8llu call(s) %10.3f s wall\n",
                                path.c_str(),
                                static_cast<unsigned long long>(
                                    child["calls"].asUint()),
                                child["wallSeconds"].asDouble());
                if (child.has("phases"))
                    walk(child["phases"], path);
            }
        };
    walk(doc["phases"], "");
}

} // namespace

/** Body of main(); SimErrors propagate to the wrapper below. */
int
runMain(const Options &o)
{
    if (o.list) {
        for (const WorkloadInfo &w : allWorkloads())
            std::printf("%-16s %s\n", w.name, w.description);
        for (const WorkloadInfo &w : extensionWorkloads())
            std::printf("%-16s [extension] %s\n", w.name, w.description);
        for (const WorkloadInfo &w : faultWorkloads())
            std::printf("%-16s %s\n", w.name, w.description);
        return 0;
    }

    // Fast functional mode: record-once/replay-many detection. The
    // frontier defaults to fast effectiveness legs (one recording
    // shared across every sampling rate) unless --mode says otherwise.
    const ExecMode mode = (o.frontier && !o.modeSet)
        ? ExecMode::Fast
        : parseExecMode(o.modeName);
    hard_fatal_if((!o.traceCacheDir.empty() ||
                   !o.traceCacheStatsPath.empty()) &&
                      mode != ExecMode::Fast,
                  "--trace-cache/--trace-cache-stats require "
                  "--mode=fast");
    hard_fatal_if(!o.traceCacheStatsPath.empty() &&
                      o.traceCacheDir.empty(),
                  "--trace-cache-stats requires --trace-cache=DIR");
    hard_fatal_if(!o.frontier && mode == ExecMode::Fast && o.overhead,
                  "--mode=fast cannot measure overhead (Figure 8 needs "
                  "cycle-level timing; use --mode=cycle)");
    hard_fatal_if(mode == ExecMode::Fast &&
                      (!o.record.empty() || !o.replay.empty()),
                  "--mode=fast manages its own recordings; --record/"
                  "--replay are cycle-mode flags");
    hard_fatal_if(mode == ExecMode::Fast &&
                      (o.stats || o.statsJson || o.statsInterval != 0 ||
                       !o.traceEvents.empty()),
                  "--mode=fast simulates no machine on a cache hit; "
                  "machine stats and telemetry need --mode=cycle");
    std::unique_ptr<TraceCache> cache;
    if (!o.traceCacheDir.empty())
        cache = std::make_unique<TraceCache>(o.traceCacheDir,
                                             o.cacheSweepAgeSec);

    if (o.frontier) {
        hard_fatal_if(o.batch,
                      "--frontier is its own sweep driver; drop "
                      "--batch/--campaign");
        hard_fatal_if(o.resume, "--frontier does not support --resume");
        hard_fatal_if(!o.record.empty() || !o.replay.empty(),
                      "--frontier manages its own recordings; --record/"
                      "--replay are single-run flags");
        hard_fatal_if(o.overhead,
                      "--frontier always measures overhead per rate; "
                      "drop --overhead");
        return runFrontierMode(o, mode, cache.get());
    }
    hard_fatal_if(o.latency && !o.batch,
                  "--latency is a batch-mode flag (frontier mode "
                  "collects it implicitly)");

    if (o.batch) {
        hard_fatal_if(o.statsInterval != 0 || !o.traceEvents.empty() ||
                          !o.intervalsPath.empty(),
                      "batch mode supports --stats-json only (interval "
                      "sampling and event tracing are single-run)");
        hard_fatal_if(o.statsJson && !o.statsJsonPath.empty(),
                      "batch --stats-json takes no =FILE (stats embed in "
                      "the --json document)");
        hard_fatal_if(o.explain && !o.explainPath.empty(),
                      "batch --explain takes no =FILE (attribution "
                      "embeds in the --json document)");
        return runBatchMode(o, mode, cache.get());
    }

    // Single-run telemetry: validate the flag combinations up front.
    hard_fatal_if(o.statsJson && o.statsJsonPath.empty(),
                  "single-run --stats-json requires =FILE");
    hard_fatal_if(o.traceCategoriesSet && o.traceEvents.empty(),
                  "--trace-categories requires --trace-events=FILE");
    hard_fatal_if(o.statsInterval != 0 && o.intervalsPath.empty() &&
                      o.statsJsonPath.empty(),
                  "--stats-interval needs an output path: give "
                  "--intervals=FILE or --stats-json=FILE (the time "
                  "series lands next to it)");
    const bool telemetry = o.statsJson || o.statsInterval != 0 ||
        !o.traceEvents.empty();
    hard_fatal_if(telemetry && !o.replay.empty(),
                  "trace replay drives detectors without a System; "
                  "telemetry flags are not supported with --replay");
    hard_fatal_if(telemetry && o.overhead,
                  "telemetry flags are not supported with --overhead "
                  "(use --batch --overhead --stats-json --json=FILE "
                  "for overhead stats)");
    hard_fatal_if(o.explain && o.overhead,
                  "--explain is not supported with --overhead (it "
                  "analyzes a recorded detector run)");

    const WorkloadParams params = makeWorkloadParams(o);

    if (o.overhead) {
        SimConfig sim = makeSimConfig(o);
        OverheadResult oh = o.directory
            ? measureOverheadDirectory(o.workload, params, sim,
                                       makeHardConfig(o))
            : measureOverhead(o.workload, params, sim,
                              makeHardConfig(o));
        std::printf("%s (%s metadata management): baseline %llu "
                    "cycles, HARD %llu cycles -> %.2f%% overhead\n"
                    "broadcasts/round-trips %llu, metadata %llu B, "
                    "data %llu B\n",
                    o.workload.c_str(),
                    o.directory ? "directory" : "snoopy",
                    static_cast<unsigned long long>(oh.baseCycles),
                    static_cast<unsigned long long>(oh.hardCycles),
                    oh.overheadPct,
                    static_cast<unsigned long long>(oh.metaBroadcasts),
                    static_cast<unsigned long long>(oh.metaBytes),
                    static_cast<unsigned long long>(oh.dataBytes));
        return 0;
    }

    auto dets = makeDetectors(o);
    std::vector<AccessObserver *> observers;
    for (auto &d : dets)
        observers.push_back(d.get());

    // Detection sampling wraps each detector in the deterministic
    // duty-cycle schedule; rate 1.0 attaches the raw detectors, so
    // unsampled runs are byte-identical to pre-sampling builds.
    const SamplingSpec sampling = makeSimConfig(o).sampling;
    std::vector<std::unique_ptr<SamplingObserver>> sampled;
    if (sampling.active()) {
        for (AccessObserver *&obs : observers) {
            sampled.push_back(
                std::make_unique<SamplingObserver>(*obs, sampling));
            obs = sampled.back().get();
        }
    }

    if (!o.replay.empty()) {
        Trace trace = readTrace(o.replay);
        std::printf("replaying %s: %zu events, %u threads\n",
                    o.replay.c_str(), trace.events.size(),
                    trace.threadCount());
        {
            ScopedPhase phase("run.replay");
            replayTrace(trace, observers);
        }
        printReports(dets, trace.siteNames, nullptr, nullptr);
        if (o.explain)
            runExplain(o, trace, "");
        return 0;
    }

    Program prog = buildWorkload(o.workload, params);
    Injection inj;
    std::set<SiteId> true_sites;
    if (o.inject) {
        SharedMap shared(buildWorkload(o.workload, params));
        inj = injectRace(prog, o.injectSeed, &shared);
        hard_fatal_if(!inj.valid, "no injectable critical section");
        true_sites = sitesTouching(prog, inj);
        std::printf("injected race: elided dynamic lock/unlock pair "
                    "#%zu (lock %llx, thread %u)\n",
                    inj.dynamicIndex,
                    static_cast<unsigned long long>(inj.lock), inj.tid);
    }

    if (mode == ExecMode::Fast) {
        // Record once (or fetch the recording) and drive the
        // detectors from the trace alone; reports are bit-identical
        // to the cycle-mode run below.
        const SimConfig cfg = makeSimConfig(o);
        const TraceKey key = makeRunKey(
            o.workload, params, cfg,
            o.inject ? static_cast<std::int64_t>(o.injectSeed) : -1);
        Trace trace;
        bool hit = false;
        if (cache) {
            std::optional<Trace> cached = cache->lookup(key);
            if (cached) {
                trace = std::move(*cached);
                hit = true;
            }
        }
        if (!hit) {
            {
                ScopedPhase phase("run.record");
                trace = recordRun(prog, cfg);
            }
            if (cache)
                cache->store(key, trace);
        }
        std::printf("%s: fast mode (%s): %zu events, %u threads\n",
                    prog.name.c_str(),
                    hit ? "cache hit" : "recorded", trace.events.size(),
                    trace.threadCount());
        {
            ScopedPhase phase("run.replay");
            replayTrace(trace, observers);
        }
        printReports(dets, trace.siteNames, o.inject ? &inj : nullptr,
                     o.inject ? &true_sites : nullptr);
        if (o.explain)
            runExplain(o, trace, prog.name);
        if (!o.traceCacheStatsPath.empty()) {
            writeJsonFile(o.traceCacheStatsPath, cache->statsJson());
            std::printf("trace-cache stats written to %s\n",
                        o.traceCacheStatsPath.c_str());
        }
        return 0;
    }

    System sys(makeSimConfig(o), prog);

    // Telemetry attaches before the detectors so their probes and
    // trace hooks register as each observer is added.
    std::unique_ptr<EventTracer> tracer;
    if (!o.traceEvents.empty()) {
        tracer = std::make_unique<EventTracer>(
            o.traceEvents, parseTraceCategories(o.traceCategories));
        sys.setTracer(tracer.get());
    }
    std::unique_ptr<IntervalSampler> sampler;
    std::string intervals_path;
    if (o.statsInterval != 0) {
        intervals_path = o.intervalsPath.empty()
            ? intervalsPathFor(o.statsJsonPath)
            : o.intervalsPath;
        sampler = std::make_unique<IntervalSampler>(intervals_path,
                                                    o.statsInterval);
        sys.setSampler(sampler.get());
    }

    std::unique_ptr<TraceRecorder> recorder;
    if (!o.record.empty() || o.explain) {
        recorder = std::make_unique<TraceRecorder>(prog);
        sys.addObserver(recorder.get());
    }
    for (AccessObserver *obs : observers)
        sys.addObserver(obs);

    RunResult res = [&] {
        ScopedPhase phase("run.simulate");
        return sys.run();
    }();
    std::printf("%s: %llu cycles, %llu reads, %llu writes, %llu lock "
                "acquires, %llu barrier episodes\n",
                prog.name.c_str(),
                static_cast<unsigned long long>(res.totalCycles),
                static_cast<unsigned long long>(res.dataReads),
                static_cast<unsigned long long>(res.dataWrites),
                static_cast<unsigned long long>(res.lockAcquires),
                static_cast<unsigned long long>(res.barrierEpisodes));

    Trace trace;
    if (recorder)
        trace = recorder->take();
    if (!o.record.empty()) {
        writeTrace(o.record, trace);
        std::printf("trace written to %s\n", o.record.c_str());
    }

    std::vector<std::string> site_names;
    for (SiteId s = 0; s < prog.sites.size(); ++s)
        site_names.push_back(prog.sites.name(s));
    printReports(dets, site_names, o.inject ? &inj : nullptr,
                 o.inject ? &true_sites : nullptr);

    if (o.explain)
        runExplain(o, trace, prog.name);

    if (o.stats) {
        std::printf("\nmachine statistics:\n");
        for (const auto &[name, value] : sys.statsDump())
            std::printf("  %-28s %llu\n", name.c_str(),
                        static_cast<unsigned long long>(value));
    }

    if (o.statsJson) {
        writeJsonFile(o.statsJsonPath, sys.statsJson());
        std::printf("stats written to %s\n", o.statsJsonPath.c_str());
    }
    if (sampler)
        std::printf("interval samples written to %s\n",
                    intervals_path.c_str());
    if (tracer) {
        tracer->write();
        std::printf("%zu trace events written to %s\n", tracer->size(),
                    o.traceEvents.c_str());
    }
    return 0;
}

int
main(int argc, char **argv)
{
    try {
        Options o = parse(argc, argv);
        hard_fatal_if(o.monitor && !o.campaign,
                      "--monitor requires --campaign (it reads shard "
                      "heartbeats)");
        // Enable before any work so every phase lands in the profile.
        // Profiling lives on the wall-clock plane: deterministic
        // outputs are byte-identical with or without it.
        if (o.profile)
            Profiler::enable();
        const int rc = runMain(o);
        emitProfile(o);
        return rc;
    } catch (const SimError &e) {
        std::fprintf(stderr, "hardsim: %s: %s\n", e.typeName(), e.what());
        return 1;
    }
}
