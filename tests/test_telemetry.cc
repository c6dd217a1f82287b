/**
 * @file
 * End-to-end telemetry tests: attaching a sampler/tracer must not
 * perturb the simulation (zero-cost-when-disabled is really
 * zero-effect-when-enabled for the simulated machine), the interval
 * JSONL series and trace_event JSON must be well-formed and
 * deterministic, category masks must filter tracer output, and batch
 * results with embedded stats must stay byte-identical across worker
 * counts (and stats-free without collectStats).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/batch.hh"
#include "harness/experiment.hh"
#include "sim/system.hh"
#include "telemetry/sampler.hh"
#include "telemetry/stat_registry.hh"
#include "telemetry/trace_event.hh"
#include "workloads/registry.hh"

namespace hard
{
namespace
{

WorkloadParams
tinyParams()
{
    WorkloadParams wp;
    wp.scale = 0.04;
    return wp;
}

std::string
tempPath(const char *name)
{
    std::string path = ::testing::TempDir() + name;
    std::remove(path.c_str());
    return path;
}

std::vector<std::string>
readLines(const std::string &path)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

/** Run barnes once, optionally with full telemetry attached. */
RunResult
runInstrumented(bool telemetry, std::size_t *detector_sites,
                std::uint64_t *detector_dynamic,
                const std::string &trace_path = "",
                const std::string &intervals_path = "")
{
    Program prog = buildWorkload("barnes", tinyParams());
    System sys(defaultSimConfig(), prog);

    std::unique_ptr<EventTracer> tracer;
    std::unique_ptr<IntervalSampler> sampler;
    if (telemetry) {
        tracer = std::make_unique<EventTracer>(
            trace_path.empty() ? tempPath("telemetry_unused.trace.json")
                               : trace_path,
            kTraceAll);
        sys.setTracer(tracer.get());
        sampler = std::make_unique<IntervalSampler>(
            intervals_path.empty()
                ? tempPath("telemetry_unused.intervals.jsonl")
                : intervals_path,
            5000);
        sys.setSampler(sampler.get());
    }

    HardDetector hard("hard", HardConfig{});
    sys.addObserver(&hard);
    RunResult res = sys.run();
    hard.finalize();
    if (detector_sites != nullptr)
        *detector_sites = hard.sink().distinctSiteCount();
    if (detector_dynamic != nullptr)
        *detector_dynamic = hard.sink().dynamicCount();
    if (tracer)
        tracer->write();
    return res;
}

TEST(Telemetry, AttachingTelemetryDoesNotPerturbTheSimulation)
{
    std::size_t sites_off = 0, sites_on = 0;
    std::uint64_t dyn_off = 0, dyn_on = 0;
    RunResult off = runInstrumented(false, &sites_off, &dyn_off);
    RunResult on = runInstrumented(true, &sites_on, &dyn_on);

    EXPECT_EQ(off.totalCycles, on.totalCycles);
    EXPECT_EQ(off.dataReads, on.dataReads);
    EXPECT_EQ(off.dataWrites, on.dataWrites);
    EXPECT_EQ(off.lockAcquires, on.lockAcquires);
    EXPECT_EQ(off.barrierEpisodes, on.barrierEpisodes);
    EXPECT_EQ(sites_off, sites_on);
    EXPECT_EQ(dyn_off, dyn_on);
}

TEST(Telemetry, IntervalSeriesIsWellFormedAndCoversTheRun)
{
    const std::string path = tempPath("telemetry_run.intervals.jsonl");
    RunResult res = runInstrumented(true, nullptr, nullptr, "", path);

    std::vector<std::string> lines = readLines(path);
    ASSERT_GE(lines.size(), 2u); // header + at least the final row

    std::string err;
    Json header = Json::parse(lines[0], &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(header["schema"].asString(), "hard.intervals.v1");
    EXPECT_EQ(header["interval"].asUint(), 5000u);
    EXPECT_GT(header["probes"].size(), 0u);

    std::uint64_t prev_cycle = 0;
    for (std::size_t i = 1; i < lines.size(); ++i) {
        Json row = Json::parse(lines[i], &err);
        ASSERT_TRUE(err.empty()) << "row " << i << ": " << err;
        std::uint64_t cycle = row["cycle"].asUint();
        EXPECT_GT(cycle, prev_cycle) << "row " << i;
        prev_cycle = cycle;
    }
    // The closing row lands exactly on the end-of-run cycle.
    EXPECT_EQ(prev_cycle, res.totalCycles);
}

TEST(Telemetry, IntervalSeriesIsDeterministic)
{
    const std::string a = tempPath("telemetry_det_a.intervals.jsonl");
    const std::string b = tempPath("telemetry_det_b.intervals.jsonl");
    runInstrumented(true, nullptr, nullptr, "", a);
    runInstrumented(true, nullptr, nullptr, "", b);
    EXPECT_EQ(readLines(a), readLines(b));
}

TEST(Telemetry, TraceEventsAreWellFormed)
{
    const std::string path = tempPath("telemetry_run.trace.json");
    runInstrumented(true, nullptr, nullptr, path);

    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    std::string err;
    Json doc = Json::parse(buf.str(), &err);
    ASSERT_TRUE(err.empty()) << err;

    const Json &events = doc["traceEvents"];
    ASSERT_GT(events.size(), 0u);
    bool saw_complete = false, saw_instant = false, saw_meta = false;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const Json &e = events.at(i);
        const std::string ph = e["ph"].asString();
        if (ph == "X") {
            saw_complete = true;
            EXPECT_TRUE(e.has("dur"));
        } else if (ph == "i") {
            saw_instant = true;
        } else if (ph == "M") {
            saw_meta = true;
            continue; // metadata events carry no cat
        }
        if (ph != "M") {
            EXPECT_FALSE(e["cat"].asString().empty());
        }
    }
    EXPECT_TRUE(saw_complete); // bus transactions / cache misses
    EXPECT_TRUE(saw_instant);  // sync events
    EXPECT_TRUE(saw_meta);     // track names
}

TEST(Telemetry, CategoryMaskFiltersEvents)
{
    Program prog = buildWorkload("barnes", tinyParams());

    auto count_with_mask = [&prog](unsigned mask) {
        System sys(defaultSimConfig(), prog);
        EventTracer tracer(::testing::TempDir() +
                               "telemetry_mask.trace.json",
                           mask);
        sys.setTracer(&tracer);
        HardDetector hard("hard", HardConfig{});
        sys.addObserver(&hard);
        sys.run();
        return tracer.size();
    };

    std::size_t all = count_with_mask(kTraceAll);
    std::size_t sync_only = count_with_mask(kTraceSync);
    std::size_t mem_only = count_with_mask(kTraceMem);
    EXPECT_GT(all, sync_only);
    EXPECT_GT(all, mem_only);
    EXPECT_GT(sync_only, 0u);
    EXPECT_GT(mem_only, 0u);
}

TEST(Telemetry, ParseTraceCategories)
{
    EXPECT_EQ(parseTraceCategories(""), kTraceAll);
    EXPECT_EQ(parseTraceCategories("all"), kTraceAll);
    EXPECT_EQ(parseTraceCategories("mem"), kTraceMem);
    EXPECT_EQ(parseTraceCategories("mem,sync"), kTraceMem | kTraceSync);
    EXPECT_EQ(parseTraceCategories("coherence,detector"),
              kTraceCoherence | kTraceDetector);
}

std::vector<BatchItem>
statsItems(bool collect)
{
    std::vector<BatchItem> items;
    BatchItem item;
    item.workload = "barnes";
    item.wp = tinyParams();
    item.sim = defaultSimConfig();
    item.factory = table2Detectors();
    item.runs = 2;
    item.seed0 = 900;
    item.overhead = true;
    item.collectStats = collect;
    items.push_back(std::move(item));
    return items;
}

TEST(Telemetry, BatchStatsAreByteIdenticalAcrossWorkerCounts)
{
    RunPool pool1(1), pool8(8);
    const std::string serial =
        batchJson(runBatch(statsItems(true), pool1)).dump();
    const std::string parallel =
        batchJson(runBatch(statsItems(true), pool8)).dump();
    EXPECT_EQ(serial, parallel);

    // The embedded blocks are really there and carry the schema tag.
    std::string err;
    Json doc = Json::parse(serial, &err);
    ASSERT_TRUE(err.empty()) << err;
    const Json &run0 =
        doc["items"].at(0)["effectiveness"]["perRun"].at(0);
    EXPECT_EQ(run0["stats"]["schema"].asString(), "hard.stats.v1");
    const Json &oh = doc["items"].at(0)["overhead"];
    EXPECT_EQ(oh["baseStats"]["schema"].asString(), "hard.stats.v1");
    EXPECT_EQ(oh["hardStats"]["schema"].asString(), "hard.stats.v1");
    // The embedded snapshot agrees with the flat overhead fields.
    EXPECT_EQ(statFromJson(oh["hardStats"], "bus", "dataBytes"),
              oh["dataBytes"].asUint());
    EXPECT_EQ(statFromJson(oh["hardStats"], "detector.hard",
                           "metaBroadcasts"),
              oh["metaBroadcasts"].asUint());
}

TEST(Telemetry, BatchWithoutCollectStatsEmbedsNothing)
{
    RunPool pool(2);
    const std::string dump =
        batchJson(runBatch(statsItems(false), pool)).dump();
    EXPECT_EQ(dump.find("\"stats\""), std::string::npos);
    EXPECT_EQ(dump.find("baseStats"), std::string::npos);
    EXPECT_EQ(dump.find("hardStats"), std::string::npos);
}

TEST(Telemetry, HarnessStatsCountUnits)
{
    RunPool pool(2);
    Json hs = harnessStatsJson(runBatch(statsItems(true), pool));
    EXPECT_EQ(hs["schema"].asString(), "hard.stats.v1");
    // 1 item: (2 injected + 1 race-free) effectiveness runs + 1
    // overhead unit, all ok.
    EXPECT_EQ(statFromJson(hs, "harness", "items"), 1u);
    EXPECT_EQ(statFromJson(hs, "harness", "effectivenessRuns"), 3u);
    EXPECT_EQ(statFromJson(hs, "harness", "overheadUnits"), 1u);
    EXPECT_EQ(statFromJson(hs, "harness", "unitsTotal"), 4u);
    EXPECT_EQ(statFromJson(hs, "harness", "unitsOk"), 4u);
    EXPECT_EQ(statFromJson(hs, "harness", "unitsFailed"), 0u);
}

TEST(Telemetry, StatsRoundTripThroughRunJson)
{
    RunPool pool(2);
    std::vector<BatchItemResult> results =
        runBatch(statsItems(true), pool);
    const EffectivenessRun &run = results[0].runDetail[0];
    ASSERT_FALSE(run.stats.isNull());

    EffectivenessRun back = effectivenessRunFromJson(toJson(run));
    EXPECT_EQ(back.stats.dump(), run.stats.dump());

    OverheadResult oh = overheadFromJson(toJson(results[0].overhead));
    EXPECT_EQ(oh.baseStats.dump(), results[0].overhead.baseStats.dump());
    EXPECT_EQ(oh.hardStats.dump(), results[0].overhead.hardStats.dump());
}

} // namespace
} // namespace hard
