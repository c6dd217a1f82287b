/**
 * @file
 * Two-plane determinism: the wall-clock observability plane (the
 * --profile profiler, campaign heartbeats, the live status file) may
 * observe but must never perturb a deterministic byte. These tests
 * lock that contract: batch/fuzz JSON, journal files, and campaign
 * merges are byte-identical with profiling and monitoring on or off,
 * at any worker/shard count, even across an injected mid-journal-write
 * shard crash.
 *
 * (The complementary direction — the profile block itself appears only
 * at the front-end layer, never in library output — is implicit: the
 * documents compared here come straight from batchJson()/fuzzJson(),
 * which a profiled run leaves untouched.)
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "fuzz/runner.hh"
#include "harness/batch.hh"
#include "harness/campaign.hh"
#include "harness/experiment.hh"
#include "harness/journal.hh"
#include "harness/run_pool.hh"
#include "telemetry/profile.hh"

namespace hard
{
namespace
{

/** Turn the process-global profiler on for one scope; disable() in
 * the destructor drops all recorded data so tests stay independent. */
struct ProfilerGuard
{
    ProfilerGuard() { Profiler::enable(); }
    ~ProfilerGuard() { Profiler::disable(); }
};

WorkloadParams
tinyParams()
{
    WorkloadParams p;
    p.scale = 0.04;
    return p;
}

/** Two items; the second measures overhead (run == -1) and the first
 * runs in fast mode so the replay's per-detector block timing is on
 * the replay path. */
std::vector<BatchItem>
profileItems()
{
    std::vector<BatchItem> items;
    for (const char *app : {"barnes", "water-nsquared"}) {
        BatchItem item;
        item.workload = app;
        item.wp = tinyParams();
        item.sim = defaultSimConfig();
        item.factory = table2Detectors();
        item.runs = 2;
        item.seed0 = 700;
        items.push_back(std::move(item));
    }
    items[0].mode = ExecMode::Fast;
    items[1].overhead = true;
    return items;
}

std::string
batchDump(const std::vector<BatchItem> &items, unsigned jobs,
          BatchJournal *journal = nullptr)
{
    RunPool pool(jobs);
    BatchOptions opts;
    opts.keepGoing = true;
    opts.journal = journal;
    return batchJson(runBatch(items, pool, opts), ExecMode::Cycle)
        .dump(2);
}

std::string
slurp(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    std::string text;
    if (f != nullptr) {
        char buf[4096];
        std::size_t n;
        while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
            text.append(buf, n);
        std::fclose(f);
    }
    return text;
}

/** Fresh per-test output base; removes leftovers from prior runs. */
std::string
tempBase(const char *name)
{
    const std::string base = ::testing::TempDir() + name + ".json";
    const std::filesystem::path dir =
        std::filesystem::path(base).parent_path();
    for (const auto &e : std::filesystem::directory_iterator(dir)) {
        const std::string leaf = e.path().filename().string();
        if (leaf.rfind(name, 0) == 0)
            std::filesystem::remove(e.path());
    }
    return base;
}

TEST(ProfileNeutrality, BatchJsonByteIdenticalAtAnyJobCount)
{
    const std::vector<BatchItem> items = profileItems();
    const std::string reference = batchDump(items, 1);
    // The profile block attaches at the front-end layer only; library
    // output must not even mention it.
    EXPECT_EQ(reference.find("\"profile\""), std::string::npos);

    ProfilerGuard guard;
    for (unsigned jobs : {1u, 4u}) {
        EXPECT_EQ(batchDump(items, jobs), reference)
            << "profiler on, jobs=" << jobs;
    }
    // The profiled runs actually profiled: replay/record phases and
    // per-detector dispatch all landed in the tree.
    Profiler *prof = Profiler::active();
    ASSERT_NE(prof, nullptr);
    EXPECT_GE(prof->phase("batch.unit.replay").calls, 1u);
    EXPECT_GE(prof->phase("batch.unit.record").calls, 1u);
    EXPECT_GE(prof->phase("batch.unit.simulate").calls, 1u);
    EXPECT_GE(prof->phase("batch.unit.detector.hard.default").calls,
              1u);
}

TEST(ProfileNeutrality, JournalBytesIdenticalProfilerOnOff)
{
    const std::vector<BatchItem> items = profileItems();
    const char *const signature = "profile-neutrality-journal";

    const std::string off_path = tempBase("hard_profneut_journal_off");
    {
        BatchJournal journal(off_path, signature, false);
        batchDump(items, 2, &journal);
    }

    const std::string on_path = tempBase("hard_profneut_journal_on");
    {
        ProfilerGuard guard;
        BatchJournal journal(on_path, signature, false);
        // A heartbeat-style append hook must also leave the journal
        // bytes alone (it observes appends, it doesn't shape them).
        unsigned beats = 0;
        journal.setAppendHook(
            [&beats](const JournalKey &, const Json &) { ++beats; });
        batchDump(items, 2, &journal);
        EXPECT_EQ(beats, batchCampaignUnits(items).size());
    }

    // Journals are JSONL in unit-completion order, which is
    // nondeterministic at jobs=2 — compare as sorted line sets.
    auto lines = [](const std::string &text) {
        std::vector<std::string> out;
        std::size_t pos = 0;
        while (pos < text.size()) {
            std::size_t eol = text.find('\n', pos);
            if (eol == std::string::npos)
                eol = text.size();
            out.push_back(text.substr(pos, eol - pos));
            pos = eol + 1;
        }
        std::sort(out.begin(), out.end());
        return out;
    };
    EXPECT_EQ(lines(slurp(off_path)), lines(slurp(on_path)));
}

TEST(ProfileNeutrality, FuzzJsonByteIdenticalProfilerOnOff)
{
    FuzzOptions opts;
    opts.seeds = {0, 1, 2, 3};
    opts.jobs = 2;
    opts.gen.maxOps = 10;
    opts.gen.maxPhases = 2;
    opts.minimize = false;

    const std::string reference =
        fuzzJson(opts, runFuzzSeeds(opts)).dump(2);
    EXPECT_EQ(reference.find("\"profile\""), std::string::npos);

    ProfilerGuard guard;
    EXPECT_EQ(fuzzJson(opts, runFuzzSeeds(opts)).dump(2), reference);
    Profiler *prof = Profiler::active();
    ASSERT_NE(prof, nullptr);
    EXPECT_GE(prof->phase("fuzz.seed.generate").calls, 4u);
    EXPECT_GE(prof->phase("fuzz.seed.simulate").calls, 4u);
}

TEST(ProfileNeutrality, MonitoredCampaignWithMidWriteCrashConverges)
{
    const std::vector<BatchItem> items = profileItems();
    const char *const signature = "profile-neutrality-campaign";

    // Reference: crash-free, monitor-off, single process.
    std::string reference;
    {
        RunPool serial(1);
        BatchOptions opts;
        opts.keepGoing = true;
        reference =
            batchJson(runBatch(items, serial, opts), ExecMode::Cycle)
                .dump(2);
    }

    // Monitored + profiled campaign with a shard SIGKILLed halfway
    // through fwrite()ing a journal record: the merged document must
    // still be byte-identical, while the wall-clock plane (status
    // file, heartbeats) appears alongside.
    const std::string base = tempBase("hard_profneut_campaign");
    ProfilerGuard guard;
    CampaignOptions copts;
    copts.shards = 2;
    copts.maxUnitRetries = 3;
    copts.backoffBaseMs = 1;
    copts.outputBase = base;
    copts.signature = signature;
    copts.monitor = true;
    copts.statusIntervalMs = 0; // publish every supervisor iteration
    copts.injectCrash = parseCrashSpec("0.1:mid-journal-write");
    copts.quarantinePayload = [&items](const JournalKey &key,
                                       unsigned attempts) {
        return batchQuarantinePayload(items, key, attempts);
    };
    CampaignResult camp =
        runCampaign(batchCampaignUnits(items), copts,
                    makeBatchShardBody(items, 0, nullptr));
    BatchOptions merge;
    merge.keepGoing = true;
    merge.restored = &camp.entries;
    RunPool serial(1);
    EXPECT_EQ(
        batchJson(runBatch(items, serial, merge), ExecMode::Cycle)
            .dump(2),
        reference);
    EXPECT_TRUE(camp.quarantined.empty());
    EXPECT_GE(camp.counters.shardCrashes, 1u);

    // The status file exists, parses, and reports a finished
    // campaign; initial + final publishes guarantee sequence >= 2.
    const std::string status_path = campaignStatusPathFor(base);
    std::string err;
    const Json status = Json::parse(slurp(status_path), &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(status["schema"].asString(), kCampaignStatusSchema);
    EXPECT_EQ(status["state"].asString(), "complete");
    EXPECT_GE(status["sequence"].asUint(), 2u);
    EXPECT_EQ(status["units"]["total"].asUint(),
              batchCampaignUnits(items).size());
    EXPECT_EQ(status["units"]["pending"].asUint(), 0u);
    EXPECT_EQ(status["units"]["inFlight"].asUint(), 0u);

    // At least the first spawned shard heartbeat its progress.
    EXPECT_TRUE(std::filesystem::exists(shardHeartbeatPathFor(base, 0)));
}

TEST(ProfileNeutrality, MonitorOffPublishesNoWallClockFiles)
{
    const std::vector<BatchItem> items = profileItems();
    const std::string base = tempBase("hard_profneut_nomonitor");
    CampaignOptions copts;
    copts.shards = 2;
    copts.outputBase = base;
    copts.signature = "profile-neutrality-nomonitor";
    copts.quarantinePayload = [&items](const JournalKey &key,
                                       unsigned attempts) {
        return batchQuarantinePayload(items, key, attempts);
    };
    runCampaign(batchCampaignUnits(items), copts,
                makeBatchShardBody(items, 0, nullptr));
    EXPECT_FALSE(std::filesystem::exists(campaignStatusPathFor(base)));
    EXPECT_FALSE(
        std::filesystem::exists(shardHeartbeatPathFor(base, 0)));
}

TEST(ProfileNeutrality, ProfileDocumentShape)
{
    ProfilerGuard guard;
    {
        ScopedPhase outer("shape.outer");
        ScopedPhase inner("shape.outer.inner");
    }
    profileCount("shape.bytes", 42);

    const Json doc = Profiler::active()->toJson();
    EXPECT_EQ(doc["schema"].asString(), "hard.profile.v1");
    EXPECT_GE(doc["wallSeconds"].asDouble(), 0.0);
    EXPECT_GE(doc["cpuSeconds"].asDouble(), 0.0);
    EXPECT_GT(doc["peakRssBytes"].asUint(), 0u);
    const Json &outer = doc["phases"]["shape"]["phases"]["outer"];
    EXPECT_EQ(outer["calls"].asUint(), 1u);
    EXPECT_EQ(
        outer["phases"]["inner"]["calls"].asUint(), 1u);
    EXPECT_EQ(doc["counters"]["shape.bytes"].asUint(), 42u);
}

} // namespace
} // namespace hard
