/**
 * @file
 * Detection-sampling contracts (sim/sampling.hh):
 *
 *  - granule decisions nest across rates (lowering r only removes
 *    granules), the mechanism that makes sampled overhead monotone;
 *  - epoch duty cycles are deterministic and proportional to r;
 *  - a block mixing sampled-out accesses with sync events reaches the
 *    inner observer as the same sequence per-event filtering gives;
 *  - rate 1.0 is byte-identical to an unsampled run, whatever the
 *    other sampling fields say (active() gates every call site);
 *  - sampled sweeps are deterministic at any --jobs;
 *  - a granule-sampled per-granule-independent detector reports a
 *    subset of its unsampled twin (the fuzzer's sampled-subset
 *    invariants, exercised here both directly and through
 *    runFuzzSeeds);
 *  - the sampled legs stay out of default fuzz documents and
 *    signatures (conditional-field byte identity).
 */

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "detectors/happens_before.hh"
#include "detectors/ideal_lockset.hh"
#include "fuzz/generator.hh"
#include "fuzz/invariants.hh"
#include "fuzz/runner.hh"
#include "harness/batch.hh"
#include "harness/experiment.hh"
#include "harness/run_pool.hh"
#include "sim/sampling.hh"
#include "trace/record.hh"
#include "trace/replayer.hh"

namespace hard
{
namespace
{

TEST(SamplingSpec, GranuleDecisionsNestAcrossRates)
{
    const std::vector<double> rates = {0.05, 0.25, 0.5, 0.9, 1.0};
    SamplingSpec spec;
    spec.mode = SamplingSpec::Mode::granule;
    spec.seed = 42;
    for (Addr addr = 0; addr < 64 * 1024; addr += 13) {
        bool prev = false;
        for (double rate : rates) {
            spec.rate = rate;
            const bool on = sampleGranule(spec, addr);
            EXPECT_TRUE(!prev || on)
                << "addr " << addr << ": monitored at a lower rate "
                << "but not at rate " << rate;
            prev = on;
        }
        EXPECT_TRUE(prev) << "rate 1.0 must monitor every granule";
    }
}

TEST(SamplingSpec, GranuleRateIsHonoredApproximately)
{
    SamplingSpec spec;
    spec.rate = 0.25;
    spec.seed = 7;
    unsigned on = 0;
    const unsigned granules = 20000;
    for (unsigned g = 0; g < granules; ++g)
        if (sampleGranule(spec, static_cast<Addr>(g) * spec.granuleBytes))
            ++on;
    const double got = static_cast<double>(on) / granules;
    EXPECT_NEAR(got, 0.25, 0.02);
}

TEST(SamplingSpec, EpochDutyCycleDeterministicAndProportional)
{
    SamplingSpec spec;
    spec.mode = SamplingSpec::Mode::epoch;
    spec.rate = 0.3;
    spec.seed = 9;
    spec.period = 1000;
    unsigned on = 0;
    for (Cycle at = 0; at < spec.period; ++at) {
        const bool a = sampleEpoch(spec, at);
        EXPECT_EQ(a, sampleEpoch(spec, at)); // pure function
        EXPECT_EQ(a, sampleEpoch(spec, at + spec.period)); // periodic
        if (a)
            ++on;
    }
    // Exactly ceil(r * period) on-cycles per period.
    EXPECT_EQ(on, 300u);
}

/** Keeps every event handed to it, and how many onEvents() calls. */
struct EventLog final : AccessObserver
{
    std::vector<Event> events;
    unsigned calls = 0;

    void
    onEvents(std::span<const Event> evs) override
    {
        ++calls;
        events.insert(events.end(), evs.begin(), evs.end());
    }
};

TEST(SamplingObserverBlocks, MixedBlockMatchesPerEventFiltering)
{
    SamplingSpec spec;
    spec.rate = 0.5;
    spec.seed = 3;
    // Accesses to 64 granules, a sync event after every third one.
    std::vector<Event> block;
    const EventKind sync[] = {EventKind::LockAcquire, EventKind::Barrier,
                              EventKind::SemaPost, EventKind::RwRdRelease};
    for (unsigned i = 0; i < 64; ++i) {
        Event ev;
        ev.kind = i % 2 ? EventKind::Write : EventKind::Read;
        ev.tid = i % 4;
        ev.addr = 0x10000 + i * spec.granuleBytes;
        ev.size = 4;
        ev.at = block.size();
        block.push_back(ev);
        if (i % 3 == 2) {
            Event s;
            s.kind = sync[i % 4];
            s.tid = i % 4;
            s.addr = 0x900;
            s.at = block.size();
            block.push_back(s);
        }
    }

    EventLog whole, single;
    SamplingObserver whole_tap(whole, spec);
    SamplingObserver single_tap(single, spec);
    whole_tap.onEvents(block);
    for (const Event &ev : block)
        single_tap.onEvents({&ev, 1});

    std::vector<Event> expect;
    unsigned dropped = 0;
    for (const Event &ev : block) {
        if (!ev.isAccess() || sampleGranule(spec, ev.addr))
            expect.push_back(ev);
        else
            ++dropped;
    }
    ASSERT_GT(dropped, 0u);
    ASSERT_LT(dropped, 64u);
    EXPECT_EQ(whole.events, expect);
    EXPECT_EQ(single.events, expect);
    // One call per maximal run of kept events, never one per event.
    EXPECT_LE(whole.calls, dropped + 1);
    EXPECT_LT(whole.calls, expect.size());
}

WorkloadParams
tinyParams()
{
    WorkloadParams p;
    p.scale = 0.04;
    return p;
}

std::vector<BatchItem>
sampledItems(const SamplingSpec &spec)
{
    std::vector<BatchItem> items;
    for (const char *app : {"barnes", "water-nsquared"}) {
        BatchItem item;
        item.workload = app;
        item.wp = tinyParams();
        item.sim = defaultSimConfig();
        item.sim.sampling = spec;
        item.factory = table2Detectors();
        item.runs = 2;
        item.seed0 = 900;
        items.push_back(std::move(item));
    }
    return items;
}

std::string
batchDump(const std::vector<BatchItem> &items, unsigned jobs)
{
    RunPool pool(jobs);
    BatchOptions opts;
    opts.keepGoing = true;
    return batchJson(runBatch(items, pool, opts), ExecMode::Cycle)
        .dump(2);
}

TEST(SamplingBatch, RateOneByteIdenticalToUnsampled)
{
    const std::string reference = batchDump(sampledItems({}), 2);

    // Rate 1.0 with every other sampling field changed: active() is
    // false, so no wrapper attaches and no byte can move.
    SamplingSpec one;
    one.mode = SamplingSpec::Mode::epoch;
    one.rate = 1.0;
    one.seed = 999;
    one.period = 128;
    EXPECT_EQ(batchDump(sampledItems(one), 2), reference);
}

TEST(SamplingBatch, SampledSweepDeterministicAtAnyJobs)
{
    SamplingSpec spec;
    spec.rate = 0.5;
    spec.seed = 3;
    const std::string reference = batchDump(sampledItems(spec), 1);
    EXPECT_EQ(batchDump(sampledItems(spec), 4), reference);

    // And the schedule is a real degree of freedom: a different seed
    // at the same rate yields a different document.
    SamplingSpec other = spec;
    other.seed = 4;
    EXPECT_NE(batchDump(sampledItems(other), 1), reference);
}

/** Record one fuzz program and return (full, sampled) report keys of
 * an ideal-lockset + ideal-HB pair replayed over it. */
void
replayFullAndSampled(std::uint64_t seed, const SamplingSpec &spec,
                     KeySet &idealFull, KeySet &idealSampled,
                     KeySet &hbFull, KeySet &hbSampled)
{
    FuzzGenConfig gen;
    gen.maxOps = 24;
    gen.maxPhases = 3;
    const Program prog = generateFuzzProgram(seed, gen);
    const Trace trace = recordRun(prog, fuzzSimConfig(prog));

    IdealLocksetConfig ic;
    IdealLocksetDetector full("ideal", ic), part("ideal-sampled", ic);
    HappensBeforeDetector hbf("hb", HbConfig::ideal()),
        hbp("hb-sampled", HbConfig::ideal());
    SamplingObserver idealTap(part, spec), hbTap(hbp, spec);
    replayTrace(trace, {&full, &hbf, &idealTap, &hbTap});
    for (RaceDetector *d :
         std::vector<RaceDetector *>{&full, &part, &hbf, &hbp})
        d->finalize();
    idealFull = reportKeys(full.sink());
    idealSampled = reportKeys(part.sink());
    hbFull = reportKeys(hbf.sink());
    hbSampled = reportKeys(hbp.sink());
}

TEST(SamplingSubset, GranuleSampledReportsAreSubsetOfUnsampled)
{
    SamplingSpec spec;
    spec.rate = 0.4;
    spec.seed = 11;
    std::size_t full_total = 0, sampled_total = 0;
    for (std::uint64_t seed = 0; seed < 12; ++seed) {
        KeySet idealFull, idealSampled, hbFull, hbSampled;
        replayFullAndSampled(seed, spec, idealFull, idealSampled,
                             hbFull, hbSampled);
        for (const ReportKey &k : idealSampled)
            EXPECT_TRUE(idealFull.count(k))
                << "seed " << seed << ": sampled ideal report not in "
                << "the unsampled set";
        for (const ReportKey &k : hbSampled)
            EXPECT_TRUE(hbFull.count(k))
                << "seed " << seed << ": sampled HB report not in the "
                << "unsampled set";
        full_total += idealFull.size() + hbFull.size();
        sampled_total += idealSampled.size() + hbSampled.size();
    }
    // Sampling at 0.4 actually sheds coverage somewhere across the
    // seeds — the subset is proper, not vacuous.
    EXPECT_GT(full_total, 0u);
    EXPECT_LT(sampled_total, full_total);
}

TEST(SamplingFuzz, SampledInvariantsHoldAcrossSeeds)
{
    FuzzOptions opts;
    opts.seeds = {0, 1, 2, 3, 4, 5};
    opts.jobs = 2;
    opts.gen.maxOps = 16;
    opts.gen.maxPhases = 2;
    opts.minimize = false;
    opts.cfg.sampleRate = 0.5;
    opts.cfg.sampleSeed = 5;

    const std::vector<SeedResult> results = runFuzzSeeds(opts);
    for (const SeedResult &sr : results) {
        EXPECT_EQ(sr.outcome, "ok") << "seed " << sr.seed;
        EXPECT_TRUE(sr.detectorKeys.count("ideal-lockset-sampled"));
        EXPECT_TRUE(sr.detectorKeys.count("happens-before-sampled"));
    }

    const std::string doc = fuzzJson(opts, results).dump(2);
    EXPECT_NE(doc.find("sampled-subset-of-ideal"), std::string::npos);
    EXPECT_NE(doc.find("\"sample_rate\""), std::string::npos);
    EXPECT_NE(fuzzSignature(opts).find(";sample-rate=0.5:5"),
              std::string::npos);
}

TEST(SamplingFuzz, DefaultSweepCarriesNoSamplingFields)
{
    FuzzOptions opts;
    opts.seeds = {0, 1};
    opts.gen.maxOps = 10;
    opts.gen.maxPhases = 2;
    opts.minimize = false;

    const std::vector<SeedResult> results = runFuzzSeeds(opts);
    const std::string doc = fuzzJson(opts, results).dump(2);
    EXPECT_EQ(doc.find("sample"), std::string::npos);
    EXPECT_EQ(fuzzSignature(opts).find("sample"), std::string::npos);
    for (const SeedResult &sr : results)
        EXPECT_FALSE(sr.detectorKeys.count("ideal-lockset-sampled"));
}

} // namespace
} // namespace hard
