/**
 * @file
 * Replay lanes: a replay spread over L lanes hands every observer the
 * same events as a one-lane replay, so reports, dynamic counts and
 * stats are equal at any L; an observer's exception never stops the
 * others, and the lowest-index one is rethrown after every lane is
 * joined; RunPool divides the host's thread budget among its workers;
 * and a one-lane replay creates no thread.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sched.h>

#include "core/hard_detector.hh"
#include "core/hybrid.hh"
#include "detectors/djit_plus.hh"
#include "detectors/fasttrack.hh"
#include "detectors/happens_before.hh"
#include "detectors/ideal_lockset.hh"
#include "detectors/racetrack.hh"
#include "fuzz/invariants.hh"
#include "harness/experiment.hh"
#include "harness/run_pool.hh"
#include "sim/sampling.hh"
#include "telemetry/stat_registry.hh"
#include "trace/record.hh"
#include "trace/replayer.hh"
#include "workloads/builder.hh"
#include "workloads/injector.hh"
#include "workloads/registry.hh"

namespace hard
{
namespace
{

/** The eight detectors of the sync battery, in battery order. */
std::vector<std::unique_ptr<RaceDetector>>
eightDetectors()
{
    std::vector<std::unique_ptr<RaceDetector>> d;
    d.push_back(std::make_unique<HardDetector>("hard.default", HardConfig{}));
    d.push_back(std::make_unique<IdealLocksetDetector>(
        "hard.ideal", IdealLocksetConfig{}));
    d.push_back(
        std::make_unique<HappensBeforeDetector>("hb.default", HbConfig{}));
    d.push_back(std::make_unique<HappensBeforeDetector>(
        "hb.ideal", HbConfig::ideal()));
    d.push_back(std::make_unique<HybridDetector>("hybrid", HardConfig{}));
    d.push_back(std::make_unique<FastTrackDetector>("fasttrack", 4));
    d.push_back(std::make_unique<DjitPlusDetector>("djit", 4));
    d.push_back(
        std::make_unique<RaceTrackDetector>("racetrack", RaceTrackConfig{}));
    return d;
}

/** One injected run of a workload, recorded once. */
struct Recording
{
    Program prog;
    Injection inj;
    std::set<SiteId> trueSites;
    Trace trace;
    std::string bytes; ///< serializeTrace(trace)
};

Recording
record(const std::string &workload, double scale)
{
    WorkloadParams wp;
    wp.scale = scale;
    Recording r{buildWorkload(workload, wp), {}, {}, {}, {}};
    const SharedMap shared(r.prog);
    r.inj = injectRace(r.prog, 1000, &shared);
    r.trueSites = sitesTouching(r.prog, r.inj);
    r.trace = recordRun(r.prog, defaultSimConfig());
    r.bytes = serializeTrace(r.trace);
    return r;
}

/** Everything a replay leaves behind that must not depend on L. */
struct Outcome
{
    std::vector<KeySet> keys;
    std::vector<std::uint64_t> dynamic;
    std::string stats;
    std::int64_t exposeCycle = -1;

    bool operator==(const Outcome &) const = default;
};

/**
 * Replay @p r on @p lanes lanes into the eight detectors, a
 * granule-sampled ideal lockset and an exposure probe; packed replays
 * decode the serialized trace, the others walk the event vector.
 */
Outcome
replayOnLanes(const Recording &r, unsigned lanes, bool packed)
{
    std::vector<std::unique_ptr<RaceDetector>> dets = eightDetectors();
    dets.push_back(std::make_unique<IdealLocksetDetector>(
        "ideal.sampled", IdealLocksetConfig{}));
    SamplingSpec spec;
    spec.rate = 0.5;
    spec.seed = 7;
    SamplingObserver sampled(*dets.back(), spec);
    ExposureObserver exposure(r.inj, r.trueSites);

    std::vector<AccessObserver *> obs;
    for (std::size_t i = 0; i + 1 < dets.size(); ++i)
        obs.push_back(dets[i].get());
    obs.push_back(&sampled);
    obs.push_back(&exposure);

    ReplayOptions opts;
    opts.lanes = lanes;
    std::size_t n = 0;
    if (packed) {
        PackedTraceView view;
        std::string err;
        EXPECT_TRUE(openPackedTrace(r.bytes, &view, &err)) << err;
        n = replayPacked(view, obs, opts);
    } else {
        n = replayTrace(r.trace, obs, opts);
    }
    EXPECT_EQ(n, r.trace.events.size());

    Outcome out;
    StatRegistry registry;
    for (auto &d : dets) {
        d->finalize();
        out.keys.push_back(reportKeys(d->sink()));
        out.dynamic.push_back(d->sink().dynamicCount());
        d->registerStats(registry);
    }
    out.stats = registry.toJson().dump(2);
    out.exposeCycle = exposure.exposeCycle();
    return out;
}

TEST(ReplayLanes, ReportsCountsAndStatsEqualAtAnyLaneCount)
{
    for (const auto &[workload, scale] :
         std::vector<std::pair<std::string, double>>{
             {"server", 0.1}, {"rwcache", 0.5}, {"ocean", 0.05}}) {
        const Recording r = record(workload, scale);
        ASSERT_TRUE(r.inj.valid) << workload;
        // Several blocks, so block boundaries are crossed.
        ASSERT_GT(r.trace.events.size(), 2 * kReplayBlock) << workload;
        for (bool packed : {false, true}) {
            const Outcome one = replayOnLanes(r, 1, packed);
            std::uint64_t reports = 0;
            for (std::uint64_t d : one.dynamic)
                reports += d;
            EXPECT_GT(reports, 0u) << workload;
            // 3 leaves lanes of unequal size; 8 leaves most lanes a
            // single observer.
            for (unsigned lanes : {2u, 3u, 8u})
                EXPECT_TRUE(replayOnLanes(r, lanes, packed) == one)
                    << workload << (packed ? " packed" : " vector")
                    << " on " << lanes << " lanes";
        }
    }
}

/** Counts the events it sees; throws on event @p throwAt if set. */
class CountingObserver : public AccessObserver
{
  public:
    explicit CountingObserver(std::int64_t throw_at = -1,
                              std::string what = "")
        : throwAt_(throw_at), what_(std::move(what))
    {
    }

    void
    onEvents(std::span<const Event> evs) override
    {
        for (std::size_t i = 0; i < evs.size(); ++i) {
            if (static_cast<std::int64_t>(seen_) == throwAt_)
                throw std::runtime_error(what_);
            ++seen_;
        }
    }

    std::uint64_t seen() const { return seen_; }

  private:
    std::int64_t throwAt_;
    std::string what_;
    std::uint64_t seen_ = 0;
};

/** A synthetic trace of @p n ThreadEnd records. */
Trace
syntheticTrace(std::size_t n)
{
    Trace t;
    t.events.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        t.events[i].kind = EventKind::ThreadEnd;
        t.events[i].tid = 0;
        t.events[i].at = i;
    }
    return t;
}

TEST(ReplayLanes, LowestObserverExceptionWinsAfterEveryLaneFinishes)
{
    const std::size_t n = 3 * kReplayBlock + 17;
    const Trace trace = syntheticTrace(n);
    for (unsigned lanes : {1u, 2u, 3u, 8u}) {
        // Observer 3 throws first in trace order, observer 1 later:
        // the lower index wins, not the earlier throw.
        CountingObserver o0, o2, o4;
        CountingObserver o1(2 * kReplayBlock + 5, "observer 1");
        CountingObserver o3(10, "observer 3");
        std::vector<AccessObserver *> obs{&o0, &o1, &o2, &o3, &o4};
        ReplayOptions opts;
        opts.lanes = lanes;
        try {
            replayTrace(trace, obs, opts);
            ADD_FAILURE() << "no exception on " << lanes << " lanes";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "observer 1") << lanes << " lanes";
        }
        EXPECT_EQ(o0.seen(), n) << lanes << " lanes";
        EXPECT_EQ(o2.seen(), n) << lanes << " lanes";
        EXPECT_EQ(o4.seen(), n) << lanes << " lanes";
        // A failed observer is handed nothing after its throw.
        EXPECT_EQ(o1.seen(), 2 * kReplayBlock + 5);
        EXPECT_EQ(o3.seen(), 10u);
    }
}

TEST(ReplayLanes, PoolTasksSplitTheHostBudget)
{
    const unsigned host = hostThreads();
    ASSERT_GE(host, 1u);
    EXPECT_EQ(RunPool::laneBudget(), host);
    EXPECT_EQ(RunPool::defaultJobs(), host);
    for (unsigned jobs : {1u, 2u, 3u, host, host + 1}) {
        RunPool pool(jobs);
        const std::vector<unsigned> seen = pool.map<unsigned>(
            2 * jobs, [](std::size_t) { return RunPool::laneBudget(); });
        for (unsigned b : seen)
            EXPECT_EQ(b, std::max(1u, host / jobs)) << jobs << " jobs";
        // The budget is the task's only: the caller's is unchanged.
        EXPECT_EQ(RunPool::laneBudget(), host);
    }
}

TEST(ReplayLanes, AffinityMaskBoundsWorkersAndLanes)
{
    cpu_set_t saved;
    ASSERT_EQ(::sched_getaffinity(0, sizeof(saved), &saved), 0);
    int first = -1;
    for (int c = 0; c < CPU_SETSIZE && first < 0; ++c)
        if (CPU_ISSET(c, &saved))
            first = c;
    ASSERT_GE(first, 0);
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(first, &one);
    ASSERT_EQ(::sched_setaffinity(0, sizeof(one), &one), 0);
    const unsigned host = hostThreads();
    const unsigned jobs = RunPool::defaultJobs();
    const unsigned lanes = RunPool::laneBudget();
    ASSERT_EQ(::sched_setaffinity(0, sizeof(saved), &saved), 0);
    EXPECT_EQ(host, 1u);
    EXPECT_EQ(jobs, 1u);
    EXPECT_EQ(lanes, 1u);
    EXPECT_EQ(hostThreads(),
              static_cast<unsigned>(CPU_COUNT(&saved)));
}

/** @return the Threads: line of /proc/self/status (-1 if absent). */
long
processThreads()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("Threads:", 0) == 0)
            return std::stol(line.substr(8));
    return -1;
}

/** Samples the process's thread count on its first event. */
class ThreadProbe : public AccessObserver
{
  public:
    void
    onEvents(std::span<const Event>) override
    {
        if (threads_ < 0)
            threads_ = processThreads();
    }

    long threads() const { return threads_; }

  private:
    long threads_ = -1;
};

TEST(ReplayLanes, OneLaneCreatesNoThread)
{
    // Let any lazily started runtime thread (a sanitizer's, say)
    // start before the count is taken.
    std::thread([] {}).join();
    const Trace trace = syntheticTrace(2 * kReplayBlock);
    const long before = processThreads();
    ASSERT_GT(before, 0);

    ThreadProbe a, b;
    replayTrace(trace, {&a, &b});
    EXPECT_EQ(a.threads(), before);
    EXPECT_EQ(b.threads(), before);

    // The probe does see a lane thread when there is one, and more
    // lanes than observers are capped: eight lanes for two observers
    // still make one extra thread, which observer d runs on.
    ThreadProbe c, d;
    ReplayOptions eight;
    eight.lanes = 8;
    replayTrace(trace, {&c, &d}, eight);
    EXPECT_EQ(c.threads(), before + 1);
    EXPECT_EQ(d.threads(), before + 1);
}

} // namespace
} // namespace hard
