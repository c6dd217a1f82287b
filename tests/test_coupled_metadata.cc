/**
 * @file
 * Tests for cache-coupled metadata storage (the most faithful §3.6
 * model): HARD's candidate sets are dropped exactly when the
 * *simulated* L2 displaces the line, rather than when the detector's
 * own mirror store overflows.
 */

#include <gtest/gtest.h>

#include "core/hard_detector.hh"
#include "detector_test_util.hh"
#include "trace/recorder.hh"
#include "trace/replayer.hh"
#include "workloads/registry.hh"

namespace hard
{
namespace
{

TEST(CoupledMetadata, EvictionEventsFireOnL2Displacement)
{
    // A tiny L2 forces displacements; the observer hook must fire.
    struct EvictCounter : AccessObserver
    {
        std::uint64_t n = 0;
        void
        onEvents(std::span<const Event> evs) override
        {
            for (const Event &ev : evs)
                n += ev.kind == EventKind::LineEvicted;
        }
    };

    WorkloadBuilder b("t", 1);
    Addr buf = b.alloc("buf", 64 * 1024, 32);
    SiteId s = b.site("stream");
    for (Addr a = buf; a < buf + 64 * 1024; a += 32)
        b.read(0, a, 8, s);
    Program p = b.finish();

    SimConfig cfg;
    cfg.memsys.l2.sizeBytes = 8 * 1024; // much smaller than the stream
    System sys(cfg, p);
    EvictCounter counter;
    sys.addObserver(&counter);
    sys.run();
    EXPECT_GT(counter.n, 1000u);
    EXPECT_EQ(counter.n, sys.memsys().stats().value("l2Evictions"));
}

TEST(CoupledMetadata, CoupledHardLosesMetadataWithTheRealL2)
{
    // Same displacement scenario as the mirror-store test in
    // test_hard_detector.cc, but with the metadata riding the real
    // (small) simulated L2.
    auto build = [] {
        WorkloadBuilder b("t", 2);
        Addr x = b.alloc("x", 8, 32);
        Addr spill = b.alloc("spill", 64 * 1024, 32);
        LockAddr l = b.allocLock("l");
        SiteId s = b.site("cs");
        SiteId s_bad = b.site("unlocked.read");
        SiteId s_spill = b.site("spill");

        b.write(0, x, 8, s);
        b.compute(1, 2000);
        b.lock(1, l, s);
        b.read(1, x, 8, s);
        b.unlock(1, l, s);
        b.read(1, x, 8, s_bad); // silent empty candidate set
        b.compute(0, 4000);
        for (Addr a = spill; a < spill + 64 * 1024; a += 32)
            b.read(0, a, 8, s_spill);
        b.lock(0, l, s);
        b.write(0, x, 8, s); // would report if metadata survived
        b.unlock(0, l, s);
        return b.finish();
    };

    SimConfig small_l2;
    small_l2.memsys.l2.sizeBytes = 4 * 1024;

    // Coupled to the small L2: the spill displaces x's line and the
    // race evidence with it.
    {
        Program p = build();
        HardConfig cfg;
        cfg.coupleToCaches = true;
        HardDetector det("hard.coupled", cfg);
        System sys(small_l2, p);
        sys.addObserver(&det);
        sys.run();
        EXPECT_EQ(det.sink().distinctSiteCount(), 0u);
        EXPECT_GT(det.hardStats().metadataEvictions, 0u);
    }

    // Coupled to a big (default) L2: everything fits, race caught.
    {
        Program p = build();
        HardConfig cfg;
        cfg.coupleToCaches = true;
        HardDetector det("hard.coupled", cfg);
        System sys(SimConfig{}, p);
        sys.addObserver(&det);
        sys.run();
        EXPECT_GT(det.sink().distinctSiteCount(), 0u);
    }
}

TEST(CoupledMetadata, CoupledAndMirroredAgreeOnDetectionShape)
{
    // The mirror store approximates the real L2 from the data-access
    // stream alone; the coupled store is exact. On the workload
    // models the two must agree on the alarm sites up to a small
    // difference (the real L2 also holds lock words and sync lines).
    WorkloadParams params;
    params.scale = 0.05;
    for (const char *app : {"cholesky", "water-nsquared"}) {
        Program p = buildWorkload(app, params);
        HardDetector mirrored("hard.mirror", HardConfig{});
        HardConfig coupled_cfg;
        coupled_cfg.coupleToCaches = true;
        HardDetector coupled("hard.coupled", coupled_cfg);
        runProgram(p, {&mirrored, &coupled});

        // Same source-level alarms in both models at this scale.
        EXPECT_EQ(mirrored.sink().sites(), coupled.sink().sites())
            << app;
    }
}

TEST(CoupledMetadata, ReplayPreservesCoupledSemantics)
{
    // Eviction events are recorded in traces, so offline analysis of
    // a coupled detector matches the online run exactly.
    WorkloadParams params;
    params.scale = 0.05;
    Program prog = buildWorkload("ocean", params);

    HardConfig cfg;
    cfg.coupleToCaches = true;
    TraceRecorder recorder(prog);
    HardDetector online("hard", cfg);
    {
        // A small L2 guarantees displacements at test scale.
        SimConfig sim;
        sim.memsys.l2.sizeBytes = 64 * 1024;
        System sys(sim, prog);
        sys.addObserver(&recorder);
        sys.addObserver(&online);
        sys.run();
    }

    Trace trace = recorder.take();
    bool has_evictions = false;
    for (const TraceEvent &ev : trace.events)
        has_evictions |= ev.kind == TraceKind::LineEvicted;
    EXPECT_TRUE(has_evictions);

    HardDetector offline("hard", cfg);
    replayTrace(trace, {&offline});
    EXPECT_EQ(offline.sink().sites(), online.sink().sites());
    EXPECT_EQ(offline.hardStats().metadataEvictions,
              online.hardStats().metadataEvictions);
}

} // namespace
} // namespace hard
