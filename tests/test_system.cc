/**
 * @file
 * Unit tests for the simulated CMP: op execution, lock/barrier/
 * semaphore semantics, observer ordering, determinism, deadlock
 * detection.
 */

#include <gtest/gtest.h>

#include "core/hard_detector.hh"
#include "sim/system.hh"
#include "throw_test_util.hh"

namespace hard
{
namespace
{

/** Observer recording every event in arrival order. */
class Recorder : public AccessObserver
{
  public:
    struct Entry
    {
        char kind; // r/w/L/U/B/P/S/E
        ThreadId tid;
        Addr addr;
        Cycle at;
    };
    std::vector<Entry> log;

    void
    onEvents(std::span<const Event> evs) override
    {
        for (const Event &ev : evs) {
            char kind;
            switch (ev.kind) {
              case EventKind::Read: kind = 'r'; break;
              case EventKind::Write: kind = 'w'; break;
              case EventKind::LockAcquire: kind = 'L'; break;
              case EventKind::LockRelease: kind = 'U'; break;
              case EventKind::Barrier: kind = 'B'; break;
              case EventKind::SemaPost: kind = 'P'; break;
              case EventKind::SemaWait: kind = 'S'; break;
              case EventKind::ThreadEnd: kind = 'E'; break;
              default: continue;
            }
            log.push_back({kind, ev.tid, ev.addr, ev.at});
        }
    }
};

Program
makeProgram(unsigned threads)
{
    Program p;
    p.name = "test";
    p.threads.resize(threads);
    for (unsigned t = 0; t < threads; ++t)
        p.threads[t].tid = t;
    p.dataBase = 0;
    p.dataLimit = ~0ull;
    return p;
}

TEST(System, ExecutesOpsAndCountsAccesses)
{
    Program p = makeProgram(1);
    p.threads[0].ops = {opRead(0x100, 8, 0), opWrite(0x108, 8, 1),
                        opCompute(50)};
    System sys(SimConfig{}, p);
    Recorder rec;
    sys.addObserver(&rec);
    RunResult res = sys.run();
    EXPECT_EQ(res.dataReads, 1u);
    EXPECT_EQ(res.dataWrites, 1u);
    ASSERT_EQ(rec.log.size(), 3u); // r, w, E
    EXPECT_EQ(rec.log[0].kind, 'r');
    EXPECT_EQ(rec.log[1].kind, 'w');
    EXPECT_EQ(rec.log[2].kind, 'E');
    EXPECT_GT(res.totalCycles, 50u);
}

TEST(System, ComputeAdvancesTime)
{
    Program p = makeProgram(1);
    p.threads[0].ops = {opCompute(1000)};
    System sys(SimConfig{}, p);
    EXPECT_GE(sys.run().totalCycles, 1000u);
}

TEST(System, LockProvidesMutualExclusion)
{
    // Both threads do lock; write; unlock. The observer event order
    // must never interleave L(t1) ... L(t2) without U(t1) in between.
    Program p = makeProgram(2);
    const Addr lock = 0x1000;
    for (unsigned t = 0; t < 2; ++t) {
        for (int i = 0; i < 5; ++i) {
            p.threads[t].ops.push_back(opLock(lock, 0));
            p.threads[t].ops.push_back(opWrite(0x2000, 8, 1));
            p.threads[t].ops.push_back(opCompute(30));
            p.threads[t].ops.push_back(opUnlock(lock, 2));
        }
    }
    System sys(SimConfig{}, p);
    Recorder rec;
    sys.addObserver(&rec);
    sys.run();

    ThreadId holder = invalidThread;
    unsigned acquires = 0;
    for (const auto &e : rec.log) {
        if (e.kind == 'L') {
            ASSERT_EQ(holder, invalidThread)
                << "lock acquired while held";
            holder = e.tid;
            ++acquires;
        } else if (e.kind == 'U') {
            ASSERT_EQ(holder, e.tid);
            holder = invalidThread;
        } else if (e.kind == 'w') {
            ASSERT_EQ(holder, e.tid) << "write outside critical section";
        }
    }
    EXPECT_EQ(acquires, 10u);
}

TEST(System, ContendedLockBlocksAndEventuallyGrants)
{
    Program p = makeProgram(2);
    const Addr lock = 0x1000;
    // Thread 0 holds the lock across a long compute; thread 1 must
    // wait for it.
    p.threads[0].ops = {opLock(lock, 0), opCompute(5000),
                        opUnlock(lock, 0)};
    p.threads[1].ops = {opCompute(10), opLock(lock, 1),
                        opUnlock(lock, 1)};
    System sys(SimConfig{}, p);
    Recorder rec;
    sys.addObserver(&rec);
    sys.run();

    std::vector<char> order;
    for (const auto &e : rec.log)
        if (e.kind == 'L' || e.kind == 'U')
            order.push_back(e.kind == 'L' ? '0' + char(e.tid) : 'u');
    EXPECT_EQ(order, (std::vector<char>{'0', 'u', '1', 'u'}));
}

TEST(System, BarrierReleasesAllTogether)
{
    Program p = makeProgram(4);
    const Addr bar = 0x3000;
    for (unsigned t = 0; t < 4; ++t) {
        p.threads[t].ops = {opCompute(100 * (t + 1)),
                            opBarrier(bar, 0),
                            opWrite(0x4000 + 64 * t, 8, 1)};
    }
    System sys(SimConfig{}, p);
    Recorder rec;
    sys.addObserver(&rec);
    RunResult res = sys.run();
    EXPECT_EQ(res.barrierEpisodes, 1u);

    // The barrier event precedes every post-barrier write, and all
    // post-barrier writes happen at or after the release cycle.
    Cycle release = 0;
    bool saw_barrier = false;
    for (const auto &e : rec.log) {
        if (e.kind == 'B') {
            saw_barrier = true;
            release = e.at;
        }
        if (e.kind == 'w' && e.addr >= 0x4000) {
            ASSERT_TRUE(saw_barrier);
            ASSERT_GE(e.at, release);
        }
    }
}

TEST(System, BarrierEpisodesCount)
{
    Program p = makeProgram(2);
    const Addr bar = 0x3000;
    for (unsigned t = 0; t < 2; ++t)
        for (int i = 0; i < 3; ++i)
            p.threads[t].ops.push_back(opBarrier(bar, 0));
    System sys(SimConfig{}, p);
    EXPECT_EQ(sys.run().barrierEpisodes, 3u);
}

TEST(System, SemaphorePostBeforeWaitBanksToken)
{
    Program p = makeProgram(2);
    const Addr sema = 0x5000;
    p.threads[0].ops = {opSemaPost(sema, 0)};
    p.threads[1].ops = {opCompute(5000), opSemaWait(sema, 1)};
    System sys(SimConfig{}, p);
    Recorder rec;
    sys.addObserver(&rec);
    sys.run(); // must terminate (token banked)
    bool saw_wait = false;
    for (const auto &e : rec.log)
        saw_wait |= e.kind == 'S';
    EXPECT_TRUE(saw_wait);
}

TEST(System, SemaphoreWaitBlocksUntilPost)
{
    Program p = makeProgram(2);
    const Addr sema = 0x5000;
    p.threads[0].ops = {opCompute(5000), opSemaPost(sema, 0)};
    p.threads[1].ops = {opSemaWait(sema, 1), opWrite(0x6000, 8, 2)};
    System sys(SimConfig{}, p);
    Recorder rec;
    sys.addObserver(&rec);
    sys.run();
    Cycle post_at = 0, wait_at = 0, write_at = 0;
    for (const auto &e : rec.log) {
        if (e.kind == 'P')
            post_at = e.at;
        if (e.kind == 'S')
            wait_at = e.at;
        if (e.kind == 'w' && e.addr == 0x6000)
            write_at = e.at;
    }
    EXPECT_GE(post_at, 5000u);
    EXPECT_GT(wait_at, post_at);
    EXPECT_GT(write_at, wait_at);
}

TEST(System, DeterministicAcrossRuns)
{
    auto build = [] {
        Program p = makeProgram(4);
        for (unsigned t = 0; t < 4; ++t) {
            for (int i = 0; i < 50; ++i) {
                p.threads[t].ops.push_back(
                    opWrite(0x1000 + (i * 4 + t) % 16 * 32, 8, 0));
                p.threads[t].ops.push_back(opLock(0x8000, 1));
                p.threads[t].ops.push_back(opWrite(0x9000, 8, 2));
                p.threads[t].ops.push_back(opUnlock(0x8000, 1));
            }
        }
        return p;
    };
    Program p1 = build(), p2 = build();
    System s1(SimConfig{}, p1), s2(SimConfig{}, p2);
    Recorder r1, r2;
    s1.addObserver(&r1);
    s2.addObserver(&r2);
    EXPECT_EQ(s1.run().totalCycles, s2.run().totalCycles);
    ASSERT_EQ(r1.log.size(), r2.log.size());
    for (std::size_t i = 0; i < r1.log.size(); ++i) {
        EXPECT_EQ(r1.log[i].tid, r2.log[i].tid);
        EXPECT_EQ(r1.log[i].at, r2.log[i].at);
    }
}

TEST(System, ObserverEventsArriveInCycleOrderPerThread)
{
    Program p = makeProgram(2);
    for (unsigned t = 0; t < 2; ++t)
        for (int i = 0; i < 20; ++i)
            p.threads[t].ops.push_back(
                opRead(0x1000 + t * 0x1000 + i * 32, 8, 0));
    System sys(SimConfig{}, p);
    Recorder rec;
    sys.addObserver(&rec);
    sys.run();
    Cycle last[2] = {0, 0};
    for (const auto &e : rec.log) {
        if (e.kind != 'r')
            continue;
        ASSERT_GE(e.at, last[e.tid]);
        last[e.tid] = e.at;
    }
}

TEST(SystemDeath, BarrierDeadlockThrows)
{
    Program p = makeProgram(2);
    p.threads[0].ops = {opBarrier(0x3000, 0)};
    p.threads[1].ops = {}; // thread 1 exits; barrier can never fill
    System sys(SimConfig{}, p);
    HARD_EXPECT_THROW_MSG(sys.run(), DeadlockError, "deadlock");
}

TEST(SystemDeath, DeadlockErrorCarriesThreadSnapshots)
{
    Program p = makeProgram(2);
    p.threads[0].ops = {opBarrier(0x3000, 7)};
    p.threads[1].ops = {};
    System sys(SimConfig{}, p);
    try {
        sys.run();
        FAIL() << "expected DeadlockError";
    } catch (const DeadlockError &e) {
        EXPECT_EQ(e.kind(), SimErrorKind::Deadlock);
        EXPECT_STREQ(e.outcome(), "deadlock");
        ASSERT_EQ(e.threads().size(), 2u);
        EXPECT_EQ(e.threads()[0].tid, 0u);
        EXPECT_EQ(e.threads()[0].status, "WaitBarrier");
        EXPECT_EQ(e.threads()[0].waitKind, "barrier");
        EXPECT_EQ(e.threads()[0].waitAddr, 0x3000u);
        EXPECT_EQ(e.threads()[0].waitSite, 7u);
        EXPECT_EQ(e.threads()[1].status, "Done");
    }
}

TEST(SystemDeath, UnlockWithoutLockThrows)
{
    Program p = makeProgram(1);
    p.threads[0].ops = {opUnlock(0x1000, 0)};
    System sys(SimConfig{}, p);
    HARD_EXPECT_THROW_MSG(sys.run(), WorkloadError, "does not hold");
}

TEST(SystemDeath, ExitHoldingLockThrows)
{
    Program p = makeProgram(1);
    p.threads[0].ops = {opLock(0x1000, 0)};
    System sys(SimConfig{}, p);
    HARD_EXPECT_THROW_MSG(sys.run(), WorkloadError, "exited holding");
}

TEST(SystemDeath, MoreThanEightThreadsThrows)
{
    Program p = makeProgram(9);
    HARD_EXPECT_THROW_MSG(System(SimConfig{}, p), ConfigError,
                          "at most 8");
}

/** Observer recording context switches. */
class SwitchRecorder : public AccessObserver
{
  public:
    struct Switch
    {
        CoreId core;
        ThreadId from, to;
        Cycle at;
    };
    std::vector<Switch> switches;

    void
    onEvents(std::span<const Event> evs) override
    {
        for (const Event &ev : evs)
            if (ev.kind == EventKind::ContextSwitch)
                switches.push_back(
                    {ev.core, ev.switchedOut(), ev.tid, ev.at});
    }
};

TEST(SystemOversubscribed, RunsMoreThreadsThanCores)
{
    // 6 threads on 2 cores: the machine must multiplex and finish.
    Program p = makeProgram(6);
    for (unsigned t = 0; t < 6; ++t) {
        for (int i = 0; i < 20; ++i) {
            p.threads[t].ops.push_back(
                opWrite(0x1000 + t * 0x100 + (i % 4) * 32, 8, 0));
            p.threads[t].ops.push_back(opCompute(100));
        }
    }
    SimConfig cfg;
    cfg.memsys.numCores = 2;
    System sys(cfg, p);
    SwitchRecorder rec;
    sys.addObserver(&rec);
    RunResult res = sys.run();
    EXPECT_EQ(res.dataWrites, 6u * 20);
    EXPECT_GT(res.contextSwitches, 0u);
    EXPECT_EQ(res.contextSwitches, rec.switches.size());
}

TEST(SystemOversubscribed, QuantumPreemptsLongRunners)
{
    // Two compute-heavy threads on one core: the quantum forces
    // alternation rather than run-to-completion.
    Program p = makeProgram(2);
    for (unsigned t = 0; t < 2; ++t)
        for (int i = 0; i < 40; ++i) {
            p.threads[t].ops.push_back(opCompute(5000));
            p.threads[t].ops.push_back(
                opWrite(0x1000 + t * 64, 8, 0));
        }
    SimConfig cfg;
    cfg.memsys.numCores = 1;
    cfg.quantumCycles = 20000;
    System sys(cfg, p);
    SwitchRecorder rec;
    sys.addObserver(&rec);
    RunResult res = sys.run();
    // 2 x 200K cycles of work with a 20K quantum: many alternations.
    EXPECT_GE(res.contextSwitches, 10u);
    // Switches alternate between the two threads on core 0.
    for (const auto &sw : rec.switches) {
        EXPECT_EQ(sw.core, 0u);
        EXPECT_NE(sw.from, sw.to);
    }
}

TEST(SystemOversubscribed, BlockedThreadYieldsTheCore)
{
    // Thread 0 holds the lock and computes; thread 1 (same core)
    // blocks on it; thread 2's work still proceeds on the core while
    // thread 1 waits.
    Program p = makeProgram(3);
    const Addr lock = 0x8000;
    p.threads[0].ops = {opLock(lock, 0), opCompute(30000),
                        opUnlock(lock, 0)};
    p.threads[1].ops = {opCompute(10), opLock(lock, 1),
                        opUnlock(lock, 1)};
    for (int i = 0; i < 50; ++i)
        p.threads[2].ops.push_back(opWrite(0x9000 + (i % 4) * 32, 8, 2));
    SimConfig cfg;
    cfg.memsys.numCores = 1;
    System sys(cfg, p);
    RunResult res = sys.run();
    EXPECT_EQ(res.dataWrites, 50u);
    EXPECT_EQ(res.lockAcquires, 2u);
}

TEST(SystemOversubscribed, NoSwitchesWhenOneThreadPerCore)
{
    Program p = makeProgram(4);
    for (unsigned t = 0; t < 4; ++t)
        p.threads[t].ops.push_back(opWrite(0x1000 + t * 64, 8, 0));
    System sys(SimConfig{}, p);
    EXPECT_EQ(sys.run().contextSwitches, 0u);
}

TEST(SystemOversubscribed, DeterministicUnderMultiplexing)
{
    auto build = [] {
        Program p = makeProgram(5);
        for (unsigned t = 0; t < 5; ++t) {
            for (int i = 0; i < 30; ++i) {
                p.threads[t].ops.push_back(opLock(0x8000, 0));
                p.threads[t].ops.push_back(opWrite(0x9000, 8, 1));
                p.threads[t].ops.push_back(opUnlock(0x8000, 0));
                p.threads[t].ops.push_back(opCompute(700));
            }
        }
        return p;
    };
    SimConfig cfg;
    cfg.memsys.numCores = 2;
    Program p1 = build(), p2 = build();
    System s1(cfg, p1), s2(cfg, p2);
    RunResult r1 = s1.run();
    RunResult r2 = s2.run();
    EXPECT_EQ(r1.totalCycles, r2.totalCycles);
    EXPECT_EQ(r1.contextSwitches, r2.contextSwitches);
}

TEST(System, HardTimingAddsLatency)
{
    auto build = [] {
        Program p = makeProgram(2);
        // Shared line ping-pong: both threads touch the same line.
        for (unsigned t = 0; t < 2; ++t)
            for (int i = 0; i < 100; ++i)
                p.threads[t].ops.push_back(opRead(0x1000, 8, 0));
        return p;
    };
    Program p1 = build(), p2 = build();
    SimConfig base, timed;
    timed.hardTiming.enabled = true;
    timed.hardTiming.sharedAccessExtraCycles = 5;
    System s1(base, p1), s2(timed, p2);
    EXPECT_GT(s2.run().totalCycles, s1.run().totalCycles);
}

/**
 * Golden machine statistics for one fixed four-thread program with HARD
 * timing, directory mode and a bus-attached HardDetector, so both
 * metadata transaction kinds reach the bus. Small caches force L1 and
 * L2 evictions, writebacks and back-invalidations. A counter exists
 * only once it has been incremented: the L2 is never invalidated, so
 * it has no "invalidations" key. Every name and count here must stay
 * as it is.
 */
TEST(System, StatsDumpGoldenWithHardTimingAndDirectory)
{
    Program p = makeProgram(4);
    const LockAddr locks[2] = {0x900, 0x940};
    for (unsigned t = 0; t < 4; ++t) {
        auto &ops = p.threads[t].ops;
        for (unsigned i = 0; i < 60; ++i) {
            if (i == 30)
                ops.push_back(opBarrier(0x980, 9));
            ops.push_back(opRead(0x2000 + ((i * 3 + t) % 16) * 32 + 4, 4,
                                 10));
            if (i % 3 == 0) {
                ops.push_back(opLock(locks[t % 2], 11));
                ops.push_back(opWrite(0x2000 + ((i + t) % 16) * 32, 8, 12));
                ops.push_back(opUnlock(locks[t % 2], 13));
            }
            ops.push_back(
                opWrite(0x10000 + t * 0x1000 + (i * 40) % 0x800, 8, 14));
            ops.push_back(opCompute(7));
        }
    }
    SimConfig cfg;
    cfg.memsys.l1 = CacheConfig{1024, 2, 32, 3};
    cfg.memsys.l2 = CacheConfig{4096, 4, 32, 10};
    cfg.hardTiming.enabled = true;
    cfg.hardTiming.directoryMode = true;
    System sys(cfg, p);
    HardDetector hard("hard", HardConfig{}, &sys.memsys().bus());
    sys.addObserver(&hard);
    sys.run();

    const std::vector<std::pair<std::string, std::uint64_t>> golden = {
        {"memsys.backInvalidations", 262},
        {"memsys.cacheToCache", 155},
        {"memsys.l2Evictions", 159},
        {"memsys.memFetches", 287},
        {"memsys.reads", 275},
        {"memsys.writes", 484},
        {"bus.busyCycles", 8531},
        {"bus.dataBytes", 24960},
        {"bus.metaBytes", 1233},
        {"bus.txn.BusRd", 218},
        {"bus.txn.BusRdX", 350},
        {"bus.txn.BusUpgr", 59},
        {"bus.txn.MetaBroadcast", 27},
        {"bus.txn.MetaDirectory", 384},
        {"bus.txn.Writeback", 212},
        {"l1.0.evictions", 25},
        {"l1.0.fills", 146},
        {"l1.0.invalidations", 96},
        {"l1.0.readHits", 12},
        {"l1.0.readMisses", 49},
        {"l1.0.upgrades", 12},
        {"l1.0.writeHits", 12},
        {"l1.0.writeMisses", 97},
        {"l1.0.writebacks", 23},
        {"l1.1.evictions", 33},
        {"l1.1.fills", 132},
        {"l1.1.invalidations", 80},
        {"l1.1.readHits", 14},
        {"l1.1.readMisses", 48},
        {"l1.1.upgrades", 17},
        {"l1.1.writeHits", 20},
        {"l1.1.writeMisses", 84},
        {"l1.1.writebacks", 32},
        {"l1.2.evictions", 35},
        {"l1.2.fills", 143},
        {"l1.2.invalidations", 81},
        {"l1.2.readHits", 22},
        {"l1.2.readMisses", 58},
        {"l1.2.upgrades", 14},
        {"l1.2.writeHits", 22},
        {"l1.2.writeMisses", 85},
        {"l1.2.writebacks", 35},
        {"l1.3.evictions", 30},
        {"l1.3.fills", 147},
        {"l1.3.invalidations", 87},
        {"l1.3.readHits", 9},
        {"l1.3.readMisses", 63},
        {"l1.3.upgrades", 16},
        {"l1.3.writeHits", 21},
        {"l1.3.writeMisses", 84},
        {"l1.3.writebacks", 28},
        {"l2.evictions", 159},
        {"l2.fills", 287},
        {"l2.writebacks", 94},
    };
    EXPECT_EQ(sys.statsDump(), golden);
}

} // namespace
} // namespace hard
