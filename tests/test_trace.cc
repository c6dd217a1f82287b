/**
 * @file
 * Tests for the post-mortem trace infrastructure: pack/unpack
 * round-trips, file round-trips, format validation, and the central
 * guarantee that offline replay reproduces online detection exactly.
 */

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/hard_detector.hh"
#include "detector_test_util.hh"
#include "detectors/happens_before.hh"
#include "detectors/ideal_lockset.hh"
#include "trace/recorder.hh"
#include "trace/replayer.hh"
#include "workloads/registry.hh"

namespace hard
{
namespace
{

std::string
tmpPath(const char *tag)
{
    return ::testing::TempDir() + "hard_trace_" + tag + ".trc";
}

TEST(TraceEventTest, MemoryEventPackRoundTrip)
{
    TraceEvent ev;
    ev.kind = TraceKind::Write;
    ev.tid = 3;
    ev.addr = 0x123456789abcull;
    ev.size = 8;
    ev.site = 77;
    ev.at = 987654321;
    ev.stateAfter = CState::Modified;
    ev.sharers = 4;

    TraceEvent back = TraceEvent::unpack(ev.pack());
    EXPECT_EQ(back.kind, ev.kind);
    EXPECT_EQ(back.tid, ev.tid);
    EXPECT_EQ(back.addr, ev.addr);
    EXPECT_EQ(back.size, ev.size);
    EXPECT_EQ(back.site, ev.site);
    EXPECT_EQ(back.at, ev.at);
    EXPECT_EQ(back.stateAfter, ev.stateAfter);
    EXPECT_EQ(back.sharers, ev.sharers);
}

TEST(TraceEventTest, BarrierEventPackRoundTrip)
{
    TraceEvent ev;
    ev.kind = TraceKind::Barrier;
    ev.addr = 0x4000;
    ev.at = 5555;
    ev.episode = 12;
    ev.participants = 4;

    TraceEvent back = TraceEvent::unpack(ev.pack());
    EXPECT_EQ(back.kind, TraceKind::Barrier);
    EXPECT_EQ(back.addr, ev.addr);
    EXPECT_EQ(back.episode, 12u);
    EXPECT_EQ(back.participants, 4u);
}

TEST(TraceEventTest, KindNamesCovered)
{
    for (int k = 0; k <= static_cast<int>(TraceKind::LineEvicted); ++k)
        EXPECT_STRNE(traceKindName(static_cast<TraceKind>(k)), "?");
}

TEST(TraceFile, WriteReadRoundTrip)
{
    Trace t;
    t.siteNames = {"a:one", "a:two"};
    TraceEvent ev;
    ev.kind = TraceKind::Read;
    ev.tid = 1;
    ev.addr = 0x1000;
    ev.size = 8;
    ev.site = 1;
    ev.at = 42;
    t.events.push_back(ev);
    ev.kind = TraceKind::ThreadEnd;
    t.events.push_back(ev);

    std::string path = tmpPath("roundtrip");
    writeTrace(path, t);
    Trace back = readTrace(path);
    std::remove(path.c_str());

    ASSERT_EQ(back.siteNames, t.siteNames);
    ASSERT_EQ(back.events.size(), 2u);
    EXPECT_EQ(back.events[0].addr, 0x1000u);
    EXPECT_EQ(back.events[1].kind, TraceKind::ThreadEnd);
    EXPECT_EQ(back.threadCount(), 1u);
}

TEST(TraceFileDeath, RejectsGarbageFiles)
{
    std::string path = tmpPath("garbage");
    {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        std::fputs("definitely not a trace", f);
        std::fclose(f);
    }
    EXPECT_EXIT(readTrace(path), ::testing::ExitedWithCode(1),
                "not a HARD trace");
    std::remove(path.c_str());
}

TEST(TraceFileDeath, RejectsTruncatedEvents)
{
    Trace t;
    t.siteNames = {"s"};
    TraceEvent ev;
    ev.kind = TraceKind::Read;
    t.events.assign(4, ev);
    std::string path = tmpPath("trunc");
    writeTrace(path, t);
    // Chop the last record in half.
    {
        std::FILE *f = std::fopen(path.c_str(), "rb+");
        std::fseek(f, 0, SEEK_END);
        long sz = std::ftell(f);
        std::fclose(f);
        ASSERT_EQ(::truncate(path.c_str(), sz - 12), 0);
    }
    EXPECT_EXIT(readTrace(path), ::testing::ExitedWithCode(1),
                "truncated at event");
    std::remove(path.c_str());
}

/**
 * A trace whose thread-carrying records all name real threads, with
 * one Barrier and one LineEvicted record (which carry no thread, tid
 * byte 0xff).
 */
Trace
threadIdFixture()
{
    Trace t;
    t.siteNames = {"s"};
    TraceEvent ev;
    ev.kind = TraceKind::Read;
    ev.tid = 0;
    ev.size = 4;
    ev.site = 0;
    t.events.push_back(ev);
    TraceEvent bar;
    bar.kind = TraceKind::Barrier;
    bar.participants = 2;
    t.events.push_back(bar);
    TraceEvent evict;
    evict.kind = TraceKind::LineEvicted;
    evict.addr = 0x40;
    t.events.push_back(evict);
    ev.kind = TraceKind::Write;
    ev.tid = 1;
    t.events.push_back(ev);
    return t;
}

/** @return @p bytes with record @p i's tid byte set to @p tid. */
std::string
patchTid(std::string bytes, std::size_t nevents, std::size_t i,
         std::uint8_t tid)
{
    const std::size_t rec = sizeof(TraceEvent::Packed);
    bytes[bytes.size() - (nevents - i) * rec + 2] =
        static_cast<char>(tid);
    return bytes;
}

TEST(TraceValidation, OutOfRangeThreadIdIsRejected)
{
    const Trace t = threadIdFixture();
    const std::string good = serializeTrace(t);
    PackedTraceView view;
    std::string err;
    ASSERT_TRUE(openPackedTrace(good, &view, &err)) << err;

    for (std::size_t i : {std::size_t{0}, std::size_t{3}}) {
        for (unsigned tid : {8u, 200u, 0xffu}) {
            SCOPED_TRACE("record " + std::to_string(i) + " tid " +
                         std::to_string(tid));
            const std::string bad = patchTid(
                good, t.events.size(), i, static_cast<std::uint8_t>(tid));
            err.clear();
            EXPECT_FALSE(openPackedTrace(bad, &view, &err));
            EXPECT_EQ(err, "corrupt thread id");
            Trace out;
            err.clear();
            EXPECT_FALSE(deserializeTrace(bad, &out, &err));
            EXPECT_EQ(err, "corrupt thread id");
        }
    }
}

TEST(TraceFileDeath, RejectsOutOfRangeThreadId)
{
    const Trace t = threadIdFixture();
    const std::string path = tmpPath("badtid");
    {
        const std::string bad =
            patchTid(serializeTrace(t), t.events.size(), 0, 200);
        std::FILE *f = std::fopen(path.c_str(), "wb");
        std::fwrite(bad.data(), 1, bad.size(), f);
        std::fclose(f);
    }
    EXPECT_EXIT(readTrace(path), ::testing::ExitedWithCode(1),
                "corrupt thread id");
    std::remove(path.c_str());
}

/**
 * @return @p bytes with record @p i's address set to @p addr and its
 * size to @p size.
 */
std::string
patchAccess(std::string bytes, std::size_t nevents, std::size_t i,
            Addr addr, std::uint8_t size)
{
    const std::size_t rec = sizeof(TraceEvent::Packed);
    const std::size_t at = bytes.size() - (nevents - i) * rec;
    bytes[at + 1] = static_cast<char>(size);
    std::memcpy(&bytes[at + offsetof(TraceEvent::Packed, addr)], &addr,
                sizeof(addr));
    return bytes;
}

TEST(TraceValidation, LineCrossingAccessIsRejected)
{
    const Trace t = threadIdFixture();
    const std::string good = serializeTrace(t);
    PackedTraceView view;
    std::string err;
    // Accesses (address, size) on kLineBytes lines. Ending on a line's
    // last byte keeps one whole; a size of 0 counts as one byte.
    const std::pair<Addr, unsigned> crossing[] = {
        {0x101c, 8}, {0x103f, 2}, {0x1020, kLineBytes + 1}};
    const std::pair<Addr, unsigned> whole[] = {
        {0x1018, 8}, {0x103f, 1}, {0x103f, 0}, {0x1020, kLineBytes}};
    // Records 0 (Read) and 3 (Write).
    for (std::size_t i : {std::size_t{0}, std::size_t{3}}) {
        for (auto [addr, size] : crossing) {
            SCOPED_TRACE("record " + std::to_string(i) + " size " +
                         std::to_string(size));
            const std::string bad =
                patchAccess(good, t.events.size(), i, addr,
                            static_cast<std::uint8_t>(size));
            err.clear();
            EXPECT_FALSE(openPackedTrace(bad, &view, &err));
            EXPECT_EQ(err, "corrupt access");
            Trace out;
            err.clear();
            EXPECT_FALSE(deserializeTrace(bad, &out, &err));
            EXPECT_EQ(err, "corrupt access");
        }
        for (auto [addr, size] : whole) {
            const std::string ok =
                patchAccess(good, t.events.size(), i, addr,
                            static_cast<std::uint8_t>(size));
            EXPECT_TRUE(openPackedTrace(ok, &view, &err)) << err;
        }
    }
    // A line eviction names a line, not an access: it is not checked.
    const std::string evict =
        patchAccess(good, t.events.size(), 2, 0x101c, 8);
    EXPECT_TRUE(openPackedTrace(evict, &view, &err)) << err;
}

TEST(TraceFileDeath, RejectsLineCrossingAccess)
{
    const Trace t = threadIdFixture();
    const std::string path = tmpPath("badaccess");
    {
        const std::string bad =
            patchAccess(serializeTrace(t), t.events.size(), 0, 0x101c, 8);
        std::FILE *f = std::fopen(path.c_str(), "wb");
        std::fwrite(bad.data(), 1, bad.size(), f);
        std::fclose(f);
    }
    EXPECT_EXIT(readTrace(path), ::testing::ExitedWithCode(1),
                "corrupt access");
    std::remove(path.c_str());
}

TEST(TraceFileDeath, MissingFileIsFatal)
{
    EXPECT_EXIT(readTrace("/nonexistent/dir/x.trc"),
                ::testing::ExitedWithCode(1), "cannot open");
}

/**
 * The central post-mortem guarantee: replaying a recorded run into a
 * fresh detector yields byte-identical reports to the online run.
 */
class TraceReplayFidelity : public ::testing::TestWithParam<const char *>
{
};

TEST_P(TraceReplayFidelity, OfflineAnalysisMatchesOnline)
{
    WorkloadParams params;
    params.scale = 0.05;

    // Online: record while detecting.
    Program prog = buildWorkload(GetParam(), params);
    TraceRecorder recorder(prog);
    HardDetector online_hard("hard", HardConfig{});
    HappensBeforeDetector online_hb("hb", HbConfig{});
    IdealLocksetDetector online_ls("ls", IdealLocksetConfig{});
    {
        System sys(SimConfig{}, prog);
        sys.addObserver(&recorder);
        sys.addObserver(&online_hard);
        sys.addObserver(&online_hb);
        sys.addObserver(&online_ls);
        sys.run();
    }

    // Round-trip through the file format.
    std::string path = tmpPath(GetParam());
    writeTrace(path, recorder.take());
    Trace trace = readTrace(path);
    std::remove(path.c_str());

    // Offline: fresh detectors over the replay.
    HardDetector off_hard("hard", HardConfig{});
    HappensBeforeDetector off_hb("hb", HbConfig{});
    IdealLocksetDetector off_ls("ls", IdealLocksetConfig{});
    std::size_t replayed =
        replayTrace(trace, {&off_hard, &off_hb, &off_ls});
    EXPECT_GT(replayed, 0u);

    EXPECT_EQ(off_hard.sink().sites(), online_hard.sink().sites());
    EXPECT_EQ(off_hard.sink().dynamicCount(),
              online_hard.sink().dynamicCount());
    EXPECT_EQ(off_hard.hardStats().metaBroadcasts,
              online_hard.hardStats().metaBroadcasts);
    EXPECT_EQ(off_hb.sink().sites(), online_hb.sink().sites());
    EXPECT_EQ(off_hb.sink().dynamicCount(),
              online_hb.sink().dynamicCount());
    EXPECT_EQ(off_ls.sink().sites(), online_ls.sink().sites());
    EXPECT_EQ(off_ls.sink().dynamicCount(),
              online_ls.sink().dynamicCount());
}

INSTANTIATE_TEST_SUITE_P(Apps, TraceReplayFidelity,
                         ::testing::Values("cholesky", "barnes", "fmm",
                                           "ocean", "water-nsquared",
                                           "raytrace", "server"));

/** Observer keeping every event it sees. */
struct EventSequence final : AccessObserver
{
    std::vector<Event> events;

    void
    onEvents(std::span<const Event> evs) override
    {
        events.insert(events.end(), evs.begin(), evs.end());
    }
};

/**
 * A 4-thread program that issues every op kind; run on 2 cores with a
 * small L2 it also produces context switches and line evictions.
 */
Program
everyKindProgram()
{
    WorkloadBuilder b("every-kind", 4);
    const LockAddr lock = b.allocLock("lock");
    const LockAddr rw = b.allocRwLock("rw");
    const Addr sema = b.allocSema("sema");
    const Addr cond = b.allocCond("cond");
    const Addr latch = b.allocCond("latch");
    const Addr flag = b.allocAtomic("flag");
    const Addr bar = b.allocBarrier("bar");
    const Addr x = b.alloc("x", 64, 32);
    const Addr buf = b.alloc("buf", 32 * 1024, 32);
    const SiteId s = b.site("s");

    b.lock(0, lock, s);
    b.write(0, x, 8, s);
    b.unlock(0, lock, s);
    b.rdlock(0, rw, s);
    b.read(0, x + 32, 8, s);
    b.rdunlock(0, rw, s);
    b.semaPost(0, sema, s);
    b.condSignal(0, cond, s);
    b.atomicStore(0, flag, s);
    for (Addr a = buf; a < buf + 32 * 1024; a += 32)
        b.read(0, a, 8, s);

    b.semaWait(1, sema, s);
    b.wrlock(1, rw, s);
    b.write(1, x + 32, 8, s);
    b.wrunlock(1, rw, s);
    b.condWait(1, cond, s);
    b.atomicLoad(1, flag, s);

    b.condWait(2, latch, s);
    b.read(2, x, 8, s);
    b.condBroadcast(3, latch, s);
    b.compute(3, 5000);

    b.barrierAll(bar, s);
    for (ThreadId t = 0; t < 4; ++t)
        b.read(t, x, 8, s);
    return b.finish();
}

/**
 * One record end to end: the events a live run hands its observers
 * come back from the serialized trace field for field. Replay binds
 * thread t to core t and the trace keeps no context switches; nothing
 * else may differ.
 */
TEST(EventRoundTrip, ReplayedEventsEqualLiveEvents)
{
    const Program prog = everyKindProgram();
    SimConfig cfg;
    cfg.memsys.numCores = 2;
    cfg.memsys.l2.sizeBytes = 8 * 1024;
    TraceRecorder recorder(prog);
    EventSequence live;
    {
        System sys(cfg, prog);
        sys.addObserver(&recorder);
        sys.addObserver(&live);
        sys.run();
    }

    std::set<EventKind> kinds;
    std::vector<Event> expected;
    for (Event ev : live.events) {
        kinds.insert(ev.kind);
        if (ev.kind == EventKind::ContextSwitch)
            continue;
        ev.core = ev.tid;
        expected.push_back(ev);
    }
    for (unsigned k = 0; k <= static_cast<unsigned>(EventKind::ContextSwitch);
         ++k)
        EXPECT_EQ(kinds.count(static_cast<EventKind>(k)), 1u)
            << traceKindName(static_cast<EventKind>(k));

    const Trace trace = recorder.take();
    const std::string bytes = serializeTrace(trace);
    PackedTraceView view;
    std::string err;
    ASSERT_TRUE(openPackedTrace(bytes, &view, &err)) << err;
    EventSequence packed;
    EXPECT_EQ(replayPacked(view, {&packed}), expected.size());
    EventSequence unpacked;
    EXPECT_EQ(replayTrace(trace, {&unpacked}), expected.size());

    ASSERT_EQ(packed.events.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        ASSERT_EQ(packed.events[i], expected[i])
            << "event " << i << " "
            << traceKindName(expected[i].kind);
    EXPECT_EQ(unpacked.events, expected);
}

} // namespace
} // namespace hard
