/**
 * @file
 * Trace-cache tests: key derivation stability (same inputs → same key,
 * any interleaving-relevant config change → a new key), cold-miss
 * record + warm-hit replay, corrupt/truncated entries evicted without
 * crashing, stale format versions treated as misses (re-record), the
 * committed on-disk layout fixture staying byte-stable, and N writers
 * racing on one key resolving cleanly through the atomic rename.
 *
 * The layout fixtures under tests/corpus/trace-cache are regenerated
 * by running this binary with HARD_REGEN_CACHE_FIXTURE=1 (see that
 * directory's README).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "trace/trace.hh"
#include "trace/replayer.hh"
#include "trace/trace_cache.hh"

namespace hard
{
namespace
{

std::string
tmpDir(const std::string &leaf)
{
    const std::string dir = ::testing::TempDir() + leaf;
    std::filesystem::remove_all(dir);
    return dir;
}

std::string
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

void
writeFileBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << path;
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TraceEvent
ev(TraceKind kind, ThreadId tid, Addr addr, unsigned size, SiteId site,
   Cycle at)
{
    TraceEvent e;
    e.kind = kind;
    e.tid = tid;
    e.addr = addr;
    e.size = size;
    e.site = site;
    e.at = at;
    return e;
}

/**
 * The fixture trace/key pair: pure literals, independent of workloads
 * and SimConfig defaults, so the committed container bytes only change
 * when the serialization or container layout itself changes.
 */
TraceKey
fixtureKey()
{
    TraceKey k;
    k.add("traceVersion",
          static_cast<std::uint64_t>(traceFormatVersion()))
        .add("kind", "layout-fixture")
        .add("name", "v1");
    return k;
}

Trace
fixtureTrace()
{
    Trace t;
    t.siteNames = {"fixture.sync", "fixture.t0.write",
                   "fixture.t1.read"};
    t.events = {
        ev(TraceKind::LockAcquire, 0, 0x1000, 0, 0, 10),
        ev(TraceKind::Write, 0, 0x2000, 4, 1, 20),
        ev(TraceKind::LockRelease, 0, 0x1000, 0, 0, 30),
        ev(TraceKind::Read, 1, 0x2004, 4, 2, 40),
        ev(TraceKind::ThreadEnd, 0, 0, 0, 0, 50),
        ev(TraceKind::ThreadEnd, 1, 0, 0, 0, 60),
    };
    t.events[1].stateAfter = CState::Modified;
    t.events[3].stateAfter = CState::Shared;
    t.events[3].sharers = 2;
    return t;
}

void
expectSameTrace(const Trace &a, const Trace &b)
{
    EXPECT_EQ(serializeTrace(a), serializeTrace(b));
}

// ---------------------------------------------------------------------
// Key derivation

TEST(TraceKey, SameInputsSameKey)
{
    WorkloadParams wp;
    wp.scale = 0.25;
    const SimConfig sim;
    TraceKey a = makeRunKey("ocean", wp, sim, 1003);
    TraceKey b = makeRunKey("ocean", wp, sim, 1003);
    EXPECT_EQ(a.canonical(), b.canonical());
    EXPECT_EQ(a.digest(), b.digest());
    EXPECT_EQ(a.digest().size(), 16u);
}

TEST(TraceKey, AnyInterleavingRelevantChangeYieldsANewKey)
{
    WorkloadParams wp;
    wp.scale = 0.25;
    const SimConfig sim;

    std::set<std::string> seen;
    seen.insert(makeRunKey("ocean", wp, sim, -1).digest());
    auto expectNew = [&](const TraceKey &k, const char *what) {
        EXPECT_TRUE(seen.insert(k.digest()).second)
            << what << " did not change the key";
    };

    expectNew(makeRunKey("barnes", wp, sim, -1), "workload name");
    expectNew(makeRunKey("ocean", wp, sim, 1000), "injection seed");
    expectNew(makeRunKey("ocean", wp, sim, 1001), "other injection seed");

    {
        WorkloadParams v = wp;
        v.numThreads = 8;
        expectNew(makeRunKey("ocean", v, sim, -1), "thread count");
    }
    {
        WorkloadParams v = wp;
        v.seed = 2;
        expectNew(makeRunKey("ocean", v, sim, -1), "workload seed");
    }
    {
        WorkloadParams v = wp;
        v.scale = 0.5;
        expectNew(makeRunKey("ocean", v, sim, -1), "scale");
    }

    // Every interleaving-relevant SimConfig field participates.
    auto simVariant = [&](void (*mutate)(SimConfig &), const char *what) {
        SimConfig v;
        mutate(v);
        expectNew(makeRunKey("ocean", wp, v, -1), what);
    };
    simVariant([](SimConfig &s) { s.memsys.numCores = 8; }, "cores");
    simVariant([](SimConfig &s) {
        s.memsys.protocol = CoherenceProtocol::MSI;
    }, "protocol");
    simVariant([](SimConfig &s) { s.memsys.l1.sizeBytes *= 2; },
               "L1 size");
    simVariant([](SimConfig &s) { s.memsys.l1.assoc *= 2; }, "L1 assoc");
    simVariant([](SimConfig &s) { s.memsys.l1.hitLatency += 1; },
               "L1 latency");
    simVariant([](SimConfig &s) { s.memsys.l2.sizeBytes *= 2; },
               "L2 size");
    simVariant([](SimConfig &s) { s.memsys.l2.hitLatency += 1; },
               "L2 latency");
    simVariant([](SimConfig &s) { s.memsys.memLatency += 50; },
               "memory latency");
    simVariant([](SimConfig &s) { s.memsys.bus.addressCycles += 1; },
               "bus address cycles");
    simVariant([](SimConfig &s) { s.memsys.bus.metaPayloadCycles += 1; },
               "bus metadata cycles");
    simVariant([](SimConfig &s) { s.spinPollInterval += 10; },
               "spin poll interval");
    simVariant([](SimConfig &s) { s.barrierReleaseCycles += 10; },
               "barrier release cycles");
    simVariant([](SimConfig &s) { s.maxCycles = 123456; },
               "cycle budget");
    simVariant([](SimConfig &s) { s.watchdogCycles += 1; }, "watchdog");
    simVariant([](SimConfig &s) { s.quantumCycles += 1; }, "quantum");
    simVariant([](SimConfig &s) { s.contextSwitchCycles += 1; },
               "context-switch cost");
}

TEST(TraceKey, FormatVersionIsPartOfEveryRunKey)
{
    WorkloadParams wp;
    const TraceKey k = makeRunKey("ocean", wp, SimConfig{}, -1);
    EXPECT_NE(k.canonical().find(
                  "traceVersion=" +
                  std::to_string(traceFormatVersion()) + ";"),
              std::string::npos)
        << k.canonical();
}

// ---------------------------------------------------------------------
// Cold miss → record → warm hit

TEST(TraceCacheRoundTrip, ColdMissRecordThenWarmHit)
{
    TraceCache cache(tmpDir("tcache_roundtrip"));
    const TraceKey key = fixtureKey();
    const Trace trace = fixtureTrace();

    EXPECT_FALSE(cache.lookup(key).has_value());
    cache.store(key, trace);
    EXPECT_TRUE(std::filesystem::exists(cache.pathFor(key)));

    std::optional<Trace> warm = cache.lookup(key);
    ASSERT_TRUE(warm.has_value());
    expectSameTrace(*warm, trace);

    const TraceCache::Counters c = cache.counters();
    EXPECT_EQ(c.misses, 1u);
    EXPECT_EQ(c.stores, 1u);
    EXPECT_EQ(c.hits, 1u);
    EXPECT_EQ(c.evictedCorrupt, 0u);
    EXPECT_EQ(c.evictedStale, 0u);

    Json stats = cache.statsJson();
    EXPECT_EQ(stats["schema"].asString(), "hard.stats.v1");
    const Json &g = stats["groups"]["traceCache"]["counters"];
    EXPECT_EQ(g["hits"].asUint(), 1u);
    EXPECT_EQ(g["misses"].asUint(), 1u);
    EXPECT_EQ(g["stores"].asUint(), 1u);
    EXPECT_DOUBLE_EQ(
        stats["groups"]["traceCache"]["formulas"]["hitRate"].asDouble(),
        0.5);
}

/** FNV-1a 64 over @p bytes. */
std::uint64_t
fnv1a64(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

TEST(TraceCacheRoundTrip, StoredContainerDigestIsPinned)
{
    // 20000 literal events (about 480 KB of payload, far past any
    // stream buffer), so the whole store path (header, payload,
    // checksum) is held to one digest.
    Trace trace;
    trace.siteNames = {"pin.lock", "pin.write", "pin.read"};
    for (std::uint64_t i = 0; i < 20000; ++i) {
        const ThreadId tid = static_cast<ThreadId>(i % 4);
        const Addr data = 0x10000 + (i * 36) % 8192;
        switch (i % 4) {
        case 0:
            trace.events.push_back(
                ev(TraceKind::LockAcquire, tid, 0x1000, 0, 0, i));
            break;
        case 1:
            trace.events.push_back(
                ev(TraceKind::Write, tid, data & ~Addr{3}, 4, 1, i));
            break;
        case 2:
            trace.events.push_back(
                ev(TraceKind::Read, tid, data & ~Addr{7}, 8, 2, i));
            break;
        default:
            trace.events.push_back(
                ev(TraceKind::LockRelease, tid, 0x1000, 0, 0, i));
            break;
        }
    }
    TraceCache cache(tmpDir("tcache_digest"));
    const TraceKey key = fixtureKey();
    cache.store(key, trace);
    EXPECT_EQ(fnv1a64(readFileBytes(cache.pathFor(key))),
              0xe4e1340071596747ull);
}

TEST(TraceCacheRoundTrip, DistinctKeysGetDistinctEntries)
{
    TraceCache cache(tmpDir("tcache_distinct"));
    TraceKey a = fixtureKey();
    TraceKey b = fixtureKey();
    b.add("extra", std::uint64_t{1});

    Trace ta = fixtureTrace();
    Trace tb = fixtureTrace();
    tb.events.pop_back();

    cache.store(a, ta);
    cache.store(b, tb);
    EXPECT_NE(cache.pathFor(a), cache.pathFor(b));

    std::optional<Trace> ga = cache.lookup(a);
    std::optional<Trace> gb = cache.lookup(b);
    ASSERT_TRUE(ga && gb);
    EXPECT_EQ(ga->events.size(), ta.events.size());
    EXPECT_EQ(gb->events.size(), tb.events.size());
}

// ---------------------------------------------------------------------
// Integrity: corrupt and truncated entries are evicted, never fatal

TEST(TraceCacheIntegrity, TruncatedEntryIsEvictedAndReRecorded)
{
    TraceCache cache(tmpDir("tcache_trunc"));
    const TraceKey key = fixtureKey();
    cache.store(key, fixtureTrace());

    const std::string path = cache.pathFor(key);
    std::string bytes = readFileBytes(path);
    ASSERT_GT(bytes.size(), 16u);
    writeFileBytes(path, bytes.substr(0, bytes.size() / 2));

    EXPECT_FALSE(cache.lookup(key).has_value());
    EXPECT_FALSE(std::filesystem::exists(path)) << "not evicted";
    EXPECT_EQ(cache.counters().evictedCorrupt, 1u);
    EXPECT_EQ(cache.counters().misses, 1u);

    // The slot is usable again: re-record, then hit.
    cache.store(key, fixtureTrace());
    EXPECT_TRUE(cache.lookup(key).has_value());
}

TEST(TraceCacheIntegrity, FlippedPayloadByteFailsTheChecksum)
{
    TraceCache cache(tmpDir("tcache_flip"));
    const TraceKey key = fixtureKey();
    cache.store(key, fixtureTrace());

    const std::string path = cache.pathFor(key);
    std::string bytes = readFileBytes(path);
    // Flip one byte in the payload region (well past the header and
    // canonical key, well before the trailing checksum).
    bytes[bytes.size() - 16] ^= 0x40;
    writeFileBytes(path, bytes);

    EXPECT_FALSE(cache.lookup(key).has_value());
    EXPECT_EQ(cache.counters().evictedCorrupt, 1u);
    EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(TraceCacheIntegrity, GarbageFileIsEvictedWithoutCrashing)
{
    TraceCache cache(tmpDir("tcache_garbage"));
    const TraceKey key = fixtureKey();
    writeFileBytes(cache.pathFor(key), "definitely not a container");
    EXPECT_FALSE(cache.lookup(key).has_value());
    EXPECT_EQ(cache.counters().evictedCorrupt, 1u);
    EXPECT_FALSE(std::filesystem::exists(cache.pathFor(key)));
}

TEST(TraceCacheIntegrity, EmbeddedKeyMismatchCountsAsCollision)
{
    TraceCache cache(tmpDir("tcache_collide"));
    const TraceKey key = fixtureKey();
    cache.store(key, fixtureTrace());

    // Present the same file under a different key (simulating a digest
    // collision): the entry is intact, but it is not ours.
    TraceKey other = fixtureKey();
    other.add("other", std::uint64_t{7});
    std::filesystem::copy_file(cache.pathFor(key), cache.pathFor(other));
    EXPECT_FALSE(cache.lookup(other).has_value());
    EXPECT_EQ(cache.counters().collisions, 1u);
}

// ---------------------------------------------------------------------
// Streaming warm path: replayCached() dispatches exactly what
// replayTrace(lookup()) would, and never dispatches from a bad entry

/** Observer that logs every callback it receives, in order. */
struct EventLog final : AccessObserver
{
    std::vector<std::string> lines;

    void add(const char *what, std::uint64_t a, std::uint64_t b,
             std::uint64_t c)
    {
        char buf[96];
        std::snprintf(buf, sizeof buf, "%s %llu %llu %llu", what,
                      static_cast<unsigned long long>(a),
                      static_cast<unsigned long long>(b),
                      static_cast<unsigned long long>(c));
        lines.push_back(buf);
    }

    void onEvents(std::span<const Event> evs) override
    {
        for (const Event &ev : evs) {
            switch (ev.kind) {
              case EventKind::Read:
                add("read", ev.tid, ev.addr, ev.at);
                break;
              case EventKind::Write:
                add("write", ev.tid, ev.addr, ev.at);
                break;
              case EventKind::LockAcquire:
                add("acq", ev.tid, ev.addr, ev.at);
                break;
              case EventKind::LockRelease:
                add("rel", ev.tid, ev.addr, ev.at);
                break;
              case EventKind::ThreadEnd:
                add("end", ev.tid, 0, ev.at);
                break;
              default:
                break;
            }
        }
    }
};

TEST(TraceCacheStreaming, StreamedReplayMatchesLookupReplay)
{
    TraceCache cache(tmpDir("tcache_stream"));
    const TraceKey key = fixtureKey();
    cache.store(key, fixtureTrace());

    EventLog via_lookup;
    std::optional<Trace> cached = cache.lookup(key);
    ASSERT_TRUE(cached.has_value());
    replayTrace(*cached, {&via_lookup});

    EventLog via_stream;
    std::optional<std::size_t> n =
        cache.replayCached(key, {&via_stream});
    ASSERT_TRUE(n.has_value());
    EXPECT_EQ(*n, fixtureTrace().events.size());
    EXPECT_EQ(via_stream.lines, via_lookup.lines);
    EXPECT_EQ(cache.counters().hits, 2u);
}

TEST(TraceCacheStreaming, MissOnAbsentKeyDispatchesNothing)
{
    TraceCache cache(tmpDir("tcache_stream_miss"));
    EventLog log;
    EXPECT_FALSE(cache.replayCached(fixtureKey(), {&log}).has_value());
    EXPECT_TRUE(log.lines.empty());
    EXPECT_EQ(cache.counters().misses, 1u);
}

TEST(TraceCacheStreaming, CorruptEntryIsEvictedBeforeAnyDispatch)
{
    TraceCache cache(tmpDir("tcache_stream_corrupt"));
    const TraceKey key = fixtureKey();
    cache.store(key, fixtureTrace());

    const std::string path = cache.pathFor(key);
    std::string bytes = readFileBytes(path);
    bytes[bytes.size() - 16] ^= 0x40;
    writeFileBytes(path, bytes);

    // A corrupt tail must never leave the battery half-replayed:
    // validation completes before the first event is dispatched.
    EventLog log;
    EXPECT_FALSE(cache.replayCached(key, {&log}).has_value());
    EXPECT_TRUE(log.lines.empty());
    EXPECT_EQ(cache.counters().evictedCorrupt, 1u);
    EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(TraceCacheStreaming, OutOfRangeThreadIdIsEvictedBeforeAnyDispatch)
{
    TraceCache cache(tmpDir("tcache_stream_badtid"));
    const TraceKey key = fixtureKey();
    // An intact container (the checksum matches) whose payload names a
    // thread no detector can index.
    Trace bad = fixtureTrace();
    bad.events[3].tid = 200;
    cache.store(key, bad);

    EventLog log;
    EXPECT_FALSE(cache.replayCached(key, {&log}).has_value());
    EXPECT_TRUE(log.lines.empty());
    EXPECT_EQ(cache.counters().evictedCorrupt, 1u);
    EXPECT_FALSE(std::filesystem::exists(cache.pathFor(key)));

    // The slot is re-recorded, then hits.
    cache.store(key, fixtureTrace());
    EXPECT_TRUE(cache.replayCached(key, {&log}).has_value());
    EXPECT_FALSE(log.lines.empty());
}

TEST(TraceCacheStreaming, LineCrossingAccessIsEvictedBeforeAnyDispatch)
{
    TraceCache cache(tmpDir("tcache_stream_badaccess"));
    const TraceKey key = fixtureKey();
    // An intact container whose last Read leaves its line: a detector
    // would index past the line's granules.
    Trace bad = fixtureTrace();
    bad.events[3].addr = 0x201c;
    bad.events[3].size = 8;
    cache.store(key, bad);

    EventLog log;
    EXPECT_FALSE(cache.replayCached(key, {&log}).has_value());
    EXPECT_TRUE(log.lines.empty());
    EXPECT_EQ(cache.counters().evictedCorrupt, 1u);
    EXPECT_FALSE(std::filesystem::exists(cache.pathFor(key)));

    cache.store(key, fixtureTrace());
    EXPECT_TRUE(cache.replayCached(key, {&log}).has_value());
    EXPECT_FALSE(log.lines.empty());
}

TEST(TraceCacheStreaming, StaleContainerIsAMissThenReRecord)
{
    TraceCache cache(tmpDir("tcache_stream_stale"));
    const TraceKey key = fixtureKey();
    cache.store(key, fixtureTrace());

    const std::string path = cache.pathFor(key);
    std::string bytes = readFileBytes(path);
    bytes[8] = 1; // a container-v1 entry is stale
    writeFileBytes(path, bytes);

    EventLog log;
    EXPECT_FALSE(cache.replayCached(key, {&log}).has_value());
    EXPECT_TRUE(log.lines.empty());
    EXPECT_EQ(cache.counters().evictedStale, 1u);

    cache.store(key, fixtureTrace());
    EXPECT_TRUE(cache.replayCached(key, {&log}).has_value());
    EXPECT_FALSE(log.lines.empty());
}

// ---------------------------------------------------------------------
// Versioning: bumped format versions are misses, not crashes

TEST(TraceCacheVersioning, BumpedTraceVersionFieldIsStaleMiss)
{
    TraceCache cache(tmpDir("tcache_stale"));
    const TraceKey key = fixtureKey();
    cache.store(key, fixtureTrace());

    // Container layout: magic(8) + u32 containerVersion + u32
    // traceVersion. Bump the embedded trace format version.
    const std::string path = cache.pathFor(key);
    std::string bytes = readFileBytes(path);
    bytes[12] = static_cast<char>(traceFormatVersion() + 1);
    writeFileBytes(path, bytes);

    EXPECT_FALSE(cache.lookup(key).has_value());
    EXPECT_EQ(cache.counters().evictedStale, 1u);
    EXPECT_EQ(cache.counters().evictedCorrupt, 0u);
    EXPECT_FALSE(std::filesystem::exists(path));

    // Re-record restores service under the current version.
    cache.store(key, fixtureTrace());
    EXPECT_TRUE(cache.lookup(key).has_value());
    EXPECT_EQ(cache.counters().hits, 1u);
}

TEST(TraceCacheVersioning, BumpedContainerVersionIsStaleMiss)
{
    TraceCache cache(tmpDir("tcache_stale_container"));
    const TraceKey key = fixtureKey();
    cache.store(key, fixtureTrace());

    const std::string path = cache.pathFor(key);
    std::string bytes = readFileBytes(path);
    bytes[8] = 1; // u32 container version (little-endian low byte):
                  // a v1 entry (serial-FNV checksum era) is stale
    writeFileBytes(path, bytes);

    EXPECT_FALSE(cache.lookup(key).has_value());
    EXPECT_EQ(cache.counters().evictedStale, 1u);
}

// ---------------------------------------------------------------------
// Committed layout fixtures (tests/corpus/trace-cache)

#ifdef HARD_CACHE_FIXTURE_DIR

std::string
fixturePath(const char *name)
{
    return std::string(HARD_CACHE_FIXTURE_DIR) + "/" + name;
}

/** Build the stale-version fixture bytes from the good container. */
std::string
staleFixtureBytes(std::string bytes)
{
    bytes[12] = static_cast<char>(traceFormatVersion() + 1);
    return bytes;
}

TEST(TraceCacheFixture, CommittedContainerBytesAreStable)
{
    TraceCache cache(tmpDir("tcache_fixture_gen"));
    const TraceKey key = fixtureKey();
    cache.store(key, fixtureTrace());
    const std::string produced = readFileBytes(cache.pathFor(key));

    if (std::getenv("HARD_REGEN_CACHE_FIXTURE") != nullptr) {
        writeFileBytes(fixturePath("layout-v2.tcache"), produced);
        writeFileBytes(fixturePath("layout-v2-stale.tcache"),
                       staleFixtureBytes(produced));
        GTEST_SKIP() << "fixtures regenerated";
    }

    EXPECT_EQ(produced, readFileBytes(fixturePath("layout-v2.tcache")))
        << "on-disk cache layout changed; bump the container/trace "
           "format version and regenerate the fixture (see "
           "tests/corpus/trace-cache/README.md)";
}

TEST(TraceCacheFixture, CommittedFixtureLoadsFromACopiedCache)
{
    if (std::getenv("HARD_REGEN_CACHE_FIXTURE") != nullptr)
        GTEST_SKIP();
    // Copy into a scratch cache first: a failed load evicts, and the
    // committed fixture must never be deleted by a test run.
    TraceCache cache(tmpDir("tcache_fixture_load"));
    const TraceKey key = fixtureKey();
    std::filesystem::copy_file(fixturePath("layout-v2.tcache"),
                               cache.pathFor(key));
    std::optional<Trace> got = cache.lookup(key);
    ASSERT_TRUE(got.has_value());
    expectSameTrace(*got, fixtureTrace());
}

TEST(TraceCacheFixture, CommittedStaleFixtureIsMissThenReRecord)
{
    if (std::getenv("HARD_REGEN_CACHE_FIXTURE") != nullptr)
        GTEST_SKIP();
    TraceCache cache(tmpDir("tcache_fixture_stale"));
    const TraceKey key = fixtureKey();
    std::filesystem::copy_file(fixturePath("layout-v2-stale.tcache"),
                               cache.pathFor(key));
    EXPECT_FALSE(cache.lookup(key).has_value());
    EXPECT_EQ(cache.counters().evictedStale, 1u);

    cache.store(key, fixtureTrace());
    std::optional<Trace> got = cache.lookup(key);
    ASSERT_TRUE(got.has_value());
    expectSameTrace(*got, fixtureTrace());
}

#endif // HARD_CACHE_FIXTURE_DIR

// ---------------------------------------------------------------------
// Concurrency: racing writers and readers on one key

TEST(TraceCacheConcurrency, RacingWritersAndReadersNeverSeeTornFiles)
{
    const std::string dir = tmpDir("tcache_race");
    const TraceKey key = fixtureKey();
    const Trace trace = fixtureTrace();

    // Writers share one cache (as --jobs workers share one); readers
    // use their own instance so their counters are isolated.
    TraceCache writers(dir);
    TraceCache readers(dir);

    constexpr unsigned kWriters = 4;
    constexpr unsigned kStoresPerWriter = 25;
    std::atomic<bool> go{false};
    std::atomic<std::uint64_t> readerHits{0};

    std::vector<std::thread> threads;
    for (unsigned w = 0; w < kWriters; ++w)
        threads.emplace_back([&] {
            while (!go.load())
                std::this_thread::yield();
            for (unsigned i = 0; i < kStoresPerWriter; ++i)
                writers.store(key, trace);
        });
    for (unsigned r = 0; r < 2; ++r)
        threads.emplace_back([&] {
            while (!go.load())
                std::this_thread::yield();
            for (unsigned i = 0; i < 50; ++i) {
                std::optional<Trace> got = readers.lookup(key);
                if (got) {
                    ++readerHits;
                    EXPECT_EQ(serializeTrace(*got),
                              serializeTrace(trace));
                }
            }
        });
    go.store(true);
    for (std::thread &t : threads)
        t.join();

    // Atomic rename: a reader either misses (entry not yet published)
    // or sees a complete, intact entry — never corruption.
    EXPECT_EQ(readers.counters().evictedCorrupt, 0u);
    EXPECT_EQ(writers.counters().stores, kWriters * kStoresPerWriter);

    std::optional<Trace> finalGot = readers.lookup(key);
    ASSERT_TRUE(finalGot.has_value());
    expectSameTrace(*finalGot, trace);

    // No temp files left behind.
    unsigned files = 0;
    for (const auto &e : std::filesystem::directory_iterator(dir)) {
        (void)e;
        ++files;
    }
    EXPECT_EQ(files, 1u);
}

TEST(TraceCache, OrphanTempFilesSweptOnOpen)
{
    // A writer killed between the temp write and the publishing
    // rename (crash, SIGKILL, power loss) leaves ".tmp.*" litter; the
    // next open sweeps it and counts the sweep separately from entry
    // evictions.
    const std::string dir = tmpDir("tcache_orphan");
    {
        TraceCache seedCache(dir);
        seedCache.store(fixtureKey(), fixtureTrace());
    }
    const std::string orphanA = dir + "/.tmp.deadbeef.12345.0";
    const std::string orphanB = dir + "/.tmp.deadbeef.12345.1";
    writeFileBytes(orphanA, "torn partial container bytes");
    writeFileBytes(orphanB, "");

    // TTL 0 = sweep regardless of age (tests/offline maintenance).
    TraceCache cache(dir, /*orphanTtlSeconds=*/0);
    EXPECT_FALSE(std::filesystem::exists(orphanA));
    EXPECT_FALSE(std::filesystem::exists(orphanB));
    EXPECT_EQ(cache.counters().evictedOrphan, 2u);

    // The published entry survives the sweep.
    std::optional<Trace> got = cache.lookup(fixtureKey());
    ASSERT_TRUE(got.has_value());
    expectSameTrace(*got, fixtureTrace());

    // A long TTL leaves fresh temp files alone: they may belong to a
    // live writer racing this open.
    writeFileBytes(orphanA, "live writer in flight");
    TraceCache cautious(dir, /*orphanTtlSeconds=*/3600);
    EXPECT_TRUE(std::filesystem::exists(orphanA));
    EXPECT_EQ(cautious.counters().evictedOrphan, 0u);
}

} // namespace
} // namespace hard
