/**
 * @file
 * Tests for the stats v2 framework: histogram bucket-edge behaviour
 * (zero, log2 boundaries, max-u64, linear clamping), distribution
 * moments, zero-denominator formulas, cross-kind name collisions,
 * group reset, sorted dumps, first-increment CounterHandle binding,
 * the hierarchical StatRegistry (duplicate group names, dotted-path
 * lookup, schema tag), statFromJson, the pluggable warn()/inform() log
 * sink, and intervalsPathFor.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "common/logging.hh"
#include "common/stats.hh"
#include "telemetry/sampler.hh"
#include "telemetry/stat_registry.hh"

namespace hard
{
namespace
{

TEST(Histogram, Log2BucketEdges)
{
    Histogram h; // log2, 65 buckets: full uint64 coverage
    EXPECT_EQ(h.bucketOf(0), 0u);
    EXPECT_EQ(h.bucketOf(1), 1u);
    EXPECT_EQ(h.bucketOf(2), 2u);
    EXPECT_EQ(h.bucketOf(3), 2u); // [2, 4)
    EXPECT_EQ(h.bucketOf(4), 3u);
    EXPECT_EQ(h.bucketOf(7), 3u);
    EXPECT_EQ(h.bucketOf(8), 4u);
    // Every power of two opens its own bucket: 2^(i-1) -> bucket i.
    for (unsigned i = 0; i < 64; ++i)
        EXPECT_EQ(h.bucketOf(std::uint64_t{1} << i), i + 1) << "bit " << i;
    EXPECT_EQ(h.bucketOf((std::uint64_t{1} << 20) - 1), 20u);
    EXPECT_EQ(h.bucketOf(std::numeric_limits<std::uint64_t>::max()), 64u);
}

TEST(Histogram, Log2SampleAccounting)
{
    Histogram h;
    h.sample(0);
    h.sample(1);
    h.sample(5, 3); // three samples of 5 in bucket 3
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.sum(), 0u + 1u + 15u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 5u);
    EXPECT_EQ(h.buckets()[0], 1u);
    EXPECT_EQ(h.buckets()[1], 1u);
    EXPECT_EQ(h.buckets()[3], 3u);

    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0u);
    EXPECT_EQ(h.min(), 0u); // empty histogram reads min as 0
    EXPECT_EQ(h.max(), 0u);
    for (std::uint64_t b : h.buckets())
        EXPECT_EQ(b, 0u);
}

TEST(Histogram, LinearBucketsClampIntoLast)
{
    Histogram h(Histogram::Scale::Linear, 10, 4); // [0,10) .. [30,inf)
    EXPECT_EQ(h.bucketOf(0), 0u);
    EXPECT_EQ(h.bucketOf(9), 0u);
    EXPECT_EQ(h.bucketOf(10), 1u);
    EXPECT_EQ(h.bucketOf(39), 3u);
    EXPECT_EQ(h.bucketOf(40), 3u); // clamp
    EXPECT_EQ(h.bucketOf(std::numeric_limits<std::uint64_t>::max()), 3u);
}

TEST(Histogram, JsonShape)
{
    Histogram h(Histogram::Scale::Linear, 2, 3);
    h.sample(1);
    h.sample(5);
    EXPECT_EQ(h.toJson().dump(),
              "{\"buckets\":[1,0,1],\"count\":2,\"max\":5,\"min\":1,"
              "\"scale\":\"linear\",\"sum\":6,\"width\":2}");
}

TEST(Distribution, MomentsAndEmpty)
{
    Distribution d;
    EXPECT_EQ(d.count(), 0u);
    EXPECT_EQ(d.min(), 0u);
    EXPECT_DOUBLE_EQ(d.mean(), 0.0);
    EXPECT_DOUBLE_EQ(d.stddev(), 0.0);

    d.sample(2);
    d.sample(4);
    d.sample(4);
    d.sample(4);
    d.sample(5);
    d.sample(5);
    d.sample(7);
    d.sample(9);
    EXPECT_EQ(d.count(), 8u);
    EXPECT_EQ(d.min(), 2u);
    EXPECT_EQ(d.max(), 9u);
    EXPECT_DOUBLE_EQ(d.mean(), 5.0);
    EXPECT_DOUBLE_EQ(d.stddev(), 2.0); // classic population-stddev set

    d.reset();
    EXPECT_EQ(d.count(), 0u);
    EXPECT_DOUBLE_EQ(d.stddev(), 0.0);
}

TEST(Formula, RatioZeroDenominatorIsZero)
{
    EXPECT_DOUBLE_EQ(Formula::ratio(7, 0), 0.0);
    EXPECT_DOUBLE_EQ(Formula::ratio(0, 0, 1e6), 0.0);
    EXPECT_DOUBLE_EQ(Formula::ratio(1, 4), 0.25);
    EXPECT_DOUBLE_EQ(Formula::ratio(3, 2, 100.0), 150.0);

    Formula empty;
    EXPECT_DOUBLE_EQ(empty.value(), 0.0);
}

TEST(StatGroup, CrossKindCollisionPanics)
{
    StatGroup g("g");
    g.counter("hits");
    EXPECT_DEATH(g.histogram("hits"), "collides");
    EXPECT_DEATH(g.distribution("hits"), "collides");
    EXPECT_DEATH(g.formula("hits", [] { return 0.0; }), "collides");
    // Re-fetching the same flavour is fine (lazy creation).
    ++g.counter("hits");
    EXPECT_EQ(g.value("hits"), 1u);
}

TEST(StatGroup, ResetZeroesEveryFlavour)
{
    StatGroup g("g");
    g.counter("c") += 5;
    g.histogram("h").sample(9);
    g.distribution("d").sample(3);
    g.formula("r", [&g] { return Formula::ratio(g.value("c"), 10); });

    g.reset();
    EXPECT_EQ(g.value("c"), 0u);
    EXPECT_EQ(g.histogram("h").count(), 0u);
    EXPECT_EQ(g.distribution("d").count(), 0u);
    // Formulas recompute from the zeroed inputs.
    Json j = g.toJson();
    EXPECT_DOUBLE_EQ(j["formulas"]["r"].asDouble(), 0.0);
}

TEST(StatGroup, DumpSortedAndPrefixed)
{
    StatGroup g("bus");
    g.counter("zeta").set(1);
    g.counter("alpha").set(2);
    g.counter("mid").set(3);
    auto dump = g.dump();
    ASSERT_EQ(dump.size(), 3u);
    EXPECT_EQ(dump[0].first, "bus.alpha");
    EXPECT_EQ(dump[1].first, "bus.mid");
    EXPECT_EQ(dump[2].first, "bus.zeta");
}

TEST(StatGroup, JsonOmitsEmptySections)
{
    StatGroup g("g");
    g.counter("n").set(4);
    EXPECT_EQ(g.toJson().dump(), "{\"counters\":{\"n\":4}}");
}

TEST(CounterHandle, CreatesItsCounterOnFirstIncrementOnly)
{
    StatGroup g("g");
    CounterHandle untouched(g, "never");
    CounterHandle hits(g, "hits");
    CounterHandle bytes(g, "bytes");
    // An untouched handle leaves no key behind.
    EXPECT_FALSE(g.has("never"));
    EXPECT_EQ(g.toJson().dump(), "{}");

    ++hits;
    bytes += 0; // adding zero still creates the key, as counter() does
    EXPECT_EQ(g.toJson().dump(),
              "{\"counters\":{\"bytes\":0,\"hits\":1}}");

    // After reset() the handle still drives the group's counter.
    g.reset();
    ++hits;
    ++g.counter("hits");
    EXPECT_EQ(g.value("hits"), 2u);
    EXPECT_FALSE(g.has("never"));
}

TEST(StatRegistry, DuplicateGroupNamePanics)
{
    StatRegistry reg;
    StatGroup a("bus"), b("bus");
    reg.add(a);
    EXPECT_DEATH(reg.add(b), "duplicate group 'bus'");
}

TEST(StatRegistry, DottedPathLookupLongestGroupWins)
{
    StatRegistry reg;
    StatGroup bus("bus"), hard("detector.hard");
    bus.counter("dataBytes").set(128);
    hard.counter("metaBroadcasts").set(7);
    reg.add(bus);
    reg.add(hard);

    EXPECT_EQ(reg.value("bus.dataBytes"), 128u);
    // Group names may contain dots; the full group prefix must win.
    EXPECT_EQ(reg.value("detector.hard.metaBroadcasts"), 7u);
    EXPECT_EQ(reg.value("nosuch.counter"), 0u);
    EXPECT_EQ(reg.value("bus.nosuch"), 0u);
    EXPECT_EQ(reg.value("nodots"), 0u);

    EXPECT_EQ(reg.find("bus"), &bus);
    EXPECT_EQ(reg.find("detector.hard"), &hard);
    EXPECT_EQ(reg.find("nope"), nullptr);
}

TEST(StatRegistry, JsonSchemaTagAndRefreshHooks)
{
    StatRegistry reg;
    StatGroup g("sys");
    reg.add(g);
    int source = 0;
    reg.addRefreshHook([&] { g.counter("mirrored").set(
        static_cast<std::uint64_t>(source)); });

    source = 42;
    Json j = reg.toJson();
    EXPECT_EQ(j["schema"].asString(), "hard.stats.v1");
    EXPECT_EQ(j["groups"]["sys"]["counters"]["mirrored"].asUint(), 42u);

    source = 43;
    EXPECT_NE(reg.dumpText().find("sys.mirrored 43"), std::string::npos);
}

TEST(StatRegistry, StatFromJsonRoundTripAndMissingLevels)
{
    StatRegistry reg;
    StatGroup g("bus");
    g.counter("metaBytes").set(99);
    reg.add(g);
    Json doc = reg.toJson();

    EXPECT_EQ(statFromJson(doc, "bus", "metaBytes"), 99u);
    EXPECT_EQ(statFromJson(doc, "bus", "absent"), 0u);
    EXPECT_EQ(statFromJson(doc, "absent", "metaBytes"), 0u);
    EXPECT_EQ(statFromJson(Json(), "bus", "metaBytes"), 0u);
}

TEST(Logging, SinkCapturesWarnAndInform)
{
    std::vector<std::string> lines;
    {
        ScopedLogCapture capture;
        warn("something %s", "odd");
        inform("progress %d", 7);
        lines = capture.lines();
    }
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0], "warn: something odd");
    EXPECT_EQ(lines[1], "info: progress 7");

    // The previous (default stderr) sink is restored on scope exit;
    // nothing to assert beyond "does not crash".
    warn("back to stderr (expected in test output)");
}

TEST(Logging, QuietSilencesSinksToo)
{
    setQuiet(true);
    {
        ScopedLogCapture capture;
        warn("invisible");
        inform("also invisible");
        EXPECT_TRUE(capture.lines().empty());
    }
    setQuiet(false);
}

TEST(Logging, NestedSinksRestoreInOrder)
{
    ScopedLogCapture outer;
    {
        ScopedLogCapture inner;
        warn("inner only");
        EXPECT_EQ(inner.lines().size(), 1u);
    }
    warn("outer now");
    ASSERT_EQ(outer.lines().size(), 1u);
    EXPECT_EQ(outer.lines()[0], "warn: outer now");
}

TEST(Sampler, IntervalsPathDerivation)
{
    EXPECT_EQ(intervalsPathFor("out.json"), "out.intervals.jsonl");
    EXPECT_EQ(intervalsPathFor("/tmp/run.stats.json"),
              "/tmp/run.stats.intervals.jsonl");
    EXPECT_EQ(intervalsPathFor("noext"), "noext.intervals.jsonl");
    // A dot in a directory name is not an extension.
    EXPECT_EQ(intervalsPathFor("a.b/c"), "a.b/c.intervals.jsonl");
}

} // namespace
} // namespace hard
