/**
 * @file
 * Tests for the cache-geometry-limited metadata store (§3.6).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <list>
#include <map>
#include <tuple>
#include <vector>

#include "common/rng.hh"
#include "detectors/meta_cache.hh"

namespace hard
{
namespace
{

struct Payload
{
    int value = -1; // default-constructed == "fresh"
    int resets = 0;

    void
    barrierReset()
    {
        value = -1;
        ++resets;
    }
};

CacheConfig
tinyGeom()
{
    return CacheConfig{256, 2, 32, 0}; // 4 sets x 2 ways
}

TEST(MetaCache, LookupCreatesFresh)
{
    MetaCache<Payload> mc(tinyGeom(), false);
    bool fresh = false;
    Payload &p = *mc.lookup(0x47, fresh);
    EXPECT_TRUE(fresh);
    EXPECT_EQ(p.value, -1);
    p.value = 7;

    // Same line (0x40..0x5f): metadata persists.
    Payload &q = *mc.lookup(0x5f, fresh);
    EXPECT_FALSE(fresh);
    EXPECT_EQ(q.value, 7);
}

TEST(MetaCache, EvictionLosesMetadata)
{
    MetaCache<Payload> mc(tinyGeom(), false);
    const Addr stride = tinyGeom().numSets() * 32; // same-set alias
    bool fresh;
    mc.lookup(0x0, fresh)->value = 1;
    mc.lookup(stride, fresh)->value = 2;
    // Third alias evicts LRU (0x0).
    mc.lookup(2 * stride, fresh)->value = 3;
    EXPECT_EQ(mc.evictions(), 1u);
    EXPECT_EQ(mc.find(0x0), nullptr);

    // Re-lookup is fresh: the §3.6 detection-window loss.
    Payload &p = *mc.lookup(0x0, fresh);
    EXPECT_TRUE(fresh);
    EXPECT_EQ(p.value, -1);
}

TEST(MetaCache, LruKeepsRecentlyUsed)
{
    MetaCache<Payload> mc(tinyGeom(), false);
    const Addr stride = tinyGeom().numSets() * 32;
    bool fresh;
    mc.lookup(0x0, fresh)->value = 1;
    mc.lookup(stride, fresh)->value = 2;
    mc.lookup(0x0, fresh); // refresh 0x0; stride is now LRU
    mc.lookup(2 * stride, fresh);
    EXPECT_NE(mc.find(0x0), nullptr);
    EXPECT_EQ(mc.find(stride), nullptr);
}

TEST(MetaCache, UnboundedNeverEvicts)
{
    MetaCache<Payload> mc(tinyGeom(), true);
    bool fresh;
    for (Addr a = 0; a < 100 * 32; a += 32)
        mc.lookup(a, fresh)->value = static_cast<int>(a);
    EXPECT_EQ(mc.evictions(), 0u);
    EXPECT_EQ(mc.residentLines(), 100u);
    for (Addr a = 0; a < 100 * 32; a += 32) {
        Payload *p = mc.find(a);
        ASSERT_NE(p, nullptr);
        EXPECT_EQ(p->value, static_cast<int>(a));
    }
}

TEST(MetaCache, ForEachVisitsAllResidentLines)
{
    MetaCache<Payload> mc(tinyGeom(), false);
    bool fresh;
    mc.lookup(0x0, fresh)->value = 1;
    mc.lookup(0x40, fresh)->value = 2;
    int sum = 0;
    unsigned count = 0;
    mc.forEach([&](Addr, Payload *p) {
        sum += p->value;
        ++count;
    });
    EXPECT_EQ(count, 2u);
    EXPECT_EQ(sum, 3);
}

TEST(MetaCache, FindDoesNotCreate)
{
    MetaCache<Payload> mc(tinyGeom(), false);
    EXPECT_EQ(mc.find(0x1000), nullptr);
    EXPECT_EQ(mc.residentLines(), 0u);
}

/** Property: bounded stores respect capacity; unbounded never lose. */
class MetaCacheProperty : public ::testing::TestWithParam<bool>
{
};

TEST_P(MetaCacheProperty, CapacityAndFreshnessInvariants)
{
    const bool unbounded = GetParam();
    MetaCache<Payload> mc(tinyGeom(), unbounded);
    const std::size_t capacity = tinyGeom().numSets() * tinyGeom().assoc;
    Rng rng(5);
    std::uint64_t created = 0;

    for (int i = 0; i < 3000; ++i) {
        Addr a = rng.below(64) * 32;
        bool fresh;
        Payload &p = *mc.lookup(a, fresh);
        if (fresh) {
            ASSERT_EQ(p.value, -1) << "stale payload on fresh line";
            p.value = 1;
            ++created;
        } else {
            ASSERT_EQ(p.value, 1);
        }
        if (!unbounded) {
            ASSERT_LE(mc.residentLines(), capacity);
        }
    }
    if (unbounded) {
        EXPECT_EQ(mc.evictions(), 0u);
        EXPECT_EQ(created, 64u); // one creation per distinct line
    } else {
        // Every creation beyond the first 64 is a re-creation of a
        // previously evicted line; some evicted lines may never come
        // back, so this is an upper bound.
        EXPECT_GE(created, 64u);
        EXPECT_LE(created, 64u + mc.evictions());
        EXPECT_GT(mc.evictions(), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(Modes, MetaCacheProperty, ::testing::Bool());

TEST(MetaCache, BarrierResetsResidentLinesLazilyWithoutRefetch)
{
    for (bool unbounded : {false, true}) {
        MetaCache<Payload> mc(tinyGeom(), unbounded, 2);
        bool fresh;
        Payload *a = mc.lookup(0x40, fresh);
        a[0].value = 1;
        a[1].value = 2;
        mc.lookup(0x80, fresh)->value = 3;
        mc.onBarrier();
        EXPECT_EQ(mc.epoch(), 1u);
        EXPECT_EQ(mc.residentLines(), 2u);

        // The stale line is reset when reached, not refetched.
        Payload *again = mc.lookup(0x5c, fresh);
        EXPECT_FALSE(fresh);
        EXPECT_EQ(again, a);
        EXPECT_EQ(again[0].value, -1);
        EXPECT_EQ(again[1].value, -1);
        EXPECT_EQ(again[0].resets, 1);
        EXPECT_EQ(mc.hits(), 1u);
        EXPECT_EQ(mc.evictions(), 0u);

        // Only once per barrier; find() and forEach() reset too.
        again[0].value = 4;
        EXPECT_EQ(mc.lookup(0x40, fresh)->value, 4);
        EXPECT_EQ(mc.find(0x40)->resets, 1);
        EXPECT_EQ(mc.find(0x80)->value, -1);
        mc.onBarrier();
        mc.onBarrier();
        int resets = 0;
        mc.forEach([&](Addr, Payload *g) {
            EXPECT_EQ(g[0].value, -1);
            resets += g[0].resets;
        });
        EXPECT_EQ(resets, 2 + 2);
    }
}

TEST(MetaCache, EpochWrapResetsEveryResidentLineOnce)
{
    const std::uint32_t last = std::numeric_limits<std::uint32_t>::max();
    for (bool unbounded : {false, true}) {
        MetaCache<Payload> mc(tinyGeom(), unbounded, 1, last - 1);
        bool fresh;
        mc.lookup(0x0, fresh)->value = 1;  // stamped last - 1
        mc.onBarrier();                    // epoch last
        mc.lookup(0x20, fresh)->value = 2; // stamped last
        mc.onBarrier();                    // wraps to 0: reset now
        EXPECT_EQ(mc.epoch(), 0u);
        for (Addr a : {Addr{0x0}, Addr{0x20}}) {
            Payload *p = mc.find(a);
            ASSERT_NE(p, nullptr);
            EXPECT_EQ(p->value, -1);
            EXPECT_EQ(p->resets, 1);
            p->value = 5;
        }
        // Lines filled after the wrap start current.
        EXPECT_EQ(mc.lookup(0x60, fresh)->resets, 0);
        EXPECT_EQ(mc.lookup(0x20, fresh)->value, 5);
        mc.onBarrier();
        EXPECT_EQ(mc.lookup(0x20, fresh)->value, -1);
        EXPECT_EQ(mc.find(0x20)->resets, 2);
        EXPECT_EQ(mc.residentLines(), 3u);
    }
}

TEST(MetaCache, UnboundedHandlesPageEdgesAndTopOfMemory)
{
    MetaCache<Payload> mc(tinyGeom(), true, 8);
    const Addr top = std::numeric_limits<Addr>::max();
    bool fresh;
    for (Addr a : {Addr{0}, Addr{64 * 32 - 1}, Addr{64 * 32}, top}) {
        Payload *p = mc.lookup(a, fresh);
        EXPECT_TRUE(fresh);
        p[7].value = static_cast<int>(a & 0xfff);
    }
    EXPECT_EQ(mc.residentLines(), 4u);
    EXPECT_EQ(mc.find(top)[7].value, 0xfff);
    EXPECT_EQ(mc.find(64 * 32 - 32)[7].value, 64 * 32 - 1);
    std::vector<Addr> lines;
    mc.forEach([&](Addr line, Payload *) { lines.push_back(line); });
    std::sort(lines.begin(), lines.end());
    EXPECT_EQ(lines, (std::vector<Addr>{0, 62 * 32 + 32, 64 * 32,
                                        top - 31}));
    EXPECT_TRUE(mc.erase(top));
    EXPECT_FALSE(mc.erase(top));
    EXPECT_EQ(mc.find(top), nullptr);
    EXPECT_EQ(mc.lookup(top, fresh)[7].value, -1);
    EXPECT_TRUE(fresh);
}

/**
 * The reference model: per set, resident lines in most-recently-used
 * order (the front is the MRU line), each with its granule values and
 * a stale flag that a barrier sets. A bounded set holds at most assoc
 * lines and evicts its LRU line when full; the unbounded model is one
 * set with no capacity limit. A stale line is reset once, when next
 * reached.
 */
class LruModel
{
  public:
    struct Line
    {
        Addr addr;
        std::vector<int> values;
        /** Barrier resets since the line was filled. */
        int resets = 0;
        bool stale = false;
    };

    LruModel(const CacheConfig &geom, bool unbounded, unsigned granules,
             std::uint32_t first_epoch)
        : geom_(geom), unbounded_(unbounded), granules_(granules),
          epoch_(first_epoch)
    {
    }

    /** @return the line, made current; fresh/evicted as lookup(). */
    Line &
    lookup(Addr addr, bool &fresh, Addr &evicted)
    {
        ++lookups;
        evicted = invalidAddr;
        std::list<Line> &set = setOf(addr);
        auto it = findIn(set, addr);
        fresh = it == set.end();
        if (!fresh) {
            ++hits;
            set.splice(set.begin(), set, it);
        } else {
            if (!unbounded_ && set.size() == geom_.assoc) {
                evicted = set.back().addr;
                set.pop_back();
                ++evictions;
            }
            set.push_front(Line{geom_.lineAddr(addr),
                                std::vector<int>(granules_, -1)});
        }
        return current(set.front());
    }

    /** @return the line if resident (made current), else null. */
    Line *
    find(Addr addr)
    {
        std::list<Line> &set = setOf(addr);
        auto it = findIn(set, addr);
        return it == set.end() ? nullptr : &current(*it);
    }

    bool
    erase(Addr addr)
    {
        std::list<Line> &set = setOf(addr);
        auto it = findIn(set, addr);
        if (it == set.end())
            return false;
        set.erase(it);
        ++evictions;
        return true;
    }

    /** A barrier; when the epoch wraps to 0 every resident line is
     * reset at once instead of when next reached. */
    void
    barrier()
    {
        for (auto &kv : sets_)
            for (Line &l : kv.second)
                l.stale = true;
        if (++epoch_ == 0)
            snapshot();
    }

    std::size_t
    resident() const
    {
        std::size_t n = 0;
        for (const auto &kv : sets_)
            n += kv.second.size();
        return n;
    }

    /** @return every resident line, made current, by address. */
    std::map<Addr, std::vector<int>>
    snapshot()
    {
        std::map<Addr, std::vector<int>> out;
        for (auto &kv : sets_)
            for (Line &l : kv.second)
                out[l.addr] = current(l).values;
        return out;
    }

    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t evictions = 0;

  private:
    Line &
    current(Line &l)
    {
        if (l.stale) {
            std::fill(l.values.begin(), l.values.end(), -1);
            ++l.resets;
            l.stale = false;
        }
        return l;
    }

    std::list<Line> &
    setOf(Addr addr)
    {
        return sets_[unbounded_ ? 0 : geom_.setIndex(addr)];
    }

    std::list<Line>::iterator
    findIn(std::list<Line> &set, Addr addr)
    {
        const Addr line = geom_.lineAddr(addr);
        for (auto it = set.begin(); it != set.end(); ++it)
            if (it->addr == line)
                return it;
        return set.end();
    }

    CacheConfig geom_;
    bool unbounded_;
    unsigned granules_;
    std::uint32_t epoch_;
    std::map<std::uint64_t, std::list<Line>> sets_;
};

/** (unbounded, granules per line) */
class MetaCacheModel
    : public ::testing::TestWithParam<std::tuple<bool, unsigned>>
{
};

TEST_P(MetaCacheModel, RandomOperationsMatchListLru)
{
    const auto [unbounded, granules] = GetParam();
    const std::uint32_t last = std::numeric_limits<std::uint32_t>::max();
    // A 2-way and an 8-way store, from epoch 0 and from just before
    // the epoch wraps.
    const CacheConfig geoms[] = {tinyGeom(), CacheConfig{2048, 8, 32, 0}};
    for (const CacheConfig &geom : geoms) {
        for (std::uint32_t first_epoch : {0u, last - 3}) {
            SCOPED_TRACE(::testing::Message()
                         << "assoc " << geom.assoc << " first epoch "
                         << first_epoch);
            MetaCache<Payload> mc(geom, unbounded, granules, first_epoch);
            LruModel model(geom, unbounded, granules, first_epoch);
            Rng rng(1000 + 10 * geom.assoc + granules +
                    (first_epoch != 0 ? 1 : 0));
            // 3x as many lines as the 8-way store holds, spread over
            // several unbounded pages; plus the top line of memory.
            auto pick = [&rng] {
                if (rng.below(50) == 0)
                    return std::numeric_limits<Addr>::max() -
                           rng.below(32);
                return rng.below(192) * 32 * 5 + rng.below(32);
            };

            for (int step = 0; step < 4000; ++step) {
                SCOPED_TRACE(step);
                const unsigned op = static_cast<unsigned>(rng.below(100));
                const Addr a = pick();
                if (op < 70) {
                    bool fresh = false;
                    Addr evicted = 0;
                    Payload *g = mc.lookup(a, fresh, &evicted);
                    bool want_fresh = false;
                    Addr want_evicted = 0;
                    LruModel::Line &l =
                        model.lookup(a, want_fresh, want_evicted);
                    ASSERT_EQ(fresh, want_fresh);
                    ASSERT_EQ(evicted, want_evicted);
                    for (unsigned k = 0; k < granules; ++k) {
                        ASSERT_EQ(g[k].value, l.values[k]) << k;
                        ASSERT_EQ(g[k].resets, l.resets) << k;
                    }
                    const unsigned k =
                        static_cast<unsigned>(rng.below(granules));
                    g[k].value = l.values[k] = step;
                } else if (op < 85) {
                    Payload *g = mc.find(a);
                    LruModel::Line *l = model.find(a);
                    ASSERT_EQ(g == nullptr, l == nullptr);
                    for (unsigned k = 0; l != nullptr && k < granules;
                         ++k) {
                        ASSERT_EQ(g[k].value, l->values[k]) << k;
                        ASSERT_EQ(g[k].resets, l->resets) << k;
                    }
                } else if (op < 95) {
                    ASSERT_EQ(mc.erase(a), model.erase(a));
                } else if (op < 98) {
                    mc.onBarrier();
                    model.barrier();
                } else {
                    std::map<Addr, std::vector<int>> seen;
                    mc.forEach([&](Addr line, Payload *g) {
                        std::vector<int> &v = seen[line];
                        for (unsigned k = 0; k < granules; ++k)
                            v.push_back(g[k].value);
                    });
                    ASSERT_EQ(seen, model.snapshot());
                }
                ASSERT_EQ(mc.lookups(), model.lookups);
                ASSERT_EQ(mc.hits(), model.hits);
                ASSERT_EQ(mc.evictions(), model.evictions);
                ASSERT_EQ(mc.residentLines(), model.resident());
            }
            EXPECT_GT(model.hits, 0u);
            if (!unbounded) {
                EXPECT_GT(model.evictions, 0u);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndGranules, MetaCacheModel,
    ::testing::Combine(::testing::Bool(), ::testing::Values(1u, 2u, 8u)));

} // namespace
} // namespace hard
