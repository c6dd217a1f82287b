/**
 * @file
 * Tests for the exact-lockset core (detectors/lockset_core.hh): the
 * interned LocksetTable, the page-table ShadowMemory with its epoch
 * reset, and the HeldLocks hold-set bookkeeping.
 */

#include <gtest/gtest.h>

#include <limits>

#include "detectors/lockset_core.hh"

namespace hard
{
namespace
{

TEST(LocksetTable, SameSetSameIdWhateverTheInsertionOrder)
{
    LocksetTable t;
    const LocksetId ab =
        t.with(t.with(kEmptyLockset, 0x100), 0x200);
    const LocksetId ba =
        t.with(t.with(kEmptyLockset, 0x200), 0x100);
    EXPECT_EQ(ab, ba);
    EXPECT_EQ(t.intern({0x200, 0x100}), ab);
    EXPECT_NE(ab, kEmptyLockset);
    EXPECT_NE(ab, kUniverseLockset);
    EXPECT_EQ(t.locks(ab), (std::set<LockAddr>{0x100, 0x200}));
    EXPECT_EQ(t.without(ab, 0x200), t.intern({0x100}));
    EXPECT_EQ(t.without(t.without(ab, 0x100), 0x200), kEmptyLockset);
}

TEST(LocksetTable, MeetIdentities)
{
    LocksetTable t;
    const LocksetId x = t.intern({0x1a4, 0x2b8});
    EXPECT_EQ(t.meet(kUniverseLockset, x), x);
    EXPECT_EQ(t.meet(x, kUniverseLockset), x);
    EXPECT_EQ(t.meet(x, x), x);
    EXPECT_EQ(t.meet(kEmptyLockset, x), kEmptyLockset);
    EXPECT_EQ(t.meet(x, kEmptyLockset), kEmptyLockset);
    EXPECT_EQ(t.meet(kUniverseLockset, kUniverseLockset),
              kUniverseLockset);
    EXPECT_EQ(t.intern({}), kEmptyLockset);
}

TEST(LocksetTable, MeetMatchesExactIntersectionAndMemoizes)
{
    LocksetTable t;
    const LocksetId a = t.intern({0x1a4, 0x3cc, 0x4d0});
    const LocksetId b = t.intern({0x1a4, 0x2b8});
    const LocksetId m = t.meet(a, b);
    EXPECT_EQ(t.locks(m), (std::set<LockAddr>{0x1a4}));

    ExactLockset ref;
    ref.intersect(t.locks(a));
    ref.intersect(t.locks(b));
    EXPECT_EQ(t.locks(m), ref.locks());

    // A memo hit (either operand order) returns the same id and adds
    // no set to the table.
    const std::size_t before = t.count();
    EXPECT_EQ(t.meet(a, b), m);
    EXPECT_EQ(t.meet(b, a), m);
    EXPECT_EQ(t.count(), before);

    const LocksetId disjoint = t.intern({0x500});
    EXPECT_EQ(t.meet(a, disjoint), kEmptyLockset);
}

TEST(LocksetTable, SetSizes)
{
    LocksetTable t;
    EXPECT_EQ(t.size(kEmptyLockset), 0u);
    EXPECT_EQ(t.size(kUniverseLockset), 0u);
    EXPECT_TRUE(t.locks(kUniverseLockset).empty());
    EXPECT_EQ(t.size(t.intern({0x10})), 1u);
    EXPECT_EQ(t.size(t.intern({0x10, 0x20, 0x30})), 3u);
    EXPECT_TRUE(t.contains(t.intern({0x10, 0x20}), 0x20));
    EXPECT_FALSE(t.contains(t.intern({0x10, 0x20}), 0x30));
    EXPECT_FALSE(t.contains(kUniverseLockset, 0x10));
}

/** A shadow record that counts its barrier resets. */
struct Probe
{
    int value = 0;
    int resets = 0;

    void
    barrierReset()
    {
        value = 0;
        ++resets;
    }
};

TEST(ShadowMemory, AddressZeroAndTopOfAddressSpace)
{
    ShadowMemory<Probe> s(4);
    s.at(0).value = 1;
    const Addr high = Addr{1} << 63;
    s.at(high).value = 2;
    const Addr top = std::numeric_limits<Addr>::max();
    s.at(top).value = 3;
    EXPECT_EQ(s.at(0).value, 1);
    EXPECT_EQ(s.at(3).value, 1); // same 4-byte granule
    EXPECT_EQ(s.at(high).value, 2);
    EXPECT_EQ(s.at(high + 4).value, 0);
    EXPECT_EQ(s.at(top - 3).value, 3);
    EXPECT_EQ(s.pageCount(), 3u);
}

TEST(ShadowMemory, GranularityDecidesWhichAddressesShare)
{
    for (unsigned gran : {4u, 8u, 64u}) {
        ShadowMemory<Probe> s(gran);
        s.at(0x1000).value = 7;
        EXPECT_EQ(s.at(0x1000 + gran - 1).value, 7) << gran;
        EXPECT_EQ(s.at(0x1000 + gran).value, 0) << gran;
        EXPECT_EQ(s.at(0x1000 - 1).value, 0) << gran;

        std::vector<Addr> seen;
        s.forEach(0x1001, 2 * gran, [&](Addr a, Probe &) {
            seen.push_back(a);
        });
        EXPECT_EQ(seen, (std::vector<Addr>{0x1000, 0x1000 + gran,
                                           0x1000 + 2 * gran}))
            << gran;
    }
}

TEST(ShadowMemory, ZeroSizeAccessTouchesOneGranule)
{
    ShadowMemory<Probe> s(8);
    std::vector<Addr> seen;
    s.forEach(0x2007, 0, [&](Addr a, Probe &) { seen.push_back(a); });
    EXPECT_EQ(seen, (std::vector<Addr>{0x2000}));
}

TEST(ShadowMemory, OneAccessSpanningTwoPages)
{
    ShadowMemory<Probe> s(4);
    const Addr page_bytes = Addr{4} << ShadowMemory<Probe>::kPageBits;
    const Addr boundary = 3 * page_bytes;
    std::vector<Addr> seen;
    s.forEach(boundary - 4, 8, [&](Addr a, Probe &p) {
        seen.push_back(a);
        p.value = static_cast<int>(a - boundary) + 100;
    });
    EXPECT_EQ(seen, (std::vector<Addr>{boundary - 4, boundary}));
    EXPECT_EQ(s.pageCount(), 2u);
    EXPECT_EQ(s.at(boundary - 4).value, 96);
    EXPECT_EQ(s.at(boundary).value, 100);
    EXPECT_EQ(s.at(boundary + 4).value, 0);
}

TEST(ShadowMemory, BarrierMakesEveryGranuleStaleOnce)
{
    ShadowMemory<Probe> s(4);
    s.at(0x10).value = 1;
    s.at(0x90000).value = 2;
    EXPECT_EQ(s.at(0x10).resets, 0);

    s.onBarrier();
    EXPECT_EQ(s.epoch(), 1u);
    // Each granule is reset on its first look-up after the barrier,
    // and only then.
    EXPECT_EQ(s.at(0x10).value, 0);
    EXPECT_EQ(s.at(0x10).resets, 1);
    s.at(0x10).value = 5;
    EXPECT_EQ(s.at(0x10).value, 5);
    EXPECT_EQ(s.at(0x10).resets, 1);

    // Two barriers with no access between them: still one reset.
    s.onBarrier();
    s.onBarrier();
    EXPECT_EQ(s.at(0x90000).value, 0);
    EXPECT_EQ(s.at(0x90000).resets, 1);
    EXPECT_EQ(s.at(0x10).value, 0);
    EXPECT_EQ(s.at(0x10).resets, 2);

    // A page allocated after a barrier starts in the current epoch.
    EXPECT_EQ(s.at(0x500000).resets, 0);
}

TEST(ShadowMemory, EpochWrapResetsEveryGranule)
{
    const std::uint32_t last = std::numeric_limits<std::uint32_t>::max();
    ShadowMemory<Probe> s(4, last - 1);
    s.at(0x10).value = 1; // stamped last - 1
    s.onBarrier();        // epoch last
    s.at(0x20).value = 2; // stamped last
    s.onBarrier();        // wraps to 0: every granule is reset now
    EXPECT_EQ(s.epoch(), 0u);
    EXPECT_EQ(s.at(0x10).value, 0);
    EXPECT_EQ(s.at(0x20).value, 0);
    const int resets = s.at(0x20).resets;
    s.at(0x20).value = 3;
    EXPECT_EQ(s.at(0x20).value, 3);
    EXPECT_EQ(s.at(0x20).resets, resets);
    s.onBarrier();
    EXPECT_EQ(s.at(0x20).value, 0);
    EXPECT_EQ(s.at(0x20).resets, resets + 1);
}

TEST(HeldLocks, TracksBothModesAndTheProtectingSets)
{
    HeldLocks h("test", false);
    const LocksetTable &t = h.table();
    h.acquire(0, 0x100, true, false);  // mutex
    h.acquire(0, 0x200, false, true);  // rwlock, reader mode
    EXPECT_EQ(h.writeHeld(0), (std::set<LockAddr>{0x100}));
    EXPECT_EQ(h.readHeld(0), (std::set<LockAddr>{0x200}));
    EXPECT_EQ(t.locks(h.protecting(0, true)),
              (std::set<LockAddr>{0x100}));
    EXPECT_EQ(t.locks(h.protecting(0, false)),
              (std::set<LockAddr>{0x100, 0x200}));
    EXPECT_EQ(h.maxHeld(), 2u);

    h.release(0, 0x200, false, true);
    EXPECT_EQ(t.locks(h.protecting(0, false)),
              (std::set<LockAddr>{0x100}));
    h.release(0, 0x100, true, false);
    EXPECT_EQ(h.protecting(0, true), kEmptyLockset);
    EXPECT_EQ(h.protecting(0, false), kEmptyLockset);

    // A thread never seen holds nothing.
    EXPECT_EQ(h.protecting(7, false), kEmptyLockset);
    EXPECT_TRUE(h.writeHeld(7).empty());
    EXPECT_TRUE(h.readHeld(7).empty());
    EXPECT_EQ(h.maxHeld(), 2u);
}

TEST(HeldLocks, OneAddressHeldInBothModesStaysProtectingReads)
{
    // Only tolerant replays produce this, but the read-protecting set
    // must stay the exact union of the two modes.
    HeldLocks h("test", true);
    h.acquire(0, 0x100, true, false);
    h.acquire(0, 0x100, false, true);
    h.release(0, 0x100, true, false);
    EXPECT_TRUE(h.table().contains(h.protecting(0, false), 0x100));
    EXPECT_FALSE(h.table().contains(h.protecting(0, true), 0x100));
    h.release(0, 0x100, false, true);
    EXPECT_EQ(h.protecting(0, false), kEmptyLockset);
}

TEST(HeldLocks, TolerantModeIgnoresUnbalancedEvents)
{
    HeldLocks h("test", true);
    h.release(0, 0x100, true, false);
    h.acquire(0, 0x100, true, false);
    h.acquire(0, 0x100, true, false);
    EXPECT_EQ(h.writeHeld(0), (std::set<LockAddr>{0x100}));
    h.release(0, 0x100, true, false);
    EXPECT_TRUE(h.writeHeld(0).empty());
}

TEST(HeldLocksDeathTest, StrictModePanicsWithTheDetectorPrefix)
{
    EXPECT_DEATH(
        {
            HeldLocks h("who", false);
            h.acquire(3, 0xab, true, false);
            h.acquire(3, 0xab, true, false);
        },
        "who: thread 3 re-acquired lock ab");
    EXPECT_DEATH(
        {
            HeldLocks h("who", false);
            h.release(1, 0xcd, false, true);
        },
        "who: thread 1 released unheld rwlock cd");
}

} // namespace
} // namespace hard
