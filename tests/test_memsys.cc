/**
 * @file
 * Unit and property tests for the snoopy MESI memory system, the bus's
 * per-transaction counters and the shift/mask cache index.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "coherence/memsys.hh"
#include "common/rng.hh"
#include "core/hard_detector.hh"

namespace hard
{
namespace
{

MemSysConfig
smallSys()
{
    MemSysConfig cfg;
    cfg.numCores = 4;
    cfg.l1 = CacheConfig{1024, 2, 32, 3};
    cfg.l2 = CacheConfig{8192, 4, 32, 10};
    cfg.memLatency = 200;
    return cfg;
}

TEST(MemSys, ColdReadMissGoesToMemoryAndFillsExclusive)
{
    MemorySystem m(smallSys());
    AccessOutcome out = m.access(0, 0x1000, 8, false, 0);
    EXPECT_FALSE(out.l1Hit);
    EXPECT_EQ(out.source, AccessSource::Memory);
    EXPECT_EQ(out.stateAfter, CState::Exclusive);
    EXPECT_EQ(out.sharers, 1u);
    EXPECT_TRUE(out.lineTransferred);
    EXPECT_GE(out.completeAt, 200u);
}

TEST(MemSys, SecondReadHitsL1)
{
    MemorySystem m(smallSys());
    Cycle t = m.access(0, 0x1000, 8, false, 0).completeAt;
    AccessOutcome out = m.access(0, 0x1000, 8, false, t);
    EXPECT_TRUE(out.l1Hit);
    EXPECT_EQ(out.source, AccessSource::L1);
    EXPECT_EQ(out.completeAt, t + 3);
}

TEST(MemSys, ReadSharingDemotesExclusiveToShared)
{
    MemorySystem m(smallSys());
    m.access(0, 0x1000, 8, false, 0);
    AccessOutcome out = m.access(1, 0x1000, 8, false, 300);
    EXPECT_EQ(out.stateAfter, CState::Shared);
    EXPECT_EQ(out.sharers, 2u);
    EXPECT_EQ(m.l1(0).state(0x1000), CState::Shared);
}

TEST(MemSys, SilentExclusiveToModifiedUpgrade)
{
    MemorySystem m(smallSys());
    m.access(0, 0x1000, 8, false, 0);
    AccessOutcome out = m.access(0, 0x1000, 8, true, 300);
    EXPECT_TRUE(out.l1Hit);
    EXPECT_EQ(out.stateAfter, CState::Modified);
    // No bus transaction for the silent upgrade.
    EXPECT_EQ(m.bus().stats().value("txn.BusUpgr"), 0u);
}

TEST(MemSys, WriteToSharedIssuesUpgradeAndInvalidates)
{
    MemorySystem m(smallSys());
    m.access(0, 0x1000, 8, false, 0);
    m.access(1, 0x1000, 8, false, 300);
    AccessOutcome out = m.access(0, 0x1000, 8, true, 600);
    EXPECT_EQ(out.stateAfter, CState::Modified);
    EXPECT_EQ(out.sharers, 1u);
    EXPECT_EQ(m.l1(1).state(0x1000), CState::Invalid);
    EXPECT_EQ(m.bus().stats().value("txn.BusUpgr"), 1u);
}

TEST(MemSys, WriteMissInvalidatesAllOtherCopies)
{
    MemorySystem m(smallSys());
    m.access(0, 0x1000, 8, false, 0);
    m.access(1, 0x1000, 8, false, 300);
    AccessOutcome out = m.access(2, 0x1000, 8, true, 600);
    EXPECT_EQ(out.stateAfter, CState::Modified);
    EXPECT_EQ(out.sharers, 1u);
    EXPECT_EQ(m.l1(0).state(0x1000), CState::Invalid);
    EXPECT_EQ(m.l1(1).state(0x1000), CState::Invalid);
}

TEST(MemSys, DirtyLineSuppliedCacheToCache)
{
    MemorySystem m(smallSys());
    m.access(0, 0x1000, 8, true, 0); // core 0 owns M
    AccessOutcome out = m.access(1, 0x1000, 8, false, 300);
    EXPECT_EQ(out.source, AccessSource::OtherL1);
    EXPECT_EQ(out.stateAfter, CState::Shared);
    EXPECT_EQ(m.l1(0).state(0x1000), CState::Shared);
    EXPECT_EQ(m.stats().value("cacheToCache"), 1u);
}

TEST(MemSys, WriteTakesOwnershipFromModifiedOwner)
{
    MemorySystem m(smallSys());
    m.access(0, 0x1000, 8, true, 0);
    AccessOutcome out = m.access(1, 0x1000, 8, true, 300);
    EXPECT_EQ(out.stateAfter, CState::Modified);
    EXPECT_EQ(m.l1(0).state(0x1000), CState::Invalid);
    EXPECT_EQ(out.sharers, 1u);
}

TEST(MemSys, L2HitIsFasterThanMemory)
{
    MemorySystem m(smallSys());
    // Fill the line, then push it out of the small L1 only.
    m.access(0, 0x1000, 8, false, 0);
    // Alias into the same L1 set (L1: 16 sets) but different L2 set
    // (L2: 64 sets): strides of 16*32 = 512B.
    m.access(0, 0x1000 + 512, 8, false, 300);
    m.access(0, 0x1000 + 1024, 8, false, 600);
    // 2-way L1: 0x1000 is now evicted from L1 but still in L2.
    AccessOutcome out = m.access(0, 0x1000, 8, false, 900);
    EXPECT_EQ(out.source, AccessSource::L2);
    EXPECT_LT(out.completeAt - 900, 200u);
}

TEST(MemSys, InclusiveL2EvictionBackInvalidatesL1)
{
    MemSysConfig cfg = smallSys();
    cfg.l2 = CacheConfig{1024, 1, 32, 10}; // tiny direct-mapped L2
    MemorySystem m(cfg);
    m.access(0, 0x0, 8, false, 0);
    // Alias to the same L2 set: stride = 32 sets * 32B = 1024.
    m.access(1, 0x0 + 1024, 8, false, 300);
    // L2 evicted 0x0 -> core 0's copy must be gone (inclusivity).
    EXPECT_EQ(m.l1(0).state(0x0), CState::Invalid);
    EXPECT_GE(m.stats().value("l2Evictions"), 1u);
    EXPECT_GE(m.stats().value("backInvalidations"), 1u);
}

TEST(MemSysDeath, LineCrossingAccessPanics)
{
    MemorySystem m(smallSys());
    EXPECT_DEATH(m.access(0, 0x101e, 8, false, 0), "crosses");
}

TEST(Bus, TransactionsSerialize)
{
    Bus bus(BusConfig{});
    Cycle t1 = bus.transact(TxnType::BusRd, 0);
    Cycle t2 = bus.transact(TxnType::BusRd, 0);
    EXPECT_EQ(t1, BusConfig{}.occupancy(TxnType::BusRd));
    EXPECT_EQ(t2, 2 * BusConfig{}.occupancy(TxnType::BusRd));
    // A later request after the bus is free starts immediately.
    Cycle t3 = bus.transact(TxnType::BusUpgr, t2 + 100);
    EXPECT_EQ(t3, t2 + 100 + BusConfig{}.occupancy(TxnType::BusUpgr));
}

TEST(Bus, MetaBroadcastIsCheap)
{
    BusConfig cfg;
    EXPECT_LT(cfg.occupancy(TxnType::MetaBroadcast),
              cfg.occupancy(TxnType::BusRd));
    Bus bus(cfg);
    bus.transact(TxnType::MetaBroadcast, 0);
    EXPECT_EQ(bus.stats().value("metaBytes"), 3u);
    EXPECT_EQ(bus.stats().value("dataBytes"), 0u);
}

TEST(MemSysMsi, CleanFillsAreSharedAndFirstWritePaysUpgrade)
{
    MemSysConfig cfg = smallSys();
    cfg.protocol = CoherenceProtocol::MSI;
    MemorySystem m(cfg);
    AccessOutcome rd = m.access(0, 0x1000, 8, false, 0);
    EXPECT_EQ(rd.stateAfter, CState::Shared); // no E state under MSI
    AccessOutcome wr = m.access(0, 0x1000, 8, true, 300);
    EXPECT_EQ(wr.stateAfter, CState::Modified);
    // The write needed an upgrade transaction MESI would have saved.
    EXPECT_EQ(m.bus().stats().value("txn.BusUpgr"), 1u);
}

TEST(MemSysMsi, MsiCostsMoreUpgradeTrafficThanMesi)
{
    // Read-then-write over many private lines: MESI upgrades
    // silently, MSI pays one BusUpgr per line.
    auto run = [](CoherenceProtocol proto) {
        MemSysConfig cfg = smallSys();
        cfg.protocol = proto;
        MemorySystem m(cfg);
        Cycle now = 0;
        for (Addr line = 0; line < 64; ++line) {
            now = m.access(0, 0x4000 + line * 32, 8, false, now)
                      .completeAt;
            now = m.access(0, 0x4000 + line * 32, 8, true, now)
                      .completeAt;
        }
        return m.bus().stats().value("txn.BusUpgr");
    };
    EXPECT_EQ(run(CoherenceProtocol::MESI), 0u);
    EXPECT_EQ(run(CoherenceProtocol::MSI), 64u);
}

TEST(Bus, EachTxnTypeBumpsExactlyItsOwnCounter)
{
    const BusConfig cfg;
    Bus bus(cfg);
    auto counters = [&bus] {
        std::map<std::string, std::uint64_t> m;
        for (const auto &[name, value] : bus.stats().dump())
            m[name] = value;
        return m;
    };
    for (std::size_t i = 0; i < kNumTxnTypes; ++i) {
        const TxnType t = static_cast<TxnType>(i);
        const bool data = t == TxnType::BusRd || t == TxnType::BusRdX ||
            t == TxnType::Writeback;
        const bool meta =
            t == TxnType::MetaBroadcast || t == TxnType::MetaDirectory;
        std::map<std::string, std::uint64_t> want = counters();
        ++want[std::string("bus.txn.") + txnName(t)];
        want["bus.busyCycles"] += cfg.occupancy(t);
        if (data)
            want["bus.dataBytes"] += cfg.lineBytes;
        if (meta)
            want["bus.metaBytes"] += 3;
        bus.transact(t, 0);
        EXPECT_EQ(counters(), want) << txnName(t);
    }
    EXPECT_EQ(counters().size(), kNumTxnTypes + 3);
}

TEST(CacheIndex, AgreesWithCacheConfigOnRandomAddresses)
{
    const CacheConfig geoms[] = {
        MemSysConfig{}.l1,
        MemSysConfig{}.l2,
        HardConfig{}.metaGeometry,
        CacheConfig{3 * 64 * 32, 3, 32, 1}, // 3 ways, 64 sets
    };
    Rng rng(2024);
    for (const CacheConfig &g : geoms) {
        const CacheIndex idx(g, "test");
        for (int i = 0; i < 20000; ++i) {
            // Full 64-bit addresses, then small ones near zero.
            const Addr a = i % 2 ? rng.next64() : rng.below(1u << 24);
            ASSERT_EQ(idx.lineAddr(a), g.lineAddr(a));
            ASSERT_EQ(idx.setIndex(a), g.setIndex(a));
            ASSERT_EQ(idx.tag(a), g.tag(a));
            ASSERT_EQ(idx.lineAddrOf(g.tag(a), g.setIndex(a)),
                      g.lineAddr(a));
        }
    }
}

/**
 * MESI invariant property check: under random traffic, (a) at most one
 * M/E copy exists and it excludes any other copies, (b) the requester
 * always ends with a usable copy, (c) inclusivity holds, (d) the
 * reported sharer count equals a brute-force count of holders, and an
 * E/M outcome reports exactly one.
 */
void
checkMesiInvariants(const MemSysConfig &cfg, std::uint64_t seed,
                    std::uint64_t hot_lines)
{
    MemorySystem m(cfg);
    Rng rng(seed);
    Cycle now = 0;

    for (int i = 0; i < 5000; ++i) {
        CoreId core = static_cast<CoreId>(rng.below(cfg.numCores));
        Addr line = rng.below(hot_lines) * 32;
        bool write = rng.chance(0.4);
        AccessOutcome out = m.access(core, line + rng.below(4) * 8, 8,
                                     write, now);
        now = out.completeAt;

        // (b) requester has a usable copy.
        CState mine = m.l1(core).state(line);
        ASSERT_TRUE(write ? canWrite(mine) : canRead(mine));

        // (a) single-writer invariant across all L1s.
        unsigned owners = 0, holders = 0;
        for (CoreId c2 = 0; c2 < cfg.numCores; ++c2) {
            CState s = m.l1(c2).state(line);
            if (s != CState::Invalid)
                ++holders;
            if (s == CState::Modified || s == CState::Exclusive)
                ++owners;
        }
        ASSERT_LE(owners, 1u);
        if (owners == 1) {
            ASSERT_EQ(holders, 1u);
        }

        // (c) inclusivity: every valid L1 line is in the L2.
        for (CoreId c2 = 0; c2 < cfg.numCores; ++c2) {
            if (m.l1(c2).state(line) != CState::Invalid) {
                ASSERT_NE(m.l2().findLine(line), nullptr);
            }
        }

        // (d) the reported sharer count against the brute-force one.
        ASSERT_EQ(out.sharers, holders) << "access " << i;
        if (out.stateAfter == CState::Exclusive ||
            out.stateAfter == CState::Modified) {
            ASSERT_EQ(out.sharers, 1u) << "access " << i;
        }
    }
}

class MesiProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(MesiProperty, InvariantsHoldUnderRandomTraffic)
{
    MemSysConfig cfg = smallSys();
    if (GetParam() % 2 == 0)
        cfg.protocol = CoherenceProtocol::MSI;
    checkMesiInvariants(cfg, GetParam(), 64);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MesiProperty,
                         ::testing::Values(1u, 2u, 3u, 17u, 99u));

/**
 * The same check on eight cores, over 64 hot lines and then over 320:
 * more than the small L2's 256, so inclusive L2 evictions
 * back-invalidate L1 copies.
 */
class MesiProperty8Core : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(MesiProperty8Core, InvariantsHoldUnderRandomTraffic)
{
    MemSysConfig cfg = smallSys();
    cfg.numCores = 8;
    if (GetParam() % 2 == 0)
        cfg.protocol = CoherenceProtocol::MSI;
    checkMesiInvariants(cfg, GetParam(), 64);
    checkMesiInvariants(cfg, GetParam(), 320);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MesiProperty8Core,
                         ::testing::Values(4u, 5u, 40u, 41u));

} // namespace
} // namespace hard
