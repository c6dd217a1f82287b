/**
 * @file
 * Golden values for the four lockset detectors.
 *
 * HARD, the ideal lockset, the §7 hybrid and RaceTrack run one lockset
 * engine. This test pins what each of them computes on the two
 * sync-heavy workloads (server, rwcache at scale 0.05): the distinct
 * (granule, site) report keys, the kept reports themselves (thread,
 * access kind, cycle and the `other` thread included), the whole
 * detector stats group that hard.stats.v1 dumps (counters,
 * bfOccupancy buckets, formulas), the hybrid's pruned alarms,
 * RaceTrack's suppressed alarms and the ideal lockset's set-size
 * statistics. The digests were taken from the detectors as they were
 * before they shared an engine, so a change to any of them shows here.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/hard_detector.hh"
#include "core/hybrid.hh"
#include "detectors/ideal_lockset.hh"
#include "detectors/racetrack.hh"
#include "replay_test_util.hh"

namespace hard
{
namespace
{

/** FNV-1a over @p n bytes, continuing from @p h. */
std::uint64_t
fnv(std::uint64_t h, const void *p, std::size_t n)
{
    const auto *b = static_cast<const unsigned char *>(p);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= b[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

template <typename T>
std::uint64_t
fnvOf(std::uint64_t h, T v)
{
    return fnv(h, &v, sizeof(v));
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

/** What one detector computed on one trace. */
struct Outcome
{
    std::size_t keys = 0;
    std::uint64_t keyDigest = 0;
    std::uint64_t reportDigest = 0;
    std::uint64_t statsDigest = 0;
    /** prunedAlarms(), suppressed() or the setSizeStats() fields. */
    std::vector<std::uint64_t> extra;

    bool operator==(const Outcome &) const = default;
};

std::ostream &
operator<<(std::ostream &os, const Outcome &o)
{
    os << "{" << o.keys << ", 0x" << std::hex << o.keyDigest << "ull, 0x"
       << o.reportDigest << "ull, 0x" << o.statsDigest << "ull, {"
       << std::dec;
    for (std::size_t i = 0; i < o.extra.size(); ++i)
        os << (i ? ", " : "") << o.extra[i];
    return os << "}}";
}

Outcome
outcomeOf(RaceDetector &det)
{
    Outcome o;
    std::set<std::pair<Addr, SiteId>> keys;
    o.reportDigest = kFnvBasis;
    for (const RaceReport &r : det.sink().reports()) {
        keys.emplace(r.addr, r.site);
        for (std::uint64_t v :
             {std::uint64_t{r.tid}, std::uint64_t{r.addr},
              std::uint64_t{r.size}, std::uint64_t{r.site},
              std::uint64_t{r.write}, std::uint64_t{r.at},
              std::uint64_t{r.other}})
            o.reportDigest = fnvOf(o.reportDigest, v);
    }
    o.reportDigest = fnvOf(o.reportDigest, det.sink().dynamicCount());
    o.keys = keys.size();
    o.keyDigest = kFnvBasis;
    for (const auto &[addr, site] : keys) {
        o.keyDigest = fnvOf(o.keyDigest, std::uint64_t{addr});
        o.keyDigest = fnvOf(o.keyDigest, std::uint64_t{site});
    }
    det.syncStats();
    const std::string stats = det.stats().toJson().dump();
    o.statsDigest = fnv(kFnvBasis, stats.data(), stats.size());

    if (auto *h = dynamic_cast<HybridDetector *>(&det))
        o.extra = {h->prunedAlarms()};
    if (auto *r = dynamic_cast<RaceTrackDetector *>(&det))
        o.extra = {r->suppressed()};
    if (auto *i = dynamic_cast<IdealLocksetDetector *>(&det)) {
        const auto &s = i->setSizeStats();
        o.extra = {s.maxCandidate, s.maxLockset};
        o.extra.insert(o.extra.end(), s.candidateHist.begin(),
                       s.candidateHist.end());
    }
    return o;
}

/** The five lockset configurations, in a fixed order. */
std::vector<std::unique_ptr<RaceDetector>>
locksetDetectors()
{
    std::vector<std::unique_ptr<RaceDetector>> dets;
    dets.push_back(
        std::make_unique<HardDetector>("hard.default", HardConfig{}));
    dets.push_back(std::make_unique<IdealLocksetDetector>(
        "hard.ideal", IdealLocksetConfig{}));
    dets.push_back(
        std::make_unique<HybridDetector>("hybrid", HardConfig{}));
    dets.push_back(std::make_unique<RaceTrackDetector>(
        "racetrack", RaceTrackConfig{}));
    HardConfig fine;
    fine.granularityBytes = 4;
    fine.bloomBits = 32;
    fine.unbounded = true;
    dets.push_back(std::make_unique<HardDetector>("hard.fine32", fine));
    return dets;
}

std::vector<Outcome>
replayWorkload(const std::string &workload)
{
    WorkloadParams wp;
    wp.scale = 0.05;
    const Trace trace = recordWorkloadTrace(workload, wp);
    auto dets = locksetDetectors();
    std::vector<AccessObserver *> obs;
    for (auto &d : dets)
        obs.push_back(d.get());
    replayTrace(trace, obs);
    std::vector<Outcome> out;
    for (auto &d : dets) {
        d->finalize();
        out.push_back(outcomeOf(*d));
    }
    return out;
}

void
expectGolden(const std::string &workload,
             const std::vector<Outcome> &golden)
{
    const std::vector<Outcome> got = replayWorkload(workload);
    ASSERT_EQ(got.size(), golden.size());
    const char *names[] = {"hard.default", "hard.ideal", "hybrid",
                           "racetrack", "hard.fine32"};
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], golden[i]) << workload << " " << names[i];
}

TEST(LocksetEngineGolden, Server)
{
    expectGolden("server", {
        {405, 0x2b779034064b66b3ull, 0x460a957138c4da99ull,
         0xe687b796993f4108ull, {}},
        {356, 0xf27a02d04572bb85ull, 0x6b8e1cebc9b61a34ull,
         0x47167988c4ff662eull,
         {1, 1, 2152, 5394, 0, 0, 0, 0, 0, 0}},
        {377, 0x3b5aaa793c7c48caull, 0xeaaba0551b74d423ull,
         0x85bca6f6f5ec1030ull, {179}},
        {20, 0x3d43d41440ff2d95ull, 0x1332fd4cbeba2b39ull,
         0x949a8b40a11f1579ull, {1752}},
        {356, 0xf27a02d04572bb85ull, 0x6b8e1cebc9b61a34ull,
         0x5adb21fdc89c890bull, {}},
    });
}

TEST(LocksetEngineGolden, Rwcache)
{
    expectGolden("rwcache", {
        {2, 0x292c9838c1945224ull, 0x483120edaa18249ull,
         0xbfd30aa49f6adf83ull, {}},
        {0, 0xcbf29ce484222325ull, 0xa8c7f832281a39c5ull,
         0x37aab44732f725caull,
         {1, 1, 0, 954, 0, 0, 0, 0, 0, 0}},
        {2, 0x292c9838c1945224ull, 0x483120edaa18249ull,
         0xad6a4073a636c79full, {0}},
        {0, 0xcbf29ce484222325ull, 0xa8c7f832281a39c5ull,
         0x37aab44732f725caull, {0}},
        {0, 0xcbf29ce484222325ull, 0xa8c7f832281a39c5ull,
         0xadff26fc6345ea41ull, {}},
    });
}

} // namespace
} // namespace hard
