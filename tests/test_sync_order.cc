/**
 * @file
 * The shared happens-before sync order: SyncOrder's edges, and the
 * thread-id bound every clocked detector enforces on its sync hooks
 * and every lockset detector on its access and lock hooks.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "core/hybrid.hh"
#include "detectors/djit_plus.hh"
#include "detectors/fasttrack.hh"
#include "detectors/happens_before.hh"
#include "detectors/ideal_lockset.hh"
#include "detectors/racetrack.hh"

using namespace hard;

namespace
{

constexpr LockAddr kObj = 0x1000;

TEST(SyncOrder, KindsAtOneAddressStayIndependent)
{
    SyncOrder so;
    so.release(SyncKind::Sema, 0, kObj);
    for (SyncKind k : {SyncKind::Lock, SyncKind::Cond, SyncKind::Atomic})
        so.acquire(k, 1, kObj);
    EXPECT_EQ(so.clock(1)[0], 0u);
    so.acquire(SyncKind::Sema, 1, kObj);
    EXPECT_EQ(so.clock(1)[0], 1u);
}

TEST(SyncOrder, ReadersOrderAfterWritersButNotEachOther)
{
    SyncOrder so;
    so.rwRelease(0, kObj, true);
    so.rwAcquire(1, kObj, false);
    EXPECT_EQ(so.clock(1)[0], 1u);
    so.rwRelease(1, kObj, false);
    so.rwAcquire(2, kObj, false);
    EXPECT_EQ(so.clock(2)[1], 0u); // reader-to-reader: no edge
    so.rwAcquire(3, kObj, true);
    EXPECT_EQ(so.clock(3)[1], 1u); // writer: after every holder
}

std::unique_ptr<RaceDetector>
makeClocked(const std::string &name)
{
    if (name == "hb")
        return std::make_unique<HappensBeforeDetector>("hb", HbConfig{});
    if (name == "fasttrack")
        return std::make_unique<FastTrackDetector>("fasttrack", 4);
    if (name == "djit")
        return std::make_unique<DjitPlusDetector>("djit", 4);
    if (name == "racetrack")
        return std::make_unique<RaceTrackDetector>("racetrack",
                                                   RaceTrackConfig{});
    return std::make_unique<HybridDetector>("hybrid", HardConfig{});
}

/** (detector, sync hook kind). */
using BoundParam = std::tuple<std::string, std::string>;

class ThreadIdBound : public ::testing::TestWithParam<BoundParam>
{
};

/**
 * Every sync hook of every clocked detector rejects a thread id past
 * kMaxThreads with a panic naming it, instead of indexing past the
 * per-thread state.
 */
TEST_P(ThreadIdBound, SyncHookPanicsOnOutOfRangeThread)
{
    const auto &[det, kind] = GetParam();
    Event ev;
    ev.tid = kMaxThreads;
    ev.addr = kObj;
    const char *msg = "thread id 8 too large";
    static_assert(kMaxThreads == 8, "update the expected message");

    if (kind == "lock") {
        EXPECT_DEATH(makeClocked(det)->onLockAcquire(ev), msg);
        EXPECT_DEATH(makeClocked(det)->onLockRelease(ev), msg);
    } else if (kind == "rwlock") {
        for (bool writer : {false, true}) {
            EXPECT_DEATH(makeClocked(det)->onRwLockAcquire(ev, writer), msg);
            EXPECT_DEATH(makeClocked(det)->onRwLockRelease(ev, writer), msg);
        }
    } else if (kind == "sema") {
        EXPECT_DEATH(makeClocked(det)->onSemaPost(ev), msg);
        EXPECT_DEATH(makeClocked(det)->onSemaWait(ev), msg);
    } else if (kind == "cond") {
        EXPECT_DEATH(makeClocked(det)->onCondSignal(ev), msg);
        EXPECT_DEATH(makeClocked(det)->onCondBroadcast(ev), msg);
        EXPECT_DEATH(makeClocked(det)->onCondWait(ev), msg);
    } else {
        EXPECT_DEATH(makeClocked(det)->onAtomicStore(ev), msg);
        EXPECT_DEATH(makeClocked(det)->onAtomicLoad(ev), msg);
    }
}

/** (lockset detector, hook kind). */
class LocksetThreadIdBound : public ::testing::TestWithParam<BoundParam>
{
};

std::unique_ptr<RaceDetector>
makeLockset(const std::string &name)
{
    if (name == "hard")
        return std::make_unique<HardDetector>("hard", HardConfig{});
    if (name == "ideal")
        return std::make_unique<IdealLocksetDetector>(
            "ideal", IdealLocksetConfig{});
    if (name == "racetrack")
        return std::make_unique<RaceTrackDetector>("racetrack",
                                                   RaceTrackConfig{});
    return std::make_unique<HybridDetector>("hybrid", HardConfig{});
}

/**
 * The lockset engine checks the thread id once, in front of its
 * per-thread lock tracking, on every access and lock hook; the panic
 * names the detector kind.
 */
TEST_P(LocksetThreadIdBound, HookPanicsOnOutOfRangeThread)
{
    const auto &[det, kind] = GetParam();
    Event ev;
    ev.tid = kMaxThreads;
    ev.addr = kObj;
    ev.size = 4;
    const std::string who = det == "ideal" ? "ideal-lockset" : det;
    const std::string msg = who + ": thread id 8 too large";
    static_assert(kMaxThreads == 8, "update the expected message");

    if (kind == "access") {
        EXPECT_DEATH(makeLockset(det)->onRead(ev), msg);
        EXPECT_DEATH(makeLockset(det)->onWrite(ev), msg);
    } else if (kind == "lock") {
        EXPECT_DEATH(makeLockset(det)->onLockAcquire(ev), msg);
        EXPECT_DEATH(makeLockset(det)->onLockRelease(ev), msg);
    } else {
        for (bool writer : {false, true}) {
            EXPECT_DEATH(makeLockset(det)->onRwLockAcquire(ev, writer), msg);
            EXPECT_DEATH(makeLockset(det)->onRwLockRelease(ev, writer), msg);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Lockset, LocksetThreadIdBound,
    ::testing::Combine(::testing::Values("hard", "hybrid", "ideal",
                                         "racetrack"),
                       ::testing::Values("access", "lock", "rwlock")),
    [](const ::testing::TestParamInfo<BoundParam> &info) {
        return std::get<0>(info.param) + "_" + std::get<1>(info.param);
    });

INSTANTIATE_TEST_SUITE_P(
    Clocked, ThreadIdBound,
    ::testing::Combine(::testing::Values("hb", "fasttrack", "djit",
                                         "racetrack", "hybrid"),
                       ::testing::Values("lock", "rwlock", "sema", "cond",
                                         "atomic")),
    [](const ::testing::TestParamInfo<BoundParam> &info) {
        return std::get<0>(info.param) + "_" + std::get<1>(info.param);
    });

} // namespace
