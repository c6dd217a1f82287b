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

// Through a RaceDetector reference a detector takes events only by the
// block: a per-kind handler declared on the base would compile here and
// do nothing, and a "no race" assertion after it would pass vacuously.
// (Checked through a template: outside one, a requires-expression naming
// a missing member does not compile at all.)
template <typename Det>
constexpr bool kHasPerKindHandler =
    requires(Det &d, const Event &e) { d.onRead(e); } ||
    requires(Det &d, const Event &e) { d.onLockAcquire(e); } ||
    requires(Det &d, const Event &e) { d.onRwLockAcquire(e, true); };
static_assert(!kHasPerKindHandler<RaceDetector>);
static_assert(kHasPerKindHandler<HardDetector>);

/** Hand @p det the single event @p ev as a @p kind event. */
void
feed(RaceDetector &det, Event ev, EventKind kind)
{
    ev.kind = kind;
    det.onEvents({&ev, 1});
}

constexpr EventKind kRwKinds[] = {EventKind::RwRdAcquire,
                                  EventKind::RwWrAcquire,
                                  EventKind::RwRdRelease,
                                  EventKind::RwWrRelease};

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
        EXPECT_DEATH(feed(*makeClocked(det), ev, EventKind::LockAcquire),
                     msg);
        EXPECT_DEATH(feed(*makeClocked(det), ev, EventKind::LockRelease),
                     msg);
    } else if (kind == "rwlock") {
        for (EventKind k : kRwKinds)
            EXPECT_DEATH(feed(*makeClocked(det), ev, k), msg);
    } else if (kind == "sema") {
        EXPECT_DEATH(feed(*makeClocked(det), ev, EventKind::SemaPost), msg);
        EXPECT_DEATH(feed(*makeClocked(det), ev, EventKind::SemaWait), msg);
    } else if (kind == "cond") {
        EXPECT_DEATH(feed(*makeClocked(det), ev, EventKind::CondSignal),
                     msg);
        EXPECT_DEATH(feed(*makeClocked(det), ev, EventKind::CondBroadcast),
                     msg);
        EXPECT_DEATH(feed(*makeClocked(det), ev, EventKind::CondWait), msg);
    } else {
        EXPECT_DEATH(feed(*makeClocked(det), ev, EventKind::AtomicStore),
                     msg);
        EXPECT_DEATH(feed(*makeClocked(det), ev, EventKind::AtomicLoad),
                     msg);
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
        EXPECT_DEATH(feed(*makeLockset(det), ev, EventKind::Read), msg);
        EXPECT_DEATH(feed(*makeLockset(det), ev, EventKind::Write), msg);
    } else if (kind == "lock") {
        EXPECT_DEATH(feed(*makeLockset(det), ev, EventKind::LockAcquire),
                     msg);
        EXPECT_DEATH(feed(*makeLockset(det), ev, EventKind::LockRelease),
                     msg);
    } else {
        for (EventKind k : kRwKinds)
            EXPECT_DEATH(feed(*makeLockset(det), ev, k), msg);
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
