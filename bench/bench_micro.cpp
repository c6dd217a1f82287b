/**
 * @file
 * google-benchmark microbenchmarks quantifying §3.1's claim that the
 * lockset set operations become "fast bitwise logic operations" in
 * HARD: BFVector signature/intersection/emptiness, Lock Register
 * updates, the Figure 2 state machine, the exact (software) set
 * intersection they replace (on std::set and on interned lockset
 * ids), and one bus transaction. Per-detector and memory-system costs
 * are measured on recorded workload traces by `perfbench --trace 1`
 * (perfbench/README.md), not here.
 */

#include <benchmark/benchmark.h>

#include "coherence/bus.hh"
#include "core/lock_register.hh"
#include "detectors/lockset_core.hh"
#include "detectors/lockset_state.hh"
#include "common/rng.hh"

namespace hard
{
namespace
{

void
BM_BloomSignature(benchmark::State &state)
{
    Rng rng(1);
    Addr a = rng.next64();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            BfVector::signatureBits(a, 16));
        a += 64;
    }
}
BENCHMARK(BM_BloomSignature);

void
BM_BloomIntersectAndTest(benchmark::State &state)
{
    BfVector cand = BfVector::allOnes(16);
    BfVector lockset = BfVector::signatureOf(0x1a4, 16);
    for (auto _ : state) {
        BfVector c = cand;
        c &= lockset;
        benchmark::DoNotOptimize(c.setEmpty());
    }
}
BENCHMARK(BM_BloomIntersectAndTest);

void
BM_ExactSetIntersect(benchmark::State &state)
{
    // The software operation HARD replaces: intersect two small exact
    // lock sets (std::set), as Eraser-style implementations do.
    const std::set<LockAddr> held{0x1a4, 0x2b8};
    ExactLockset cand;
    cand.intersect({0x1a4, 0x3cc, 0x4d0});
    for (auto _ : state) {
        ExactLockset c = cand;
        c.intersect(held);
        benchmark::DoNotOptimize(c.empty());
    }
}
BENCHMARK(BM_ExactSetIntersect);

void
BM_InternedLocksetMeet(benchmark::State &state)
{
    // The same intersection on interned lockset ids, as the ideal
    // lockset and RaceTrack detectors do it: after the first call,
    // every meet is a memo hit.
    LocksetTable table;
    const LocksetId held = table.intern({0x1a4, 0x2b8});
    const LocksetId cand = table.intern({0x1a4, 0x3cc, 0x4d0});
    for (auto _ : state) {
        LocksetId c = table.meet(cand, held);
        benchmark::DoNotOptimize(c);
    }
}
BENCHMARK(BM_InternedLocksetMeet);

void
BM_LockRegisterAcquireRelease(benchmark::State &state)
{
    LockRegister lr(16, 2);
    for (auto _ : state) {
        lr.acquire(0x1a4);
        lr.release(0x1a4);
    }
    benchmark::DoNotOptimize(lr.vector().raw());
}
BENCHMARK(BM_LockRegisterAcquireRelease);

void
BM_LStateTransition(benchmark::State &state)
{
    LState s = LState::Virgin;
    ThreadId owner = invalidThread;
    unsigned i = 0;
    for (auto _ : state) {
        ++i;
        LStateStep step = lstateAccess(s, owner, i & 3, (i >> 2) & 1);
        s = step.next;
        owner = step.owner;
        benchmark::DoNotOptimize(step.reportIfEmpty);
    }
}
BENCHMARK(BM_LStateTransition);

void
BM_BusTransaction(benchmark::State &state)
{
    Bus bus(BusConfig{});
    Cycle now = 0;
    for (auto _ : state) {
        now = bus.transact(TxnType::MetaBroadcast, now);
    }
    benchmark::DoNotOptimize(now);
}
BENCHMARK(BM_BusTransaction);

} // namespace
} // namespace hard

BENCHMARK_MAIN();
