#include "workloads/builder.hh"

#include <map>
#include <set>

#include "common/bitops.hh"
#include "common/error.hh"
#include "common/logging.hh"
#include "detectors/vclock.hh"

namespace hard
{

namespace
{
/** Base of the simulated data segment (arbitrary, line-aligned). */
constexpr Addr kDataBase = 0x10000000;
} // namespace

WorkloadBuilder::WorkloadBuilder(std::string name, unsigned num_threads)
    : numThreads_(num_threads), brk_(kDataBase)
{
    hard_throw_if(num_threads == 0 || num_threads > kMaxThreads,
                  WorkloadError,
                  "workload '%s': unsupported thread count %u",
                  name.c_str(), num_threads);
    prog_.name = std::move(name);
    prog_.dataBase = kDataBase;
    prog_.threads.resize(num_threads);
    for (unsigned t = 0; t < num_threads; ++t)
        prog_.threads[t].tid = t;
}

Addr
WorkloadBuilder::alloc(const std::string &label, std::uint64_t bytes,
                       unsigned align)
{
    (void)label;
    hard_throw_if(bytes == 0, WorkloadError, "workload '%s': zero-size alloc",
                  prog_.name.c_str());
    hard_throw_if(!isPowerOf2(align), WorkloadError, "workload '%s': bad alignment %u",
                  prog_.name.c_str(), align);
    brk_ = alignUp(brk_, align);
    Addr base = brk_;
    brk_ += bytes;
    return base;
}

LockAddr
WorkloadBuilder::allocLock(const std::string &label)
{
    // Sync objects live on private lines so their coherence traffic
    // does not falsely share with data.
    LockAddr l = alloc(label, kLineBytes, kLineBytes);
    prog_.locks.push_back(l);
    return l;
}

Addr
WorkloadBuilder::allocBarrier(const std::string &label)
{
    Addr b = alloc(label, kLineBytes, kLineBytes);
    prog_.barriers.push_back(b);
    return b;
}

Addr
WorkloadBuilder::allocSema(const std::string &label)
{
    return alloc(label, kLineBytes, kLineBytes);
}

LockAddr
WorkloadBuilder::allocRwLock(const std::string &label)
{
    // A rwlock is one lock word to the hardware (HARD's Lock Register
    // tracks it mode-blind), so it registers like a mutex.
    LockAddr l = alloc(label, kLineBytes, kLineBytes);
    prog_.locks.push_back(l);
    return l;
}

Addr
WorkloadBuilder::allocCond(const std::string &label)
{
    return alloc(label, kLineBytes, kLineBytes);
}

Addr
WorkloadBuilder::allocAtomic(const std::string &label)
{
    return alloc(label, kLineBytes, kLineBytes);
}

SiteId
WorkloadBuilder::site(const std::string &name)
{
    return prog_.sites.intern(prog_.name + ":" + name);
}

void
WorkloadBuilder::checkThread(ThreadId t) const
{
    hard_panic_if(t >= numThreads_, "workload '%s': bad thread %u",
                  prog_.name.c_str(), t);
}

void
WorkloadBuilder::read(ThreadId t, Addr a, unsigned size, SiteId s)
{
    checkThread(t);
    prog_.threads[t].ops.push_back(opRead(a, size, s));
}

void
WorkloadBuilder::write(ThreadId t, Addr a, unsigned size, SiteId s)
{
    checkThread(t);
    prog_.threads[t].ops.push_back(opWrite(a, size, s));
}

void
WorkloadBuilder::compute(ThreadId t, Cycle cycles)
{
    checkThread(t);
    if (cycles == 0)
        return;
    prog_.threads[t].ops.push_back(opCompute(cycles));
}

void
WorkloadBuilder::lock(ThreadId t, LockAddr l, SiteId s)
{
    checkThread(t);
    prog_.threads[t].ops.push_back(opLock(l, s));
}

void
WorkloadBuilder::unlock(ThreadId t, LockAddr l, SiteId s)
{
    checkThread(t);
    prog_.threads[t].ops.push_back(opUnlock(l, s));
}

void
WorkloadBuilder::semaPost(ThreadId t, Addr sema, SiteId s)
{
    checkThread(t);
    prog_.threads[t].ops.push_back(opSemaPost(sema, s));
}

void
WorkloadBuilder::semaWait(ThreadId t, Addr sema, SiteId s)
{
    checkThread(t);
    prog_.threads[t].ops.push_back(opSemaWait(sema, s));
}

void
WorkloadBuilder::rdlock(ThreadId t, LockAddr l, SiteId s)
{
    checkThread(t);
    prog_.threads[t].ops.push_back(opRwRdLock(l, s));
}

void
WorkloadBuilder::rdunlock(ThreadId t, LockAddr l, SiteId s)
{
    checkThread(t);
    prog_.threads[t].ops.push_back(opRwRdUnlock(l, s));
}

void
WorkloadBuilder::wrlock(ThreadId t, LockAddr l, SiteId s)
{
    checkThread(t);
    prog_.threads[t].ops.push_back(opRwWrLock(l, s));
}

void
WorkloadBuilder::wrunlock(ThreadId t, LockAddr l, SiteId s)
{
    checkThread(t);
    prog_.threads[t].ops.push_back(opRwWrUnlock(l, s));
}

void
WorkloadBuilder::condSignal(ThreadId t, Addr cond, SiteId s)
{
    checkThread(t);
    prog_.threads[t].ops.push_back(opCondSignal(cond, s));
}

void
WorkloadBuilder::condBroadcast(ThreadId t, Addr cond, SiteId s)
{
    checkThread(t);
    prog_.threads[t].ops.push_back(opCondBroadcast(cond, s));
}

void
WorkloadBuilder::condWait(ThreadId t, Addr cond, SiteId s)
{
    checkThread(t);
    prog_.threads[t].ops.push_back(opCondWait(cond, s));
}

void
WorkloadBuilder::atomicStore(ThreadId t, Addr a, SiteId s)
{
    checkThread(t);
    prog_.threads[t].ops.push_back(opAtomicStore(a, s));
}

void
WorkloadBuilder::atomicLoad(ThreadId t, Addr a, SiteId s)
{
    checkThread(t);
    prog_.threads[t].ops.push_back(opAtomicLoad(a, s));
}

void
WorkloadBuilder::barrier(ThreadId t, Addr barrier, SiteId s)
{
    checkThread(t);
    prog_.threads[t].ops.push_back(opBarrier(barrier, s));
}

void
WorkloadBuilder::barrierAll(Addr barrier, SiteId s)
{
    for (unsigned t = 0; t < numThreads_; ++t)
        prog_.threads[t].ops.push_back(opBarrier(barrier, s));
}

Program
WorkloadBuilder::finish()
{
    hard_throw_if(finished_, WorkloadError, "workload '%s': finish() called twice",
                  prog_.name.c_str());
    finished_ = true;
    prog_.dataLimit = brk_;

    // Validation.
    std::vector<std::vector<Addr>> barrier_seq(numThreads_);
    for (unsigned t = 0; t < numThreads_; ++t) {
        std::map<LockAddr, unsigned> held;
        // rwlock -> held mode ('r' or 'w'); absent when not held.
        std::map<LockAddr, char> rwHeld;
        for (const Op &op : prog_.threads[t].ops) {
            switch (op.type) {
              case OpType::Read:
              case OpType::Write: {
                hard_throw_if(op.addr < prog_.dataBase ||
                                  op.addr + op.size > prog_.dataLimit, WorkloadError,
                              "workload '%s': thread %u access %llx "
                              "outside allocated data",
                              prog_.name.c_str(), t,
                              static_cast<unsigned long long>(op.addr));
                Addr line = alignDown(op.addr, kLineBytes);
                hard_throw_if(alignDown(op.addr + op.size - 1,
                                        kLineBytes) != line, WorkloadError,
                              "workload '%s': thread %u access %llx+%u "
                              "crosses a line",
                              prog_.name.c_str(), t,
                              static_cast<unsigned long long>(op.addr),
                              op.size);
                break;
              }
              case OpType::Lock:
                ++held[op.addr];
                hard_throw_if(held[op.addr] > 1, WorkloadError,
                              "workload '%s': thread %u re-acquires lock",
                              prog_.name.c_str(), t);
                break;
              case OpType::Unlock:
                hard_throw_if(held[op.addr] == 0, WorkloadError,
                              "workload '%s': thread %u unlocks unheld "
                              "lock",
                              prog_.name.c_str(), t);
                --held[op.addr];
                break;
              case OpType::RwRdLock:
              case OpType::RwWrLock:
                hard_throw_if(rwHeld.count(op.addr) != 0, WorkloadError,
                              "workload '%s': thread %u re-acquires "
                              "rwlock %llx",
                              prog_.name.c_str(), t,
                              static_cast<unsigned long long>(op.addr));
                rwHeld[op.addr] =
                    op.type == OpType::RwWrLock ? 'w' : 'r';
                break;
              case OpType::RwRdUnlock:
              case OpType::RwWrUnlock: {
                const char mode =
                    op.type == OpType::RwWrUnlock ? 'w' : 'r';
                auto it = rwHeld.find(op.addr);
                hard_throw_if(it == rwHeld.end() || it->second != mode,
                              WorkloadError,
                              "workload '%s': thread %u %c-unlocks "
                              "rwlock %llx it does not %c-hold",
                              prog_.name.c_str(), t, mode,
                              static_cast<unsigned long long>(op.addr),
                              mode);
                rwHeld.erase(it);
                break;
              }
              case OpType::Barrier:
                hard_throw_if((!held.empty() &&
                                  [&held] {
                                      for (auto &kv : held)
                                          if (kv.second)
                                              return true;
                                      return false;
                                  }()) ||
                                  !rwHeld.empty(), WorkloadError,
                              "workload '%s': thread %u reaches barrier "
                              "holding a lock",
                              prog_.name.c_str(), t);
                barrier_seq[t].push_back(op.addr);
                break;
              default:
                break;
            }
        }
        for (const auto &kv : held) {
            hard_throw_if(kv.second != 0, WorkloadError,
                          "workload '%s': thread %u ends holding lock "
                          "%llx",
                          prog_.name.c_str(), t,
                          static_cast<unsigned long long>(kv.first));
        }
        hard_throw_if(!rwHeld.empty(), WorkloadError,
                      "workload '%s': thread %u ends holding rwlock %llx",
                      prog_.name.c_str(), t,
                      static_cast<unsigned long long>(
                          rwHeld.empty() ? 0 : rwHeld.begin()->first));
    }
    for (unsigned t = 1; t < numThreads_; ++t) {
        hard_throw_if(barrier_seq[t] != barrier_seq[0], WorkloadError,
                      "workload '%s': threads 0 and %u disagree on the "
                      "barrier sequence",
                      prog_.name.c_str(), t);
    }
    return std::move(prog_);
}

} // namespace hard
