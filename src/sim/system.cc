#include "sim/system.hh"

#include <algorithm>
#include <chrono>

#include "common/logging.hh"

namespace hard
{

System::System(const SimConfig &cfg, const Program &prog)
    : cfg_(cfg), prog_(prog)
{
    hard_throw_if(prog.threads.empty(), WorkloadError,
                  "system: program '%s' has no threads",
                  prog.name.c_str());
    hard_throw_if(prog.threads.size() > 8, ConfigError,
                  "system: program '%s' has %zu threads; at most 8 are "
                  "supported",
                  prog.name.c_str(), prog.threads.size());
    hard_throw_if(cfg.memsys.numCores == 0, ConfigError,
                  "system: zero cores");

    memsys_ = std::make_unique<MemorySystem>(cfg.memsys);
    memsys_->setL2EvictionCallback([this](Addr line) {
        Event ev;
        ev.kind = EventKind::LineEvicted;
        ev.addr = line;
        notify(ev);
    });

    threads_.resize(prog.threads.size());
    cores_.resize(cfg.memsys.numCores);
    for (CoreId c = 0; c < cfg.memsys.numCores; ++c)
        cores_[c].id = c;
    for (std::size_t i = 0; i < prog.threads.size(); ++i) {
        threads_[i].tid = prog.threads[i].tid;
        threads_[i].ops = &prog.threads[i].ops;
        // Round-robin thread->core binding.
        cores_[i % cfg.memsys.numCores].bound.push_back(i);
    }
    liveThreads_ = static_cast<unsigned>(threads_.size());

    // Stat registry: every component group under its dotted name.
    registry_.add(memsys_->stats());
    registry_.add(memsys_->bus().stats());
    for (CoreId c = 0; c < cfg_.memsys.numCores; ++c)
        registry_.add(memsys_->l1(c).stats());
    registry_.add(memsys_->l2().stats());
    registry_.add(systemStats_);
    // The "system" group mirrors the run summary on demand.
    registry_.addRefreshHook([this] {
        systemStats_.counter("barrierEpisodes").set(result_.barrierEpisodes);
        systemStats_.counter("contextSwitches").set(result_.contextSwitches);
        systemStats_.counter("cycles").set(result_.totalCycles);
        systemStats_.counter("dataReads").set(result_.dataReads);
        systemStats_.counter("dataWrites").set(result_.dataWrites);
        systemStats_.counter("lockAcquires").set(result_.lockAcquires);
        systemStats_.counter("retiredOps").set(retiredOps_);
    });
    // Derived ratios over the live counters.
    systemStats_.formula("ipc", [this] {
        return Formula::ratio(retiredOps_, result_.totalCycles);
    });
    StatGroup *bus = &memsys_->bus().stats();
    bus->formula("occupancy", [this, bus] {
        return Formula::ratio(bus->value("busyCycles"),
                              result_.totalCycles);
    });
    bus->formula("metaShareOfBytes", [bus] {
        const std::uint64_t meta = bus->value("metaBytes");
        return Formula::ratio(meta, meta + bus->value("dataBytes"));
    });
    for (CoreId c = 0; c < cfg_.memsys.numCores; ++c) {
        StatGroup *l1 = &memsys_->l1(c).stats();
        l1->formula("missRate", [l1] {
            const std::uint64_t misses =
                l1->value("readMisses") + l1->value("writeMisses");
            return Formula::ratio(misses,
                                  misses + l1->value("readHits") +
                                      l1->value("writeHits"));
        });
    }
}

System::~System() = default;

void
System::addObserver(AccessObserver *obs)
{
    hard_panic_if(obs == nullptr, "system: null observer");
    observers_.push_back(obs);
    obs->registerStats(registry_);
    if (tracer_ != nullptr)
        obs->attachTracer(tracer_);
    if (sampler_ != nullptr)
        obs->registerProbes(*sampler_);
}

void
System::nameTraceTracks()
{
    for (CoreId c = 0; c < cfg_.memsys.numCores; ++c)
        tracer_->nameTrack(c, "core " + std::to_string(c));
    for (const ThreadCtx &th : threads_) {
        tracer_->nameTrack(EventTracer::kThreadTrackBase + th.tid,
                           "thread " + std::to_string(th.tid));
    }
    tracer_->nameTrack(EventTracer::kBusTrack, "bus");
    tracer_->nameTrack(EventTracer::kSyncTrack, "sync");
    tracer_->nameTrack(EventTracer::kDetectorTrack, "detector");
}

void
System::setTracer(EventTracer *tracer)
{
    tracer_ = tracer;
    memsys_->setTracer(tracer);
    if (tracer_ == nullptr)
        return;
    nameTraceTracks();
    for (AccessObserver *obs : observers_)
        obs->attachTracer(tracer_);
}

void
System::setSampler(IntervalSampler *sampler)
{
    sampler_ = sampler;
    if (sampler_ == nullptr)
        return;
    sampler_->setRefresh([this] { registry_.refresh(); });
    sampler_->addRate("ipc", [this] { return retiredOps_; });
    StatGroup *bus = &memsys_->bus().stats();
    sampler_->addRate("busOccupancy",
                      [bus] { return bus->value("busyCycles"); });
    sampler_->addCounter("busDataBytes",
                         [bus] { return bus->value("dataBytes"); });
    sampler_->addCounter("busMetaBytes",
                         [bus] { return bus->value("metaBytes"); });
    for (AccessObserver *obs : observers_)
        obs->registerProbes(*sampler_);
}

std::vector<std::pair<std::string, std::uint64_t>>
System::statsDump() const
{
    std::vector<std::pair<std::string, std::uint64_t>> out;
    auto append = [&out](const StatGroup &g) {
        for (auto &kv : g.dump())
            out.push_back(kv);
    };
    append(memsys_->stats());
    append(memsys_->bus().stats());
    for (CoreId c = 0; c < cfg_.memsys.numCores; ++c)
        append(memsys_->l1(c).stats());
    append(memsys_->l2().stats());
    return out;
}

void
System::notify(const Event &ev)
{
    for (AccessObserver *obs : observers_)
        obs->onEvents({&ev, 1});
}

void
System::notifySync(EventKind kind, const HwCore &core, const ThreadCtx &th,
                   Addr addr, SiteId site, Cycle at)
{
    Event ev;
    ev.kind = kind;
    ev.tid = th.tid;
    ev.core = core.id;
    ev.addr = addr;
    ev.at = at;
    ev.site = site;
    notify(ev);
}

System::Pick
System::nextForCore(const HwCore &core) const
{
    // A thread is schedulable when Ready or polling a contended lock.
    auto schedulable = [this](const ThreadCtx &th) {
        return th.status == ThreadStatus::Ready ||
            th.status == ThreadStatus::WaitLock;
    };

    // Preemption: once the current thread has held the core for a
    // full quantum AND a sibling is immediately runnable, the current
    // thread is excluded from this pick (it re-enters the rotation as
    // a non-current candidate next time).
    bool preempt_current = false;
    if (core.current < core.bound.size() &&
        core.freeAt >= core.quantumStart + cfg_.quantumCycles) {
        for (std::size_t i = 0; i < core.bound.size(); ++i) {
            if (i == core.current)
                continue;
            const ThreadCtx &th = threads_[core.bound[i]];
            if (schedulable(th) && th.readyAt <= core.freeAt) {
                preempt_current = true;
                break;
            }
        }
    }

    Pick best;
    bool best_preferred = false;
    for (std::size_t i = 0; i < core.bound.size(); ++i) {
        const ThreadCtx &th = threads_[core.bound[i]];
        if (!schedulable(th))
            continue;
        const bool is_current = i == core.current;
        if (is_current && preempt_current)
            continue;
        Cycle at = std::max(core.freeAt, th.readyAt);
        if (!is_current)
            at += cfg_.contextSwitchCycles;
        const bool preferred = is_current;
        bool take = !best.valid || at < best.at ||
            (at == best.at && preferred && !best_preferred);
        if (take) {
            best.valid = true;
            best.slot = i;
            best.at = at;
            best_preferred = preferred;
        }
    }
    return best;
}

void
System::doAccess(HwCore &core, ThreadCtx &th, Cycle now, const Op &op)
{
    const bool write = op.type == OpType::Write;
    AccessOutcome out = memsys_->access(core.id, op.addr, op.size, write,
                                        now);

    // HARD timing model: shared accesses pay the candidate-set
    // intersect/check latency (paper §5.1 overhead source 2). Under a
    // sampling schedule only monitored accesses pay — an unmonitored
    // granule's metadata is never consulted, which is exactly where
    // the overhead-vs-latency frontier's savings come from. The
    // decision uses the pre-charge completion cycle so it matches the
    // schedule the detector's observer wrapper sees.
    const bool monitored = !cfg_.hardTiming.enabled ||
        sampleDecision(cfg_.sampling, op.addr, out.completeAt);
    if (cfg_.hardTiming.enabled && monitored && out.sharers > 1)
        out.completeAt += cfg_.hardTiming.sharedAccessExtraCycles;
    // §3.4 directory variant: shared accesses additionally fetch the
    // metadata from the directory and put the updated value back —
    // two small bus messages (performed in the background, so they
    // add traffic and contention rather than access latency).
    if (cfg_.hardTiming.enabled && monitored &&
        cfg_.hardTiming.directoryMode && out.sharers > 1) {
        memsys_->bus().transact(TxnType::MetaDirectory, out.completeAt);
        memsys_->bus().transact(TxnType::MetaDirectory, out.completeAt);
    }

    Event ev;
    ev.kind = write ? EventKind::Write : EventKind::Read;
    ev.stateAfter = out.stateAfter;
    ev.tid = th.tid;
    ev.core = core.id;
    ev.size = op.size;
    ev.addr = op.addr;
    ev.at = out.completeAt;
    ev.site = op.site;
    ev.sharers = out.sharers;
    notify(ev);

    if (write)
        ++result_.dataWrites;
    else
        ++result_.dataReads;

    th.readyAt = out.completeAt + 1;
    core.freeAt = th.readyAt;
    ++th.pc;
}

void
System::doLock(HwCore &core, ThreadCtx &th, Cycle now, LockAddr lock,
               SiteId site)
{
    auto it = lockHolder_.find(lock);
    ThreadId holder = it == lockHolder_.end() ? invalidThread : it->second;

    if (holder != invalidThread) {
        // Contended: spin. Charge a probe read of the lock word and
        // retry after the poll interval (the core is free to run a
        // sibling thread meanwhile).
        AccessOutcome probe = memsys_->access(core.id, lock,
                                              sizeof(std::uint32_t),
                                              false, now);
        th.status = ThreadStatus::WaitLock;
        th.waitLock = lock;
        th.waitSite = site;
        th.readyAt = probe.completeAt + cfg_.spinPollInterval;
        core.freeAt = probe.completeAt + 1;
        return;
    }

    // Free: acquire with an atomic RMW on the lock word.
    AccessOutcome rmw = memsys_->access(core.id, lock,
                                        sizeof(std::uint32_t), true,
                                        now);
    Cycle done = rmw.completeAt;
    if (cfg_.hardTiming.enabled)
        done += cfg_.hardTiming.lockUpdateCycles;
    lockHolder_[lock] = th.tid;
    ++result_.lockAcquires;

    notifySync(EventKind::LockAcquire, core, th, lock, site, done);
    if (tracer_ && tracer_->wants(kTraceSync)) {
        Json args = Json::object();
        args.set("lock", lock);
        args.set("tid", th.tid);
        tracer_->instant(kTraceSync,
                         EventTracer::kThreadTrackBase + th.tid,
                         "lock-acquire", done, std::move(args));
    }

    th.status = ThreadStatus::Ready;
    th.readyAt = done + 1;
    core.freeAt = th.readyAt;
    ++th.pc;
}

void
System::doRwLock(HwCore &core, ThreadCtx &th, Cycle now, const Op &op,
                 bool writer)
{
    RwState &rw = rwlocks_[op.addr];
    const bool busy = writer
        ? (rw.writer != invalidThread || !rw.readers.empty())
        : rw.writer != invalidThread;
    if (busy) {
        // Spin in place: charge a probe read of the lock word and
        // retry the same op after the poll interval. The thread stays
        // Ready with pc unchanged, so the next step re-executes the
        // acquire (the core may run a sibling meanwhile).
        AccessOutcome probe = memsys_->access(core.id, op.addr,
                                              sizeof(std::uint32_t),
                                              false, now);
        th.readyAt = probe.completeAt + cfg_.spinPollInterval;
        core.freeAt = probe.completeAt + 1;
        return;
    }

    AccessOutcome rmw = memsys_->access(core.id, op.addr,
                                        sizeof(std::uint32_t), true, now);
    Cycle done = rmw.completeAt;
    if (cfg_.hardTiming.enabled)
        done += cfg_.hardTiming.lockUpdateCycles;
    if (writer)
        rw.writer = th.tid;
    else
        rw.readers.push_back(th.tid);
    ++result_.lockAcquires;

    notifySync(writer ? EventKind::RwWrAcquire : EventKind::RwRdAcquire,
               core, th, op.addr, op.site, done);
    if (tracer_ && tracer_->wants(kTraceSync)) {
        Json args = Json::object();
        args.set("rwlock", op.addr);
        args.set("tid", th.tid);
        args.set("mode", writer ? "write" : "read");
        tracer_->instant(kTraceSync,
                         EventTracer::kThreadTrackBase + th.tid,
                         "rwlock-acquire", done, std::move(args));
    }

    th.readyAt = done + 1;
    core.freeAt = th.readyAt;
    ++th.pc;
}

void
System::doRwUnlock(HwCore &core, ThreadCtx &th, Cycle now, const Op &op,
                   bool writer)
{
    auto it = rwlocks_.find(op.addr);
    hard_throw_if(it == rwlocks_.end(), WorkloadError,
                  "system: thread %u releases rwlock %llx never acquired",
                  th.tid, static_cast<unsigned long long>(op.addr));
    RwState &rw = it->second;
    if (writer) {
        hard_throw_if(rw.writer != th.tid, WorkloadError,
                      "system: thread %u write-unlocks rwlock %llx it "
                      "does not hold",
                      th.tid, static_cast<unsigned long long>(op.addr));
        rw.writer = invalidThread;
    } else {
        auto r = std::find(rw.readers.begin(), rw.readers.end(), th.tid);
        hard_throw_if(r == rw.readers.end(), WorkloadError,
                      "system: thread %u read-unlocks rwlock %llx it "
                      "does not hold",
                      th.tid, static_cast<unsigned long long>(op.addr));
        rw.readers.erase(r);
    }

    AccessOutcome rel = memsys_->access(core.id, op.addr,
                                        sizeof(std::uint32_t), true, now);
    Cycle done = rel.completeAt;
    if (cfg_.hardTiming.enabled)
        done += cfg_.hardTiming.lockUpdateCycles;

    notifySync(writer ? EventKind::RwWrRelease : EventKind::RwRdRelease,
               core, th, op.addr, op.site, done);
    if (tracer_ && tracer_->wants(kTraceSync)) {
        Json args = Json::object();
        args.set("rwlock", op.addr);
        args.set("tid", th.tid);
        args.set("mode", writer ? "write" : "read");
        tracer_->instant(kTraceSync,
                         EventTracer::kThreadTrackBase + th.tid,
                         "rwlock-release", done, std::move(args));
    }

    th.readyAt = done + 1;
    core.freeAt = th.readyAt;
    ++th.pc;
}

void
System::step(HwCore &core, ThreadCtx &th, Cycle now)
{
    if (th.status == ThreadStatus::WaitLock) {
        doLock(core, th, now, th.waitLock, th.waitSite);
        return;
    }

    hard_panic_if(th.status != ThreadStatus::Ready,
                  "system: stepping non-ready thread %u", th.tid);

    const Op op = th.pc < th.ops->size() ? (*th.ops)[th.pc] : Op{};

    switch (op.type) {
      case OpType::Read:
      case OpType::Write:
        doAccess(core, th, now, op);
        break;

      case OpType::Compute:
        th.readyAt = now + op.addr;
        core.freeAt = th.readyAt;
        ++th.pc;
        break;

      case OpType::Lock:
        doLock(core, th, now, op.addr, op.site);
        break;

      case OpType::Unlock: {
        auto it = lockHolder_.find(op.addr);
        hard_throw_if(it == lockHolder_.end() || it->second != th.tid,
                      WorkloadError,
                      "system: thread %u unlocks %llx it does not hold",
                      th.tid, static_cast<unsigned long long>(op.addr));
        AccessOutcome rel = memsys_->access(core.id, op.addr,
                                            sizeof(std::uint32_t), true,
                                            now);
        Cycle done = rel.completeAt;
        if (cfg_.hardTiming.enabled)
            done += cfg_.hardTiming.lockUpdateCycles;
        it->second = invalidThread;

        notifySync(EventKind::LockRelease, core, th, op.addr, op.site,
                   done);
        if (tracer_ && tracer_->wants(kTraceSync)) {
            Json args = Json::object();
            args.set("lock", op.addr);
            args.set("tid", th.tid);
            tracer_->instant(kTraceSync,
                             EventTracer::kThreadTrackBase + th.tid,
                             "lock-release", done, std::move(args));
        }

        th.readyAt = done + 1;
        core.freeAt = th.readyAt;
        ++th.pc;
        break;
      }

      case OpType::SemaPost: {
        // Post: bump the semaphore word (RMW traffic) and either hand
        // the token straight to the oldest waiter or bank it.
        AccessOutcome post = memsys_->access(core.id, op.addr,
                                             sizeof(std::uint32_t), true,
                                             now);
        SemaState &sema = semas_[op.addr];
        notifySync(EventKind::SemaPost, core, th, op.addr, op.site,
                   post.completeAt);
        if (tracer_ && tracer_->wants(kTraceSync)) {
            Json args = Json::object();
            args.set("sema", op.addr);
            args.set("tid", th.tid);
            tracer_->instant(kTraceSync,
                             EventTracer::kThreadTrackBase + th.tid,
                             "sema-post", post.completeAt,
                             std::move(args));
        }
        if (!sema.waiters.empty()) {
            ThreadCtx &waiter = threads_[sema.waiters.front()];
            sema.waiters.erase(sema.waiters.begin());
            waiter.status = ThreadStatus::Ready;
            waiter.semaGranted = true;
            waiter.readyAt = std::max(waiter.readyAt,
                                      post.completeAt + 1);
        } else {
            ++sema.count;
        }
        th.readyAt = post.completeAt + 1;
        core.freeAt = th.readyAt;
        ++th.pc;
        break;
      }

      case OpType::SemaWait: {
        SemaState &sema = semas_[op.addr];
        if (!th.semaGranted && sema.count == 0) {
            // Block until a post hands us the token.
            th.status = ThreadStatus::WaitSema;
            th.waitObj = op.addr;
            th.waitSite = op.site;
            sema.waiters.push_back(
                static_cast<std::size_t>(&th - threads_.data()));
            core.freeAt = now + 1;
            break;
        }
        if (th.semaGranted)
            th.semaGranted = false;
        else
            --sema.count;
        AccessOutcome wait = memsys_->access(core.id, op.addr,
                                             sizeof(std::uint32_t), true,
                                             now);
        notifySync(EventKind::SemaWait, core, th, op.addr, op.site,
                   wait.completeAt);
        if (tracer_ && tracer_->wants(kTraceSync)) {
            Json args = Json::object();
            args.set("sema", op.addr);
            args.set("tid", th.tid);
            tracer_->instant(kTraceSync,
                             EventTracer::kThreadTrackBase + th.tid,
                             "sema-wait", wait.completeAt,
                             std::move(args));
        }
        th.readyAt = wait.completeAt + 1;
        core.freeAt = th.readyAt;
        ++th.pc;
        break;
      }

      case OpType::Barrier: {
        // Arrival: bump the shared arrival counter (RMW traffic).
        AccessOutcome arr = memsys_->access(core.id, op.addr,
                                            sizeof(std::uint32_t), true,
                                            now);
        BarrierState &bar = barriers_[op.addr];
        ++bar.arrived;
        bar.lastArrival = std::max(bar.lastArrival, arr.completeAt);
        th.status = ThreadStatus::WaitBarrier;
        th.waitObj = op.addr;
        th.waitSite = op.site;
        core.freeAt = arr.completeAt + 1;
        ++th.pc;

        if (bar.arrived == liveThreads_) {
            // Episode complete: release all waiters.
            Cycle release = bar.lastArrival + cfg_.barrierReleaseCycles;
            for (ThreadCtx &t : threads_) {
                if (t.status == ThreadStatus::WaitBarrier) {
                    t.status = ThreadStatus::Ready;
                    t.readyAt = release;
                }
            }
            Event ev;
            ev.kind = EventKind::Barrier;
            ev.addr = op.addr;
            ev.at = release;
            ev.episode = bar.episode;
            ev.participants = bar.arrived;
            notify(ev);
            if (tracer_ && tracer_->wants(kTraceSync)) {
                Json args = Json::object();
                args.set("barrier", op.addr);
                args.set("episode", bar.episode);
                args.set("participants", bar.arrived);
                tracer_->complete(kTraceSync, EventTracer::kSyncTrack,
                                  "barrier", bar.lastArrival, release,
                                  std::move(args));
            }
            ++bar.episode;
            bar.arrived = 0;
            bar.lastArrival = 0;
            ++result_.barrierEpisodes;
        }
        break;
      }

      case OpType::RwRdLock:
        doRwLock(core, th, now, op, false);
        break;

      case OpType::RwWrLock:
        doRwLock(core, th, now, op, true);
        break;

      case OpType::RwRdUnlock:
        doRwUnlock(core, th, now, op, false);
        break;

      case OpType::RwWrUnlock:
        doRwUnlock(core, th, now, op, true);
        break;

      case OpType::CondSignal:
      case OpType::CondBroadcast: {
        const bool broadcast = op.type == OpType::CondBroadcast;
        AccessOutcome sig = memsys_->access(core.id, op.addr,
                                            sizeof(std::uint32_t), true,
                                            now);
        CondState &cv = conds_[op.addr];
        notifySync(broadcast ? EventKind::CondBroadcast
                             : EventKind::CondSignal,
                   core, th, op.addr, op.site, sig.completeAt);
        if (tracer_ && tracer_->wants(kTraceSync)) {
            Json args = Json::object();
            args.set("cond", op.addr);
            args.set("tid", th.tid);
            tracer_->instant(kTraceSync,
                             EventTracer::kThreadTrackBase + th.tid,
                             broadcast ? "cond-broadcast" : "cond-signal",
                             sig.completeAt, std::move(args));
        }
        if (broadcast) {
            for (std::size_t slot : cv.waiters) {
                ThreadCtx &waiter = threads_[slot];
                waiter.status = ThreadStatus::Ready;
                waiter.condGranted = true;
                waiter.readyAt = std::max(waiter.readyAt,
                                          sig.completeAt + 1);
            }
            cv.waiters.clear();
            cv.latched = true;
        } else if (!cv.waiters.empty()) {
            ThreadCtx &waiter = threads_[cv.waiters.front()];
            cv.waiters.erase(cv.waiters.begin());
            waiter.status = ThreadStatus::Ready;
            waiter.condGranted = true;
            waiter.readyAt = std::max(waiter.readyAt,
                                      sig.completeAt + 1);
        } else {
            ++cv.pending;
        }
        th.readyAt = sig.completeAt + 1;
        core.freeAt = th.readyAt;
        ++th.pc;
        break;
      }

      case OpType::CondWait: {
        CondState &cv = conds_[op.addr];
        if (!th.condGranted && !cv.latched && cv.pending == 0) {
            // Block until a signal or broadcast wakes us.
            th.status = ThreadStatus::WaitCond;
            th.waitObj = op.addr;
            th.waitSite = op.site;
            cv.waiters.push_back(
                static_cast<std::size_t>(&th - threads_.data()));
            core.freeAt = now + 1;
            break;
        }
        if (th.condGranted)
            th.condGranted = false;
        else if (!cv.latched)
            --cv.pending;
        AccessOutcome wake = memsys_->access(core.id, op.addr,
                                             sizeof(std::uint32_t), true,
                                             now);
        notifySync(EventKind::CondWait, core, th, op.addr, op.site,
                   wake.completeAt);
        if (tracer_ && tracer_->wants(kTraceSync)) {
            Json args = Json::object();
            args.set("cond", op.addr);
            args.set("tid", th.tid);
            tracer_->instant(kTraceSync,
                             EventTracer::kThreadTrackBase + th.tid,
                             "cond-wait", wake.completeAt,
                             std::move(args));
        }
        th.readyAt = wake.completeAt + 1;
        core.freeAt = th.readyAt;
        ++th.pc;
        break;
      }

      case OpType::AtomicStore:
      case OpType::AtomicLoad: {
        const bool store = op.type == OpType::AtomicStore;
        AccessOutcome acc = memsys_->access(core.id, op.addr,
                                            sizeof(std::uint32_t), store,
                                            now);
        notifySync(store ? EventKind::AtomicStore : EventKind::AtomicLoad,
                   core, th, op.addr, op.site, acc.completeAt);
        if (tracer_ && tracer_->wants(kTraceSync)) {
            Json args = Json::object();
            args.set("atomic", op.addr);
            args.set("tid", th.tid);
            tracer_->instant(kTraceSync,
                             EventTracer::kThreadTrackBase + th.tid,
                             store ? "atomic-store" : "atomic-load",
                             acc.completeAt, std::move(args));
        }
        th.readyAt = acc.completeAt + 1;
        core.freeAt = th.readyAt;
        ++th.pc;
        break;
      }

      case OpType::End:
        th.status = ThreadStatus::Done;
        --liveThreads_;
        th.readyAt = now;
        core.freeAt = now + 1;
        result_.totalCycles = std::max(result_.totalCycles, now);
        notifySync(EventKind::ThreadEnd, core, th, 0, invalidSite, now);
        // A thread may not exit while holding locks.
        for (const auto &kv : lockHolder_) {
            hard_throw_if(kv.second == th.tid, WorkloadError,
                          "system: thread %u exited holding lock %llx",
                          th.tid,
                          static_cast<unsigned long long>(kv.first));
        }
        for (const auto &kv : rwlocks_) {
            const RwState &rw = kv.second;
            const bool held = rw.writer == th.tid ||
                std::find(rw.readers.begin(), rw.readers.end(), th.tid) !=
                    rw.readers.end();
            hard_throw_if(held, WorkloadError,
                          "system: thread %u exited holding rwlock %llx",
                          th.tid,
                          static_cast<unsigned long long>(kv.first));
        }
        break;
    }
}

std::vector<ThreadSnapshot>
System::snapshotThreads() const
{
    auto status_name = [](ThreadStatus st) {
        switch (st) {
          case ThreadStatus::Ready:
            return "Ready";
          case ThreadStatus::WaitLock:
            return "WaitLock";
          case ThreadStatus::WaitBarrier:
            return "WaitBarrier";
          case ThreadStatus::WaitSema:
            return "WaitSema";
          case ThreadStatus::WaitCond:
            return "WaitCond";
          case ThreadStatus::Done:
            return "Done";
        }
        return "?";
    };

    std::vector<ThreadSnapshot> out;
    out.reserve(threads_.size());
    for (const ThreadCtx &th : threads_) {
        ThreadSnapshot snap;
        snap.tid = th.tid;
        snap.status = status_name(th.status);
        snap.pc = th.pc;
        snap.opCount = th.ops->size();
        switch (th.status) {
          case ThreadStatus::WaitLock:
            snap.waitAddr = th.waitLock;
            snap.waitKind = "lock";
            snap.waitSite = th.waitSite;
            break;
          case ThreadStatus::WaitBarrier:
            snap.waitAddr = th.waitObj;
            snap.waitKind = "barrier";
            snap.waitSite = th.waitSite;
            break;
          case ThreadStatus::WaitSema:
            snap.waitAddr = th.waitObj;
            snap.waitKind = "sema";
            snap.waitSite = th.waitSite;
            break;
          case ThreadStatus::WaitCond:
            snap.waitAddr = th.waitObj;
            snap.waitKind = "cond";
            snap.waitSite = th.waitSite;
            break;
          default:
            break;
        }
        for (const auto &kv : lockHolder_)
            if (kv.second == th.tid)
                snap.heldLocks.push_back(kv.first);
        std::sort(snap.heldLocks.begin(), snap.heldLocks.end());
        out.push_back(std::move(snap));
    }
    return out;
}

RunResult
System::run()
{
    hard_fatal_if(ran_, "system: run() called twice");
    ran_ = true;

    // Host wall-clock budget (SimConfig::wallMsBudget). The clock
    // probe is amortized: one steady_clock read every kWallCheckOps
    // scheduler iterations keeps the check invisible on the hot path.
    const auto wall_start = std::chrono::steady_clock::now();
    constexpr std::uint64_t kWallCheckOps = 2048;
    std::uint64_t wall_countdown = kWallCheckOps;

    auto diagnose = [this](const char *why, Cycle at,
                           Cycle stalled) -> DeadlockError {
        std::vector<ThreadSnapshot> snaps = snapshotThreads();
        std::string msg =
            errfmt("system: %s '%s' at cycle %llu (%u live thread(s))",
                   why, prog_.name.c_str(),
                   static_cast<unsigned long long>(at), liveThreads_);
        for (const ThreadSnapshot &s : snaps)
            msg += "\n  " + s.describe();
        return DeadlockError(msg, at, stalled, std::move(snaps));
    };

    while (liveThreads_ > 0) {
        // Pick the (core, thread) pair with the earliest start time;
        // ties break toward the lower core id.
        HwCore *best_core = nullptr;
        Pick best;
        for (HwCore &c : cores_) {
            Pick p = nextForCore(c);
            if (!p.valid)
                continue;
            if (best_core == nullptr || p.at < best.at) {
                best_core = &c;
                best = p;
            }
        }
        // Structural deadlock: every live thread is blocked on a
        // barrier/semaphore that no runnable thread can ever signal.
        if (best_core == nullptr)
            throw diagnose("deadlock in", lastProgressAt_, 0);
        if (cfg_.maxCycles != 0 && best.at > cfg_.maxCycles)
            throw CycleBudgetError(
                errfmt("system: '%s' exceeded maxCycles=%llu at cycle "
                       "%llu (%llu ops retired)",
                       prog_.name.c_str(),
                       static_cast<unsigned long long>(cfg_.maxCycles),
                       static_cast<unsigned long long>(best.at),
                       static_cast<unsigned long long>(retiredOps_)),
                best.at, cfg_.maxCycles);
        // Forward-progress watchdog: live threads are schedulable
        // (spinning/polling) but nothing has retired for too long —
        // a lock cycle or a never-released lock (livelock).
        if (cfg_.watchdogCycles != 0 &&
            best.at > lastProgressAt_ + cfg_.watchdogCycles)
            throw diagnose("no forward progress in", best.at,
                           best.at - lastProgressAt_);
        if (cfg_.wallMsBudget != 0 && --wall_countdown == 0) {
            wall_countdown = kWallCheckOps;
            const std::uint64_t elapsed_ms = static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    std::chrono::steady_clock::now() - wall_start)
                    .count());
            if (elapsed_ms > cfg_.wallMsBudget)
                throw TimeoutError(
                    errfmt("system: '%s' exceeded wall-clock budget of "
                           "%llu ms (%llu ms elapsed, %llu ops retired "
                           "at cycle %llu)",
                           prog_.name.c_str(),
                           static_cast<unsigned long long>(
                               cfg_.wallMsBudget),
                           static_cast<unsigned long long>(elapsed_ms),
                           static_cast<unsigned long long>(retiredOps_),
                           static_cast<unsigned long long>(best.at)),
                    elapsed_ms, cfg_.wallMsBudget);
        }

        if (sampler_ != nullptr)
            sampler_->tick(best.at);

        HwCore &core = *best_core;
        if (best.slot != core.current) {
            ThreadCtx &from = threads_[core.bound[core.current]];
            ThreadCtx &to = threads_[core.bound[best.slot]];
            Event ev;
            ev.kind = EventKind::ContextSwitch;
            ev.tid = to.tid;
            ev.core = core.id;
            ev.addr = from.tid;
            ev.at = best.at;
            notify(ev);
            if (tracer_ && tracer_->wants(kTraceSync)) {
                Json args = Json::object();
                args.set("from", from.tid);
                args.set("to", to.tid);
                tracer_->instant(kTraceSync, core.id, "ctx-switch",
                                 best.at, std::move(args));
            }
            core.current = best.slot;
            core.quantumStart = best.at;
            ++result_.contextSwitches;
        }
        ThreadCtx &th = threads_[core.bound[core.current]];
        const std::size_t pc_before = th.pc;
        const bool done_before = th.status == ThreadStatus::Done;
        step(core, th, best.at);
        if (th.pc != pc_before ||
            (!done_before && th.status == ThreadStatus::Done)) {
            ++retiredOps_;
            // Progress extends to the end of the issued op: a single
            // long Compute keeps the machine legitimately busy past
            // the watchdog horizon and must not look like a stall.
            // Monotonic: a sibling retiring at an earlier cycle must
            // not pull the horizon back before that Compute finishes.
            lastProgressAt_ =
                std::max({lastProgressAt_, best.at, th.readyAt});
        }
    }
    if (sampler_ != nullptr)
        sampler_->finish(result_.totalCycles);
    return result_;
}

Cycle
defaultCycleBudget(const Program &prog)
{
    std::uint64_t total_ops = 0;
    for (const auto &thread : prog.threads)
        total_ops += thread.ops.size();
    // Worst-case per-op cost is ~memLatency (200) plus bus contention
    // and spin convoys; 4000 cycles/op is an order of magnitude above
    // anything a legitimate run reaches, and the fixed floor covers
    // tiny programs whose runtime is dominated by barrier/sync costs.
    return 1'000'000 + 4'000 * total_ops;
}

} // namespace hard
