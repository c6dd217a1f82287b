#include "coherence/memsys.hh"

#include "common/error.hh"
#include "common/logging.hh"

namespace hard
{

const char *
accessSourceName(AccessSource s)
{
    switch (s) {
      case AccessSource::L1:
        return "L1";
      case AccessSource::OtherL1:
        return "OtherL1";
      case AccessSource::L2:
        return "L2";
      case AccessSource::Memory:
        return "Memory";
    }
    return "?";
}

MemorySystem::MemorySystem(const MemSysConfig &cfg)
    : cfg_(cfg), bus_(cfg.bus), stats_("memsys")
{
    hard_throw_if(cfg_.numCores == 0, ConfigError, "memsys: zero cores");
    hard_throw_if(cfg_.l1.lineBytes != cfg_.l2.lineBytes, ConfigError,
                  "memsys: L1/L2 line sizes differ (%u vs %u)",
                  cfg_.l1.lineBytes, cfg_.l2.lineBytes);
    for (CoreId c = 0; c < cfg_.numCores; ++c) {
        l1s_.push_back(std::make_unique<PrivateL1>(
            "l1." + std::to_string(c), cfg_.l1));
    }
    l2_ = std::make_unique<SetAssocCache>("l2", cfg_.l2);
}

void
MemorySystem::setTracer(EventTracer *tracer)
{
    tracer_ = tracer;
    bus_.setTracer(tracer);
}

unsigned
MemorySystem::sharerCount(Addr addr) const
{
    unsigned n = 0;
    for (const auto &l1 : l1s_)
        if (l1->cache.findLine(addr) != nullptr)
            ++n;
    return n;
}

void
MemorySystem::backInvalidate(Addr line, CoreId keep)
{
    for (CoreId c = 0; c < cfg_.numCores; ++c) {
        if (c == keep)
            continue;
        if (l1s_[c]->cache.invalidate(line))
            ++backInvalidations_;
    }
}

bool
MemorySystem::ensureInL2(Addr line, bool dirty, Cycle &completeAt, Cycle now)
{
    CacheLine *l2line = l2_->findLine(line);
    if (l2line != nullptr) {
        l2_->touch(*l2line);
        if (dirty)
            l2line->cstate = CState::Modified;
        return false;
    }
    // L2 miss: fetch from memory.
    completeAt = std::max(completeAt, now) + cfg_.memLatency;
    auto ev = l2_->insert(line, dirty ? CState::Modified
                                      : CState::Exclusive);
    if (ev) {
        // Inclusive L2: displace any L1 copies of the victim.
        backInvalidate(ev->lineAddr, invalidCore);
        ++l2Evictions_;
        if (ev->dirty)
            bus_.transact(TxnType::Writeback, completeAt);
        if (tracer_ && tracer_->wants(kTraceMem)) {
            Json args = Json::object();
            args.set("line", ev->lineAddr);
            tracer_->instant(kTraceMem, EventTracer::kBusTrack, "l2-evict",
                             completeAt, std::move(args));
        }
        if (onL2Evict_)
            onL2Evict_(ev->lineAddr);
    }
    return true;
}

void
MemorySystem::fillL1(CoreId core, Addr line, CState st, Cycle at)
{
    auto ev = l1s_[core]->cache.insert(line, st);
    if (ev && ev->dirty) {
        // Dirty victim drains toward the L2 over the bus.
        bus_.transact(TxnType::Writeback, at);
        CacheLine *l2line = l2_->findLine(ev->lineAddr);
        // Inclusive hierarchy: the victim must still be in L2 unless it
        // was just displaced by the concurrent L2 fill.
        if (l2line != nullptr)
            l2line->cstate = CState::Modified;
    }
}

AccessOutcome
MemorySystem::access(CoreId core, Addr addr, unsigned size, bool write,
                     Cycle now)
{
    hard_panic_if(core >= cfg_.numCores, "memsys: bad core %u", core);
    const unsigned line_bytes = cfg_.l1.lineBytes;
    hard_panic_if(size == 0 || (addr % line_bytes) + size > line_bytes,
                  "memsys: access %llx+%u crosses a %u-byte line",
                  static_cast<unsigned long long>(addr), size, line_bytes);

    const Addr line = cfg_.l1.lineAddr(addr);
    PrivateL1 &l1 = *l1s_[core];
    AccessOutcome out;
    ++(write ? writes_ : reads_);

    CacheLine *mine = l1.cache.findLine(line);
    if (mine != nullptr) {
        l1.cache.touch(*mine);
        if (!write) {
            // Read hit in any valid state. An E or M copy is the only
            // one (MESI's single-writer invariant), so only S counts.
            out.completeAt = now + cfg_.l1.hitLatency;
            out.l1Hit = true;
            out.source = AccessSource::L1;
            out.stateAfter = mine->cstate;
            out.sharers =
                mine->cstate == CState::Shared ? sharerCount(line) : 1;
            ++l1.readHits;
            return out;
        }
        if (canWrite(mine->cstate)) {
            // Write hit in E/M; silent E->M upgrade.
            mine->cstate = CState::Modified;
            out.completeAt = now + cfg_.l1.hitLatency;
            out.l1Hit = true;
            out.source = AccessSource::L1;
            out.stateAfter = CState::Modified;
            out.sharers = 1;
            ++l1.writeHits;
            return out;
        }
        // Write to a Shared line: BusUpgr invalidates other copies.
        Cycle done = bus_.transact(TxnType::BusUpgr,
                                   now + cfg_.l1.hitLatency);
        backInvalidate(line, core);
        mine->cstate = CState::Modified;
        out.completeAt = done;
        out.l1Hit = false;
        out.source = AccessSource::L1;
        out.stateAfter = CState::Modified;
        out.sharers = 1;
        ++l1.upgrades;
        return out;
    }

    // L1 miss: issue BusRd / BusRdX after the (wasted) L1 lookup.
    ++(write ? l1.writeMisses : l1.readMisses);
    Cycle done =
        bus_.transact(write ? TxnType::BusRdX : TxnType::BusRd,
                      now + cfg_.l1.hitLatency);

    // Snoop the other L1s.
    CoreId owner = invalidCore;
    bool any_other = false;
    for (CoreId c = 0; c < cfg_.numCores; ++c) {
        if (c == core)
            continue;
        CacheLine *theirs = l1s_[c]->cache.findLine(line);
        if (theirs == nullptr)
            continue;
        any_other = true;
        if (theirs->cstate == CState::Modified)
            owner = c;
    }

    if (owner != invalidCore) {
        // Cache-to-cache supply from the modified owner; the owner's
        // copy degrades to Shared (read) or Invalid (write), and the
        // L2 absorbs the dirty data.
        CacheLine *theirs = l1s_[owner]->cache.findLine(line);
        CacheLine *l2line = l2_->findLine(line);
        hard_panic_if(l2line == nullptr,
                      "memsys: M line %llx missing from inclusive L2",
                      static_cast<unsigned long long>(line));
        l2line->cstate = CState::Modified;
        if (write) {
            l1s_[owner]->cache.invalidate(line);
        } else {
            theirs->cstate = CState::Shared;
        }
        out.source = AccessSource::OtherL1;
        ++cacheToCache_;
    } else {
        // Served by L2 (or memory beneath it).
        Cycle l2_done = done + cfg_.l2.hitLatency;
        bool l2_missed = ensureInL2(line, false, l2_done, done);
        if (l2_missed) {
            out.source = AccessSource::Memory;
            ++memFetches_;
        } else {
            out.source = AccessSource::L2;
        }
        done = l2_done;
        if (write && any_other)
            backInvalidate(line, core);
    }

    if (write && owner != invalidCore) {
        // Other copies besides the owner also invalidate on BusRdX.
        backInvalidate(line, core);
    } else if (!write && any_other && owner == invalidCore) {
        // Readers sharing a clean line: demote any E copy to S.
        for (CoreId c = 0; c < cfg_.numCores; ++c) {
            if (c == core)
                continue;
            CacheLine *theirs = l1s_[c]->cache.findLine(line);
            if (theirs != nullptr && theirs->cstate == CState::Exclusive)
                theirs->cstate = CState::Shared;
        }
    }

    CState fill_state;
    if (write) {
        fill_state = CState::Modified;
    } else if (any_other ||
               cfg_.protocol == CoherenceProtocol::MSI) {
        // MSI has no Exclusive state: clean fills are always Shared,
        // so the first write pays a BusUpgr that MESI avoids.
        fill_state = CState::Shared;
    } else {
        fill_state = CState::Exclusive;
    }
    fillL1(core, line, fill_state, done);

    out.completeAt = done;
    out.l1Hit = false;
    out.stateAfter = fill_state;
    out.sharers = sharerCount(line);
    out.lineTransferred = true;
    if (tracer_ && tracer_->wants(kTraceMem)) {
        Json args = Json::object();
        args.set("addr", addr);
        args.set("source", accessSourceName(out.source));
        tracer_->complete(kTraceMem, core,
                          write ? "write-miss" : "read-miss", now, done,
                          std::move(args));
    }
    return out;
}

} // namespace hard
