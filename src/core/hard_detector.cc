#include "core/hard_detector.hh"

#include <bit>
#include <utility>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "explain/prov.hh"
#include "telemetry/sampler.hh"
#include "telemetry/trace_event.hh"

namespace hard
{

HardDetector::HardDetector(const std::string &name, const HardConfig &cfg,
                           Bus *bus)
    : RaceDetector(name),
      cfg_(cfg),
      bus_(bus),
      meta_(cfg.metaGeometry, cfg.unbounded || cfg.coupleToCaches,
            metaGranulesPerLine("hard", cfg.metaGeometry,
                                cfg.granularityBytes))
{
    lockRegs_.fill(LockRegister(cfg_.bloomBits, cfg_.counterBits));
    coreRegs_.fill(LockRegister(cfg_.bloomBits, cfg_.counterBits));
    stats().formula("metaHitRate", [this] {
        return Formula::ratio(meta_.hits(), meta_.lookups());
    });
}

LockRegister &
HardDetector::regFor(ThreadId tid, CoreId core)
{
    if (cfg_.perCoreRegisters) {
        hard_panic_if(core >= coreRegs_.size(), "hard: bad core %u",
                      core);
        return coreRegs_[core];
    }
    return lockRegs_[tid];
}

void
HardDetector::onLineEvicted(const Event &ev)
{
    if (!cfg_.coupleToCaches)
        return;
    if (meta_.erase(ev.addr)) {
        ++stats_.metadataEvictions;
        if (prov_)
            prov_->recordMetaLoss(cfg_.metaGeometry.lineAddr(ev.addr),
                                  cfg_.metaGeometry.lineBytes, ev.at);
        if (tracer_ && tracer_->wants(kTraceDetector)) {
            Json args = Json::object();
            args.set("line", ev.addr);
            tracer_->instant(kTraceDetector, EventTracer::kDetectorTrack,
                             name() + ":meta-loss", ev.at, std::move(args));
        }
    }
}

void
HardDetector::syncStats()
{
    RaceDetector::syncStats();
    StatGroup &g = stats();
    g.counter("barrierResets").set(stats_.barrierResets);
    g.counter("intersections").set(stats_.intersections);
    g.counter("metaBroadcasts").set(stats_.metaBroadcasts);
    g.counter("metaHits").set(meta_.hits());
    g.counter("metaLookups").set(meta_.lookups());
    g.counter("metaResident").set(meta_.residentLines());
    g.counter("metadataEvictions").set(stats_.metadataEvictions);

    // BFVector occupancy: population count of every tracked (non-
    // Virgin) resident granule's candidate set. Refilled from scratch
    // each sync — a snapshot, not an accumulation; bucket fills are
    // commutative, so unordered iteration stays deterministic.
    Histogram &occ = g.histogram("bfOccupancy", Histogram::Scale::Linear,
                                 1, 33);
    occ.reset();
    const std::uint32_t mask = cfg_.bloomBits < 32
        ? (std::uint32_t{1} << cfg_.bloomBits) - 1
        : ~std::uint32_t{0};
    const unsigned n = meta_.granulesPerLine();
    meta_.forEach([&occ, mask, n](Addr, const Granule *line) {
        for (unsigned k = 0; k < n; ++k) {
            if (line[k].state != LState::Virgin)
                occ.sample(std::popcount(line[k].bf & mask));
        }
    });
}

void
HardDetector::registerProbes(IntervalSampler &sampler)
{
    RaceDetector::registerProbes(sampler);
    sampler.addGauge(name() + ".metaResident",
                     [this] { return meta_.residentLines(); });
    sampler.addRatio(name() + ".metaHitRate",
                     [this] { return meta_.hits(); },
                     [this] { return meta_.lookups(); });
    sampler.addCounter(name() + ".metaBroadcasts",
                       [this] { return stats_.metaBroadcasts; });
}

void
HardDetector::onContextSwitch(const Event &ev)
{
    if (!cfg_.perCoreRegisters || !cfg_.saveRestoreOnSwitch)
        return;
    const CoreId core = ev.core;
    const ThreadId from = ev.switchedOut();
    const ThreadId to = ev.tid;
    hard_panic_if(core >= coreRegs_.size() || from >= kMaxThreads ||
                      to >= kMaxThreads,
                  "hard: bad context switch c%u %u->%u", core, from, to);
    // The OS saves the outgoing thread's Lock/Counter Registers and
    // restores the incoming thread's (§3.1: the registers belong to
    // the processor, the lock set belongs to the thread).
    lockRegs_[from] = coreRegs_[core];
    coreRegs_[core] = lockRegs_[to];
}

const LockRegister &
HardDetector::lockRegister(ThreadId tid) const
{
    hard_panic_if(tid >= kMaxThreads, "hard: thread id %u too large", tid);
    return lockRegs_[tid];
}

std::optional<LState>
HardDetector::lstateOf(Addr addr)
{
    const Granule *line = meta_.find(addr);
    if (line == nullptr)
        return std::nullopt;
    const Addr base = cfg_.metaGeometry.lineAddr(addr);
    return line[(addr - base) / cfg_.granularityBytes].state;
}

std::optional<std::uint32_t>
HardDetector::bfOf(Addr addr)
{
    const Granule *line = meta_.find(addr);
    if (line == nullptr)
        return std::nullopt;
    const Addr base = cfg_.metaGeometry.lineAddr(addr);
    std::uint32_t raw = line[(addr - base) / cfg_.granularityBytes].bf;
    // Mask to the configured width for presentation.
    if (cfg_.bloomBits < 32)
        raw &= (std::uint32_t{1} << cfg_.bloomBits) - 1;
    return raw;
}

void
HardDetector::access(const Event &ev, bool write)
{
    hard_panic_if(ev.tid >= kMaxThreads, "hard: thread id %u too large",
                  ev.tid);

    std::uint64_t evictions_before = meta_.evictions();
    bool fresh = false;
    Addr victim = invalidAddr;
    Granule *line =
        meta_.lookup(ev.addr, fresh, prov_ ? &victim : nullptr);
    stats_.metadataEvictions += meta_.evictions() - evictions_before;

    const unsigned gran = cfg_.granularityBytes;
    const int shift = std::countr_zero(gran);
    const Addr line_base = cfg_.metaGeometry.lineAddr(ev.addr);
    const Addr lo = alignDown(ev.addr, gran);
    const Addr hi = ev.addr + (ev.size ? ev.size : 1);
    hard_panic_if(hi > line_base + cfg_.metaGeometry.lineBytes,
                  "hard: access %llx+%u crosses a metadata line",
                  static_cast<unsigned long long>(ev.addr), ev.size);
    const std::uint32_t lockset =
        regFor(ev.tid, ev.core).vector().raw();

    if (prov_) {
        if (victim != invalidAddr)
            prov_->recordMetaLoss(victim, cfg_.metaGeometry.lineBytes,
                                  ev.at);
        if (fresh)
            prov_->recordRefetch(line_base, cfg_.metaGeometry.lineBytes,
                                 ev.at);
    }
    const std::uint32_t sat_mask =
        prov_ ? regFor(ev.tid, ev.core).saturatedBits() : 0;

    bool changed = false;
    std::array<std::pair<Addr, std::uint32_t>, 8> bcast;
    std::size_t n_bcast = 0;
    for (Addr a = lo; a < hi; a += gran) {
        Granule &g = line[(a - line_base) >> shift];
        if (prov_)
            prov_->noteAccess(a, ev.tid, ev.at);
        const LState state_before = g.state;
        LStateStep step = lstateAccess(g.state, g.owner, ev.tid, write);
        g.state = step.next;
        g.owner = step.owner;
        if (!step.updateCandidate)
            continue;
        // The expensive software set intersection is a single AND of
        // the candidate-set and Lock Register BFVectors (§3.2).
        std::uint32_t bf_before = g.bf;
        std::uint32_t new_bf = g.bf & lockset;
        ++stats_.intersections;
        if (new_bf != g.bf) {
            g.bf = new_bf;
            changed = true;
            if (prov_ && n_bcast < bcast.size())
                bcast[n_bcast++] = {a, new_bf};
        }
        if (prov_)
            prov_->recordNarrow(a, ev.tid, ev.site, write, ev.at,
                                state_before, g.state, bf_before,
                                lockset, g.bf, sat_mask);
        if (step.reportIfEmpty &&
            BfVector::rawSetEmpty(g.bf, cfg_.bloomBits)) {
            emit(ev.tid, a, gran, ev.site, write, ev.at,
                 prov_ ? prov_->lastOther(a) : invalidThread);
            if (prov_)
                prov_->recordReport(a, ev.tid, ev.site, write, ev.at);
        }
    }

    // §3.4: a read that leaves the line in Shared CState with a
    // changed candidate set broadcasts the new metadata so all valid
    // copies stay consistent.
    if (!write && changed && ev.stateAfter == CState::Shared &&
        ev.sharers > 1) {
        ++stats_.metaBroadcasts;
        if (prov_)
            for (std::size_t i = 0; i < n_bcast; ++i)
                prov_->recordBroadcast(bcast[i].first, ev.at,
                                       bcast[i].second);
        if (bus_ != nullptr)
            bus_->transact(TxnType::MetaBroadcast, ev.at);
    }
}

void
HardDetector::onRead(const Event &ev)
{
    access(ev, false);
}

void
HardDetector::onWrite(const Event &ev)
{
    access(ev, true);
}

void
HardDetector::onLockAcquire(const Event &ev)
{
    hard_panic_if(ev.tid >= kMaxThreads, "hard: thread id %u too large",
                  ev.tid);
    regFor(ev.tid, ev.core).acquire(ev.addr);
}

void
HardDetector::onLockRelease(const Event &ev)
{
    hard_panic_if(ev.tid >= kMaxThreads, "hard: thread id %u too large",
                  ev.tid);
    regFor(ev.tid, ev.core).release(ev.addr);
}

void
HardDetector::onBarrier(const Event &ev)
{
    if (!cfg_.barrierReset)
        return;
    // §3.5: "the accesses and their lock information before the
    // barrier are discarded". Flash-set every BFVector back to "all
    // possible locks" AND restart the LState tracking: pre-barrier
    // accesses are ordered against post-barrier ones by the barrier,
    // so both the lock evidence and the sharing history must go —
    // resetting only the BFVectors would leave the Figure 7 pattern
    // (cross-barrier hand-off with no locks) reported via the
    // persisting SharedModified state. The reset is lazy: each
    // resident line is reset when next reached (MetaCache epochs).
    meta_.onBarrier();
    ++stats_.barrierResets;
    if (prov_)
        prov_->recordFlashReset(ev.at, ev.episode);
    if (tracer_ && tracer_->wants(kTraceDetector)) {
        Json args = Json::object();
        args.set("episode", ev.episode);
        args.set("resident", meta_.residentLines());
        tracer_->instant(kTraceDetector, EventTracer::kDetectorTrack,
                         name() + ":flash-reset", ev.at, std::move(args));
    }
}

} // namespace hard
