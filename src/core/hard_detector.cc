#include "core/hard_detector.hh"

#include <bit>
#include <utility>

#include "explain/prov.hh"
#include "telemetry/sampler.hh"
#include "telemetry/trace_event.hh"

namespace hard
{

HardDetector::HardDetector(const std::string &name, const HardConfig &cfg,
                           Bus *bus)
    : Engine(name, "hard", LockRegisterFile(cfg.bloomBits, cfg.counterBits),
             cfg.metaGeometry, cfg.unbounded || cfg.coupleToCaches,
             metaGranulesPerLine("hard", cfg.metaGeometry,
                                 cfg.granularityBytes)),
      cfg_(cfg), bus_(bus)
{
    stats().formula("metaHitRate", [this] {
        return Formula::ratio(store_.hits(), store_.lookups());
    });
}

template <bool kTraced>
void
HardDetector::onFetch(const Event &ev, Addr line, bool fresh, Addr victim)
{
    if constexpr (kTraced) {
        const unsigned bytes = cfg_.metaGeometry.lineBytes;
        if (victim != invalidAddr)
            prov_->recordMetaLoss(victim, bytes, ev.at);
        if (fresh)
            prov_->recordRefetch(line, bytes, ev.at);
    }
}

template <bool kTraced>
void
HardDetector::onMeet(const Event &ev, Addr a, bool write, LState before,
                     const Granule &g, Set old, Set held)
{
    // The expensive software set intersection is a single AND of the
    // candidate-set and Lock Register BFVectors (§3.2).
    ++stats_.intersections;
    if constexpr (kTraced) {
        if (g.cand != old && nBcast_ < bcast_.size())
            bcast_[nBcast_++] = {a, g.cand};
        prov_->recordNarrow(a, ev.tid, ev.site, write, ev.at, before,
                            g.state, old, held, g.cand,
                            locks_[lockSlot(ev)].saturatedBits());
    }
}

template <bool kTraced>
void
HardDetector::afterAccess(const Event &ev, bool write, bool changed)
{
    // §3.4: a read that leaves the line in Shared CState with a
    // changed candidate set broadcasts the new metadata so all valid
    // copies stay consistent.
    if (!write && changed && ev.stateAfter == CState::Shared &&
        ev.sharers > 1) {
        ++stats_.metaBroadcasts;
        if constexpr (kTraced)
            for (std::size_t i = 0; i < nBcast_; ++i)
                prov_->recordBroadcast(bcast_[i].first, ev.at,
                                       bcast_[i].second);
        if (bus_ != nullptr)
            bus_->transact(TxnType::MetaBroadcast, ev.at);
    }
    if constexpr (kTraced)
        nBcast_ = 0;
}

void
HardDetector::onFlashReset(const Event &ev)
{
    ++stats_.barrierResets;
    if (tracer_ && tracer_->wants(kTraceDetector)) {
        Json args = Json::object();
        args.set("episode", ev.episode);
        args.set("resident", store_.residentLines());
        tracer_->instant(kTraceDetector, EventTracer::kDetectorTrack,
                         name() + ":flash-reset", ev.at, std::move(args));
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
HardDetector::onLineEvicted(const Event &ev)
{
    if (!cfg_.coupleToCaches || !store_.erase(ev.addr))
        return;
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

const HardStats &
HardDetector::hardStats() const
{
    // Every lookup displacement and every coupled erase is one
    // metadata eviction, and nothing else evicts.
    stats_.metadataEvictions = store_.evictions();
    return stats_;
}

void
HardDetector::syncStats()
{
    RaceDetector::syncStats();
    StatGroup &g = stats();
    g.counter("barrierResets").set(stats_.barrierResets);
    g.counter("intersections").set(stats_.intersections);
    g.counter("metaBroadcasts").set(stats_.metaBroadcasts);
    g.counter("metaHits").set(store_.hits());
    g.counter("metaLookups").set(store_.lookups());
    g.counter("metaResident").set(store_.residentLines());
    g.counter("metadataEvictions").set(store_.evictions());

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
    const unsigned n = store_.granulesPerLine();
    store_.forEach([&occ, mask, n](Addr, const Granule *line) {
        for (unsigned k = 0; k < n; ++k) {
            if (line[k].state != LState::Virgin)
                occ.sample(std::popcount(line[k].cand & mask));
        }
    });
}

void
HardDetector::registerProbes(IntervalSampler &sampler)
{
    RaceDetector::registerProbes(sampler);
    sampler.addGauge(name() + ".metaResident",
                     [this] { return store_.residentLines(); });
    sampler.addRatio(name() + ".metaHitRate",
                     [this] { return store_.hits(); },
                     [this] { return store_.lookups(); });
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
    hard_panic_if(core >= kMaxThreads || from >= kMaxThreads ||
                      to >= kMaxThreads,
                  "hard: bad context switch c%u %u->%u", core, from, to);
    // The OS saves the outgoing thread's Lock/Counter Registers and
    // restores the incoming thread's (§3.1: the registers belong to
    // the processor, the lock set belongs to the thread).
    locks_[from] = locks_[kMaxThreads + core];
    locks_[kMaxThreads + core] = locks_[to];
}

const LockRegister &
HardDetector::lockRegister(ThreadId tid) const
{
    checkThread(tid);
    return locks_[tid];
}

std::optional<LState>
HardDetector::lstateOf(Addr addr)
{
    const Granule *g = store_.granule(addr);
    if (g == nullptr)
        return std::nullopt;
    return g->state;
}

std::optional<std::uint32_t>
HardDetector::bfOf(Addr addr)
{
    const Granule *g = store_.granule(addr);
    if (g == nullptr)
        return std::nullopt;
    // Mask to the configured width for presentation.
    return cfg_.bloomBits < 32
        ? g->cand & ((std::uint32_t{1} << cfg_.bloomBits) - 1)
        : g->cand;
}

} // namespace hard
