/**
 * @file
 * The traced run: per-layer spans around calls into each module's
 * public functions, taken on the workload's own units. Nothing here
 * changes what the end-to-end part of the run measured.
 */

#include <algorithm>
#include <cstdio>
#include <optional>
#include <set>

#include "coherence/memsys.hh"
#include "common/logging.hh"
#include "perfbench.hh"
#include "sim/system.hh"
#include "telemetry/profile.hh"
#include "trace/record.hh"
#include "trace/replayer.hh"
#include "trace/trace_cache.hh"
#include "workloads/injector.hh"

using namespace hard;

namespace perfbench
{

namespace
{

/** Run @p fn inside a span; @return its duration in seconds. */
template <typename Fn>
double
timed(SpanLog &log, const std::string &name, const std::string &unit,
      Fn &&fn)
{
    const std::size_t id = log.open(name, unit);
    fn();
    log.close(id);
    return log.spans()[id].seconds();
}

/** Exact, seed-independent counts of one race-free unit, by name. */
using Counts = std::map<std::string, std::uint64_t>;

Json
countsJson(const Counts &counts)
{
    Json j = Json::object();
    for (const auto &[k, v] : counts)
        j.set(k, v);
    return j;
}

/** Per-layer seconds and counts summed over the layer units. */
struct LayerTotals
{
    unsigned units = 0;
    std::uint64_t events = 0;
    double build = 0, sim = 0, record = 0, serialize = 0, store = 0,
           load = 0, decode = 0;
    std::uint64_t accesses = 0, l1Hits = 0, busTxns = 0;
    double memsys = 0, score = 0, battery = 0, batterySolo = 0;
    std::uint64_t hits = 0, lookups = 0;
    std::map<std::string, double> detector;
    std::map<std::string, std::uint64_t> reports;
    /** Per-unit attribution of the timed unit, keyed by unit label. */
    std::map<std::string, double> attributed;
};

/** One sweep through runBatch with one span per unit. @return seconds. */
double
tracedSweep(const std::vector<BatchItem> &items, RunPool &pool,
            SpanLog &spans, std::vector<BatchItemResult> *out)
{
    std::optional<std::size_t> unit_span;
    BatchOptions opts;
    opts.keepGoing = true;
    opts.unitStartHook = [&](std::size_t item, std::int64_t run) {
        if (unit_span)
            spans.close(*unit_span);
        unit_span = spans.open("harness.batch_unit",
                               items[item].workload + "#" +
                                   std::to_string(run));
    };
    const std::size_t sweep = spans.open("harness.run_batch", "");
    *out = runBatch(items, pool, opts);
    if (unit_span)
        spans.close(*unit_span);
    spans.close(sweep);
    return spans.spans()[sweep].seconds();
}

std::uint64_t
busTransactions(const Bus &bus)
{
    const StatGroup &s = bus.stats();
    return s.value("txn.BusRd") + s.value("txn.BusRdX") +
        s.value("txn.BusUpgr") + s.value("txn.Writeback");
}

} // namespace

LayerMetrics
runTraced(const TracedContext &ctx, SpanLog &spans, CheckResult &check,
          Json *exact_out)
{
    const WorkloadSpec &w = *ctx.workload;
    const bool fast = w.mode == ExecMode::Fast;
    const DetectorFactory factory = factoryFor(w);
    const unsigned units = w.unitsPerSweep();
    LayerMetrics m;
    auto put = [&m](const std::string &name, double v, const char *unit) {
        m[name] = {v, unit};
    };

    RunPool pool(1);
    const std::vector<BatchItem> items =
        sweepItems(w, ctx.seed0, w.mode, ctx.cache, factory);

    // 1. The closed loop again, with a span per unit: the difference to
    // the untraced loop is what the tracing costs.
    const TraceCache::Counters before =
        ctx.cache != nullptr ? ctx.cache->counters() : TraceCache::Counters{};
    std::vector<BatchItemResult> results;
    const double t_batch = tracedSweep(items, pool, spans, &results);
    const double traced_ups = units / t_batch;
    put("bench.trace_overhead_pct",
        (ctx.untracedUnitsPerSec - traced_ups) / ctx.untracedUnitsPerSec *
            100.0,
        "%");
    if (ctx.cache != nullptr) {
        const TraceCache::Counters after = ctx.cache->counters();
        const std::uint64_t hits = after.hits - before.hits;
        const std::uint64_t misses = after.misses - before.misses;
        put("trace.cache_hit_ratio",
            hits + misses > 0 ? double(hits) / double(hits + misses) : 0.0,
            "ratio");
    }
    merge(check, checkSweep(w, ctx.seed0, results, {}, *ctx.expected));

    // 2. The same units through runEffectivenessUnit directly: what
    // runBatch adds on top (shared maps, pool, fold) is harness time.
    std::vector<std::unique_ptr<SharedMap>> shared;
    for (const BatchItem &item : items)
        shared.push_back(std::make_unique<SharedMap>(
            buildWorkload(item.workload, item.wp)));
    double t_direct = 0.0;
    std::map<std::string, double> direct_by_unit;
    for (std::size_t i = 0; i < items.size(); ++i)
        for (unsigned r = 0; r <= w.runs; ++r) {
            const BatchItem &item = items[i];
            const std::string label =
                item.workload + "#" + std::to_string(r);
            const double t = timed(spans, "harness.direct_unit", label, [&] {
                runEffectivenessUnit(item.workload, item.wp, item.sim,
                                     factory, r, w.runs, ctx.seed0,
                                     *shared[i], false, nullptr, w.mode,
                                     ctx.cache);
            });
            direct_by_unit[label] = t;
            t_direct += t;
        }
    const double harness_s = t_batch - t_direct;
    put("harness.overhead_pct", harness_s / t_batch * 100.0, "%");

    const double t_json = timed(spans, "harness.batch_json", "", [&] {
        const std::string doc = batchJson(results, w.mode).dump(2);
        hard_panic_if(doc.empty(), "empty batch document");
    });
    put("harness.batch_json_ms", t_json * 1e3, "ms");

    // 3. The profiler's own cost on this workload's sweep.
    Profiler::enable();
    std::vector<BatchItemResult> profiled;
    const double t_prof = timed(spans, "telemetry.profiled_sweep", "", [&] {
        BatchOptions opts;
        opts.keepGoing = true;
        profiled = runBatch(items, pool, opts);
    });
    Profiler::disable();
    put("telemetry.profile_overhead_ratio",
        ctx.untracedUnitsPerSec / (units / t_prof), "ratio");
    // Profiling may observe but never perturb a result byte.
    merge(check, checkSweep(w, ctx.seed0, profiled, unitDocuments(results),
                            *ctx.expected));

    // 4. Layer by layer, on injected run 0 and the race-free run of
    // every app. Each layer is called on its own, through its public
    // entry point, on the same program and trace.
    TraceCache layer_cache(ctx.workDir + "/layer-cache", 0);
    LayerTotals tot;
    std::map<std::string, Counts> exact;
    for (std::size_t i = 0; i < items.size(); ++i) {
        const BatchItem &item = items[i];
        for (unsigned r : {0u, w.runs}) {
            const bool race_free = r == w.runs;
            const std::uint64_t seed = ctx.seed0 + r;
            const std::string label = item.workload + "#" + std::to_string(r);
            ScopedSpan unit_span(spans, "layers.unit", label);

            Program prog;
            Injection inj;
            std::set<SiteId> true_sites;
            const double t_build =
                timed(spans, "workloads.build", label, [&] {
                    prog = buildWorkload(item.workload, item.wp);
                    if (!race_free) {
                        inj = injectRace(prog, seed, shared[i].get());
                        if (inj.valid)
                            true_sites = sitesTouching(prog, inj);
                    }
                });
            SimConfig cfg = item.sim;
            if (cfg.maxCycles == 0)
                cfg.maxCycles = defaultCycleBudget(prog);

            RunResult rr;
            std::uint64_t l2_evictions = 0;
            const double t_sim = timed(spans, "sim.run", label, [&] {
                System sys(cfg, prog);
                rr = sys.run();
                l2_evictions = sys.memsys().stats().value("l2Evictions");
            });
            Trace trace;
            const double t_record = timed(spans, "trace.record_run", label,
                                          [&] { trace = recordRun(prog, cfg); });
            const std::uint64_t events = trace.events.size();

            // The memory system alone, driven by the unit's recorded
            // data accesses (threads sit on core tid % cores, as in
            // System).
            std::uint64_t accesses = 0, l1_hits = 0, bus_txns = 0;
            const double t_mem = timed(spans, "memsys.access", label, [&] {
                MemorySystem ms(cfg.memsys);
                const unsigned cores = cfg.memsys.numCores;
                for (const TraceEvent &ev : trace.events) {
                    if (ev.kind != TraceKind::Read &&
                        ev.kind != TraceKind::Write)
                        continue;
                    const AccessOutcome o =
                        ms.access(static_cast<CoreId>(ev.tid % cores),
                                  ev.addr, ev.size,
                                  ev.kind == TraceKind::Write, ev.at);
                    ++accesses;
                    l1_hits += o.l1Hit ? 1 : 0;
                }
                bus_txns = busTransactions(ms.bus());
            });

            std::string bytes;
            const double t_ser = timed(spans, "trace.serialize", label,
                                       [&] { bytes = serializeTrace(trace); });
            const TraceKey key = makeRunKey(
                item.workload, item.wp, cfg,
                race_free ? -1 : static_cast<std::int64_t>(seed));
            const double t_store = timed(spans, "trace.store", label,
                                         [&] { layer_cache.store(key, trace); });
            trace = Trace{};
            bool hit = false;
            const double t_load = timed(spans, "trace.cache_load", label, [&] {
                hit = layer_cache.replayCached(key, {}).has_value();
            });
            ++tot.lookups;
            tot.hits += hit ? 1 : 0;

            PackedTraceView view;
            std::string err;
            hard_panic_if(!openPackedTrace(bytes, &view, &err),
                          "serialized trace does not reopen: %s",
                          err.c_str());
            // Bare decode, twice; the faster one is the baseline each
            // detector's replay is measured against.
            double t_decode = 1e30;
            for (int k = 0; k < 2; ++k)
                t_decode = std::min(
                    t_decode, timed(spans, "trace.decode", label,
                                    [&] { replayPacked(view, {}); }));

            // A detector's cost is its construction, replay, finalize
            // and teardown; scoring its reports is harness work.
            double det_self = 0.0, t_score = 0.0;
            Counts &ex = exact[item.workload];
            for (const std::string &name : allDetectorNames()) {
                const bool in_sweep =
                    std::find(w.detectors.begin(), w.detectors.end(),
                              name) != w.detectors.end();
                std::unique_ptr<RaceDetector> d;
                const double t = timed(spans, "detector." + name, label, [&] {
                    d = makeDetector(name);
                    replayPacked(view, {d.get()});
                    d->finalize();
                });
                if (in_sweep)
                    t_score += timed(spans, "harness.score", label, [&] {
                        if (inj.valid)
                            (void)detectedInjection(d->sink(), inj,
                                                    true_sites);
                        (void)d->sink().sites();
                    });
                const std::uint64_t reports = d->sink().dynamicCount();
                const double t_free = timed(spans, "detector.teardown",
                                            label, [&] { d.reset(); });
                const double self = t - t_decode + t_free;
                tot.detector[name] += self;
                if (in_sweep)
                    det_self += self;
                if (race_free) {
                    tot.reports[name] += reports;
                    ex["detector." + name + ".reports"] = reports;
                }
            }

            // The sweep's detectors replayed together: against the sum
            // of their solo replays, this is what sharing one event
            // loop and one cache hierarchy costs.
            const double t_battery =
                timed(spans, "detector.battery", label, [&] {
                    std::vector<std::unique_ptr<RaceDetector>> dets;
                    std::vector<AccessObserver *> obs;
                    for (const std::string &name : w.detectors) {
                        dets.push_back(makeDetector(name));
                        obs.push_back(dets.back().get());
                    }
                    replayPacked(view, obs);
                    for (auto &d : dets)
                        d->finalize();
                });
            tot.battery += t_battery - t_decode;
            tot.batterySolo += det_self;

            tot.units += 1;
            tot.events += events;
            tot.build += t_build;
            tot.sim += t_sim;
            tot.record += t_record;
            tot.serialize += t_ser;
            tot.store += t_store;
            tot.load += t_load;
            tot.decode += t_decode;
            tot.accesses += accesses;
            tot.l1Hits += l1_hits;
            tot.busTxns += bus_txns;
            tot.memsys += t_mem;
            tot.score += t_score;
            tot.attributed[label] = t_build + (fast ? t_load : t_sim) +
                (t_battery - t_decode) + t_score;

            if (race_free) {
                ex["sim.cycles"] = rr.totalCycles;
                ex["sim.data_accesses"] =
                    rr.dataReads + rr.dataWrites;
                ex["sim.lock_acquires"] = rr.lockAcquires;
                ex["memsys.l2_evictions"] = l2_evictions;
                ex["trace.events"] = events;
                ex["memsys.replay_l1_hits"] = l1_hits;
                ex["bus.replay_txns"] = bus_txns;
            }
        }
    }

    const double ev = static_cast<double>(tot.events);
    put("workloads.build_ms", tot.build / tot.units * 1e3, "ms");
    put("sim.run_ns_per_event", tot.sim / ev * 1e9, "ns");
    put("trace.record_ns_per_event", (tot.record - tot.sim) / ev * 1e9, "ns");
    put("memsys.access_ns", tot.memsys / tot.accesses * 1e9, "ns");
    put("memsys.l1_hit_ratio", double(tot.l1Hits) / tot.accesses, "ratio");
    put("memsys.replayed_accesses", double(tot.accesses), "count");
    put("bus.txns_per_access", double(tot.busTxns) / tot.accesses, "ratio");
    put("trace.serialize_ns_per_event", tot.serialize / ev * 1e9, "ns");
    put("trace.store_ms", tot.store / tot.units * 1e3, "ms");
    put("trace.cache_load_ns_per_event", tot.load / ev * 1e9, "ns");
    put("trace.decode_ns_per_event", tot.decode / ev * 1e9, "ns");
    if (ctx.cache == nullptr)
        put("trace.cache_hit_ratio", double(tot.hits) / tot.lookups,
            "ratio");
    put("trace.events_per_unit", ev / tot.units, "count");
    put("harness.score_ms", tot.score / tot.units * 1e3, "ms");
    put("detector.battery.ns_per_event", tot.battery / ev * 1e9, "ns");
    put("detector.battery.interaction_pct",
        (tot.battery - tot.batterySolo) / tot.batterySolo * 100.0, "%");
    for (const std::string &name : allDetectorNames()) {
        put("detector." + name + ".ns_per_event",
            tot.detector[name] / ev * 1e9, "ns");
        put("detector." + name + ".reports", double(tot.reports[name]),
            "count");
    }

    // Exact counts, summed over the apps' race-free runs, and asserted
    // against expected.json: a change that only speeds a layer up must
    // leave every one of them identical.
    std::map<std::string, std::uint64_t> sums;
    const Json *exp_exact = nullptr;
    if (ctx.expected->isObject() && ctx.expected->has("workloads") &&
        (*ctx.expected)["workloads"].has(w.expectKey) &&
        (*ctx.expected)["workloads"][w.expectKey].has("exact"))
        exp_exact = &(*ctx.expected)["workloads"][w.expectKey]["exact"];
    *exact_out = Json::object();
    for (const auto &[app, ex] : exact) {
        exact_out->set(app, countsJson(ex));
        std::printf("exact %s:", app.c_str());
        for (const auto &[k, v] : ex) {
            std::printf(" %s=%llu", k.c_str(),
                        static_cast<unsigned long long>(v));
            sums[k] += v;
        }
        std::printf("\n");
        ++check.attempted;
        const bool ok = exp_exact != nullptr && exp_exact->has(app) &&
            (*exp_exact)[app] == countsJson(ex);
        if (!ok) {
            ++check.failed;
            check.problems.push_back(app + ": exact counts differ from "
                                           "expected.json");
        }
    }
    for (const char *k : {"sim.cycles", "sim.data_accesses",
                          "sim.lock_acquires", "memsys.l2_evictions"})
        put(k, double(sums[k]), "count");

    // Self-time accounting of one unit, over the layer units: what the
    // layers above account for against the unit's own time through
    // runEffectivenessUnit plus its share of harness time.
    double measured = 0.0, attributed = 0.0;
    const double harness_per_unit = harness_s / units;
    for (const auto &[label, a] : tot.attributed) {
        measured += direct_by_unit[label] + harness_per_unit;
        attributed += a + harness_per_unit;
    }
    put("bench.unattributed_pct", (measured - attributed) / measured * 100.0,
        "%");
    put("bench.attributed_unit_ms", attributed / tot.units * 1e3, "ms");
    return m;
}

} // namespace perfbench
