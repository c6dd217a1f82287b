#include "harness/batch.hh"

#include <atomic>
#include <memory>
#include <optional>

#include "common/error.hh"
#include "common/logging.hh"
#include "explain/classifier.hh"
#include "explain/explain_json.hh"
#include "telemetry/profile.hh"
#include "telemetry/stat_registry.hh"
#include "trace/record.hh"
#include "trace/recorder.hh"
#include "trace/replayer.hh"

namespace hard
{

EffectivenessRun
runEffectivenessUnit(const std::string &workload, const WorkloadParams &wp,
                     const SimConfig &sim, const DetectorFactory &factory,
                     unsigned index, unsigned num_runs,
                     std::uint64_t seed0, const SharedMap &shared,
                     bool collect_stats, const HardConfig *explain_hard,
                     ExecMode mode, TraceCache *trace_cache,
                     bool collect_latency)
{
    hard_throw_if(mode == ExecMode::Fast && collect_stats, ConfigError,
                  "fast mode cannot collect per-run machine stats "
                  "(a warm cache hit simulates no machine)");

    EffectivenessRun out;
    out.index = index;
    out.raceFree = index >= num_runs;

    Program prog = buildWorkload(workload, wp);

    Injection inj;
    std::set<SiteId> true_sites;
    if (!out.raceFree) {
        inj = injectRace(prog, seed0 + index, &shared);
        if (!inj.valid) {
            warn("%s: run %u: no injectable critical section",
                 workload.c_str(), index);
            return out;
        }
        out.injectionValid = true;
        true_sites = sitesTouching(prog, inj);
    }

    auto detectors = factory();
    std::vector<RaceDetector *> raw;
    raw.reserve(detectors.size());
    for (auto &d : detectors)
        raw.push_back(d.get());

    // Exposure probe for detection-latency telemetry: rides the run
    // as a plain observer (never behind the sampling wrapper — it
    // defines the clock the sampled detectors are measured against).
    std::unique_ptr<ExposureObserver> exposure;
    if (collect_latency && !out.raceFree && out.injectionValid)
        exposure = std::make_unique<ExposureObserver>(inj, true_sites);

    // Finite safety net: a batch unit must end in CycleBudgetError
    // rather than hang the whole sweep, even with the watchdog off.
    // The default budget is far above any legitimate run, so healthy
    // results are unchanged. The resolved config also feeds the cache
    // key, so a budget change re-records rather than replaying a
    // trace from a different budget.
    SimConfig cfg = sim;
    if (cfg.maxCycles == 0)
        cfg.maxCycles = defaultCycleBudget(prog);

    if (mode == ExecMode::Fast) {
        // Record once (or fetch the recording), then drive the
        // detectors from the trace alone. Failed record runs throw
        // out of here exactly like failed live runs, and are never
        // stored.
        const TraceKey key = makeRunKey(
            workload, wp, cfg,
            out.raceFree
                ? -1
                : static_cast<std::int64_t>(seed0 + index));
        // The detectors are independent, so the replay spreads them
        // over the unit's lanes (RunPool::laneBudget()). With the
        // profiler on, each detector's dispatch time lands in its own
        // phase, timed per block by the replay itself.
        std::vector<AccessObserver *> observers(raw.begin(), raw.end());
        ReplayOptions replay;
        replay.lanes = RunPool::laneBudget();
        if (Profiler::active() != nullptr)
            for (RaceDetector *d : raw)
                replay.phases.push_back("batch.unit.detector." +
                                        d->name());
        // Sampling gates only the detectors; the exposure probe sees
        // the full stream.
        std::vector<std::unique_ptr<SamplingObserver>> sampled;
        if (cfg.sampling.active()) {
            sampled.reserve(observers.size());
            for (AccessObserver *&obs : observers) {
                sampled.push_back(std::make_unique<SamplingObserver>(
                    *obs, cfg.sampling));
                obs = sampled.back().get();
            }
        }
        if (exposure)
            observers.push_back(exposure.get());
        // Warm hits stream packed events straight from the mapped
        // container into the detectors (identical dispatch, no event
        // vector). Only the explain path needs the materialized
        // trace, so only it goes through lookup(); a replayCached()
        // miss already counted, so the miss path records directly
        // without re-probing.
        bool replayed = false;
        if (trace_cache != nullptr && explain_hard == nullptr) {
            ScopedPhase phase("batch.unit.replay");
            replayed = trace_cache->replayCached(key, observers, replay)
                           .has_value();
        }
        if (!replayed) {
            Trace trace;
            std::optional<Trace> cached;
            if (trace_cache != nullptr && explain_hard != nullptr)
                cached = trace_cache->lookup(key);
            if (cached) {
                trace = std::move(*cached);
            } else {
                {
                    ScopedPhase phase("batch.unit.record");
                    trace = recordRun(prog, cfg);
                }
                if (trace_cache != nullptr)
                    trace_cache->store(key, trace);
            }
            {
                ScopedPhase phase("batch.unit.replay");
                replayTrace(trace, observers, replay);
            }
            if (explain_hard != nullptr) {
                ScopedPhase phase("batch.unit.explain");
                ExplainConfig ec;
                ec.subject = ExplainConfig::Subject::Hard;
                ec.hard = *explain_hard;
                out.explain = attributionJson(explainTrace(trace, ec));
            }
        }
        for (RaceDetector *d : raw)
            d->finalize();
    } else {
        // Explain collection rides a TraceRecorder alongside the
        // detectors; the recorder is a pure observer, so detector
        // results are unchanged whether or not it is attached.
        std::unique_ptr<TraceRecorder> recorder;
        std::vector<AccessObserver *> extra;
        if (explain_hard != nullptr) {
            recorder = std::make_unique<TraceRecorder>(prog);
            extra.push_back(recorder.get());
        }
        if (exposure)
            extra.push_back(exposure.get());
        {
            ScopedPhase phase("batch.unit.simulate");
            runWithDetectors(prog, cfg, raw,
                             collect_stats ? &out.stats : nullptr,
                             extra);
        }
        if (recorder) {
            ScopedPhase phase("batch.unit.explain");
            ExplainConfig ec;
            ec.subject = ExplainConfig::Subject::Hard;
            ec.hard = *explain_hard;
            out.explain =
                attributionJson(explainTrace(recorder->take(), ec));
        }
    }

    for (auto &d : detectors) {
        RunOutcome &o = out.byDetector[d->name()];
        if (!out.raceFree)
            o.detected = detectedInjection(d->sink(), inj, true_sites);
        o.sites = d->sink().sites();
        o.dynamicReports = d->sink().dynamicCount();
    }

    if (exposure) {
        const std::int64_t expose = exposure->exposeCycle();
        Json lat = Json::object();
        lat.set("exposeCycle", expose);
        Json by = Json::object();
        for (auto &d : detectors) {
            const std::int64_t dc =
                firstDetectionCycle(d->sink(), inj, true_sites);
            Json e = Json::object();
            e.set("detectCycle", dc);
            if (dc >= 0 && expose >= 0) {
                // A coarse-granularity report can precede the precise
                // exposure access (same true site, earlier overlapping
                // granule touch); clamp so latency is never negative.
                e.set("latencyCycles",
                      dc > expose ? dc - expose : std::int64_t{0});
            }
            by.set(d->name(), std::move(e));
        }
        lat.set("byDetector", std::move(by));
        out.latency = std::move(lat);
    }
    return out;
}

EffectivenessResult
foldEffectiveness(const std::vector<EffectivenessRun> &runs)
{
    EffectivenessResult result;
    for (const EffectivenessRun &run : runs) {
        if (!run.ok())
            continue; // failed/skipped units contribute nothing
        if (run.raceFree) {
            for (const auto &[name, o] : run.byDetector) {
                DetectorScore &score = result[name];
                score.falseAlarms = o.sites.size();
                score.dynamicReports = o.dynamicReports;
            }
        } else {
            if (!run.injectionValid)
                continue;
            for (const auto &[name, o] : run.byDetector) {
                DetectorScore &score = result[name];
                ++score.runsAttempted;
                if (o.detected)
                    ++score.bugsDetected;
            }
        }
    }
    return result;
}

EffectivenessResult
runEffectivenessParallel(const std::string &workload,
                         const WorkloadParams &wp, const SimConfig &sim,
                         const DetectorFactory &factory, unsigned num_runs,
                         std::uint64_t seed0, RunPool &pool)
{
    hard_throw_if(sim.hardTiming.enabled, ConfigError,
                  "effectiveness runs must not enable the HARD timing "
                  "model (all detectors must see identical executions)");

    // Shared-data map (computed once; injection does not change the
    // access set, only the locking).
    const SharedMap shared(buildWorkload(workload, wp));

    std::vector<EffectivenessRun> runs(num_runs + 1);
    pool.runIndexed(num_runs + 1, [&](std::size_t i) {
        runs[i] = runEffectivenessUnit(workload, wp, sim, factory,
                                       static_cast<unsigned>(i), num_runs,
                                       seed0, shared);
    });
    return foldEffectiveness(runs);
}

namespace
{

/** Fill one run slot from a classified failure. */
void
markRunFailed(EffectivenessRun &run, unsigned index, unsigned num_runs,
              const std::string &outcome, const std::string &type,
              const std::string &message)
{
    run = EffectivenessRun{};
    run.index = index;
    run.raceFree = index >= num_runs;
    run.outcome = outcome;
    run.errorType = type;
    run.errorMessage = message;
}

/** Serialize an overhead unit's result (ok or failed) for journal
 * and batch JSON. */
Json
overheadPayload(const BatchItemResult &res)
{
    Json j = Json::object();
    j.set("outcome",
          res.overheadOutcome.empty() ? "ok" : res.overheadOutcome);
    if (res.haveOverhead) {
        // Named: members() references the Json's own storage, and a
        // temporary dies before the loop body under C++20 lifetimes.
        const Json oh = toJson(res.overhead);
        for (const auto &[k, v] : oh.members())
            j.set(k, v);
    } else {
        j.set("errorType", res.overheadErrorType);
        j.set("errorMessage", res.overheadErrorMessage);
    }
    return j;
}

/** Restore an overhead unit from its journal/JSON payload. */
void
restoreOverhead(BatchItemResult &res, const Json &payload)
{
    res.overheadOutcome = payload["outcome"].asString();
    if (res.overheadOutcome == "ok") {
        res.overhead = overheadFromJson(payload);
        res.haveOverhead = true;
    } else {
        res.overheadErrorType = payload["errorType"].asString();
        res.overheadErrorMessage = payload["errorMessage"].asString();
    }
}

} // namespace

std::vector<BatchItemResult>
runBatch(const std::vector<BatchItem> &items, RunPool &pool,
         const BatchOptions &opts)
{
    for (const BatchItem &item : items) {
        hard_throw_if(item.effectiveness && !item.factory, ConfigError,
                      "batch item '%s' has no detector factory",
                      item.workload.c_str());
        hard_throw_if(item.effectiveness && item.sim.hardTiming.enabled,
                      ConfigError,
                      "effectiveness runs must not enable the HARD "
                      "timing model (all detectors must see identical "
                      "executions)");
        hard_throw_if(item.mode == ExecMode::Fast && item.overhead,
                      ConfigError,
                      "batch item '%s': overhead measurement needs "
                      "cycle-level timing; --mode=fast cannot provide "
                      "it",
                      item.workload.c_str());
        hard_throw_if(item.mode == ExecMode::Fast && item.collectStats,
                      ConfigError,
                      "batch item '%s': fast mode cannot collect "
                      "per-run machine stats",
                      item.workload.c_str());
    }

    std::vector<BatchItemResult> results(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
        results[i].label = items[i].label.empty() ? items[i].workload
                                                  : items[i].label;
        results[i].workload = items[i].workload;
        results[i].runs = items[i].runs;
        results[i].seed0 = items[i].seed0;
        results[i].reproBase = items[i].reproBase.empty()
            ? "hardsim --workload=" + items[i].workload
            : items[i].reproBase;
        if (items[i].effectiveness)
            results[i].runDetail.resize(items[i].runs + 1);
    }

    // Failure budget shared by all workers. Restored failures count:
    // resuming must not re-earn headroom the interrupted sweep spent.
    std::atomic<unsigned> failures{0};

    // Restore journaled units from a previous interrupted sweep.
    // Units are deterministic, so a restored record — even a failed
    // one — is exactly what re-running would produce.
    std::vector<std::vector<bool>> restored_run(items.size());
    std::vector<bool> restored_overhead(items.size(), false);
    for (std::size_t i = 0; i < items.size(); ++i)
        restored_run[i].assign(items[i].runs + 1, false);
    if (opts.restored != nullptr) {
        for (const auto &[key, payload] : *opts.restored) {
            const auto [i, r] = key;
            if (i >= items.size())
                continue;
            if (r == -1 && items[i].overhead) {
                restoreOverhead(results[i], payload);
                restored_overhead[i] = true;
                if (results[i].overheadOutcome != "ok")
                    ++failures;
            } else if (r >= 0 && items[i].effectiveness &&
                       r <= static_cast<std::int64_t>(items[i].runs)) {
                EffectivenessRun run = effectivenessRunFromJson(payload);
                results[i].runDetail[static_cast<std::size_t>(r)] = run;
                restored_run[i][static_cast<std::size_t>(r)] = true;
                if (!run.ok())
                    ++failures;
            }
        }
    }

    // Deselect units outside opts.unitFilter (campaign shards): mark
    // them "skipped" up front without running or journaling them, so
    // a later merge/resume sees them as still pending.
    auto unit_selected = [&opts](std::size_t i, std::int64_t r) {
        return !opts.unitFilter || opts.unitFilter(i, r);
    };
    std::vector<std::vector<bool>> filtered_run(items.size());
    std::vector<bool> filtered_overhead(items.size(), false);
    for (std::size_t i = 0; i < items.size(); ++i) {
        filtered_run[i].assign(items[i].runs + 1, false);
        if (opts.unitFilter == nullptr)
            continue;
        if (items[i].effectiveness)
            for (unsigned r = 0; r <= items[i].runs; ++r) {
                if (restored_run[i][r] ||
                    unit_selected(i, static_cast<std::int64_t>(r)))
                    continue;
                filtered_run[i][r] = true;
                markRunFailed(results[i].runDetail[r], r, items[i].runs,
                              "skipped", "", "");
            }
        if (items[i].overhead && !restored_overhead[i] &&
            !unit_selected(i, -1)) {
            filtered_overhead[i] = true;
            results[i].overheadOutcome = "skipped";
        }
    }

    // Phase 1: shared-data maps, one per effectiveness item (each is
    // itself a workload build + scan, so worth parallelizing). A map
    // that fails to build (bad workload name, malformed program)
    // fails every one of the item's runs identically; under
    // keep-going those runs are recorded and journaled as failed.
    std::vector<std::unique_ptr<SharedMap>> shared(items.size());
    std::vector<std::size_t> eff_items;
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (!items[i].effectiveness)
            continue;
        bool all_settled = true;
        for (unsigned r = 0; r <= items[i].runs; ++r)
            all_settled = all_settled &&
                (restored_run[i][r] || filtered_run[i][r]);
        if (!all_settled)
            eff_items.push_back(i);
    }
    std::vector<std::exception_ptr> shared_errs =
        pool.runCollect(eff_items.size(), [&](std::size_t k) {
            std::size_t i = eff_items[k];
            shared[i] = std::make_unique<SharedMap>(
                buildWorkload(items[i].workload, items[i].wp));
        });
    for (std::size_t k = 0; k < eff_items.size(); ++k) {
        if (!shared_errs[k])
            continue;
        if (!opts.keepGoing)
            std::rethrow_exception(shared_errs[k]);
        std::size_t i = eff_items[k];
        std::string type, message;
        std::string outcome =
            classifyException(shared_errs[k], &type, &message);
        for (unsigned r = 0; r <= items[i].runs; ++r) {
            if (restored_run[i][r] || filtered_run[i][r])
                continue;
            markRunFailed(results[i].runDetail[r], r, items[i].runs,
                          outcome, type, message);
            ++failures;
            if (opts.journal != nullptr)
                opts.journal->append(
                    {i, static_cast<std::int64_t>(r)},
                    toJson(results[i].runDetail[r]));
        }
    }

    // Phase 2: flatten every independent run unit and fan out. Each
    // unit writes only its preallocated slot, so merged results are
    // ordered by (item, run index) no matter which worker finishes
    // first.
    struct Unit
    {
        std::size_t item;
        /** Run index, or -1 for the item's overhead measurement. */
        std::int64_t run;
    };
    std::vector<Unit> units;
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (items[i].effectiveness && shared[i] != nullptr)
            for (unsigned r = 0; r <= items[i].runs; ++r)
                if (!restored_run[i][r] && !filtered_run[i][r])
                    units.push_back(
                        {i, static_cast<std::int64_t>(r)});
        if (items[i].overhead && !restored_overhead[i] &&
            !filtered_overhead[i])
            units.push_back({i, -1});
    }
    std::vector<std::exception_ptr> unit_errs =
        pool.runCollect(units.size(), [&](std::size_t u) {
            const Unit &unit = units[u];
            const BatchItem &item = items[unit.item];
            BatchItemResult &res = results[unit.item];

            // The hook runs outside the containment below: a throwing
            // hook aborts the batch the way a crash would, leaving
            // this unit un-journaled (the resume tests rely on it).
            if (opts.unitStartHook)
                opts.unitStartHook(unit.item, unit.run);

            const bool over_budget = opts.keepGoing &&
                opts.maxFailures != 0 &&
                failures.load() >= opts.maxFailures;
            std::string outcome = "ok", type, message;
            // With a journal, divert this worker's warn()/inform()
            // lines into the unit's journal record instead of
            // interleaving on stderr (setQuiet() still silences them
            // before the capture sees anything).
            std::optional<ScopedLogCapture> capture;
            if (opts.journal != nullptr)
                capture.emplace();
            if (over_budget) {
                outcome = "skipped";
            } else {
                // Per-unit wall-clock budget: an item-level
                // wallMsBudget wins; otherwise the batch-wide
                // opts.unitTimeoutMs applies. Not part of the
                // fast-mode cache key either way.
                SimConfig unit_sim = item.sim;
                if (opts.unitTimeoutMs != 0 &&
                    unit_sim.wallMsBudget == 0)
                    unit_sim.wallMsBudget = opts.unitTimeoutMs;
                try {
                    if (unit.run == -1) {
                        res.overhead = item.directory
                            ? measureOverheadDirectory(item.workload,
                                                       item.wp, unit_sim,
                                                       item.hardCfg,
                                                       item.collectStats)
                            : measureOverhead(item.workload, item.wp,
                                              unit_sim, item.hardCfg,
                                              item.collectStats);
                        res.haveOverhead = true;
                    } else {
                        res.runDetail[static_cast<std::size_t>(
                            unit.run)] =
                            runEffectivenessUnit(
                                item.workload, item.wp, unit_sim,
                                item.factory,
                                static_cast<unsigned>(unit.run),
                                item.runs, item.seed0,
                                *shared[unit.item], item.collectStats,
                                item.collectExplain ? &item.hardCfg
                                                    : nullptr,
                                item.mode, item.traceCache,
                                item.collectLatency);
                    }
                } catch (...) {
                    if (!opts.keepGoing)
                        throw;
                    outcome = classifyException(std::current_exception(),
                                                &type, &message);
                    ++failures;
                }
            }

            if (unit.run == -1) {
                res.overheadOutcome = outcome;
                res.overheadErrorType = type;
                res.overheadErrorMessage = message;
            } else if (outcome != "ok") {
                markRunFailed(
                    res.runDetail[static_cast<std::size_t>(unit.run)],
                    static_cast<unsigned>(unit.run), item.runs, outcome,
                    type, message);
            }
            // Journal everything that actually ran; skipped units are
            // left out so a resume executes them. Captured log lines
            // ride along in the journal record only — they never enter
            // batchJson, which stays byte-identical with logging on.
            if (opts.journal != nullptr && outcome != "skipped") {
                Json payload = unit.run == -1
                    ? overheadPayload(res)
                    : toJson(res.runDetail[static_cast<std::size_t>(
                          unit.run)]);
                if (capture && !capture->lines().empty()) {
                    Json log = Json::array();
                    for (const std::string &line : capture->lines())
                        log.push(line);
                    payload.set("log", std::move(log));
                }
                opts.journal->append({unit.item, unit.run},
                                     std::move(payload));
            }
        });
    for (std::exception_ptr &err : unit_errs)
        if (err)
            std::rethrow_exception(err);

    // Phase 3: fold per-run outcomes in run-index order.
    for (std::size_t i = 0; i < items.size(); ++i)
        if (items[i].effectiveness)
            results[i].effectiveness =
                foldEffectiveness(results[i].runDetail);

    return results;
}

std::string
reproCommand(const BatchItemResult &res, std::int64_t run)
{
    if (run == -1)
        return res.reproBase + " --overhead";
    if (run < static_cast<std::int64_t>(res.runs))
        return res.reproBase + " --inject=" +
            std::to_string(res.seed0 + static_cast<std::uint64_t>(run));
    return res.reproBase; // the race-free run
}

Json
toJson(const DetectorScore &score)
{
    Json j = Json::object();
    j.set("bugsDetected", score.bugsDetected);
    j.set("runsAttempted", score.runsAttempted);
    j.set("falseAlarms", static_cast<std::uint64_t>(score.falseAlarms));
    j.set("dynamicReports", score.dynamicReports);
    return j;
}

DetectorScore
detectorScoreFromJson(const Json &j)
{
    DetectorScore s;
    s.bugsDetected = static_cast<unsigned>(j["bugsDetected"].asUint());
    s.runsAttempted = static_cast<unsigned>(j["runsAttempted"].asUint());
    s.falseAlarms = static_cast<std::size_t>(j["falseAlarms"].asUint());
    s.dynamicReports = j["dynamicReports"].asUint();
    return s;
}

Json
toJson(const OverheadResult &overhead)
{
    Json j = Json::object();
    j.set("baseCycles", overhead.baseCycles);
    j.set("hardCycles", overhead.hardCycles);
    j.set("overheadPct", overhead.overheadPct);
    j.set("metaBroadcasts", overhead.metaBroadcasts);
    j.set("dataBytes", overhead.dataBytes);
    j.set("metaBytes", overhead.metaBytes);
    // Optional stats snapshots: omitted (not null) when collection was
    // off, so stats-off dumps match pre-stats output byte for byte.
    if (!overhead.baseStats.isNull())
        j.set("baseStats", overhead.baseStats);
    if (!overhead.hardStats.isNull())
        j.set("hardStats", overhead.hardStats);
    return j;
}

OverheadResult
overheadFromJson(const Json &j)
{
    OverheadResult o;
    o.baseCycles = j["baseCycles"].asUint();
    o.hardCycles = j["hardCycles"].asUint();
    o.overheadPct = j["overheadPct"].asDouble();
    o.metaBroadcasts = j["metaBroadcasts"].asUint();
    o.dataBytes = j["dataBytes"].asUint();
    o.metaBytes = j["metaBytes"].asUint();
    if (j.has("baseStats"))
        o.baseStats = j["baseStats"];
    if (j.has("hardStats"))
        o.hardStats = j["hardStats"];
    return o;
}

Json
toJson(const EffectivenessResult &result)
{
    Json j = Json::object();
    for (const auto &[name, score] : result)
        j.set(name, toJson(score));
    return j;
}

EffectivenessResult
effectivenessFromJson(const Json &j)
{
    EffectivenessResult result;
    for (const auto &[name, score] : j.members())
        result[name] = detectorScoreFromJson(score);
    return result;
}

Json
toJson(const EffectivenessRun &run)
{
    Json j = Json::object();
    j.set("index", run.index);
    j.set("raceFree", run.raceFree);
    j.set("outcome", run.outcome);
    if (!run.errorType.empty())
        j.set("errorType", run.errorType);
    if (!run.errorMessage.empty())
        j.set("errorMessage", run.errorMessage);
    j.set("injectionValid", run.injectionValid);
    Json dets = Json::object();
    for (const auto &[name, o] : run.byDetector) {
        Json d = Json::object();
        if (!run.raceFree)
            d.set("detected", o.detected);
        Json sites = Json::array();
        for (SiteId s : o.sites)
            sites.push(static_cast<std::uint64_t>(s));
        d.set("sites", std::move(sites));
        d.set("dynamicReports", o.dynamicReports);
        dets.set(name, std::move(d));
    }
    j.set("detectors", std::move(dets));
    if (!run.stats.isNull())
        j.set("stats", run.stats);
    if (!run.explain.isNull())
        j.set("explain", run.explain);
    if (!run.latency.isNull())
        j.set("latency", run.latency);
    return j;
}

EffectivenessRun
effectivenessRunFromJson(const Json &j)
{
    EffectivenessRun run;
    run.index = static_cast<unsigned>(j["index"].asUint());
    run.raceFree = j["raceFree"].asBool();
    run.outcome = j["outcome"].asString();
    if (j.has("errorType"))
        run.errorType = j["errorType"].asString();
    if (j.has("errorMessage"))
        run.errorMessage = j["errorMessage"].asString();
    run.injectionValid = j["injectionValid"].asBool();
    for (const auto &[name, d] : j["detectors"].members()) {
        RunOutcome &o = run.byDetector[name];
        if (d.has("detected"))
            o.detected = d["detected"].asBool();
        for (std::size_t i = 0; i < d["sites"].size(); ++i)
            o.sites.insert(
                static_cast<SiteId>(d["sites"].at(i).asUint()));
        o.dynamicReports = d["dynamicReports"].asUint();
    }
    if (j.has("stats"))
        run.stats = j["stats"];
    if (j.has("explain"))
        run.explain = j["explain"];
    if (j.has("latency"))
        run.latency = j["latency"];
    return run;
}

Json
batchJson(const std::vector<BatchItemResult> &results, ExecMode mode)
{
    Json doc = Json::object();
    doc.set("schema", "hard.batch.v2");
    // Cycle mode emits no field at all: cycle dumps stay byte-identical
    // to pre-fast-mode output.
    if (mode == ExecMode::Fast)
        doc.set("mode", "fast");
    Json items = Json::array();
    Json errors = Json::array();

    auto add_error = [&errors](const BatchItemResult &res,
                               std::int64_t run,
                               const std::string &outcome,
                               const std::string &type,
                               const std::string &message) {
        Json e = Json::object();
        e.set("label", res.label);
        e.set("workload", res.workload);
        e.set("unit",
              run == -1 ? Json("overhead")
                        : Json(static_cast<std::uint64_t>(run)));
        e.set("outcome", outcome);
        e.set("errorType", type);
        e.set("errorMessage", message);
        e.set("repro", reproCommand(res, run));
        errors.push(std::move(e));
    };

    for (const BatchItemResult &res : results) {
        Json item = Json::object();
        item.set("label", res.label);
        item.set("workload", res.workload);
        if (!res.runDetail.empty()) {
            item.set("runs", res.runs);
            item.set("seed0", res.seed0);
            Json eff = Json::object();
            eff.set("aggregate", toJson(res.effectiveness));
            Json per_run = Json::array();
            for (const EffectivenessRun &run : res.runDetail) {
                per_run.push(toJson(run));
                if (!run.ok() && run.outcome != "skipped")
                    add_error(res,
                              static_cast<std::int64_t>(run.index),
                              run.outcome, run.errorType,
                              run.errorMessage);
            }
            eff.set("perRun", std::move(per_run));
            item.set("effectiveness", std::move(eff));

            // Per-item attribution aggregate, summed over the runs
            // carrying an explain block. Explain-off dumps never get
            // here, staying byte-identical to pre-provenance output.
            bool any_explain = false;
            std::uint64_t agg_extra = 0, agg_missing = 0;
            std::map<std::string, std::uint64_t> agg_cats;
            for (const EffectivenessRun &run : res.runDetail) {
                if (run.explain.isNull())
                    continue;
                any_explain = true;
                agg_extra += run.explain["extra"].asUint();
                agg_missing += run.explain["missing"].asUint();
                for (const auto &[k, v] :
                     run.explain["categories"].members())
                    agg_cats[k] += v.asUint();
            }
            if (any_explain) {
                Json attr = Json::object();
                attr.set("extra", agg_extra);
                attr.set("missing", agg_missing);
                Json cats = Json::object();
                for (const std::string &name :
                     divergenceCategoryNames()) {
                    auto it = agg_cats.find(name);
                    cats.set(name,
                             it == agg_cats.end() ? 0 : it->second);
                }
                attr.set("categories", std::move(cats));
                item.set("attribution", std::move(attr));
            }
        }
        if (res.haveOverhead || !res.overheadOutcome.empty()) {
            Json oh = Json::object();
            oh.set("outcome", res.overheadOutcome.empty()
                       ? "ok"
                       : res.overheadOutcome);
            if (res.haveOverhead) {
                // Named for the same temporary-lifetime reason as in
                // overheadPayload().
                const Json measured = toJson(res.overhead);
                for (const auto &[k, v] : measured.members())
                    oh.set(k, v);
            }
            if (!res.overheadErrorType.empty())
                oh.set("errorType", res.overheadErrorType);
            if (!res.overheadErrorMessage.empty())
                oh.set("errorMessage", res.overheadErrorMessage);
            item.set("overhead", std::move(oh));
            if (!res.overheadOutcome.empty() &&
                res.overheadOutcome != "ok" &&
                res.overheadOutcome != "skipped")
                add_error(res, -1, res.overheadOutcome,
                          res.overheadErrorType,
                          res.overheadErrorMessage);
        }
        items.push(std::move(item));
    }
    doc.set("items", std::move(items));
    doc.set("errors", std::move(errors));
    return doc;
}

Json
harnessStatsJson(const std::vector<BatchItemResult> &results)
{
    StatGroup harness("harness");
    harness.counter("items").set(results.size());
    Counter &total = harness.counter("unitsTotal");
    Counter &ok = harness.counter("unitsOk");
    Counter &failed = harness.counter("unitsFailed");
    Counter &skipped = harness.counter("unitsSkipped");
    Counter &eff = harness.counter("effectivenessRuns");
    Counter &oh = harness.counter("overheadUnits");

    auto tally = [&](const std::string &outcome) {
        ++total;
        if (outcome == "ok")
            ++ok;
        else if (outcome == "skipped")
            ++skipped;
        else
            ++failed;
    };
    for (const BatchItemResult &res : results) {
        for (const EffectivenessRun &run : res.runDetail) {
            ++eff;
            tally(run.outcome);
        }
        if (!res.overheadOutcome.empty() || res.haveOverhead) {
            ++oh;
            tally(res.overheadOutcome.empty() ? "ok"
                                              : res.overheadOutcome);
        }
    }
    harness.formula("unitFailRate", [&total, &failed] {
        return Formula::ratio(failed.value(), total.value());
    });

    StatRegistry registry;
    registry.add(harness);
    return registry.toJson();
}

} // namespace hard
