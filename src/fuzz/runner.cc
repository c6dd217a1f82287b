#include "fuzz/runner.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "common/error.hh"
#include "fuzz/explain_case.hh"
#include "harness/experiment.hh"
#include "harness/run_pool.hh"
#include "sim/system.hh"
#include "telemetry/profile.hh"
#include "trace/record.hh"
#include "trace/recorder.hh"
#include "trace/replayer.hh"

namespace hard
{

Weaken
parseWeaken(const std::string &name)
{
    if (name.empty() || name == "none")
        return Weaken::None;
    if (name == "hard")
        return Weaken::Hard;
    if (name == "hb")
        return Weaken::Hb;
    if (name == "ideal")
        return Weaken::Ideal;
    if (name == "djit")
        return Weaken::Djit;
    if (name == "racetrack")
        return Weaken::Racetrack;
    throw ConfigError(
        errfmt("unknown --weaken '%s' (hard|hb|ideal|djit|racetrack|"
               "none)",
               name.c_str()));
}

const char *
weakenName(Weaken w)
{
    switch (w) {
      case Weaken::None:
        return "none";
      case Weaken::Hard:
        return "hard";
      case Weaken::Hb:
        return "hb";
      case Weaken::Ideal:
        return "ideal";
      case Weaken::Djit:
        return "djit";
      case Weaken::Racetrack:
        return "racetrack";
    }
    return "?";
}

std::vector<RaceDetector *>
FuzzBattery::detectors() const
{
    return {hard.get(),   ideal.get(), idealFine.get(),
            hybrid.get(),  hb.get(),    fasttrack.get(),
            djit.get(),    racetrack.get()};
}

std::vector<AccessObserver *>
FuzzBattery::observers() const
{
    std::vector<AccessObserver *> obs;
    for (RaceDetector *d : detectors())
        obs.push_back(weakenedTap && &weakenedTap->inner() == d
                          ? static_cast<AccessObserver *>(weakenedTap.get())
                          : d);
    if (idealSampledTap)
        obs.push_back(idealSampledTap.get());
    if (hbSampledTap)
        obs.push_back(hbSampledTap.get());
    return obs;
}

std::vector<RaceDetector *>
FuzzBattery::sampledDetectors() const
{
    std::vector<RaceDetector *> dets;
    if (idealSampled)
        dets.push_back(idealSampled.get());
    if (hbSampled)
        dets.push_back(hbSampled.get());
    return dets;
}

FuzzBattery
makeFuzzBattery(const FuzzConfig &cfg)
{
    hard_throw_if(cfg.granularity < 4 || cfg.granularity > 32 ||
                      (32 % cfg.granularity) != 0,
                  ConfigError, "fuzz: bad granularity %u (want 4..32 "
                  "dividing the 32B line)",
                  cfg.granularity);

    HardConfig hc;
    hc.granularityBytes = cfg.granularity;
    hc.bloomBits = cfg.bloomBits;
    // Unbounded metadata: the containment relations only hold when no
    // detector silently forgets evidence to capacity pressure.
    hc.unbounded = true;

    IdealLocksetConfig ic;
    ic.granularityBytes = cfg.granularity;
    IdealLocksetConfig icFine;
    icFine.granularityBytes = 4;

    FuzzBattery b;
    b.hard = std::make_unique<HardDetector>("hard", hc);
    b.ideal = std::make_unique<IdealLocksetDetector>("ideal-lockset", ic);
    b.idealFine = std::make_unique<IdealLocksetDetector>(
        "ideal-lockset-fine", icFine);
    b.hybrid = std::make_unique<HybridDetector>("hybrid", hc);
    b.hb = std::make_unique<HappensBeforeDetector>("happens-before-ideal",
                                                   HbConfig::ideal());
    b.fasttrack = std::make_unique<FastTrackDetector>("fasttrack", 4);
    b.djit = std::make_unique<DjitPlusDetector>("djit-plus", 4);
    RaceTrackConfig rtc;
    rtc.granularityBytes = 4;
    b.racetrack = std::make_unique<RaceTrackDetector>("racetrack", rtc);

    RaceDetector *weakened = nullptr;
    switch (cfg.weaken) {
      case Weaken::None:
        break;
      case Weaken::Hard:
        weakened = b.hard.get();
        break;
      case Weaken::Hb:
        weakened = b.hb.get();
        break;
      case Weaken::Ideal:
        weakened = b.ideal.get();
        break;
      case Weaken::Djit:
        weakened = b.djit.get();
        break;
      case Weaken::Racetrack:
        weakened = b.racetrack.get();
        break;
    }
    if (weakened != nullptr)
        b.weakenedTap = std::make_unique<KindFilter>(
            *weakened, weakenedKinds(cfg.weaken));

    // Sampled cross-check legs: honest (never weakened) clones of the
    // ideal lockset and HB detectors behind granule-mode sampling
    // taps. The default 32-byte sampling granule contains both
    // detector granularities, so each detector granule is fully
    // observed or fully invisible.
    hard_throw_if(!(cfg.sampleRate > 0.0) || cfg.sampleRate > 1.0,
                  ConfigError,
                  "fuzz: sample rate %g outside (0, 1]",
                  cfg.sampleRate);
    if (cfg.sampleRate < 1.0) {
        b.idealSampled = std::make_unique<IdealLocksetDetector>(
            "ideal-lockset-sampled", ic);
        b.hbSampled = std::make_unique<HappensBeforeDetector>(
            "happens-before-sampled", HbConfig::ideal());
        SamplingSpec spec;
        spec.mode = SamplingSpec::Mode::granule;
        spec.rate = cfg.sampleRate;
        spec.seed = cfg.sampleSeed;
        b.idealSampledTap =
            std::make_unique<SamplingObserver>(*b.idealSampled, spec);
        b.hbSampledTap =
            std::make_unique<SamplingObserver>(*b.hbSampled, spec);
    }
    return b;
}

namespace
{

/** Fill the sink-derived half of a FuzzReportSet from @p b. */
FuzzReportSet
collectKeys(const FuzzBattery &b, const Trace &trace,
            const FuzzConfig &cfg)
{
    FuzzReportSet r;
    r.granularity = cfg.granularity;
    r.sampleRate = cfg.sampleRate;
    if (b.idealSampled)
        r.idealSampled = reportKeys(b.idealSampled->sink());
    if (b.hbSampled)
        r.hbSampled = reportKeys(b.hbSampled->sink());
    r.hard = reportKeys(b.hard->sink());
    r.ideal = reportKeys(b.ideal->sink());
    r.idealFine = reportKeys(b.idealFine->sink());
    r.hybrid = reportKeys(b.hybrid->sink());
    r.hb = reportKeys(b.hb->sink());
    r.fasttrack = reportKeys(b.fasttrack->sink());
    r.djit = reportKeys(b.djit->sink());
    r.racetrack = reportKeys(b.racetrack->sink());
    {
        ScopedPhase phase("fuzz.analyze.oracle.lockset");
        r.oracleLs = oracleLockset(trace, cfg.granularity);
    }
    {
        ScopedPhase phase("fuzz.analyze.oracle.lockset-fine");
        r.oracleLsFine = oracleLockset(trace, 4);
    }
    {
        ScopedPhase phase("fuzz.analyze.oracle.happens-before");
        r.oracleHb = oracleHappensBefore(trace, 4);
    }
    {
        ScopedPhase phase("fuzz.analyze.oracle.happens-before-full");
        HbOracleOpts full;
        full.fullWriteVector = true;
        r.oracleHbFull = oracleHappensBefore(trace, 4, full);
    }
    return r;
}

void
fillDetectorKeyCounts(SeedResult &sr, const FuzzReportSet &r)
{
    sr.detectorKeys["hard"] = r.hard.size();
    sr.detectorKeys["ideal-lockset"] = r.ideal.size();
    sr.detectorKeys["ideal-lockset-fine"] = r.idealFine.size();
    sr.detectorKeys["hybrid"] = r.hybrid.size();
    sr.detectorKeys["happens-before-ideal"] = r.hb.size();
    sr.detectorKeys["fasttrack"] = r.fasttrack.size();
    sr.detectorKeys["djit-plus"] = r.djit.size();
    sr.detectorKeys["racetrack"] = r.racetrack.size();
    sr.detectorKeys["oracle-lockset"] = r.oracleLs.size();
    sr.detectorKeys["oracle-lockset-fine"] = r.oracleLsFine.size();
    sr.detectorKeys["oracle-happens-before"] = r.oracleHb.size();
    sr.detectorKeys["oracle-happens-before-full"] = r.oracleHbFull.size();
    // Only when the sampled legs ran: default sweeps stay
    // byte-identical to pre-sampling output.
    if (r.sampleRate < 1.0) {
        sr.detectorKeys["ideal-lockset-sampled"] = r.idealSampled.size();
        sr.detectorKeys["happens-before-sampled"] = r.hbSampled.size();
    }
}

std::string
hexAddr(Addr a)
{
    return errfmt("0x%llx", static_cast<unsigned long long>(a));
}

Json
violationJson(const Violation &v, const Trace &trace)
{
    Json jv = Json::object();
    jv.set("invariant", v.invariant);
    jv.set("detail", v.detail);
    jv.set("witnesses_total",
           static_cast<std::uint64_t>(v.totalWitnesses));
    Json jw = Json::array();
    for (const ReportKey &k : v.witnesses) {
        Json one = Json::object();
        one.set("addr", hexAddr(k.first));
        one.set("site", static_cast<std::uint64_t>(k.second));
        if (k.second < trace.siteNames.size())
            one.set("site_name", trace.siteNames[k.second]);
        jw.push(std::move(one));
    }
    jv.set("witnesses", std::move(jw));
    return jv;
}

/** Names of the violated invariants in @p vs (deduplicated, sorted). */
std::vector<std::string>
violatedNames(const std::vector<Violation> &vs)
{
    std::vector<std::string> names;
    for (const Violation &v : vs)
        names.push_back(v.invariant);
    std::sort(names.begin(), names.end());
    names.erase(std::unique(names.begin(), names.end()), names.end());
    return names;
}

} // namespace

SimConfig
fuzzSimConfig(const Program &prog)
{
    SimConfig sim = defaultSimConfig();
    // Keep one thread per core: fuzz programs are interleaving
    // artifacts already, oversubscription adds nothing but time.
    sim.memsys.numCores = std::max<unsigned>(
        sim.memsys.numCores,
        static_cast<unsigned>(prog.threads.size()));
    if (sim.maxCycles == 0)
        sim.maxCycles = defaultCycleBudget(prog);
    return sim;
}

TraceKey
fuzzTraceKey(std::uint64_t seed, const FuzzGenConfig &gen,
             const SimConfig &sim)
{
    TraceKey key;
    key.add("traceVersion",
            static_cast<std::uint64_t>(traceFormatVersion()))
        .add("kind", "fuzz")
        .add("seed", seed)
        .add("minThreads", static_cast<std::uint64_t>(gen.minThreads))
        .add("maxThreads", static_cast<std::uint64_t>(gen.maxThreads))
        .add("maxPhases", static_cast<std::uint64_t>(gen.maxPhases))
        .add("maxOps", static_cast<std::uint64_t>(gen.maxOps))
        .add("numLocks", static_cast<std::uint64_t>(gen.numLocks))
        .add("numRegions", static_cast<std::uint64_t>(gen.numRegions))
        .add("regionBytes", static_cast<std::uint64_t>(gen.regionBytes))
        .add("privateBytes",
             static_cast<std::uint64_t>(gen.privateBytes))
        .add("maxNest", static_cast<std::uint64_t>(gen.maxNest))
        .add("pLocked", gen.pLocked)
        .add("pWrongRegion", gen.pWrongRegion)
        .add("pWrite", gen.pWrite)
        .add("pUnlockedShared", gen.pUnlockedShared)
        .add("pBarrier", gen.pBarrier)
        .add("pSema", gen.pSema);
    // Extended-grammar knobs enter the key only when enabled, so every
    // pre-extension recording (and fixture) keeps its key.
    if (gen.numRwLocks > 0 || gen.pRwLocked > 0 || gen.pCond > 0 ||
        gen.numAtomics > 0 || gen.pAtomic > 0) {
        key.add("numRwLocks", static_cast<std::uint64_t>(gen.numRwLocks))
            .add("pRwLocked", gen.pRwLocked)
            .add("pRwWriter", gen.pRwWriter)
            .add("pCond", gen.pCond)
            .add("numAtomics",
                 static_cast<std::uint64_t>(gen.numAtomics))
            .add("pAtomic", gen.pAtomic);
    }
    addSimConfigFields(key, sim);
    return key;
}

FuzzReportSet
analyzeTrace(const Trace &trace, const FuzzConfig &cfg)
{
    FuzzBattery b = makeFuzzBattery(cfg);
    // With the profiler on, each battery member's dispatch time lands
    // in its own phase, timed per block by the replay itself.
    const std::vector<AccessObserver *> obs = b.observers();
    ReplayOptions replay;
    if (Profiler::active() != nullptr)
        for (RaceDetector *d : b.detectors())
            replay.phases.push_back("fuzz.analyze.detector." + d->name());
    {
        ScopedPhase phase("fuzz.analyze.replay");
        replayTrace(trace, obs, replay);
    }
    for (RaceDetector *d : b.detectors())
        d->finalize();
    for (RaceDetector *d : b.sampledDetectors())
        d->finalize();
    return collectKeys(b, trace, cfg);
}

SeedResult
runFuzzSeed(std::uint64_t seed, const FuzzOptions &opts)
{
    SeedResult sr;
    sr.seed = seed;
    try {
        Program prog;
        {
            ScopedPhase phase("fuzz.seed.generate");
            prog = generateFuzzProgram(seed, opts.gen);
        }
        const SimConfig sim = fuzzSimConfig(prog);

        Trace trace;
        FuzzReportSet r;
        if (opts.mode == ExecMode::Fast) {
            // Record once (or reuse the cached recording — the key
            // ignores the analysis config, so weaken/granularity
            // sweeps share traces) and derive every key set from the
            // trace alone.
            const TraceKey key = fuzzTraceKey(seed, opts.gen, sim);
            std::optional<Trace> cached;
            if (opts.traceCache != nullptr)
                cached = opts.traceCache->lookup(key);
            if (cached) {
                trace = std::move(*cached);
            } else {
                {
                    ScopedPhase phase("fuzz.seed.record");
                    trace = recordRun(prog, sim);
                }
                if (opts.traceCache != nullptr)
                    opts.traceCache->store(key, trace);
            }
            r = analyzeTrace(trace, opts.cfg);
        } else {
            FuzzBattery battery = makeFuzzBattery(opts.cfg);
            TraceRecorder recorder(prog);

            {
                ScopedPhase phase("fuzz.seed.simulate");
                System sys(sim, prog);
                for (AccessObserver *obs : battery.observers())
                    sys.addObserver(obs);
                sys.addObserver(&recorder);
                sys.run();
            }
            for (RaceDetector *d : battery.detectors())
                d->finalize();
            for (RaceDetector *d : battery.sampledDetectors())
                d->finalize();

            trace = recorder.take();

            // Live detector results vs trace-replayed oracles: a
            // recorder defect shows up here as an oracle mismatch.
            r = collectKeys(battery, trace, opts.cfg);
        }
        sr.events = trace.events.size();
        fillDetectorKeyCounts(sr, r);
        sr.violations = checkInvariants(r);
        if (sr.violations.empty())
            return sr;

        sr.outcome = "violation";

        Trace minTrace;
        if (opts.minimize) {
            ScopedPhase phase("fuzz.seed.minimize");
            // Reproduce-and-shrink entirely post-mortem: a candidate
            // still "fails" if replay analysis re-violates the primary
            // invariant.
            const std::string primary = sr.violations.front().invariant;
            auto predicate = [&](const Trace &cand) {
                std::vector<Violation> vs =
                    checkInvariants(analyzeTrace(cand, opts.cfg));
                for (const Violation &v : vs)
                    if (v.invariant == primary)
                        return true;
                return false;
            };
            minTrace = minimizeTrace(trace, predicate, opts.maxProbes,
                                     &sr.minStats);
            sr.minimized = true;
        }

        if (!opts.outDir.empty()) {
            ScopedPhase phase("fuzz.seed.case");
            std::filesystem::create_directories(opts.outDir);
            const std::string stem =
                opts.outDir + "/seed-" + std::to_string(seed);
            sr.tracePath = stem + ".trc";
            writeTrace(sr.tracePath, trace);
            if (sr.minimized) {
                sr.minTracePath = stem + ".min.trc";
                writeTrace(sr.minTracePath, minTrace);
            }

            // Corpus-style case file: everything needed to re-judge
            // the repro with `hardfuzz --corpus`.
            const Trace &caseTrace = sr.minimized ? minTrace : trace;
            std::vector<Violation> caseVs = checkInvariants(
                analyzeTrace(caseTrace, opts.cfg));
            Json doc = Json::object();
            doc.set("schema", "hard.fuzz.case.v1");
            doc.set("trace", std::string("seed-") + std::to_string(seed) +
                                 (sr.minimized ? ".min.trc" : ".trc"));
            Json jc = Json::object();
            jc.set("granularity", opts.cfg.granularity);
            jc.set("bloom_bits", opts.cfg.bloomBits);
            jc.set("weaken", weakenName(opts.cfg.weaken));
            doc.set("config", std::move(jc));
            Json jx = Json::array();
            for (const std::string &n : violatedNames(caseVs))
                jx.push(n);
            doc.set("expect_violations", std::move(jx));
            Json jd = Json::array();
            for (const Violation &v : caseVs)
                jd.push(violationJson(v, caseTrace));
            doc.set("violations", std::move(jd));
            // Provenance: which HARD/HB mechanism produced the
            // divergence this case captures.
            doc.set("explain", explainFuzzCase(caseTrace, opts.cfg));
            sr.casePath = stem + ".case.json";
            writeJsonFile(sr.casePath, doc);
        }
    } catch (const std::exception &) {
        sr.outcome = "failed";
        classifyException(std::current_exception(), &sr.errorType,
                          &sr.errorMessage);
    }
    return sr;
}

std::vector<SeedResult>
runFuzzSeeds(const FuzzOptions &opts)
{
    RunPool pool(opts.jobs);
    return pool.map<SeedResult>(opts.seeds.size(), [&](std::size_t i) {
        return runFuzzSeed(opts.seeds[i], opts);
    });
}

Json
fuzzJson(const FuzzOptions &opts, const std::vector<SeedResult> &results)
{
    Json doc = Json::object();
    doc.set("schema", "hard.fuzz.v1");

    Json jc = Json::object();
    // Cycle mode emits no field: cycle dumps stay byte-identical to
    // pre-fast-mode output.
    if (opts.mode == ExecMode::Fast)
        jc.set("mode", "fast");
    jc.set("granularity", opts.cfg.granularity);
    jc.set("bloom_bits", opts.cfg.bloomBits);
    jc.set("weaken", weakenName(opts.cfg.weaken));
    // Sampled legs enter the document only when they ran: default
    // sweeps stay byte-identical to pre-sampling output.
    if (opts.cfg.sampleRate < 1.0) {
        jc.set("sample_rate", opts.cfg.sampleRate);
        jc.set("sample_seed", opts.cfg.sampleSeed);
    }
    jc.set("minimize", opts.minimize);
    Json jg = Json::object();
    jg.set("min_threads", opts.gen.minThreads);
    jg.set("max_threads", opts.gen.maxThreads);
    jg.set("max_phases", opts.gen.maxPhases);
    jg.set("max_ops", opts.gen.maxOps);
    jg.set("num_locks", opts.gen.numLocks);
    jg.set("num_regions", opts.gen.numRegions);
    jg.set("max_nest", opts.gen.maxNest);
    // Emitted only when the extended grammar is on, keeping default
    // sweep documents byte-identical to pre-extension output.
    if (opts.gen.numRwLocks > 0)
        jg.set("num_rwlocks", opts.gen.numRwLocks);
    if (opts.gen.pCond > 0)
        jg.set("condvars", true);
    if (opts.gen.numAtomics > 0)
        jg.set("num_atomics", opts.gen.numAtomics);
    jc.set("generator", std::move(jg));
    doc.set("config", std::move(jc));

    Json jinv = Json::array();
    for (const std::string &n : invariantNames())
        jinv.push(n);
    if (opts.cfg.sampleRate < 1.0)
        for (const std::string &n : sampledInvariantNames())
            jinv.push(n);
    doc.set("invariants", std::move(jinv));

    std::uint64_t ok = 0, bad = 0, failed = 0, quarantined = 0;
    Json js = Json::array();
    for (const SeedResult &sr : results) {
        if (sr.outcome == "failed")
            ++failed;
        else if (sr.outcome == "quarantined")
            ++quarantined;
        else if (sr.outcome == "violation")
            ++bad;
        else
            ++ok;
        js.push(seedResultJson(sr));
    }
    doc.set("seeds", std::move(js));

    Json sum = Json::object();
    sum.set("seeds", static_cast<std::uint64_t>(results.size()));
    sum.set("ok", ok);
    sum.set("violations", bad);
    sum.set("failed", failed);
    // Only campaign merges can contain quarantined seeds; ordinary
    // sweeps keep their summary byte-identical to pre-campaign output.
    if (quarantined != 0)
        sum.set("quarantined", quarantined);
    doc.set("summary", std::move(sum));
    return doc;
}

Json
seedResultJson(const SeedResult &sr)
{
    Json one = Json::object();
    one.set("seed", sr.seed);
    one.set("outcome", sr.outcome);
    if (sr.outcome == "failed" || sr.outcome == "quarantined") {
        one.set("error_type", sr.errorType);
        one.set("error", sr.errorMessage);
        return one;
    }
    one.set("events", static_cast<std::uint64_t>(sr.events));
    Json jk = Json::object();
    for (const auto &[name, count] : sr.detectorKeys)
        jk.set(name, static_cast<std::uint64_t>(count));
    one.set("report_keys", std::move(jk));
    if (sr.outcome == "violation") {
        Json jv = Json::array();
        for (const Violation &v : sr.violations) {
            Json x = Json::object();
            x.set("invariant", v.invariant);
            x.set("detail", v.detail);
            x.set("witnesses_total",
                  static_cast<std::uint64_t>(v.totalWitnesses));
            jv.push(std::move(x));
        }
        one.set("violations", std::move(jv));
        if (sr.minimized) {
            Json jm = Json::object();
            jm.set("events",
                   static_cast<std::uint64_t>(sr.minStats.finalEvents));
            jm.set("probes",
                   static_cast<std::uint64_t>(sr.minStats.probes));
            jm.set("capped", sr.minStats.capped);
            one.set("minimized", std::move(jm));
        }
        if (!sr.casePath.empty()) {
            Json ja = Json::object();
            ja.set("trace", sr.tracePath);
            if (!sr.minTracePath.empty())
                ja.set("min_trace", sr.minTracePath);
            ja.set("case", sr.casePath);
            one.set("artifacts", std::move(ja));
        }
    }
    return one;
}

SeedResult
seedResultFromJson(const Json &j)
{
    hard_throw_if(!j.isObject() || !j.has("seed") || !j.has("outcome"),
                  ConfigError,
                  "fuzz payload: not a seed-result object");
    SeedResult sr;
    sr.seed = j["seed"].asUint();
    sr.outcome = j["outcome"].asString();
    if (sr.outcome == "failed" || sr.outcome == "quarantined") {
        sr.errorType = j["error_type"].asString();
        sr.errorMessage = j["error"].asString();
        return sr;
    }
    sr.events = static_cast<std::size_t>(j["events"].asUint());
    for (const auto &[name, count] : j["report_keys"].members())
        sr.detectorKeys[name] = static_cast<std::size_t>(count.asUint());
    if (sr.outcome == "violation") {
        const Json &jv = j["violations"];
        for (std::size_t i = 0; i < jv.size(); ++i) {
            const Json &x = jv.at(i);
            Violation v;
            v.invariant = x["invariant"].asString();
            v.detail = x["detail"].asString();
            v.totalWitnesses =
                static_cast<std::size_t>(x["witnesses_total"].asUint());
            sr.violations.push_back(std::move(v));
        }
        if (j.has("minimized")) {
            const Json &jm = j["minimized"];
            sr.minimized = true;
            sr.minStats.finalEvents =
                static_cast<std::size_t>(jm["events"].asUint());
            sr.minStats.probes =
                static_cast<std::size_t>(jm["probes"].asUint());
            sr.minStats.capped = jm["capped"].asBool();
        }
        if (j.has("artifacts")) {
            const Json &ja = j["artifacts"];
            sr.tracePath = ja["trace"].asString();
            if (ja.has("min_trace"))
                sr.minTracePath = ja["min_trace"].asString();
            sr.casePath = ja["case"].asString();
        }
    }
    return sr;
}

std::string
fuzzSignature(const FuzzOptions &opts)
{
    // Seed sets can span up to a million entries, so the signature
    // carries count + bounds + an order-sensitive FNV-1a fold rather
    // than the full list.
    std::uint64_t h = 14695981039346656037ull;
    for (std::uint64_t s : opts.seeds) {
        h ^= s;
        h *= 1099511628211ull;
    }
    std::string sig = "fuzz;seeds=" + std::to_string(opts.seeds.size());
    if (!opts.seeds.empty())
        sig += ":" + std::to_string(opts.seeds.front()) + ".." +
               std::to_string(opts.seeds.back());
    char hex[32];
    std::snprintf(hex, sizeof hex, ":%016llx",
                  static_cast<unsigned long long>(h));
    sig += hex;
    sig += ";gen=" + std::to_string(opts.gen.minThreads) + "," +
           std::to_string(opts.gen.maxThreads) + "," +
           std::to_string(opts.gen.maxPhases) + "," +
           std::to_string(opts.gen.maxOps) + "," +
           std::to_string(opts.gen.numLocks) + "," +
           std::to_string(opts.gen.numRegions) + "," +
           std::to_string(opts.gen.maxNest);
    // Extended grammar enters the signature only when enabled, so
    // pre-extension campaign journals keep matching.
    if (opts.gen.numRwLocks > 0 || opts.gen.pRwLocked > 0 ||
        opts.gen.pCond > 0 || opts.gen.numAtomics > 0 ||
        opts.gen.pAtomic > 0) {
        sig += ";prims=rw:" + std::to_string(opts.gen.numRwLocks) + "," +
               std::to_string(opts.gen.pRwLocked) + "," +
               std::to_string(opts.gen.pRwWriter) +
               ";cond:" + std::to_string(opts.gen.pCond) +
               ";atomic:" + std::to_string(opts.gen.numAtomics) + "," +
               std::to_string(opts.gen.pAtomic);
    }
    sig += ";granularity=" + std::to_string(opts.cfg.granularity);
    sig += ";bloom=" + std::to_string(opts.cfg.bloomBits);
    sig += ";weaken=" + std::string(weakenName(opts.cfg.weaken));
    // Conditional, so pre-sampling campaign journals keep matching.
    if (opts.cfg.sampleRate < 1.0) {
        char rate[48];
        std::snprintf(rate, sizeof rate, ";sample-rate=%g:%llu",
                      opts.cfg.sampleRate,
                      static_cast<unsigned long long>(
                          opts.cfg.sampleSeed));
        sig += rate;
    }
    sig += ";minimize=" + std::to_string(opts.minimize ? 1 : 0);
    sig += ";max-probes=" + std::to_string(opts.maxProbes);
    if (!opts.outDir.empty())
        sig += ";out=" + opts.outDir;
    if (opts.mode == ExecMode::Fast)
        sig += ";mode=fast";
    return sig;
}

std::vector<std::uint64_t>
parseSeedSpec(const std::string &spec)
{
    hard_throw_if(spec.empty(), ConfigError, "--seeds: empty spec");
    const auto dots = spec.find("..");
    std::uint64_t lo = 0, hi = 0;
    try {
        if (dots == std::string::npos) {
            const std::uint64_t n = std::stoull(spec);
            hard_throw_if(n == 0, ConfigError,
                          "--seeds: count must be positive");
            lo = 0;
            hi = n - 1;
        } else {
            lo = std::stoull(spec.substr(0, dots));
            hi = std::stoull(spec.substr(dots + 2));
        }
    } catch (const ConfigError &) {
        throw;
    } catch (const std::exception &) {
        throw ConfigError(
            errfmt("--seeds: bad spec '%s' (want N or A..B)",
                   spec.c_str()));
    }
    hard_throw_if(hi < lo, ConfigError,
                  "--seeds: empty range '%s'", spec.c_str());
    hard_throw_if(hi - lo >= 1'000'000, ConfigError,
                  "--seeds: range '%s' too large", spec.c_str());
    std::vector<std::uint64_t> out;
    out.reserve(hi - lo + 1);
    for (std::uint64_t s = lo; s <= hi; ++s)
        out.push_back(s);
    return out;
}

} // namespace hard
