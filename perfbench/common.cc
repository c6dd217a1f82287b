#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <functional>
#include <set>

#include "core/hard_detector.hh"
#include "core/hybrid.hh"
#include "detectors/djit_plus.hh"
#include "detectors/fasttrack.hh"
#include "detectors/happens_before.hh"
#include "detectors/ideal_lockset.hh"
#include "detectors/racetrack.hh"
#include "perfbench.hh"

using namespace hard;

namespace perfbench
{

namespace
{

const std::vector<std::string> kQuartet = {"hard.default", "hard.ideal",
                                           "hb.default", "hb.ideal"};

std::vector<WorkloadSpec>
buildTable()
{
    std::vector<AppSpec> paper;
    for (const WorkloadInfo &w : allWorkloads())
        paper.push_back({w.name, 1.0});

    WorkloadSpec cycle;
    cycle.name = "table2-cycle";
    cycle.expectKey = "table2";
    cycle.apps = paper;
    cycle.mode = ExecMode::Cycle;
    cycle.detectors = kQuartet;

    WorkloadSpec warm = cycle;
    warm.name = "table2-fast-warm";
    warm.mode = ExecMode::Fast;

    // server is sync-heavy already at scale 1; rwcache is scaled up so
    // its rwlock/condvar/atomic traffic is not a rounding error next
    // to server's.
    WorkloadSpec sync;
    sync.name = "sync-battery-fast-warm";
    sync.expectKey = "sync-battery";
    sync.apps = {{"server", 2.0}, {"rwcache", 8.0}};
    sync.mode = ExecMode::Fast;
    sync.detectors = allDetectorNames();

    return {cycle, warm, sync};
}

const std::vector<WorkloadSpec> &
table()
{
    static const std::vector<WorkloadSpec> t = buildTable();
    return t;
}

} // namespace

const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const WorkloadSpec &w : table())
        if (w.name == name)
            return &w;
    return nullptr;
}

std::vector<std::string>
workloadNames()
{
    std::vector<std::string> names;
    for (const WorkloadSpec &w : table())
        names.push_back(w.name);
    return names;
}

const std::vector<std::string> &
allDetectorNames()
{
    static const std::vector<std::string> names = {
        "hard.default", "hard.ideal", "hb.default", "hb.ideal",
        "hybrid",       "fasttrack",  "djit",       "racetrack"};
    return names;
}

std::unique_ptr<RaceDetector>
makeDetector(const std::string &name)
{
    if (name == "hard.default")
        return std::make_unique<HardDetector>(name, HardConfig{});
    if (name == "hard.ideal")
        return std::make_unique<IdealLocksetDetector>(name,
                                                      IdealLocksetConfig{});
    if (name == "hb.default")
        return std::make_unique<HappensBeforeDetector>(name, HbConfig{});
    if (name == "hb.ideal")
        return std::make_unique<HappensBeforeDetector>(name,
                                                       HbConfig::ideal());
    if (name == "hybrid")
        return std::make_unique<HybridDetector>(name, HardConfig{});
    if (name == "fasttrack")
        return std::make_unique<FastTrackDetector>(name, 4);
    if (name == "djit")
        return std::make_unique<DjitPlusDetector>(name, 4);
    if (name == "racetrack")
        return std::make_unique<RaceTrackDetector>(name, RaceTrackConfig{});
    return nullptr;
}

DetectorFactory
factoryFor(const WorkloadSpec &w)
{
    if (w.detectors == kQuartet)
        return table2Detectors();
    const std::vector<std::string> names = w.detectors;
    return [names] {
        std::vector<std::unique_ptr<RaceDetector>> dets;
        for (const std::string &n : names)
            dets.push_back(makeDetector(n));
        return dets;
    };
}

std::vector<BatchItem>
sweepItems(const WorkloadSpec &w, std::uint64_t seed0, ExecMode mode,
           TraceCache *cache, const DetectorFactory &f)
{
    std::vector<BatchItem> items;
    for (const AppSpec &app : w.apps) {
        BatchItem item;
        item.workload = app.name;
        item.wp.scale = app.scale;
        item.sim = defaultSimConfig();
        item.factory = f;
        item.runs = w.runs;
        item.seed0 = seed0;
        item.mode = mode;
        item.traceCache = cache;
        items.push_back(std::move(item));
    }
    return items;
}

std::size_t
SpanLog::open(const std::string &name, const std::string &unit)
{
    Span s;
    s.name = name;
    s.unit = unit;
    s.parent = stack_.empty() ? -1
                              : static_cast<std::int64_t>(stack_.back());
    spans_.push_back(std::move(s));
    const std::size_t id = spans_.size() - 1;
    stack_.push_back(id);
    spans_[id].start = secondsSince(t0_);
    return id;
}

void
SpanLog::close(std::size_t id)
{
    Span &s = spans_[id];
    s.end = secondsSince(t0_);
    stack_.pop_back();
    if (s.parent >= 0)
        spans_[static_cast<std::size_t>(s.parent)].childSeconds +=
            s.seconds();
}

void
SpanLog::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        Json j = Json::object();
        j.set("id", static_cast<std::uint64_t>(i));
        j.set("parent", s.parent);
        j.set("name", s.name);
        j.set("unit", s.unit);
        j.set("start_s", s.start);
        j.set("end_s", s.end);
        j.set("self_s", s.selfSeconds());
        std::fprintf(f, "%s\n", j.dump().c_str());
    }
    std::fclose(f);
}

std::vector<std::string>
unitDocuments(const std::vector<BatchItemResult> &results)
{
    std::vector<std::string> docs;
    for (const BatchItemResult &res : results)
        for (const EffectivenessRun &run : res.runDetail)
            docs.push_back(res.label + " " + toJson(run).dump());
    return docs;
}

namespace
{

/** Scores of one sweep in expected.json's layout. */
Json
scoresJson(const std::vector<BatchItemResult> &results)
{
    Json apps = Json::object();
    for (const BatchItemResult &res : results) {
        Json dets = Json::object();
        for (const auto &[name, s] : res.effectiveness)
            dets.set(name, toJson(s));
        apps.set(res.label, std::move(dets));
    }
    return apps;
}

/**
 * Compare each app's per-detector scores with @p apps (expected.json's
 * layout), failing the units each mismatching score comes from.
 */
void
compareScores(
    const WorkloadSpec &w, const std::vector<BatchItemResult> &results,
    const Json &apps, bool seeded,
    const std::function<void(std::size_t, unsigned, const std::string &)>
        &fail)
{
    for (std::size_t i = 0; i < results.size(); ++i) {
        const BatchItemResult &res = results[i];
        const unsigned race_free = res.runs;
        if (!apps.has(res.label)) {
            for (unsigned r = 0; r <= res.runs; ++r)
                fail(i, r, "app missing from expected.json");
            continue;
        }
        const Json &exp = apps[res.label];
        for (const std::string &det : w.detectors) {
            auto it = res.effectiveness.find(det);
            if (it == res.effectiveness.end() || !exp.has(det)) {
                for (unsigned r = 0; r <= res.runs; ++r)
                    fail(i, r, det + ": no score");
                continue;
            }
            const DetectorScore &got = it->second;
            const DetectorScore want = detectorScoreFromJson(exp[det]);
            if (got.falseAlarms != want.falseAlarms ||
                got.dynamicReports != want.dynamicReports)
                fail(i, race_free,
                     det + ": race-free run scored " +
                         std::to_string(got.falseAlarms) + " false alarms / " +
                         std::to_string(got.dynamicReports) +
                         " reports, expected " +
                         std::to_string(want.falseAlarms) + " / " +
                         std::to_string(want.dynamicReports));
            if (seeded && (got.bugsDetected != want.bugsDetected ||
                           got.runsAttempted != want.runsAttempted))
                for (unsigned r = 0; r < res.runs; ++r)
                    fail(i, r,
                         det + ": detected " +
                             std::to_string(got.bugsDetected) + "/" +
                             std::to_string(got.runsAttempted) +
                             ", expected " +
                             std::to_string(want.bugsDetected) + "/" +
                             std::to_string(want.runsAttempted));
        }
    }
}

} // namespace

Json
expectedBlock(std::uint64_t seed0, const std::vector<BatchItemResult> &results)
{
    Json j = Json::object();
    j.set("seed", seed0);
    j.set("docDigest", digest(batchJson(results).dump()));
    j.set("apps", scoresJson(results));
    return j;
}

CheckResult
checkSweep(const WorkloadSpec &w, std::uint64_t seed0,
           const std::vector<BatchItemResult> &results,
           const std::vector<std::string> &reference,
           const Json &expected)
{
    CheckResult out;
    // (item, run) of every failed unit; a unit fails at most once.
    std::set<std::pair<std::size_t, unsigned>> failed;
    auto fail = [&](std::size_t i, unsigned r, const std::string &why) {
        if (failed.insert({i, r}).second)
            out.problems.push_back(results[i].label + " run " +
                                   std::to_string(r) + ": " + why);
    };

    const std::vector<std::string> docs = unitDocuments(results);
    std::size_t u = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        for (const EffectivenessRun &run : results[i].runDetail) {
            ++out.attempted;
            if (!run.ok())
                fail(i, run.index, "outcome " + run.outcome + " " +
                                       run.errorType + " " +
                                       run.errorMessage);
            if (!reference.empty() &&
                (u >= reference.size() || docs[u] != reference[u]))
                fail(i, run.index, "result differs from the reference "
                                   "sweep");
            ++u;
        }
    }

    const bool have = expected.isObject() && expected.has("workloads") &&
        expected["workloads"].has(w.expectKey);
    if (!have) {
        for (std::size_t i = 0; i < results.size(); ++i)
            for (unsigned r = 0; r <= results[i].runs; ++r)
                fail(i, r, "no expected scores for '" + w.expectKey + "'");
    } else {
        const Json &block = expected["workloads"][w.expectKey];
        const bool seeded = block["seed"].asUint() == seed0;
        compareScores(w, results, block["apps"], seeded, fail);
        if (seeded && failed.empty() &&
            digest(batchJson(results).dump()) !=
                block["docDigest"].asString()) {
            out.problems.push_back("result document differs from the "
                                   "expected one");
            for (std::size_t i = 0; i < results.size(); ++i)
                for (unsigned r = 0; r <= results[i].runs; ++r)
                    failed.insert({i, r});
        }
    }
    for (std::size_t i = 0; i < results.size(); ++i)
        for (unsigned r = 0; r <= results[i].runs; ++r)
            out.failedUnit.push_back(failed.count({i, r}) != 0);
    out.failed = static_cast<unsigned>(failed.size());
    return out;
}

void
merge(CheckResult &into, const CheckResult &c)
{
    into.attempted += c.attempted;
    into.failed += c.failed;
    into.problems.insert(into.problems.end(), c.problems.begin(),
                         c.problems.end());
}

void
markMismatches(CheckResult &check, const std::vector<std::string> &docs,
               const std::vector<std::string> &reference)
{
    for (std::size_t u = 0; u < docs.size(); ++u) {
        if (check.failedUnit[u] ||
            (u < reference.size() && docs[u] == reference[u]))
            continue;
        check.failedUnit[u] = true;
        ++check.failed;
        check.problems.push_back("unit " + std::to_string(u) +
                                 ": result differs from the cycle-mode "
                                 "result of the same unit");
    }
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
hdMedian(std::vector<double> v)
{
    const std::size_t n = v.size();
    if (n < 2)
        return n == 1 ? v[0] : 0.0;
    std::sort(v.begin(), v.end());
    // Weight of order statistic i is the Beta((n+1)/2, (n+1)/2) mass on
    // ((i-1)/n, i/n], integrated with Simpson's rule in log space.
    const double a = (n + 1) / 2.0;
    const double lbeta = 2.0 * std::lgamma(a) - std::lgamma(2.0 * a);
    auto pdf = [&](double x) {
        if (x <= 0.0 || x >= 1.0)
            return 0.0;
        return std::exp((a - 1.0) * (std::log(x) + std::log1p(-x)) - lbeta);
    };
    constexpr int kSteps = 64; // even
    double est = 0.0, total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double lo = double(i) / n, h = 1.0 / (double(n) * kSteps);
        double sum = pdf(lo) + pdf(lo + kSteps * h);
        for (int k = 1; k < kSteps; ++k)
            sum += (k % 2 == 1 ? 4.0 : 2.0) * pdf(lo + k * h);
        const double wgt = sum * h / 3.0;
        est += wgt * v[i];
        total += wgt;
    }
    return est / total;
}

std::string
digest(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
    return buf;
}

} // namespace perfbench
