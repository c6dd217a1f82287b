#include "telemetry/profile.hh"

#include <ctime>

#include <sys/resource.h>

namespace hard
{

namespace
{

/** The process-global instance. Heap-allocated once and never freed:
 * forked campaign shards and std::_Exit must not race a destructor. */
Profiler *g_profiler = nullptr;

double
timespecSeconds(const struct timespec &ts)
{
    return static_cast<double>(ts.tv_sec) +
        static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
rusageCpuSeconds(int who)
{
    struct rusage ru;
    if (::getrusage(who, &ru) != 0)
        return 0.0;
    auto tv = [](const struct timeval &t) {
        return static_cast<double>(t.tv_sec) +
            static_cast<double>(t.tv_usec) * 1e-6;
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/** Dump-time tree node: the flat dotted-path map folded into nesting. */
struct TreeNode
{
    const Profiler::PhaseStats *stats = nullptr;
    std::map<std::string, TreeNode> children;
};

Json
treeJson(const TreeNode &node)
{
    Json j = Json::object();
    if (node.stats != nullptr) {
        j.set("calls", node.stats->calls);
        j.set("wallSeconds", node.stats->wallSeconds);
        j.set("cpuSeconds", node.stats->cpuSeconds);
    }
    if (!node.children.empty()) {
        Json kids = Json::object();
        for (const auto &[name, child] : node.children)
            kids.set(name, treeJson(child));
        j.set("phases", std::move(kids));
    }
    return j;
}

} // namespace

void
Profiler::enable()
{
    if (g_profiler == nullptr)
        g_profiler = new Profiler();
}

void
Profiler::disable()
{
    delete g_profiler;
    g_profiler = nullptr;
}

Profiler *
Profiler::active()
{
    return g_profiler;
}

void
Profiler::addPhase(const std::string &path, double wall_seconds,
                   double cpu_seconds, std::uint64_t calls)
{
    std::lock_guard<std::mutex> lock(mu_);
    PhaseStats &s = phases_[path];
    s.calls += calls;
    s.wallSeconds += wall_seconds;
    s.cpuSeconds += cpu_seconds;
}

void
Profiler::addCounter(const std::string &name, std::uint64_t delta)
{
    std::lock_guard<std::mutex> lock(mu_);
    counters_[name] += delta;
}

Profiler::PhaseStats
Profiler::phase(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = phases_.find(path);
    return it == phases_.end() ? PhaseStats{} : it->second;
}

void
Profiler::reset()
{
    std::lock_guard<std::mutex> lock(mu_);
    phases_.clear();
    counters_.clear();
    enabledAt_ = std::chrono::steady_clock::now();
}

Json
Profiler::toJson() const
{
    // Copy under the lock, assemble outside it.
    std::map<std::string, PhaseStats> phases;
    std::map<std::string, std::uint64_t> counters;
    std::chrono::steady_clock::time_point enabled_at;
    {
        std::lock_guard<std::mutex> lock(mu_);
        phases = phases_;
        counters = counters_;
        enabled_at = enabledAt_;
    }

    TreeNode root;
    for (const auto &[path, stats] : phases) {
        TreeNode *node = &root;
        std::size_t start = 0;
        while (start <= path.size()) {
            const std::size_t dot = path.find('.', start);
            const std::string part = path.substr(
                start,
                dot == std::string::npos ? std::string::npos
                                         : dot - start);
            node = &node->children[part];
            if (dot == std::string::npos)
                break;
            start = dot + 1;
        }
        node->stats = &stats;
    }

    Json doc = Json::object();
    doc.set("schema", "hard.profile.v1");
    doc.set("wallSeconds",
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - enabled_at)
                .count());
    doc.set("cpuSeconds", processCpuSeconds());
    doc.set("peakRssBytes", peakRssBytes());
    Json kids = Json::object();
    for (const auto &[name, child] : root.children)
        kids.set(name, treeJson(child));
    doc.set("phases", std::move(kids));
    Json ctrs = Json::object();
    for (const auto &[name, value] : counters)
        ctrs.set(name, value);
    doc.set("counters", std::move(ctrs));
    return doc;
}

double
threadCpuSeconds()
{
    struct timespec ts;
    if (::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0)
        return 0.0;
    return timespecSeconds(ts);
}

double
processCpuSeconds()
{
    return rusageCpuSeconds(RUSAGE_SELF);
}

std::uint64_t
peakRssBytes()
{
    struct rusage ru;
    if (::getrusage(RUSAGE_SELF, &ru) != 0)
        return 0;
    // Linux reports ru_maxrss in kilobytes.
    return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024u;
}

} // namespace hard
