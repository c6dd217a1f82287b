#include "trace/trace_cache.hh"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/logging.hh"
#include "telemetry/profile.hh"
#include "telemetry/stat_registry.hh"
#include "trace/replayer.hh"

namespace hard
{

namespace
{

constexpr char kCacheMagic[8] = {'H', 'A', 'R', 'D', 'T', 'C', 'C', '1'};
constexpr std::uint32_t kContainerVersion = 2;

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t
fnv1a(const char *data, std::size_t n, std::uint64_t h = kFnvOffset)
{
    for (std::size_t i = 0; i < n; ++i) {
        h ^= static_cast<unsigned char>(data[i]);
        h *= 1099511628211ull;
    }
    return h;
}

/**
 * Payload checksum: FNV-1a over eight interleaved lanes (byte i feeds
 * lane i % 8), lane states folded with a final FNV pass. The serial
 * FNV multiply chain caps at ~1 byte/cycle; eight independent chains
 * pipeline, which matters because every warm hit checksums the whole
 * multi-megabyte payload. Container v2 (v1 used single-lane FNV; old
 * entries fail the version gate and are evicted as stale, then
 * re-recorded).
 */
std::uint64_t
laneChecksum(const char *data, std::size_t n)
{
    std::uint64_t lane[8];
    for (std::uint64_t j = 0; j < 8; ++j)
        lane[j] = kFnvOffset ^ j;
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8)
        for (std::size_t j = 0; j < 8; ++j) {
            lane[j] ^= static_cast<unsigned char>(data[i + j]);
            lane[j] *= kFnvPrime;
        }
    for (; i < n; ++i) {
        lane[i % 8] ^= static_cast<unsigned char>(data[i]);
        lane[i % 8] *= kFnvPrime;
    }
    std::uint64_t h = kFnvOffset ^ static_cast<std::uint64_t>(n);
    for (std::size_t j = 0; j < 8; ++j) {
        h ^= lane[j];
        h *= kFnvPrime;
    }
    return h;
}

/** Why a cache load produced no trace. */
enum class LoadFail
{
    Corrupt,
    Stale,
    Collision,
};

} // namespace

TraceKey &
TraceKey::add(const std::string &field, const std::string &value)
{
    canon_ += field;
    canon_ += '=';
    canon_ += value;
    canon_ += ';';
    return *this;
}

TraceKey &
TraceKey::add(const std::string &field, std::uint64_t value)
{
    return add(field, std::to_string(value));
}

TraceKey &
TraceKey::add(const std::string &field, double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return add(field, std::string(buf));
}

std::string
TraceKey::digest() const
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(
                      fnv1a(canon_.data(), canon_.size())));
    return buf;
}

void
addSimConfigFields(TraceKey &key, const SimConfig &sim)
{
    const MemSysConfig &m = sim.memsys;
    key.add("cores", static_cast<std::uint64_t>(m.numCores))
        .add("protocol",
             m.protocol == CoherenceProtocol::MESI ? "MESI" : "MSI")
        .add("l1.size", m.l1.sizeBytes)
        .add("l1.assoc", static_cast<std::uint64_t>(m.l1.assoc))
        .add("l1.line", static_cast<std::uint64_t>(m.l1.lineBytes))
        .add("l1.lat", m.l1.hitLatency)
        .add("l2.size", m.l2.sizeBytes)
        .add("l2.assoc", static_cast<std::uint64_t>(m.l2.assoc))
        .add("l2.line", static_cast<std::uint64_t>(m.l2.lineBytes))
        .add("l2.lat", m.l2.hitLatency)
        .add("memLat", m.memLatency)
        .add("bus.addr", m.bus.addressCycles)
        .add("bus.width", static_cast<std::uint64_t>(m.bus.widthBytes))
        .add("bus.line", static_cast<std::uint64_t>(m.bus.lineBytes))
        .add("bus.meta", m.bus.metaPayloadCycles)
        .add("spinPoll", sim.spinPollInterval)
        .add("barrierRelease", sim.barrierReleaseCycles)
        .add("maxCycles", sim.maxCycles)
        .add("watchdog", sim.watchdogCycles)
        .add("quantum", sim.quantumCycles)
        .add("ctxSwitch", sim.contextSwitchCycles);
}

TraceKey
makeRunKey(const std::string &workload, const WorkloadParams &wp,
           const SimConfig &sim, std::int64_t inject_seed)
{
    TraceKey key;
    key.add("traceVersion",
            static_cast<std::uint64_t>(traceFormatVersion()))
        .add("workload", workload)
        .add("threads", static_cast<std::uint64_t>(wp.numThreads))
        .add("wseed", wp.seed)
        .add("scale", wp.scale)
        .add("inject",
             inject_seed < 0
                 ? std::string("none")
                 : std::to_string(static_cast<std::uint64_t>(inject_seed)));
    // Server emission rev 2: scale-parameterized footprint + open-loop
    // arrivals. Distinguishes cached traces recorded by pre-rev
    // binaries; every other workload's keys are unchanged.
    if (workload == "server")
        key.add("wlrev", std::uint64_t{2});
    // Open-loop arrival parameters change the emitted Program, so they
    // enter the key — but only when the mode is on, keeping every
    // pre-existing key byte-identical.
    if (wp.openLoop) {
        key.add("openLoop", std::uint64_t{1})
            .add("arrivalGap", wp.arrivalMeanGap)
            .add("window", wp.openLoopWindow)
            .add("churn", wp.churnPeriod);
    }
    addSimConfigFields(key, sim);
    return key;
}

TraceCache::TraceCache(const std::string &dir,
                       std::uint64_t orphanTtlSeconds)
    : dir_(dir)
{
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    hard_fatal_if(ec && !std::filesystem::is_directory(dir_),
                  "trace-cache: cannot create directory '%s': %s",
                  dir_.c_str(), ec.message().c_str());
    sweepOrphans(orphanTtlSeconds);
}

void
TraceCache::sweepOrphans(std::uint64_t ttlSeconds)
{
    const auto now = std::filesystem::file_time_type::clock::now();
    std::error_code ec;
    std::filesystem::directory_iterator it(dir_, ec), end;
    if (ec)
        return;
    std::uint64_t swept = 0;
    for (; it != end; it.increment(ec)) {
        if (ec)
            break;
        const std::filesystem::path &p = it->path();
        if (p.filename().string().rfind(".tmp.", 0) != 0)
            continue;
        if (ttlSeconds != 0) {
            std::error_code tec;
            const auto mtime = std::filesystem::last_write_time(p, tec);
            if (tec)
                continue; // likely renamed/removed under us: not ours
            const auto age =
                std::chrono::duration_cast<std::chrono::seconds>(
                    now - mtime)
                    .count();
            if (age < 0 ||
                static_cast<std::uint64_t>(age) < ttlSeconds)
                continue; // young enough to be a live writer's
        }
        std::error_code rec;
        if (std::filesystem::remove(p, rec) && !rec)
            ++swept;
    }
    if (swept != 0) {
        std::lock_guard<std::mutex> lock(mu_);
        counters_.evictedOrphan += swept;
    }
}

void
TraceCache::setStoreCrashHook(std::function<void()> hook)
{
    std::lock_guard<std::mutex> lock(mu_);
    storeCrashHook_ = std::move(hook);
}

std::string
TraceCache::pathFor(const TraceKey &key) const
{
    return dir_ + "/" + key.digest() + ".tcache";
}

namespace
{

/**
 * A cache entry's bytes, memory-mapped read-only. Entries run to tens
 * of megabytes; mapping instead of reading means the container is
 * consumed straight out of the page cache with no copy, which is most
 * of the point on the warm path. Falls back to a plain sized read
 * when mmap is unavailable (e.g. an empty or special file).
 */
class MappedEntry
{
  public:
    explicit MappedEntry(const std::string &path)
    {
        const int fd = ::open(path.c_str(), O_RDONLY);
        if (fd < 0)
            return;
        exists_ = true;
        struct stat st;
        if (::fstat(fd, &st) != 0 || st.st_size < 0) {
            ::close(fd);
            failed_ = true;
            return;
        }
        len_ = static_cast<std::size_t>(st.st_size);
        if (len_ > 0) {
            map_ = ::mmap(nullptr, len_, PROT_READ, MAP_PRIVATE, fd, 0);
            if (map_ == MAP_FAILED) {
                map_ = nullptr;
                std::ifstream in(path, std::ios::binary);
                fallback_.resize(len_);
                if (!in.read(fallback_.data(),
                             static_cast<std::streamsize>(len_)))
                    failed_ = true;
            }
        }
        ::close(fd);
    }

    ~MappedEntry()
    {
        if (map_ != nullptr)
            ::munmap(map_, len_);
    }

    MappedEntry(const MappedEntry &) = delete;
    MappedEntry &operator=(const MappedEntry &) = delete;

    /** @return whether the entry file exists at all. */
    bool exists() const { return exists_; }

    /** @return whether an existing entry could not be read. */
    bool readFailed() const { return failed_; }

    std::string_view bytes() const
    {
        if (map_ != nullptr)
            return {static_cast<const char *>(map_), len_};
        return {fallback_.data(), fallback_.size()};
    }

  private:
    void *map_ = nullptr;
    std::size_t len_ = 0;
    std::string fallback_;
    bool exists_ = false;
    bool failed_ = false;
};

/**
 * Validate a container's envelope — magic, versions, embedded key,
 * lengths, checksum — and expose the trace payload it wraps. On
 * success fill @p payload_out and return nullopt; on failure return
 * the reason so the caller bumps the right counter.
 */
std::optional<LoadFail>
parseEnvelope(std::string_view bytes, const TraceKey &key,
              std::string_view *payload_out)
{
    std::size_t pos = 0;
    auto raw = [&](void *p, std::size_t n) {
        if (bytes.size() - pos < n)
            return false;
        std::memcpy(p, bytes.data() + pos, n);
        pos += n;
        return true;
    };

    char magic[8];
    if (!raw(magic, sizeof(magic)) ||
        std::memcmp(magic, kCacheMagic, sizeof(kCacheMagic)) != 0)
        return LoadFail::Corrupt;

    std::uint32_t container_version = 0, trace_version = 0;
    if (!raw(&container_version, sizeof(container_version)) ||
        !raw(&trace_version, sizeof(trace_version)))
        return LoadFail::Corrupt;
    if (container_version != kContainerVersion)
        return LoadFail::Stale;
    if (trace_version != traceFormatVersion())
        return LoadFail::Stale;

    std::uint64_t canon_len = 0;
    if (!raw(&canon_len, sizeof(canon_len)) ||
        bytes.size() - pos < canon_len)
        return LoadFail::Corrupt;
    const bool canon_matches =
        canon_len == key.canonical().size() &&
        std::memcmp(bytes.data() + pos, key.canonical().data(),
                    canon_len) == 0;
    pos += canon_len;

    std::uint64_t payload_len = 0;
    if (!raw(&payload_len, sizeof(payload_len)) ||
        bytes.size() - pos < payload_len)
        return LoadFail::Corrupt;
    const char *payload = bytes.data() + pos;
    pos += payload_len;

    std::uint64_t checksum = 0;
    if (!raw(&checksum, sizeof(checksum)) || pos != bytes.size())
        return LoadFail::Corrupt;
    if (laneChecksum(payload, payload_len) != checksum)
        return LoadFail::Corrupt;
    // Checksum proves the entry is intact, so a key mismatch really is
    // a digest collision, not damage.
    if (!canon_matches)
        return LoadFail::Collision;

    *payload_out = std::string_view(payload, payload_len);
    return std::nullopt;
}

/** Classify a payload decode failure: a recognizable-but-different
 * format version is stale; anything else is corrupt. */
LoadFail
payloadFail(std::uint32_t payload_version)
{
    return payload_version != 0 &&
            payload_version != traceFormatVersion()
        ? LoadFail::Stale
        : LoadFail::Corrupt;
}

void
countFailedLoad(TraceCache::Counters &c, LoadFail why)
{
    ++c.misses;
    switch (why) {
      case LoadFail::Stale:
        ++c.evictedStale;
        break;
      case LoadFail::Collision:
        ++c.collisions;
        break;
      default:
        ++c.evictedCorrupt;
        break;
    }
}

} // namespace

std::optional<Trace>
TraceCache::lookup(const TraceKey &key)
{
    ScopedPhase phase("traceCache.load");
    const std::string path = pathFor(key);
    MappedEntry entry(path);
    if (!entry.exists()) {
        profileCount("traceCache.misses", 1);
        std::lock_guard<std::mutex> lock(mu_);
        ++counters_.misses;
        return std::nullopt;
    }
    profileCount("traceCache.bytesRead", entry.bytes().size());

    std::optional<LoadFail> why;
    Trace trace;
    if (entry.readFailed()) {
        why = LoadFail::Corrupt;
    } else {
        std::string_view payload;
        why = parseEnvelope(entry.bytes(), key, &payload);
        if (!why) {
            std::string err;
            std::uint32_t payload_version = 0;
            if (!deserializeTrace(payload, &trace, &err,
                                  &payload_version))
                why = payloadFail(payload_version);
        }
    }
    if (!why) {
        profileCount("traceCache.hits", 1);
        std::lock_guard<std::mutex> lock(mu_);
        ++counters_.hits;
        return trace;
    }
    profileCount("traceCache.misses", 1);

    // Unreadable or wrong entry: evict so the slot is re-recorded
    // rather than re-parsed (and re-failed) forever. A colliding entry
    // is intact but belongs to a different key; our store() will
    // overwrite it, which the eviction just makes explicit.
    std::error_code ec;
    std::filesystem::remove(path, ec);
    std::lock_guard<std::mutex> lock(mu_);
    countFailedLoad(counters_, *why);
    return std::nullopt;
}

std::optional<std::size_t>
TraceCache::replayCached(const TraceKey &key,
                         const std::vector<AccessObserver *> &observers,
                         const ReplayOptions &opts)
{
    // Entry mapping + validation is attributed to traceCache.load; the
    // streamed dispatch that follows belongs to the caller's replay
    // phase, so the two never double-count.
    std::optional<ScopedPhase> load_phase;
    load_phase.emplace("traceCache.load");
    const std::string path = pathFor(key);
    MappedEntry entry(path);
    if (!entry.exists()) {
        profileCount("traceCache.misses", 1);
        std::lock_guard<std::mutex> lock(mu_);
        ++counters_.misses;
        return std::nullopt;
    }
    profileCount("traceCache.bytesRead", entry.bytes().size());

    std::optional<LoadFail> why;
    PackedTraceView view;
    if (entry.readFailed()) {
        why = LoadFail::Corrupt;
    } else {
        std::string_view payload;
        why = parseEnvelope(entry.bytes(), key, &payload);
        if (!why) {
            std::string err;
            std::uint32_t payload_version = 0;
            if (!openPackedTrace(payload, &view, &err,
                                 &payload_version))
                why = payloadFail(payload_version);
        }
    }
    if (!why) {
        load_phase.reset();
        // The entry is fully validated; stream it into the detectors
        // straight from the mapping. Identical dispatch to
        // replayTrace(lookup(key)), minus the event-vector detour.
        const std::size_t n = replayPacked(view, observers, opts);
        profileCount("traceCache.hits", 1);
        std::lock_guard<std::mutex> lock(mu_);
        ++counters_.hits;
        return n;
    }
    profileCount("traceCache.misses", 1);

    std::error_code ec;
    std::filesystem::remove(path, ec);
    std::lock_guard<std::mutex> lock(mu_);
    countFailedLoad(counters_, *why);
    return std::nullopt;
}

void
TraceCache::store(const TraceKey &key, const Trace &trace)
{
    ScopedPhase phase("traceCache.store");
    const std::string payload = serializeTrace(trace);

    // Private temp name (pid + process-wide sequence) so concurrent
    // writers never share a temp file; rename() is atomic within the
    // directory, so readers only ever see complete entries.
    static std::atomic<std::uint64_t> seq{0};
    const std::string tmp = dir_ + "/.tmp." + key.digest() + "." +
        std::to_string(static_cast<std::uint64_t>(::getpid())) + "." +
        std::to_string(seq.fetch_add(1));
    std::uint64_t written = 0;
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        hard_fatal_if(!out, "trace-cache: cannot open '%s' for writing",
                      tmp.c_str());
        // Header, payload and checksum go straight to the file: no
        // second in-memory copy of the payload.
        auto raw = [&](const void *p, std::size_t n) {
            out.write(static_cast<const char *>(p),
                      static_cast<std::streamsize>(n));
            written += n;
        };
        raw(kCacheMagic, sizeof(kCacheMagic));
        raw(&kContainerVersion, sizeof(kContainerVersion));
        const std::uint32_t trace_version = traceFormatVersion();
        raw(&trace_version, sizeof(trace_version));
        const std::uint64_t canon_len = key.canonical().size();
        raw(&canon_len, sizeof(canon_len));
        raw(key.canonical().data(), canon_len);
        const std::uint64_t payload_len = payload.size();
        raw(&payload_len, sizeof(payload_len));
        raw(payload.data(), payload_len);
        const std::uint64_t checksum =
            laneChecksum(payload.data(), payload.size());
        raw(&checksum, sizeof(checksum));
        out.flush();
        hard_fatal_if(!out, "trace-cache: write to '%s' failed",
                      tmp.c_str());
    }
    {
        // Crash-injection window: the temp file is complete on disk
        // but not yet published. A SIGKILL here orphans it — exactly
        // what the open-time sweep must clean up.
        std::function<void()> hook;
        {
            std::lock_guard<std::mutex> lock(mu_);
            hook = storeCrashHook_;
        }
        if (hook)
            hook();
    }
    std::error_code ec;
    std::filesystem::rename(tmp, pathFor(key), ec);
    if (ec) {
        std::filesystem::remove(tmp);
        fatal("trace-cache: publish of '%s' failed: %s",
              pathFor(key).c_str(), ec.message().c_str());
    }
    profileCount("traceCache.bytesWritten", written);
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.stores;
}

TraceCache::Counters
TraceCache::counters() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return counters_;
}

Json
TraceCache::statsJson() const
{
    const Counters c = counters();
    StatGroup group("traceCache");
    Counter &hits = group.counter("hits");
    hits.set(c.hits);
    Counter &misses = group.counter("misses");
    misses.set(c.misses);
    group.counter("stores").set(c.stores);
    group.counter("evictedCorrupt").set(c.evictedCorrupt);
    group.counter("evictedStale").set(c.evictedStale);
    group.counter("collisions").set(c.collisions);
    group.counter("evictedOrphan").set(c.evictedOrphan);
    group.formula("hitRate", [&hits, &misses] {
        return Formula::ratio(hits.value(),
                              hits.value() + misses.value());
    });

    StatRegistry registry;
    registry.add(group);
    return registry.toJson();
}

} // namespace hard
