/**
 * @file
 * Content-addressed on-disk trace cache for fast functional mode.
 *
 * Cycle-level simulation is deterministic in (workload, sizing,
 * injection seed, interleaving-relevant SimConfig), so the event trace
 * of a run is a pure function of those inputs. The cache keys each
 * recording by a canonical string of exactly those fields (TraceKey),
 * hashes it to a filename, and stores the serialized trace in a
 * checksummed container. Subsequent runs with the same key replay the
 * cached trace through the detector battery only — no CPU/bus/cache
 * timing — with bit-identical reports (tests/test_fast_mode_identity).
 *
 * Container layout (little-endian, "HARDTCC1"):
 *   magic "HARDTCC1" (8 bytes)
 *   u32 container version (=2)
 *   u32 trace format version of the payload (trace.hh)
 *   u64 canonical-key length + bytes  (collision/versioning guard)
 *   u64 payload length + bytes        (exact serializeTrace() output)
 *   u64 payload checksum: FNV-1a over 8 interleaved lanes (byte i
 *       feeds lane i%8), lanes folded with a final FNV pass — the
 *       serial FNV chain of container v1 was the warm path's single
 *       largest cost on multi-megabyte payloads
 *
 * Concurrency: writers serialize the trace to a private temp file in
 * the cache directory and publish it with an atomic rename, so N
 * workers racing on one key all observe either nothing (miss,
 * re-record) or one complete entry — never a torn file. Loads verify
 * magic, versions, lengths, checksum and the embedded canonical key;
 * any mismatch evicts the entry (unlink) and reports a miss rather
 * than crashing or replaying stale data.
 */

#ifndef HARD_TRACE_TRACE_CACHE_HH
#define HARD_TRACE_TRACE_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/json.hh"
#include "sim/sim_config.hh"
#include "trace/replayer.hh"
#include "trace/trace.hh"
#include "workloads/builder.hh"

namespace hard
{

/**
 * Canonical cache key: an ordered "field=value;" string over every
 * input that can change the recorded interleaving, hashed (FNV-1a 64)
 * to the cache filename. Build with add() in a fixed order; two keys
 * are equal iff their canonical strings are equal, so any added field
 * changing value yields a different cache entry.
 */
class TraceKey
{
  public:
    TraceKey &add(const std::string &field, const std::string &value);
    TraceKey &add(const std::string &field, std::uint64_t value);
    TraceKey &add(const std::string &field, double value);

    /** @return the full canonical key string. */
    const std::string &canonical() const { return canon_; }

    /** @return 16-hex-digit FNV-1a digest of canonical(). */
    std::string digest() const;

  private:
    std::string canon_;
};

/**
 * @return the cache key of one effectiveness/single run:
 * @p workload built with @p wp, race-injected with @p inject_seed
 * (pass -1 for the race-free run), simulated under @p sim. Includes
 * the trace format version, so format bumps invalidate every entry.
 *
 * Interleaving-relevant SimConfig fields (cache geometry, latencies,
 * protocol, scheduling) are all included; hardTiming is not — fast
 * mode refuses to run with it enabled (it perturbs timing per
 * detector, voiding the shared-trace premise).
 */
TraceKey makeRunKey(const std::string &workload, const WorkloadParams &wp,
                    const SimConfig &sim, std::int64_t inject_seed);

/** Canonicalize just the SimConfig portion into @p key (shared by
 * makeRunKey and the fuzzer's key derivation). */
void addSimConfigFields(TraceKey &key, const SimConfig &sim);

/** Content-addressed trace store rooted at one directory. */
class TraceCache
{
  public:
    /** Cache effectiveness counters (surfaced via statsJson()). */
    struct Counters
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t stores = 0;
        /** Entries dropped for failing integrity checks. */
        std::uint64_t evictedCorrupt = 0;
        /** Entries dropped for a stale trace-format version. */
        std::uint64_t evictedStale = 0;
        /** Digest matches whose canonical key differed. */
        std::uint64_t collisions = 0;
        /** Orphaned temp files swept on open — debris of writers
         * killed between serializing and publishing an entry. Not an
         * entry eviction: no lookup ever misses because of one, so
         * telemetry checks exclude it from the evictions<=misses
         * invariant. */
        std::uint64_t evictedOrphan = 0;
    };

    /**
     * Open (creating if needed) the cache at @p dir; fatal() if the
     * directory cannot be created. Opening also sweeps orphaned
     * ".tmp.*" files older than @p orphanTtlSeconds — a store() killed
     * (e.g. SIGKILL) between writing its private temp file and the
     * atomic rename leaks the temp forever, and a shared cache
     * accumulates them across crashy campaign shards. The TTL keeps
     * the sweep from racing live writers in other processes: a temp
     * younger than the TTL may still be about to be renamed. Pass 0 to
     * sweep unconditionally (tests, single-process cleanup).
     */
    explicit TraceCache(const std::string &dir,
                        std::uint64_t orphanTtlSeconds = 900);

    /**
     * Crash-fault injection (campaign tests): invoked during store()
     * after the temp file is fully written and closed but before the
     * publishing rename — the widest real window in which a dying
     * process orphans a temp file. The hook may raise(SIGKILL); normal
     * operation leaves it unset.
     */
    void setStoreCrashHook(std::function<void()> hook);

    /**
     * Look up @p key. Counts a hit and returns the trace on success;
     * counts a miss (plus the relevant eviction/collision counter) and
     * returns nullopt when absent, corrupt, stale or colliding.
     */
    std::optional<Trace> lookup(const TraceKey &key);

    /**
     * Warm-path lookup-and-replay: stream the entry for @p key from
     * the memory-mapped container straight into @p observers, without
     * materializing the event vector lookup() pays for. Integrity
     * checking and counter accounting are identical to lookup(), and
     * no event is dispatched unless the entire entry validates — a
     * corrupt tail can never leave detectors half-replayed. @p opts
     * (lanes, profiler phases) passes through to replayPacked().
     *
     * @return the number of events replayed on a hit; nullopt on a
     * miss (absent/corrupt/stale/colliding, counted like lookup()).
     */
    std::optional<std::size_t>
    replayCached(const TraceKey &key,
                 const std::vector<AccessObserver *> &observers,
                 const ReplayOptions &opts = {});

    /**
     * Publish @p trace as the entry for @p key via temp file + atomic
     * rename. Concurrent stores of the same key are safe; last rename
     * wins and every intermediate state is a complete entry.
     */
    void store(const TraceKey &key, const Trace &trace);

    /** @return the entry path @p key maps to (exists or not). */
    std::string pathFor(const TraceKey &key) const;

    const std::string &dir() const { return dir_; }

    Counters counters() const;

    /** @return a `hard.stats.v1` document with one "traceCache" group
     * (hits/misses/stores/evictions/collisions + hitRate). */
    Json statsJson() const;

  private:
    void sweepOrphans(std::uint64_t ttlSeconds);

    std::string dir_;
    mutable std::mutex mu_;
    Counters counters_;
    std::function<void()> storeCrashHook_;
};

} // namespace hard

#endif // HARD_TRACE_TRACE_CACHE_HH
