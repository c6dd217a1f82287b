/**
 * @file
 * Binary trace format for post-mortem race analysis.
 *
 * §6 of the paper classifies race detectors into dynamic, post-mortem,
 * static and model-checking families. This module adds the post-mortem
 * mode to our system: a TraceRecorder observes a simulated run and
 * writes every memory/synchronization event to a compact binary file;
 * a TraceReplayer later re-drives any RaceDetector from the file, with
 * no simulator in the loop. Because detectors are deterministic
 * functions of the event stream, offline analysis produces *identical*
 * reports to online detection (asserted by tests/test_trace.cc).
 *
 * File layout (little-endian, fixed-width):
 *   header:  magic "HARDTRC1" (8 bytes)
 *            u32 version (=1)
 *            u32 site count, then per site: u32 length + bytes
 *            u64 event count
 *   events:  24-byte records (see Event::Packed)
 */

#ifndef HARD_TRACE_TRACE_HH
#define HARD_TRACE_TRACE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/site.hh"
#include "sim/observer.hh"

namespace hard
{

/** The trace's names for the one event record (sim/observer.hh). */
using TraceKind = EventKind;
using TraceEvent = Event;

/** @return printable name of @p k. */
const char *traceKindName(EventKind k);

/**
 * On-disk representation of an Event (24 bytes). The record keeps no
 * core (replay binds thread t to core t) and no ContextSwitch kind.
 */
struct Event::Packed
{
    std::uint8_t kind;
    std::uint8_t size;
    std::uint8_t tid;
    /** Memory: (sharers << 2) | stateAfter. Barrier: participants. */
    std::uint8_t aux;
    /** Memory/sync: site. Barrier: episode. */
    std::uint32_t site;
    std::uint64_t addr;
    std::uint64_t at;
};
static_assert(sizeof(Event::Packed) == 24, "trace record must be 24 bytes");

/** In-memory trace: site names plus the event sequence (each event's
 * core equals its tid, as on decode). */
struct Trace
{
    std::vector<std::string> siteNames;
    std::vector<Event> events;

    /** @return the number of distinct threads seen in the trace. */
    unsigned threadCount() const;
};

/** @return the current on-disk trace format version (header field). */
std::uint32_t traceFormatVersion();

/** @return @p trace serialized into the exact on-disk byte layout. */
std::string serializeTrace(const Trace &trace);

/**
 * Fully validated view over a serialized trace whose event records are
 * still in their packed on-disk form. The warm cache path replays
 * straight from this view (trace/replayer.hh, replayPacked) instead of
 * materializing a vector of 2x-larger Events it would read once
 * and throw away.
 *
 * @p records aliases the bytes handed to openPackedTrace(); the view
 * is valid only while those bytes are.
 */
struct PackedTraceView
{
    std::vector<std::string> siteNames;
    /** nevents consecutive Event::Packed records. */
    const char *records = nullptr;
    std::uint64_t nevents = 0;
};

/**
 * Validate a serialized trace and expose its packed event stream
 * without decoding it.
 *
 * Every structural defect — bad magic, unsupported version, truncation
 * anywhere, corrupt event kinds, thread ids past kMaxThreads, a Read
 * or Write that crosses a kLineBytes line, trailing garbage past the
 * declared event count — is reported through @p err
 * instead of fatal(), so callers holding untrusted bytes (the trace
 * cache) can recover. On success the whole stream is verified:
 * consumers may decode the records without further checks.
 *
 * @param out Filled only on success; aliases @p bytes.
 * @param err Human-readable failure description (set on failure).
 * @param version_out When non-null, receives the header's version
 * field even on version-mismatch failures (so callers can distinguish
 * "stale format" from "corrupt").
 * @return true on success.
 */
bool openPackedTrace(std::string_view bytes, PackedTraceView *out,
                     std::string *err,
                     std::uint32_t *version_out = nullptr);

/**
 * The one record decoder: decode the @p n records starting at record
 * @p first of a validated packed stream (PackedTraceView::records)
 * into @p out, each event built in place.
 */
void decodeRecords(const char *records, std::size_t first, std::size_t n,
                   Event *out);

/**
 * Decode a serialized trace without terminating on malformed input;
 * same validation and error contract as openPackedTrace(), with the
 * events materialized into @p out.
 */
bool deserializeTrace(std::string_view bytes, Trace *out,
                      std::string *err,
                      std::uint32_t *version_out = nullptr);

/**
 * Write @p trace to @p path; fatal() on I/O errors.
 */
void writeTrace(const std::string &path, const Trace &trace);

/**
 * Read a trace from @p path; fatal() on I/O or format errors.
 */
Trace readTrace(const std::string &path);

} // namespace hard

#endif // HARD_TRACE_TRACE_HH
