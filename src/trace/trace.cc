#include "trace/trace.hh"

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <new>
#include <set>
#include <type_traits>

#include "common/logging.hh"
#include "detectors/vclock.hh"

namespace hard
{

namespace
{
constexpr char kMagic[8] = {'H', 'A', 'R', 'D', 'T', 'R', 'C', '1'};
constexpr std::uint32_t kVersion = 1;
} // namespace

const char *
traceKindName(TraceKind k)
{
    switch (k) {
      case TraceKind::Read:
        return "Read";
      case TraceKind::Write:
        return "Write";
      case TraceKind::LockAcquire:
        return "LockAcquire";
      case TraceKind::LockRelease:
        return "LockRelease";
      case TraceKind::Barrier:
        return "Barrier";
      case TraceKind::SemaPost:
        return "SemaPost";
      case TraceKind::SemaWait:
        return "SemaWait";
      case TraceKind::ThreadEnd:
        return "ThreadEnd";
      case TraceKind::LineEvicted:
        return "LineEvicted";
      case TraceKind::RwRdAcquire:
        return "RwRdAcquire";
      case TraceKind::RwRdRelease:
        return "RwRdRelease";
      case TraceKind::RwWrAcquire:
        return "RwWrAcquire";
      case TraceKind::RwWrRelease:
        return "RwWrRelease";
      case TraceKind::CondSignal:
        return "CondSignal";
      case TraceKind::CondBroadcast:
        return "CondBroadcast";
      case TraceKind::CondWait:
        return "CondWait";
      case TraceKind::AtomicStore:
        return "AtomicStore";
      case TraceKind::AtomicLoad:
        return "AtomicLoad";
      case TraceKind::ContextSwitch:
        return "ContextSwitch";
    }
    return "?";
}

Event::Packed
Event::pack() const
{
    Packed p{};
    p.kind = static_cast<std::uint8_t>(kind);
    p.size = static_cast<std::uint8_t>(size);
    p.tid = static_cast<std::uint8_t>(tid & 0xff);
    if (kind == TraceKind::Read || kind == TraceKind::Write) {
        p.aux = static_cast<std::uint8_t>(
            (sharers << 2) | static_cast<unsigned>(stateAfter));
        p.site = site;
    } else if (kind == TraceKind::Barrier) {
        p.aux = static_cast<std::uint8_t>(participants);
        p.site = episode;
    } else {
        p.aux = 0;
        p.site = site;
    }
    p.addr = addr;
    p.at = at;
    return p;
}

Event
Event::unpack(const Packed &p)
{
    Event ev;
    hard_fatal_if(
        p.kind > static_cast<std::uint8_t>(TraceKind::AtomicLoad),
        "trace: corrupt event kind %u", p.kind);
    ev.kind = static_cast<TraceKind>(p.kind);
    ev.size = p.size;
    ev.tid = p.tid == 0xff ? invalidThread : p.tid;
    ev.core = ev.tid; // threads are core-bound in recordings
    ev.addr = p.addr;
    ev.at = p.at;
    if (ev.kind == TraceKind::Read || ev.kind == TraceKind::Write) {
        ev.site = p.site;
        ev.sharers = p.aux >> 2;
        ev.stateAfter = static_cast<CState>(p.aux & 0x3);
    } else if (ev.kind == TraceKind::Barrier) {
        ev.episode = p.site;
        ev.participants = p.aux;
    } else {
        ev.site = p.site;
    }
    return ev;
}

unsigned
Trace::threadCount() const
{
    std::set<ThreadId> tids;
    for (const Event &ev : events)
        if (ev.tid != invalidThread)
            tids.insert(ev.tid);
    return static_cast<unsigned>(tids.size());
}

std::uint32_t
traceFormatVersion()
{
    return kVersion;
}

std::string
serializeTrace(const Trace &trace)
{
    std::string out;
    auto raw = [&](const void *p, std::size_t n) {
        out.append(static_cast<const char *>(p), n);
    };
    raw(kMagic, sizeof(kMagic));
    std::uint32_t version = kVersion;
    raw(&version, sizeof(version));

    std::uint32_t nsites =
        static_cast<std::uint32_t>(trace.siteNames.size());
    raw(&nsites, sizeof(nsites));
    for (const std::string &name : trace.siteNames) {
        std::uint32_t len = static_cast<std::uint32_t>(name.size());
        raw(&len, sizeof(len));
        raw(name.data(), len);
    }

    std::uint64_t nevents = trace.events.size();
    raw(&nevents, sizeof(nevents));
    for (const Event &ev : trace.events) {
        Event::Packed p = ev.pack();
        raw(&p, sizeof(p));
    }
    return out;
}

bool
openPackedTrace(std::string_view bytes, PackedTraceView *out,
                std::string *err, std::uint32_t *version_out)
{
    std::size_t pos = 0;
    auto fail = [&](const std::string &why) {
        if (err)
            *err = why;
        return false;
    };
    auto raw = [&](void *p, std::size_t n) {
        if (bytes.size() - pos < n)
            return false;
        std::memcpy(p, bytes.data() + pos, n);
        pos += n;
        return true;
    };

    char magic[8];
    if (!raw(magic, sizeof(magic)) ||
        std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
        return fail("not a HARD trace");

    std::uint32_t version = 0;
    if (!raw(&version, sizeof(version)))
        return fail("truncated in header");
    if (version_out)
        *version_out = version;
    if (version != kVersion) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "unsupported version %u",
                      version);
        return fail(buf);
    }

    PackedTraceView view;
    std::uint32_t nsites = 0;
    if (!raw(&nsites, sizeof(nsites)))
        return fail("truncated in site table");
    for (std::uint32_t i = 0; i < nsites; ++i) {
        std::uint32_t len = 0;
        if (!raw(&len, sizeof(len)) || len > 4096)
            return fail("corrupt site name length");
        std::string name(len, '\0');
        if (!raw(name.data(), len))
            return fail("truncated in site table");
        view.siteNames.push_back(std::move(name));
    }

    std::uint64_t nevents = 0;
    if (!raw(&nevents, sizeof(nevents)))
        return fail("truncated before events");
    if ((bytes.size() - pos) / sizeof(Event::Packed) < nevents)
        return fail("truncated at event stream");
    if (bytes.size() - pos != nevents * sizeof(Event::Packed))
        return fail("trailing bytes past declared event count");
    // Pre-validate every record's kind, thread id and access extent in
    // one strided scan, so consumers of the view can decode without
    // per-event checks — and so a corrupt entry is rejected before a
    // streaming replay has dispatched half its events into live
    // detectors. Barriers and line evictions carry no thread (tid byte
    // 0xff). A Read or Write stays inside one line (a size of 0 counts
    // as one byte), as WorkloadBuilder guarantees of every program.
    const char *rec = bytes.data() + pos;
    for (std::uint64_t i = 0; i < nevents; ++i) {
        const char *r = rec + i * sizeof(Event::Packed);
        const auto kind = static_cast<std::uint8_t>(r[0]);
        const auto size = static_cast<std::uint8_t>(r[1]);
        const auto tid = static_cast<std::uint8_t>(r[2]);
        if (kind > static_cast<std::uint8_t>(EventKind::AtomicLoad))
            return fail("corrupt event kind");
        if (tid >= kMaxThreads &&
            kind != static_cast<std::uint8_t>(EventKind::Barrier) &&
            kind != static_cast<std::uint8_t>(EventKind::LineEvicted))
            return fail("corrupt thread id");
        if (kind == static_cast<std::uint8_t>(EventKind::Read) ||
            kind == static_cast<std::uint8_t>(EventKind::Write)) {
            Addr addr;
            std::memcpy(&addr, r + offsetof(Event::Packed, addr),
                        sizeof(addr));
            if ((addr & (kLineBytes - 1)) + (size ? size : 1) > kLineBytes)
                return fail("corrupt access");
        }
    }
    view.records = rec;
    view.nevents = nevents;
    *out = std::move(view);
    return true;
}

bool
deserializeTrace(std::string_view bytes, Trace *out, std::string *err,
                 std::uint32_t *version_out)
{
    PackedTraceView view;
    if (!openPackedTrace(bytes, &view, err, version_out))
        return false;
    Trace trace;
    trace.siteNames = std::move(view.siteNames);
    trace.events.resize(view.nevents);
    decodeRecords(view.records, 0, view.nevents, trace.events.data());
    *out = std::move(trace);
    return true;
}

void
decodeRecords(const char *records, std::size_t first, std::size_t n,
              Event *out)
{
    // openPackedTrace() validated the whole stream, so the loop needs
    // no per-event tests. Records may sit unaligned after the
    // variable-length site table; the per-record memcpy keeps the
    // loads well-defined and compiles to plain unaligned moves. Each
    // event is built in place: assigning unpack()'s result would build
    // it in a temporary and copy it, which costs about as much again
    // as the decode.
    static_assert(std::is_trivially_destructible_v<Event>);
    const char *rec = records + first * sizeof(Event::Packed);
    for (std::size_t i = 0; i < n; ++i) {
        Event::Packed p;
        std::memcpy(&p, rec + i * sizeof(p), sizeof(p));
        new (&out[i]) Event(Event::unpack(p));
    }
}

void
writeTrace(const std::string &path, const Trace &trace)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    hard_fatal_if(!out, "trace: cannot open '%s' for writing",
                  path.c_str());
    const std::string bytes = serializeTrace(trace);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
    out.flush();
    hard_fatal_if(!out, "trace: write to '%s' failed", path.c_str());
}

Trace
readTrace(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    hard_fatal_if(!in, "trace: cannot open '%s'", path.c_str());
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    hard_fatal_if(in.bad(), "trace: read from '%s' failed", path.c_str());
    Trace trace;
    std::string err;
    hard_fatal_if(!deserializeTrace(bytes, &trace, &err),
                  "trace: '%s': %s", path.c_str(), err.c_str());
    return trace;
}

} // namespace hard
