/**
 * @file
 * Seeded byte mutations of serialized traces: truncations, byte flips
 * and two-trace splices over small recorded runs. Every mutant must
 * either fail validation with a message, or open into a view whose
 * records all decode to a valid kind and thread id, with no Read or
 * Write crossing a line, and on which
 * deserializeTrace() agrees event for event. The sanitizer build runs
 * this too, so a mutant that reads out of bounds fails there.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>

#include "common/rng.hh"
#include "detectors/vclock.hh"
#include "trace/record.hh"
#include "workloads/registry.hh"

namespace hard
{
namespace
{

std::string
recordedBytes(const char *workload)
{
    WorkloadParams wp;
    wp.scale = 0.02;
    return serializeTrace(
        recordRun(buildWorkload(workload, wp), SimConfig{}));
}

/**
 * @return why @p bytes breaks the decode contract; empty if it holds.
 * @param opened Set to whether the bytes validated.
 */
std::string
mutantDefect(const std::string &bytes, bool *opened)
{
    PackedTraceView view;
    std::string err;
    Trace trace;
    std::string trace_err;
    *opened = openPackedTrace(bytes, &view, &err);
    const bool decoded = deserializeTrace(bytes, &trace, &trace_err);
    if (!*opened) {
        if (err.empty())
            return "rejected without a message";
        if (decoded || trace_err != err)
            return "deserializeTrace disagrees on rejection: " + err;
        return "";
    }
    if (!decoded)
        return "deserializeTrace rejects an open view: " + trace_err;
    if (trace.siteNames != view.siteNames)
        return "site tables differ";
    if (trace.events.size() != view.nevents)
        return "event counts differ";
    for (std::uint64_t i = 0; i < view.nevents; ++i) {
        Event::Packed p;
        std::memcpy(&p, view.records + i * sizeof(p), sizeof(p));
        const Event ev = Event::unpack(p);
        const std::string at = " at record " + std::to_string(i);
        if (ev.kind > EventKind::AtomicLoad)
            return "invalid kind" + at;
        if (ev.tid >= kMaxThreads && ev.kind != EventKind::Barrier &&
            ev.kind != EventKind::LineEvicted)
            return "invalid thread id" + at;
        if (ev.isAccess() &&
            ev.addr % kLineBytes + std::max(ev.size, 1u) > kLineBytes)
            return "line-crossing access" + at;
        if (!(ev == trace.events[i]))
            return "decoded events differ" + at;
    }
    return "";
}

TEST(TraceMutation, EveryMutantIsRejectedOrDecodesConsistently)
{
    const std::string a = recordedBytes("server");
    const std::string b = recordedBytes("rwcache");
    bool ok = false;
    ASSERT_EQ(mutantDefect(a, &ok), "");
    ASSERT_EQ(mutantDefect(b, &ok), "");
    ASSERT_GT(a.size(), 1024u);
    ASSERT_GT(b.size(), 1024u);

    Rng rng(2024);
    unsigned rejected = 0, opened = 0;
    auto check = [&](const char *what, unsigned i,
                     const std::string &mutant) {
        const std::string defect = mutantDefect(mutant, &ok);
        ++(ok ? opened : rejected);
        if (defect.empty())
            return true;
        ADD_FAILURE() << what << " mutant " << i << ": " << defect;
        return false;
    };

    for (unsigned i = 0; i < 1000; ++i) {
        const std::string &src = i % 2 ? a : b;
        if (!check("truncation", i, src.substr(0, rng.below(src.size()))))
            return;
    }
    for (unsigned i = 0; i < 2000; ++i) {
        std::string m = i % 2 ? a : b;
        // Half the flips land in the header and site table, where a
        // single bit decides how the rest of the bytes are read.
        const std::size_t span = rng.chance(0.5) ? m.size() : 128;
        for (unsigned n = 1 + rng.below(4); n > 0; --n)
            m[rng.below(span)] ^= static_cast<char>(1 + rng.below(255));
        if (!check("flip", i, m))
            return;
    }
    for (unsigned i = 0; i < 1000; ++i) {
        const std::string &head = i % 2 ? a : b;
        const std::string &tail = i % 2 ? b : a;
        if (!check("splice", i,
                   head.substr(0, rng.below(head.size())) +
                       tail.substr(rng.below(tail.size()))))
            return;
    }
    // Both outcomes are exercised.
    EXPECT_GT(rejected, 0u);
    EXPECT_GT(opened, 0u);
}

} // namespace
} // namespace hard
