#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <sstream>

#include "src/common/log.hpp"
#include "src/harness/json_check.hpp"
#include "src/kernels/hashtable.hpp"
#include "src/sim/gpu.hpp"
#include "src/trace/chrome_exporter.hpp"
#include "src/trace/ring_recorder.hpp"

/**
 * Trace subsystem tests: ring-recorder retention semantics, the binary
 * round trip, and the Chrome exporter's structural properties on a real
 * traced simulation — monotone per-track timestamps, balanced B/E
 * interval pairs, and a parseable document — checked through the same
 * harness::checkChromeTrace logic the json_check CLI runs.
 */

namespace bowsim {
namespace {

using trace::EventKind;
using trace::RingRecorder;
using trace::StallCause;
using trace::TraceEvent;

TraceEvent
makeEvent(Cycle cycle, EventKind kind, std::uint64_t a0 = 0)
{
    TraceEvent ev;
    ev.cycle = cycle;
    ev.sm = 0;
    ev.warp = 0;
    ev.kind = kind;
    ev.a0 = a0;
    return ev;
}

TEST(TraceStrings, EveryKindAndCauseHasAName)
{
    for (unsigned k = 0; k < static_cast<unsigned>(EventKind::kCount); ++k) {
        const char *name = toString(static_cast<EventKind>(k));
        ASSERT_NE(name, nullptr);
        EXPECT_STRNE(name, "");
    }
    for (unsigned c = 0; c < trace::kNumStallCauses; ++c) {
        const char *name = toString(static_cast<StallCause>(c));
        ASSERT_NE(name, nullptr);
        EXPECT_STRNE(name, "");
    }
}

TEST(TraceStrings, IntervalPairsShareOneChromeName)
{
    // Chrome matches B/E durations by name, so each Enter/Exit pair must
    // export identically.
    EXPECT_STREQ(toString(EventKind::BackoffEnter),
                 toString(EventKind::BackoffExit));
    EXPECT_STREQ(toString(EventKind::BarrierEnter),
                 toString(EventKind::BarrierExit));
}

TEST(TraceFilter, ParsesEachTokenTheSyncAliasAndRejectsTheRest)
{
    using trace::Category;
    auto bits = [](std::initializer_list<Category> cats) {
        std::uint32_t m = 0;
        for (Category c : cats)
            m |= static_cast<std::uint32_t>(c);
        return m;
    };
    const std::pair<const char *, std::uint32_t> accepted[] = {
        {"pipe", bits({Category::Pipe})},
        {"mem", bits({Category::Mem})},
        {"ddos", bits({Category::Ddos})},
        {"bows", bits({Category::Bows})},
        {"barrier", bits({Category::Barrier})},
        {"sync", bits({Category::Ddos, Category::Bows, Category::Barrier})},
        {"sync,mem", bits({Category::Ddos, Category::Bows,
                           Category::Barrier, Category::Mem})},
        {"pipe,pipe", bits({Category::Pipe})},
    };
    for (const auto &[text, mask] : accepted) {
        std::uint32_t got = 0;
        EXPECT_TRUE(trace::parseCategoryFilter(text, &got)) << text;
        EXPECT_EQ(got, mask) << text;
    }
    // Unknown, empty and case-mismatched tokens are all rejected.
    for (const char *text :
         {"", "bogus", "sync,bogus", "mem,", ",mem", "sync,,mem", "Pipe",
          " mem", "all"}) {
        std::uint32_t got = 0;
        EXPECT_FALSE(trace::parseCategoryFilter(text, &got)) << text;
    }
}

TEST(RingRecorderTest, RetainsMostRecentWindow)
{
    RingRecorder rec(8);
    for (Cycle c = 0; c < 20; ++c)
        rec.emit(makeEvent(c, EventKind::Issue, c));
    EXPECT_EQ(rec.size(), 8u);
    EXPECT_EQ(rec.dropped(), 12u);
    EXPECT_EQ(rec.total(), 20u);
    std::vector<TraceEvent> events = rec.events();
    ASSERT_EQ(events.size(), 8u);
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].cycle, 12 + i) << "index " << i;
        EXPECT_EQ(events[i].a0, 12 + i);
    }
}

TEST(RingRecorderTest, BinaryRoundTripPreservesEverything)
{
    RingRecorder rec(64);
    rec.emit(makeEvent(1, EventKind::Fetch, 10));
    rec.emit(makeEvent(2, EventKind::L1Miss, 0x1234));
    TraceEvent full = makeEvent(3, EventKind::AtomicSerialize, 0xdead);
    full.sm = 7;
    full.warp = -1;
    full.a1 = 42;
    rec.emit(full);

    std::stringstream buf;
    rec.saveBinary(buf);
    std::vector<TraceEvent> back = RingRecorder::loadBinary(buf);
    ASSERT_EQ(back.size(), 3u);
    EXPECT_EQ(back[0].kind, EventKind::Fetch);
    EXPECT_EQ(back[1].a0, 0x1234u);
    EXPECT_EQ(back[2].sm, 7u);
    EXPECT_EQ(back[2].warp, -1);
    EXPECT_EQ(back[2].a1, 42u);
}

TEST(RingRecorderTest, LoadBinaryRejectsGarbage)
{
    std::stringstream buf("not a trace file at all");
    EXPECT_THROW(RingRecorder::loadBinary(buf), FatalError);
}

/** Runs the high-contention hashtable with a recorder attached. */
std::vector<TraceEvent>
traceHashtable(bool bows)
{
    GpuConfig cfg = makeGtx480Config();
    cfg.numCores = 2;
    cfg.bows.enabled = bows;
    Gpu gpu(cfg);
    RingRecorder rec;
    gpu.setTraceSink(&rec);
    HashtableParams p;
    p.insertions = 512;
    p.buckets = 16;
    p.ctas = 4;
    p.threadsPerCta = 64;
    makeHashtable(p)->run(gpu);
    EXPECT_EQ(rec.dropped(), 0u);
    return rec.events();
}

TEST(TracedRun, EmitsTheExpectedEventMix)
{
    std::vector<TraceEvent> events = traceHashtable(/*bows=*/true);
    ASSERT_FALSE(events.empty());

    std::vector<std::uint64_t> counts(
        static_cast<std::size_t>(EventKind::kCount), 0);
    for (const TraceEvent &ev : events)
        ++counts[static_cast<std::size_t>(ev.kind)];
    auto count = [&](EventKind k) {
        return counts[static_cast<std::size_t>(k)];
    };

    // Core pipeline: every issue fetched, and ALU/load destinations wrote
    // back. A contended spin loop stalls constantly.
    EXPECT_GT(count(EventKind::Fetch), 0u);
    EXPECT_EQ(count(EventKind::Fetch), count(EventKind::Issue));
    EXPECT_GT(count(EventKind::Writeback), 0u);
    EXPECT_GT(count(EventKind::IssueStall), 0u);
    // Memory: lock acquires are atomics serializing at the L2 banks.
    EXPECT_GT(count(EventKind::AtomicSerialize), 0u);
    EXPECT_GT(count(EventKind::L2Miss), 0u);
    // DDOS confirms the spin branch; BOWS then backs warps off.
    EXPECT_GT(count(EventKind::SibConfirm), 0u);
    EXPECT_GT(count(EventKind::BackoffEnter), 0u);
    EXPECT_EQ(count(EventKind::BackoffEnter), count(EventKind::BackoffExit));
}

TEST(TracedRun, EventStreamIsDeterministic)
{
    // Two traced runs of the same configuration must record the same
    // events in the same order with the same payloads.
    const std::vector<TraceEvent> a = traceHashtable(/*bows=*/true);
    const std::vector<TraceEvent> b = traceHashtable(/*bows=*/true);
    ASSERT_FALSE(a.empty());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        // TraceEvent is packed with explicit padding, so memcmp is exact.
        ASSERT_EQ(std::memcmp(&a[i], &b[i], sizeof(a[i])), 0)
            << "event " << i << " diverged: kind "
            << static_cast<int>(a[i].kind) << " @" << a[i].cycle
            << " sm " << a[i].sm << " vs kind "
            << static_cast<int>(b[i].kind) << " @" << b[i].cycle
            << " sm " << b[i].sm;
    }
}

TEST(TracedRun, TimestampsAreGloballyMonotonic)
{
    std::vector<TraceEvent> events = traceHashtable(/*bows=*/true);
    ASSERT_FALSE(events.empty());
    for (std::size_t i = 1; i < events.size(); ++i) {
        ASSERT_GE(events[i].cycle, events[i - 1].cycle)
            << "event " << i << " went backwards";
    }
}

TEST(TracedRun, ChromeExportPassesThePropertyChecker)
{
    std::vector<TraceEvent> events = traceHashtable(/*bows=*/true);
    std::ostringstream out;
    trace::ChromeTraceMeta meta;
    meta.label = "test";
    trace::exportChromeTrace(events, out, meta);

    harness::Json doc = harness::Json::parse(out.str());
    harness::CheckResult res = harness::checkChromeTrace(doc);
    EXPECT_TRUE(res.ok) << res.message;
    EXPECT_EQ(doc.at("metadata").at("label").asString(), "test");
    std::set<std::uint32_t> sms;
    for (const TraceEvent &ev : events)
        sms.insert(ev.sm);
    // One process_name metadata record per SM that appears in the trace.
    EXPECT_EQ(doc.at("traceEvents").size(), events.size() + sms.size());
}

TEST(TracedRun, PropertyCheckerRejectsCorruptedTraces)
{
    using harness::Json;
    // Unmatched E.
    Json doc = Json::object();
    Json arr = Json::array();
    Json ev = Json::object();
    ev.set("name", "backoff");
    ev.set("ph", "E");
    ev.set("ts", 5);
    ev.set("pid", 0);
    ev.set("tid", 3);
    arr.push(ev);
    doc.set("traceEvents", arr);
    EXPECT_FALSE(harness::checkChromeTrace(doc).ok);

    // Backwards timestamp on one track.
    Json doc2 = Json::object();
    Json arr2 = Json::array();
    for (int ts : {9, 4}) {
        Json e = Json::object();
        e.set("name", "issue");
        e.set("ph", "i");
        e.set("ts", ts);
        e.set("pid", 0);
        e.set("tid", 0);
        arr2.push(std::move(e));
    }
    doc2.set("traceEvents", std::move(arr2));
    EXPECT_FALSE(harness::checkChromeTrace(doc2).ok);

    // Unclosed B at end of document.
    Json doc3 = Json::object();
    Json arr3 = Json::array();
    Json b = Json::object();
    b.set("name", "barrier");
    b.set("ph", "B");
    b.set("ts", 1);
    b.set("pid", 0);
    b.set("tid", 0);
    arr3.push(std::move(b));
    doc3.set("traceEvents", std::move(arr3));
    EXPECT_FALSE(harness::checkChromeTrace(doc3).ok);
}

TEST(StallBreakdown, GrandTotalMatchesResidentWarpCycles)
{
    GpuConfig cfg = makeGtx480Config();
    cfg.numCores = 2;
    cfg.bows.enabled = true;
    cfg.collectStallBreakdown = true;
    Gpu gpu(cfg);
    HashtableParams p;
    p.insertions = 512;
    p.buckets = 16;
    p.ctas = 4;
    p.threadsPerCta = 64;
    KernelStats s = makeHashtable(p)->run(gpu);

    ASSERT_TRUE(s.hasStallBreakdown());
    auto totals = s.stallTotals();
    std::uint64_t grand = 0;
    for (std::uint64_t t : totals)
        grand += t;
    // Every resident warp contributes exactly one cause per SM-cycle.
    EXPECT_EQ(grand, s.residentWarpCycles);
    EXPECT_GT(totals[static_cast<unsigned>(StallCause::Issued)], 0u);
    // A contended lock loop must show scoreboard and backoff stalls.
    EXPECT_GT(totals[static_cast<unsigned>(StallCause::Scoreboard)], 0u);
    EXPECT_GT(totals[static_cast<unsigned>(StallCause::Backoff)], 0u);

    std::string table = stallTable(s);
    EXPECT_NE(table.find("scoreboard"), std::string::npos);
    EXPECT_NE(table.find("total"), std::string::npos);
}

TEST(StallBreakdown, OffByDefault)
{
    GpuConfig cfg = makeGtx480Config();
    cfg.numCores = 2;
    Gpu gpu(cfg);
    HashtableParams p;
    p.insertions = 256;
    p.buckets = 64;
    p.ctas = 2;
    p.threadsPerCta = 64;
    KernelStats s = makeHashtable(p)->run(gpu);
    EXPECT_FALSE(s.hasStallBreakdown());
    EXPECT_EQ(stallTable(s), "");
}

}  // namespace
}  // namespace bowsim
