/**
 * @file
 * Unit tests for the causal conflict explainer: trace-filter parsing,
 * the binary raw-trace round trip, wait-for graph construction (edge
 * spans, service causes, cycles, convoys, restart edges), the
 * critical-path tick decomposition with exact synthetic numbers, and a
 * full-system run proving the offline replay (tlrquery's path)
 * reproduces the online report byte for byte.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "explain/explain.hh"
#include "explain/rawtrace.hh"
#include "harness/runner.hh"
#include "harness/scheme.hh"
#include "trace/filter.hh"
#include "trace/lifecycle.hh"
#include "workloads/scenarios.hh"

using namespace tlr;

namespace
{

TraceRecord
rec(Tick tick, TraceComp comp, TraceEvent kind, CpuId cpu, Addr addr,
    std::uint64_t a0 = 0, std::uint64_t a1 = 0, std::uint64_t a2 = 0,
    std::uint64_t a3 = 0)
{
    TraceRecord r;
    r.tick = tick;
    r.comp = comp;
    r.kind = kind;
    r.cpu = static_cast<std::int16_t>(cpu);
    r.addr = addr;
    r.a0 = a0;
    r.a1 = a1;
    r.a2 = a2;
    r.a3 = a3;
    // Stamp seq in creation order, as the sink does on emission, so
    // synthetic raw traces pass the reader's ordering check.
    static std::uint64_t nextSeq = 0;
    r.seq = nextSeq++;
    return r;
}

/** waiter deferred behind owner on line. */
TraceRecord
defer(Tick tick, CpuId owner, CpuId waiter, Addr line)
{
    return rec(tick, TraceComp::L1, TraceEvent::CohDefer, owner, line,
               waiter, static_cast<std::uint64_t>(ReqType::GetX));
}

/** owner lets waiter go on line. */
TraceRecord
service(Tick tick, CpuId owner, CpuId waiter, Addr line,
        ServiceCause cause = ServiceCause::CommitDrain)
{
    return rec(tick, TraceComp::L1, TraceEvent::CohService, owner, line,
               waiter, static_cast<std::uint64_t>(cause));
}

TraceRecord
elide(Tick tick, CpuId cpu, Addr lock, bool new_instance = true)
{
    return rec(tick, TraceComp::Spec, TraceEvent::TxnElide, cpu, lock,
               0, 0, 0, new_instance ? 1 : 0);
}

TraceRecord
commit(Tick tick, CpuId cpu)
{
    return rec(tick, TraceComp::Spec, TraceEvent::TxnCommit, cpu, 0);
}

} // namespace

// ---------------------------------------------------------------------
// TraceFilter

TEST(TraceFilter, DefaultMatchesEverything)
{
    TraceFilter f;
    EXPECT_TRUE(f.empty());
    EXPECT_TRUE(f.matches(defer(0, 1, 0, 0x40)));
    EXPECT_TRUE(f.matches(commit(999, 3)));
}

TEST(TraceFilter, RepeatedKeysOrDistinctKeysAnd)
{
    TraceFilter f;
    EXPECT_EQ(f.parse("cpu:1,cpu:3,class:Coh,tick:100-200"), "");
    EXPECT_FALSE(f.empty());

    // cpu 1, Coh class, tick in range: passes.
    EXPECT_TRUE(f.matches(defer(150, 1, 0, 0x40)));
    // cpu 3 also passes (cpu terms OR).
    EXPECT_TRUE(f.matches(defer(150, 3, 0, 0x40)));
    // cpu 2 fails the cpu term.
    EXPECT_FALSE(f.matches(defer(150, 2, 0, 0x40)));
    // Txn class fails the class term even on a listed cpu.
    EXPECT_FALSE(f.matches(elide(150, 1, 0x80)));
    // Out-of-range tick fails.
    EXPECT_FALSE(f.matches(defer(99, 1, 0, 0x40)));
    EXPECT_FALSE(f.matches(defer(201, 1, 0, 0x40)));
}

TEST(TraceFilter, KindCompAndAddrAliases)
{
    TraceFilter f;
    EXPECT_EQ(f.parse("kind:defer,kind:service"), "");
    EXPECT_TRUE(f.matches(defer(0, 1, 0, 0x40)));
    EXPECT_TRUE(f.matches(service(0, 1, 0, 0x40)));
    EXPECT_FALSE(f.matches(commit(0, 1)));

    TraceFilter g;
    EXPECT_EQ(g.parse("comp:L1,lock:0x40"), "");
    EXPECT_TRUE(g.matches(defer(0, 1, 0, 0x40)));
    EXPECT_FALSE(g.matches(defer(0, 1, 0, 0x80)));
    // "lock:", "line:" and "addr:" are the same key.
    TraceFilter h;
    EXPECT_EQ(h.parse("line:64"), "");
    EXPECT_TRUE(h.matches(defer(0, 1, 0, 0x40)));
}

TEST(TraceFilter, StackedParsesMerge)
{
    TraceFilter f;
    EXPECT_EQ(f.parse("cpu:0"), "");
    EXPECT_EQ(f.parse("cpu:2"), "");
    EXPECT_TRUE(f.matches(defer(0, 0, 1, 0x40)));
    EXPECT_TRUE(f.matches(defer(0, 2, 1, 0x40)));
    EXPECT_FALSE(f.matches(defer(0, 1, 0, 0x40)));
}

TEST(TraceFilter, RejectsMalformedTerms)
{
    TraceFilter f;
    EXPECT_NE(f.parse("bogus:3"), "");
    EXPECT_NE(f.parse("cpu:abc"), "");
    EXPECT_NE(f.parse("noseparator"), "");
    EXPECT_NE(f.parse("kind:not-an-event"), "");
    EXPECT_NE(f.parse("class:Wat"), "");
    EXPECT_NE(f.parse("tick:500"), "");
    EXPECT_NE(f.parse("tick:9-5"), "");
}

// ---------------------------------------------------------------------
// Raw binary trace file

TEST(RawTrace, HeaderAndRecordsRoundTrip)
{
    const std::string path = "test_rawtrace_roundtrip.bin";
    std::vector<TraceRecord> in;
    for (int i = 0; i < 5; ++i) {
        TraceRecord r = defer(100 + i, i % 3, (i + 1) % 3, 0x40 * i);
        r.seq = static_cast<std::uint64_t>(i);
        in.push_back(r);
    }

    {
        RawTraceWriter w;
        ASSERT_EQ(w.open(path), "");
        for (const TraceRecord &r : in)
            w.onRecord(r);
        w.finish(777);
        EXPECT_EQ(w.written(), 5u);
    }

    RawTraceReader rd;
    ASSERT_EQ(rd.open(path), "");
    EXPECT_EQ(rd.header().version, 1u);
    EXPECT_EQ(rd.header().recordSize, sizeof(TraceRecord));
    EXPECT_EQ(rd.header().recordCount, 5u);
    EXPECT_EQ(rd.header().finalTick, 777u);

    std::vector<TraceRecord> out;
    rd.forEach([&](const TraceRecord &r) { out.push_back(r); });
    ASSERT_EQ(out.size(), in.size());
    for (size_t i = 0; i < in.size(); ++i)
        EXPECT_EQ(std::memcmp(&in[i], &out[i], sizeof(TraceRecord)), 0)
            << "record " << i;
    std::remove(path.c_str());
}

TEST(RawTrace, WriterAppliesFilter)
{
    const std::string path = "test_rawtrace_filtered.bin";
    RawTraceWriter w;
    ASSERT_EQ(w.open(path), "");
    TraceFilter f;
    ASSERT_EQ(f.parse("cpu:1"), "");
    w.setFilter(f);
    w.onRecord(defer(10, 1, 0, 0x40)); // kept
    w.onRecord(defer(20, 2, 0, 0x40)); // dropped
    w.onRecord(commit(30, 1));         // kept
    w.finish(100);
    EXPECT_EQ(w.written(), 2u);

    RawTraceReader rd;
    ASSERT_EQ(rd.open(path), "");
    std::vector<std::int16_t> cpus;
    rd.forEach([&](const TraceRecord &r) { cpus.push_back(r.cpu); });
    EXPECT_EQ(cpus, (std::vector<std::int16_t>{1, 1}));
    std::remove(path.c_str());
}

TEST(RawTrace, ReaderRejectsGarbage)
{
    RawTraceReader rd;
    EXPECT_NE(rd.open("no_such_trace_file.bin"), "");

    const std::string path = "test_rawtrace_garbage.bin";
    std::FILE *fp = std::fopen(path.c_str(), "wb");
    ASSERT_NE(fp, nullptr);
    std::fputs("definitely not a trace header at all", fp);
    std::fclose(fp);
    EXPECT_NE(rd.open(path), "");
    std::remove(path.c_str());
}

namespace
{

/** Write a three-record trace (ticks 10/20/30) finishing at @p final,
 *  then append @p extra raw bytes after the writer closed. */
void
writeSmallTrace(const std::string &path, Tick final,
                const std::string &extra = "")
{
    {
        RawTraceWriter w;
        ASSERT_EQ(w.open(path), "");
        w.onRecord(defer(10, 1, 0, 0x40));
        w.onRecord(defer(20, 2, 0, 0x40));
        w.onRecord(commit(30, 1));
        w.finish(final);
    }
    std::FILE *fp = std::fopen(path.c_str(), "ab");
    ASSERT_NE(fp, nullptr);
    std::fwrite(extra.data(), 1, extra.size(), fp);
    std::fclose(fp);
}

} // namespace

TEST(RawTrace, ReaderRejectsSizeThatDisagreesWithHeader)
{
    const std::string path = "test_rawtrace_size.bin";
    RawTraceReader rd;
    writeSmallTrace(path, 100, "x"); // trailing garbage
    EXPECT_NE(rd.open(path).find("truncated or trailing data"),
              std::string::npos);

    writeSmallTrace(path, 100);
    std::FILE *fp = std::fopen(path.c_str(), "rb");
    ASSERT_NE(fp, nullptr);
    std::string bytes(sizeof(RawTraceHeader) + 2 * sizeof(TraceRecord) + 7,
                      '\0');
    ASSERT_EQ(std::fread(bytes.data(), 1, bytes.size(), fp), bytes.size());
    std::fclose(fp);
    fp = std::fopen(path.c_str(), "wb"); // cut mid-record
    ASSERT_NE(fp, nullptr);
    std::fwrite(bytes.data(), 1, bytes.size(), fp);
    std::fclose(fp);
    EXPECT_NE(rd.open(path).find("truncated or trailing data"),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(RawTrace, ReaderStopsAtRecordPastFinalTick)
{
    const std::string path = "test_rawtrace_future.bin";
    writeSmallTrace(path, 25); // the tick-30 commit lies past the end
    RawTraceReader rd;
    ASSERT_EQ(rd.open(path), "");
    std::size_t seen = 0;
    std::string err = rd.forEach([&](const TraceRecord &) { ++seen; });
    EXPECT_NE(err.find("record 2 has tick 30 past the header's "
                       "final_tick 25"),
              std::string::npos)
        << err;
    EXPECT_EQ(seen, 2u);
    TxnLifecycle lc;
    EXPECT_NE(rd.replay(lc), "");
    std::remove(path.c_str());
}

TEST(RawTrace, ReaderRejectsRecordsOutOfOrder)
{
    // A tick that goes backwards would wrap every span computed from
    // it; a seq that does not increase means records were spliced.
    const std::string path = "test_rawtrace_order.bin";
    RawTraceReader rd;
    for (bool backwardTick : {true, false}) {
        {
            RawTraceWriter w;
            ASSERT_EQ(w.open(path), "");
            TraceRecord first = defer(20, 1, 0, 0x40);
            TraceRecord second = defer(backwardTick ? 10 : 20, 2, 0, 0x40);
            if (!backwardTick)
                second.seq = first.seq;
            w.onRecord(first);
            w.onRecord(second);
            w.finish(100);
        }
        ASSERT_EQ(rd.open(path), "");
        std::size_t seen = 0;
        std::string err = rd.forEach([&](const TraceRecord &) { ++seen; });
        EXPECT_NE(err.find("record 1"), std::string::npos) << err;
        EXPECT_NE(err.find("is out of order"), std::string::npos) << err;
        EXPECT_EQ(seen, 1u);
    }
    std::remove(path.c_str());
}

TEST(RawTrace, ReplayDrivesListenerFinishWithFinalTick)
{
    // Satellite case: an instance still in flight when the run ends
    // must close at the recorded final tick on offline replay, exactly
    // as the online lifecycle tracker closes it at sink finish.
    const std::string path = "test_rawtrace_replay.bin";
    {
        RawTraceWriter w;
        ASSERT_EQ(w.open(path), "");
        w.onRecord(elide(100, 0, 0x80));
        w.finish(450); // no commit: txn is in flight at sim end
    }
    RawTraceReader rd;
    ASSERT_EQ(rd.open(path), "");
    TxnLifecycle lc;
    rd.replay(lc);
    ASSERT_EQ(lc.spans().size(), 1u);
    EXPECT_EQ(lc.spans()[0].outcome(), "unfinished");
    EXPECT_EQ(lc.spans()[0].begin, 100u);
    EXPECT_EQ(lc.spans()[0].end, 450u);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// ConflictGraphBuilder

TEST(ConflictGraph, DeferServiceMakesOneEdge)
{
    Explainer ex;
    const ConflictGraphBuilder &g = ex.graph();
    ex.onRecord(defer(100, /*owner=*/2, /*waiter=*/1, 0x40));
    ex.onRecord(service(150, 2, 1, 0x40, ServiceCause::CommitDrain));
    ex.finish(200);

    ASSERT_EQ(g.edges().size(), 1u);
    const DeferEdge &e = g.edges()[0];
    EXPECT_EQ(e.waiter, 1);
    EXPECT_EQ(e.owner, 2);
    EXPECT_EQ(e.line, 0x40u);
    EXPECT_EQ(e.span(), 50u);
    EXPECT_TRUE(e.serviced);
    EXPECT_FALSE(e.relaxed);
    EXPECT_EQ(e.cause, ServiceCause::CommitDrain);

    const auto &lc = g.lines().at(0x40);
    EXPECT_EQ(lc.defers, 1u);
    EXPECT_EQ(lc.waitTicks, 50u);
    EXPECT_EQ(lc.maxQueue, 1u);
}

TEST(ConflictGraph, UnservicedEdgeClosesAtFinish)
{
    Explainer ex;
    const ConflictGraphBuilder &g = ex.graph();
    ex.onRecord(defer(100, 2, 1, 0x40));
    ex.finish(300);
    ASSERT_EQ(g.edges().size(), 1u);
    EXPECT_FALSE(g.edges()[0].serviced);
    EXPECT_EQ(g.edges()[0].span(), 200u);
    EXPECT_EQ(g.lines().at(0x40).waitTicks, 200u);
}

TEST(ConflictGraph, RelaxedDeferFlagged)
{
    Explainer ex;
    const ConflictGraphBuilder &g = ex.graph();
    TraceRecord r = defer(10, 0, 3, 0x80);
    r.kind = TraceEvent::CohRelaxedDefer;
    ex.onRecord(r);
    ex.finish(20);
    ASSERT_EQ(g.edges().size(), 1u);
    EXPECT_TRUE(g.edges()[0].relaxed);
    EXPECT_EQ(g.lines().at(0x80).relaxedDefers, 1u);
}

TEST(ConflictGraph, DetectsTwoCpuWaitCycle)
{
    Explainer ex;
    const ConflictGraphBuilder &g = ex.graph();
    // 1 waits on 2, then 2 waits on 1: the second edge closes a cycle.
    ex.onRecord(defer(100, 2, 1, 0x40));
    EXPECT_TRUE(g.cycles().empty());
    ex.onRecord(defer(120, 1, 2, 0x80));
    ASSERT_EQ(g.cycles().size(), 1u);
    EXPECT_EQ(g.cycles()[0].tick, 120u);
    EXPECT_EQ(g.cycles()[0].cpus, (std::vector<std::int16_t>{2, 1}));
    ex.finish(200);
}

TEST(ConflictGraph, DetectsTransitiveCycleAndIgnoresChains)
{
    Explainer ex;
    const ConflictGraphBuilder &g = ex.graph();
    // 0 → 1 → 2 is a chain, no cycle yet.
    ex.onRecord(defer(10, 1, 0, 0x40));
    ex.onRecord(defer(20, 2, 1, 0x80));
    EXPECT_TRUE(g.cycles().empty());
    // 2 → 0 closes the 3-cycle.
    ex.onRecord(defer(30, 0, 2, 0xc0));
    ASSERT_EQ(g.cycles().size(), 1u);
    EXPECT_EQ(g.cycles()[0].cpus.size(), 3u);
    ex.finish(100);
}

TEST(ConflictGraph, ServiceBreaksCycleCandidacy)
{
    Explainer ex;
    const ConflictGraphBuilder &g = ex.graph();
    ex.onRecord(defer(10, 2, 1, 0x40));
    ex.onRecord(service(20, 2, 1, 0x40));
    // Edge 1→2 is closed, so 2→1 closes no cycle.
    ex.onRecord(defer(30, 1, 2, 0x80));
    EXPECT_TRUE(g.cycles().empty());
    ex.finish(100);
}

TEST(ConflictGraph, ConvoyNeedsSimultaneousWaiters)
{
    Explainer ex;
    const ConflictGraphBuilder &g = ex.graph();
    // Sequential waiters on 0x40: never more than one at a time.
    ex.onRecord(defer(10, 0, 1, 0x40));
    ex.onRecord(service(20, 0, 1, 0x40));
    ex.onRecord(defer(30, 0, 2, 0x40));
    ex.onRecord(service(40, 0, 2, 0x40));
    // Simultaneous waiters on 0x80.
    ex.onRecord(defer(50, 0, 1, 0x80));
    ex.onRecord(defer(55, 0, 2, 0x80));
    ex.onRecord(defer(60, 0, 3, 0x80));
    ex.finish(100);

    EXPECT_EQ(g.lines().at(0x40).maxQueue, 1u);
    EXPECT_EQ(g.lines().at(0x80).maxQueue, 3u);
    EXPECT_EQ(g.convoyLines(2), (std::vector<Addr>{0x80}));
    EXPECT_EQ(g.convoyLines(4), (std::vector<Addr>{}));
}

TEST(ConflictGraph, RestartEdgeCarriesWinnerFromPackedMeta)
{
    // A bare TxnRestart makes an edge that carries its winner, as does
    // one whose instance's elide is in the stream: a filtered trace may
    // have dropped that elide, and the graph counts the record alone.
    for (bool opened : {false, true}) {
        SCOPED_TRACE(opened ? "instances opened" : "bare restarts");
        Explainer ex;
        const ConflictGraphBuilder &g = ex.graph();
        Timestamp winner = Timestamp::make(9, 5); // clock 9, cpu 5
        if (opened) {
            ex.onRecord(elide(30, 3, 0x80));
            ex.onRecord(elide(30, 2, 0x80));
        }
        ex.onRecord(rec(40, TraceComp::Spec, TraceEvent::TxnRestart, 3,
                       0x40, /*reason=*/0, 0, /*ended=*/0,
                       packTsMeta(winner)));
        // No contender noted: winner stays -1.
        ex.onRecord(rec(60, TraceComp::Spec, TraceEvent::TxnRestart, 2, 0,
                       /*reason=*/1, 0, 0, packTsMeta(Timestamp{})));
        ex.finish(100);

        ASSERT_EQ(g.restartEdges().size(), 2u);
        EXPECT_EQ(g.restartEdges()[0].loser, 3);
        EXPECT_EQ(g.restartEdges()[0].winner, 5);
        EXPECT_EQ(g.restartEdges()[0].line, 0x40u);
        EXPECT_EQ(g.restartEdges()[1].winner, -1);
        EXPECT_EQ(g.lines().at(0x40).restarts, 1u);
        // Only an open instance takes the restart on itself.
        const auto &inst = ex.paths().instances();
        ASSERT_EQ(inst.size(), opened ? 2u : 0u);
        for (const TxnInstance &t : inst) {
            EXPECT_EQ(t.restarts, 1u);
            EXPECT_EQ(t.lastRestartWinner, t.cpu == 3 ? 5 : -1);
        }
    }
}

// ---------------------------------------------------------------------
// CriticalPathAccountant

TEST(CriticalPath, DecomposesExactTicks)
{
    Explainer ex;
    const CriticalPathAccountant &a = ex.paths();
    // cpu0: [100, 200] with a 20-tick miss and a 40-tick deferral.
    ex.onRecord(elide(100, 0, 0x80));
    ex.onRecord(rec(110, TraceComp::L1, TraceEvent::CohMiss, 0, 0x1c0,
                   static_cast<std::uint64_t>(ReqType::GetX)));
    ex.onRecord(rec(130, TraceComp::L1, TraceEvent::LineInstall, 0,
                   0x1c0));
    ex.onRecord(defer(140, /*owner=*/1, /*waiter=*/0, 0x200));
    ex.onRecord(service(180, 1, 0, 0x200));
    ex.onRecord(commit(200, 0));
    ex.finish(300);

    ASSERT_EQ(a.instances().size(), 1u);
    const TxnInstance &t = a.instances()[0];
    EXPECT_EQ(t.serial, 0u);
    EXPECT_EQ(t.cpu, 0);
    EXPECT_EQ(t.lock, 0x80u);
    EXPECT_EQ(t.outcome(), "commit");
    EXPECT_EQ(t.total(), 100u);
    EXPECT_EQ(t.missTicks, 20u);
    EXPECT_EQ(t.deferTicks, 40u);
    EXPECT_EQ(t.redoTicks, 0u);
    EXPECT_EQ(t.execTicks, 40u);
    EXPECT_EQ(t.execTicks + t.deferTicks + t.missTicks + t.redoTicks,
              t.total());
    EXPECT_EQ(t.longestDeferSpan, 40u);
    EXPECT_EQ(t.longestDeferOwner, 1);
    EXPECT_EQ(t.longestDeferLine, 0x200u);
    EXPECT_EQ(t.longestDeferTick, 140u);
    EXPECT_EQ(t.name(), "T0@cpu0");
}

TEST(CriticalPath, RestartTurnsPrefixIntoRedo)
{
    Explainer ex;
    const CriticalPathAccountant &a = ex.paths();
    ex.onRecord(elide(0, 0, 0x80));
    ex.onRecord(rec(50, TraceComp::Spec, TraceEvent::TxnRestart, 0, 0x40,
                   0, 0, /*ended=*/0, packTsMeta(Timestamp::make(1, 2))));
    ex.onRecord(commit(100, 0));
    ex.finish(200);

    ASSERT_EQ(a.instances().size(), 1u);
    const TxnInstance &t = a.instances()[0];
    EXPECT_EQ(t.restarts, 1u);
    EXPECT_EQ(t.redoTicks, 50u);
    EXPECT_EQ(t.execTicks, 50u);
    EXPECT_EQ(t.lastRestartWinner, 2);
    EXPECT_EQ(t.delay(), 50u);
}

TEST(CriticalPath, DeferWinsClassificationPriority)
{
    // A deferral overlapping both a miss and the pre-restart window
    // must be charged to defer, not double-counted.
    Explainer ex;
    const CriticalPathAccountant &a = ex.paths();
    ex.onRecord(elide(0, 0, 0x80));
    ex.onRecord(rec(10, TraceComp::L1, TraceEvent::CohMiss, 0, 0x1c0,
                   static_cast<std::uint64_t>(ReqType::GetX)));
    ex.onRecord(defer(10, 1, 0, 0x1c0));
    ex.onRecord(service(40, 1, 0, 0x1c0));
    ex.onRecord(rec(40, TraceComp::L1, TraceEvent::LineInstall, 0,
                   0x1c0));
    ex.onRecord(rec(60, TraceComp::Spec, TraceEvent::TxnRestart, 0, 0,
                   0, 0, 0, 0));
    ex.onRecord(commit(100, 0));
    ex.finish(200);

    ASSERT_EQ(a.instances().size(), 1u);
    const TxnInstance &t = a.instances()[0];
    EXPECT_EQ(t.deferTicks, 30u); // [10,40] all defer, not miss
    EXPECT_EQ(t.missTicks, 0u);
    EXPECT_EQ(t.redoTicks, 30u); // [0,10] + [40,60] before restart
    EXPECT_EQ(t.execTicks, 40u); // [60,100]
}

TEST(CriticalPath, FallbackAndUnfinishedOutcomes)
{
    Explainer ex;
    const CriticalPathAccountant &a = ex.paths();
    ex.onRecord(elide(0, 0, 0x80));
    ex.onRecord(rec(50, TraceComp::Spec, TraceEvent::TxnRestart, 0, 0,
                   /*reason=*/0, 0, /*ended=*/1, 0));
    ex.onRecord(elide(60, 1, 0x80));
    ex.finish(200);

    ASSERT_EQ(a.instances().size(), 2u);
    EXPECT_EQ(a.instances()[0].outcome().rfind("fallback:", 0), 0u);
    EXPECT_EQ(a.instances()[0].end, 50u);
    EXPECT_EQ(a.instances()[1].outcome(), "unfinished");
    EXPECT_EQ(a.instances()[1].end, 200u);
}

TEST(CriticalPath, InstanceCloseChargesOpenWaitsOnce)
{
    // A wait still open when its instance closes is charged up to the
    // close and not again at its later service. A wait opened at the
    // close tick, after the close record, belongs to the next instance.
    Explainer ex;
    const CriticalPathAccountant &a = ex.paths();
    ex.onRecord(elide(100, 0, 0x80));
    ex.onRecord(defer(110, /*owner=*/1, /*waiter=*/0, 0x40));
    ex.onRecord(commit(150, 0));
    ex.onRecord(elide(150, 0, 0x80));
    ex.onRecord(defer(150, 1, 0, 0x200));
    ex.onRecord(service(180, 1, 0, 0x40));
    ex.onRecord(service(190, 1, 0, 0x200));
    ex.onRecord(commit(200, 0));
    ex.finish(300);

    ASSERT_EQ(a.instances().size(), 2u);
    EXPECT_EQ(a.instances()[0].deferTicks, 40u);
    EXPECT_EQ(a.instances()[1].deferTicks, 40u);
    EXPECT_EQ(a.instances()[1].longestDeferLine, 0x200u);
    EXPECT_EQ(a.instances()[1].longestDeferTick, 150u);
}

TEST(CriticalPath, InstanceAtFindsHolder)
{
    Explainer ex;
    const CriticalPathAccountant &a = ex.paths();
    ex.onRecord(elide(100, 0, 0x80));
    ex.onRecord(commit(200, 0));
    ex.onRecord(elide(300, 0, 0x80));
    ex.onRecord(commit(400, 0));
    ex.finish(500);

    ASSERT_EQ(a.instances().size(), 2u);
    EXPECT_EQ(a.instanceAt(0, 150)->serial, 0u);
    EXPECT_EQ(a.instanceAt(0, 200)->serial, 0u);
    EXPECT_EQ(a.instanceAt(0, 350)->serial, 1u);
    EXPECT_EQ(a.instanceAt(0, 250), nullptr); // between instances
    EXPECT_EQ(a.instanceAt(0, 50), nullptr);  // before the first
    EXPECT_EQ(a.instanceAt(7, 150), nullptr); // unknown cpu
}

// ---------------------------------------------------------------------
// Explainer facade

TEST(Explainer, ChainFollowsLongestDeferToOwnerInstance)
{
    Explainer ex;
    // cpu1 holds [0,100]; cpu0's txn defers behind it [20,80].
    ex.onRecord(elide(0, 1, 0x80));
    ex.onRecord(elide(10, 0, 0x80));
    ex.onRecord(defer(20, 1, 0, 0x40));
    ex.onRecord(service(80, 1, 0, 0x40));
    ex.onRecord(commit(100, 1));
    ex.onRecord(commit(120, 0));
    ex.finish(200);

    const auto &inst = ex.paths().instances();
    ASSERT_EQ(inst.size(), 2u);
    // instances_ is close-ordered: [0]=cpu1's txn, [1]=cpu0's.
    std::vector<ChainLink> chain = ex.chainFor(inst[1]);
    ASSERT_EQ(chain.size(), 1u);
    EXPECT_EQ(chain[0].waiter, "T1@cpu0");
    EXPECT_EQ(chain[0].owner, "T0@cpu1");
    EXPECT_EQ(chain[0].ownerCpu, 1);
    EXPECT_EQ(chain[0].line, 0x40u);
    EXPECT_EQ(chain[0].waitTicks, 60u);
    EXPECT_EQ(ex.maxChainDepth(), 1u);
}

TEST(Explainer, TransitiveChainReachesDepthTwo)
{
    Explainer ex;
    // cpu2 holds the lock; cpu1 defers behind cpu2; cpu0 defers
    // behind cpu1 — the classic transitive convoy.
    ex.onRecord(elide(0, 2, 0x80));
    ex.onRecord(elide(5, 1, 0x80));
    ex.onRecord(elide(10, 0, 0x80));
    ex.onRecord(defer(20, 2, 1, 0x40)); // 1 waits on 2
    ex.onRecord(defer(30, 1, 0, 0xc0)); // 0 waits on 1
    ex.onRecord(service(90, 2, 1, 0x40));
    ex.onRecord(commit(100, 2));
    ex.onRecord(service(110, 1, 0, 0xc0));
    ex.onRecord(commit(120, 1));
    ex.onRecord(commit(140, 0));
    ex.finish(200);

    EXPECT_GE(ex.maxChainDepth(), 2u);
    const std::string report = ex.report(ExplainMode::Txn);
    EXPECT_NE(report.find("causal conflict explainer"),
              std::string::npos);
    EXPECT_NE(report.find("chain depth"), std::string::npos);
}

TEST(Explainer, ChainStopsOnCycleInsteadOfLooping)
{
    Explainer ex;
    // Mutual wait: 0 behind 1 and 1 behind 0, overlapping instances.
    ex.onRecord(elide(0, 0, 0x80));
    ex.onRecord(elide(0, 1, 0x80));
    ex.onRecord(defer(10, 1, 0, 0x40));
    ex.onRecord(defer(20, 0, 1, 0xc0));
    ex.onRecord(commit(100, 0));
    ex.onRecord(commit(100, 1));
    ex.finish(100);

    for (const TxnInstance &t : ex.paths().instances()) {
        std::vector<ChainLink> chain = ex.chainFor(t);
        EXPECT_LE(chain.size(), 8u); // bounded, no infinite walk
    }
    EXPECT_EQ(ex.graph().cycles().size(), 1u);
}

TEST(Explainer, RendersAllModesDotAndJson)
{
    Explainer ex;
    ex.onRecord(elide(0, 1, 0x80));
    ex.onRecord(elide(5, 0, 0x80));
    ex.onRecord(defer(10, 1, 0, 0x40));
    ex.onRecord(service(50, 1, 0, 0x40));
    ex.onRecord(commit(60, 1));
    ex.onRecord(commit(80, 0));
    ex.finish(100);

    const std::string txn = ex.report(ExplainMode::Txn);
    EXPECT_NE(txn.find("T1@cpu0"), std::string::npos);
    const std::string lock = ex.report(ExplainMode::Lock);
    EXPECT_NE(lock.find("0x40"), std::string::npos);
    const std::string cpu = ex.report(ExplainMode::Cpu);
    EXPECT_NE(cpu.find("cpu0"), std::string::npos);

    const std::string dot = ex.dot();
    EXPECT_EQ(dot.rfind("digraph", 0), 0u);
    EXPECT_NE(dot.find("->"), std::string::npos);

    const std::string json = ex.json();
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_NE(json.find("\"defer_edges\""), std::string::npos);

    const std::vector<FlowArrow> flows = ex.flowArrows();
    ASSERT_EQ(flows.size(), 1u);
    EXPECT_EQ(flows[0].fromCpu, 1);
    EXPECT_EQ(flows[0].toCpu, 0);
    EXPECT_EQ(flows[0].fromTick, 10u);
    EXPECT_EQ(flows[0].toTick, 50u);
}

// ---------------------------------------------------------------------
// Full system: online explain == offline replay (the tlrquery path)

TEST(ExplainSystem, OfflineReplayReproducesOnlineReport)
{
    const std::string path = "test_explain_system.bin";

    MachineParams mp;
    mp.numCpus = 4;
    mp.spec = schemeSpecConfig(Scheme::BaseSleTlr);
    mp.explain = true;

    System sys(mp);
    RawTraceWriter writer;
    ASSERT_EQ(writer.open(path), "");
    sys.addTraceListener(&writer);
    installWorkload(sys, makeReverseWriters(4, 256));
    ASSERT_TRUE(sys.run());

    ASSERT_NE(sys.explainer(), nullptr);
    const std::string online = sys.explainer()->report(ExplainMode::Txn);
    EXPECT_NE(online.find("causal conflict explainer"),
              std::string::npos);
    // The conflict-heavy Figures 2/4 workload exhibits transitive
    // blocking: somebody's wait chain is at least two hops deep.
    EXPECT_GE(sys.explainer()->maxChainDepth(), 2u);

    RawTraceReader rd;
    ASSERT_EQ(rd.open(path), "");
    EXPECT_GT(rd.header().recordCount, 0u);
    Explainer offline;
    rd.replay(offline);
    EXPECT_EQ(offline.report(ExplainMode::Txn), online);
    EXPECT_EQ(offline.report(ExplainMode::Lock),
              sys.explainer()->report(ExplainMode::Lock));
    EXPECT_EQ(offline.report(ExplainMode::Cpu),
              sys.explainer()->report(ExplainMode::Cpu));
    EXPECT_EQ(offline.json(), sys.explainer()->json());
    std::remove(path.c_str());
}

TEST(ExplainSystem, ExplainOffAddsNoListeners)
{
    MachineParams mp;
    mp.numCpus = 4;
    mp.spec = schemeSpecConfig(Scheme::BaseSleTlr);

    System sys(mp);
    EXPECT_EQ(sys.explainer(), nullptr);
    installWorkload(sys, makeReverseWriters(4, 16));
    ASSERT_TRUE(sys.run());
    // No explain, no other consumer: the sink never armed.
    EXPECT_EQ(sys.traceSink().emitted(), 0u);
}
