/**
 * @file
 * Unit tests for WaitState, the one wait-for model behind the metrics
 * collector, the explainer and the epoch timeline: deferral spans,
 * re-defer semantics, per-line queues, the cycle query's path order
 * and the capped, cycle-guarded chain walk. Then an agreement check:
 * on real runs the three observers must report the same waits.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "explain/explain.hh"
#include "harness/scheme.hh"
#include "harness/system.hh"
#include "metrics/collector.hh"
#include "timeline/timeline.hh"
#include "trace/wait_state.hh"
#include "workloads/registry.hh"

using namespace tlr;

namespace
{

TraceRecord
rec(Tick tick, TraceEvent kind, CpuId cpu, Addr addr, std::uint64_t a0,
    std::uint64_t a1 = 0)
{
    TraceRecord r;
    r.tick = tick;
    r.comp = kind == TraceEvent::TxnElide || kind == TraceEvent::TxnCommit
                 ? TraceComp::Spec
                 : TraceComp::L1;
    r.kind = kind;
    r.cpu = static_cast<std::int16_t>(cpu);
    r.addr = addr;
    r.a0 = a0;
    r.a1 = a1;
    static std::uint64_t nextSeq = 0;
    r.seq = nextSeq++;
    return r;
}

/** waiter deferred behind owner on line. */
TraceRecord
defer(Tick tick, CpuId owner, CpuId waiter, Addr line)
{
    return rec(tick, TraceEvent::CohDefer, owner, line,
               static_cast<std::uint64_t>(waiter));
}

/** owner lets waiter go on line. */
TraceRecord
service(Tick tick, CpuId owner, CpuId waiter, Addr line)
{
    return rec(tick, TraceEvent::CohService, owner, line,
               static_cast<std::uint64_t>(waiter),
               static_cast<std::uint64_t>(ServiceCause::CommitDrain));
}

} // namespace

TEST(WaitState, OpenAndServiceGiveTheSpan)
{
    WaitState ws;
    const Wait *w = ws.defer(defer(100, /*owner=*/2, /*waiter=*/1, 0x40));
    ASSERT_NE(w, nullptr);
    EXPECT_EQ(w->ordinal, 0u);
    EXPECT_EQ(ws.opened(), 1u);
    EXPECT_EQ(ws.open().size(), 1u);

    const Wait *closed = ws.service(service(150, 2, 1, 0x40));
    ASSERT_NE(closed, nullptr);
    EXPECT_EQ(closed->line, 0x40u);
    EXPECT_EQ(closed->waiter, 1);
    EXPECT_EQ(closed->owner, 2);
    EXPECT_EQ(closed->start, 100u);
    EXPECT_FALSE(closed->relaxed);
    EXPECT_EQ(ws.lastClosed(), closed);
    EXPECT_TRUE(ws.open().empty());
    EXPECT_TRUE(ws.queues().empty());

    // A chain service with no open deferral is ignored.
    EXPECT_EQ(ws.service(service(160, 2, 3, 0x80)), nullptr);
    EXPECT_EQ(ws.lastClosed(), nullptr);

    TraceRecord relaxed = defer(170, 0, 3, 0x80);
    relaxed.kind = TraceEvent::CohRelaxedDefer;
    ASSERT_NE(ws.defer(relaxed), nullptr);
    EXPECT_TRUE(ws.open().begin()->second.relaxed);
    EXPECT_EQ(ws.open().begin()->second.ordinal, 1u);
}

TEST(WaitState, RedeferKeepsFirstTickAndOwner)
{
    WaitState ws;
    ASSERT_NE(ws.defer(defer(100, 2, 1, 0x40)), nullptr);
    EXPECT_EQ(ws.defer(defer(130, 3, 1, 0x40)), nullptr);
    EXPECT_EQ(ws.opened(), 1u);
    EXPECT_EQ(ws.queues().at(0x40), 1u);
    const Wait *closed = ws.service(service(150, 3, 1, 0x40));
    ASSERT_NE(closed, nullptr);
    EXPECT_EQ(closed->start, 100u);
    EXPECT_EQ(closed->owner, 2);

    // Every observer built on the model inherits the same answer.
    TraceRecord elide = rec(90, TraceEvent::TxnElide, 1, 0x80, 0);
    elide.a3 = 1; // a new instance
    const std::vector<TraceRecord> stream = {
        elide, defer(100, 2, 1, 0x40), defer(130, 3, 1, 0x40),
        service(150, 3, 1, 0x40), rec(200, TraceEvent::TxnCommit, 1, 0, 0)};
    Explainer ex;
    MetricsCollector mc;
    EpochTimeline tl(1000);
    for (const TraceRecord &r : stream) {
        ex.onRecord(r);
        mc.onRecord(r);
        tl.onRecord(r);
    }
    ex.finish(300);
    mc.finish(300);
    tl.finish(300);

    ASSERT_EQ(ex.graph().edges().size(), 1u);
    EXPECT_EQ(ex.graph().edges()[0].start, 100u);
    EXPECT_EQ(ex.graph().edges()[0].owner, 2);
    EXPECT_EQ(ex.graph().edges()[0].span(), 50u);
    EXPECT_EQ(ex.graph().lines().at(0x40).defers, 2u);
    ASSERT_EQ(ex.paths().instances().size(), 1u);
    const TxnInstance &t = ex.paths().instances()[0];
    EXPECT_EQ(t.deferTicks, 50u);
    EXPECT_EQ(t.longestDeferOwner, 2);
    EXPECT_EQ(t.longestDeferTick, 100u);
    EXPECT_EQ(mc.snapshot().deferWait.count(), 1u);
    EXPECT_EQ(mc.snapshot().deferWait.sum(), 50u);
    ASSERT_EQ(tl.epochs().size(), 1u);
    EXPECT_EQ(tl.epochs()[0].deferWaitSum, 50u);
    EXPECT_EQ(tl.epochs()[0].maxQueue, 1u);
}

TEST(WaitState, QueueCountsLiveWaitersPerLine)
{
    Explainer ex;
    ex.onRecord(defer(10, 0, 1, 0x80));
    ex.onRecord(defer(20, 0, 2, 0x80));
    ex.onRecord(defer(25, 0, 1, 0x40));
    ex.onRecord(service(30, 0, 1, 0x80));
    ex.onRecord(defer(40, 0, 3, 0x80));
    ex.onRecord(defer(50, 0, 4, 0x80));
    EXPECT_EQ(ex.graph().lines().at(0x80).maxQueue, 3u);
    EXPECT_EQ(ex.graph().lines().at(0x40).maxQueue, 1u);

    WaitState ws;
    ws.defer(defer(10, 0, 1, 0x80));
    ws.defer(defer(20, 0, 2, 0x80));
    EXPECT_EQ(ws.queues().at(0x80), 2u);
    ws.service(service(30, 0, 1, 0x80));
    EXPECT_EQ(ws.queues().at(0x80), 1u);
    ws.service(service(40, 0, 2, 0x80));
    EXPECT_EQ(ws.queues().count(0x80), 0u); // drained lines drop out
}

TEST(WaitState, CyclePathsComeBackInMapOrder)
{
    {
        // The ConflictGraph.DetectsTwoCpuWaitCycle case.
        WaitState ws;
        EXPECT_TRUE(ws.cycleThrough(*ws.defer(defer(100, 2, 1, 0x40)))
                        .empty());
        EXPECT_EQ(ws.cycleThrough(*ws.defer(defer(120, 1, 2, 0x80))),
                  (std::vector<std::int16_t>{2, 1}));
    }
    {
        // The ConflictGraph.DetectsTransitiveCycleAndIgnoresChains case.
        WaitState ws;
        EXPECT_TRUE(ws.cycleThrough(*ws.defer(defer(10, 1, 0, 0x40)))
                        .empty());
        EXPECT_TRUE(ws.cycleThrough(*ws.defer(defer(20, 2, 1, 0x80)))
                        .empty());
        EXPECT_EQ(ws.cycleThrough(*ws.defer(defer(30, 0, 2, 0xc0))),
                  (std::vector<std::int16_t>{2, 0, 1}));
    }
    // Two ways back to cpu0: 1→3→0 and 1→2→0. The depth-first search
    // takes cpu1's wait on the lower line first.
    for (bool threeFirst : {true, false}) {
        WaitState ws;
        ws.defer(defer(10, 0, 3, 0x40));
        ws.defer(defer(20, threeFirst ? 3 : 2, 1, 0x80));
        ws.defer(defer(30, threeFirst ? 2 : 3, 1, 0xc0));
        ws.defer(defer(40, 0, 2, 0x100));
        std::int16_t via = threeFirst ? 3 : 2;
        EXPECT_EQ(ws.cycleThrough(*ws.defer(defer(50, 1, 0, 0x140))),
                  (std::vector<std::int16_t>{0, 1, via}));
    }
}

TEST(WaitState, ChainWalkStopsAtHopCapAndOnCycle)
{
    WaitState ws;
    // cpu i waits on cpu i+1, ten deep.
    for (int i = 0; i < 10; ++i)
        ws.defer(defer(10 + i, i + 1, i, 0x40 * (i + 1)));
    std::vector<const Wait *> chain = ws.chainFrom(0x40);
    ASSERT_EQ(chain.size(), maxChainHops);
    for (unsigned i = 0; i < maxChainHops; ++i)
        EXPECT_EQ(chain[i]->waiter, static_cast<std::int16_t>(i));

    WaitState cyc;
    cyc.defer(defer(10, 1, 0, 0x40));
    cyc.defer(defer(20, 2, 1, 0x80));
    cyc.defer(defer(30, 0, 2, 0xc0));
    // A later waiter on 0x40 loses to the longest-waiting one.
    cyc.defer(defer(40, 1, 5, 0x40));
    chain = cyc.chainFrom(0x40);
    ASSERT_EQ(chain.size(), 3u);
    EXPECT_EQ(chain[0]->waiter, 0);
    EXPECT_EQ(chain[1]->waiter, 1);
    EXPECT_EQ(chain[2]->waiter, 2);
    EXPECT_TRUE(cyc.chainFrom(0x1000).empty());
}

TEST(WaitState, WalkChainCapsAndGuardsAnyNodeType)
{
    // A self-loop stops after one hop; a long list stops at the cap.
    struct Node
    {
        int id;
        const Node *next;
    };
    const Node loop{0, &loop};
    unsigned hops = 0;
    walkChain(&loop, [](const Node *n) { return n->id; },
              [&](const Node *n) { ++hops; return n->next; });
    EXPECT_EQ(hops, 1u);

    std::vector<Node> list(20);
    for (int i = 0; i < 20; ++i)
        list[i] = {i, i + 1 < 20 ? &list[i + 1] : nullptr};
    hops = 0;
    walkChain(&list[0], [](const Node *n) { return n->id; },
              [&](const Node *n) { ++hops; return n->next; });
    EXPECT_EQ(hops, maxChainHops);
}

// ---------------------------------------------------------------------
// Observer agreement: the metrics collector, the timeline and the
// explain graph each own a WaitState fed by the same stream, so their
// wait counts, wait sums and queue high-water marks must agree.

TEST(ObserverAgreement, MetricsTimelineAndGraphSeeTheSameWaits)
{
    const char *workloads[] = {"reverse-writers", "rotated-blocks",
                               "ycsb-a",          "partition",
                               "bank",            "dlist"};
    const Scheme schemes[] = {Scheme::BaseSle, Scheme::BaseSleTlr,
                              Scheme::TlrStrictTs};
    unsigned withWaits = 0;
    for (const char *name : workloads) {
        for (Scheme scheme : schemes) {
            for (Protocol protocol :
                 {Protocol::Broadcast, Protocol::Directory}) {
                SCOPED_TRACE(std::string(name) + "/" +
                             schemeName(scheme) + "/" +
                             (protocol == Protocol::Directory
                                  ? "directory"
                                  : "broadcast"));
                WorkloadParams wp;
                wp.numCpus = 8;
                wp.ops = 256;
                wp.seed = 1;
                wp.lockKind = schemeLockKind(scheme);
                MachineParams mp;
                mp.numCpus = 8;
                mp.protocol = protocol;
                mp.spec = schemeSpecConfig(scheme);
                mp.seed = 1;
                mp.collectMetrics = true;
                mp.explain = true;
                mp.timelineEpoch = 1000;
                System sys(mp);
                installWorkload(sys, makeRegisteredWorkload(name, wp));
                ASSERT_TRUE(sys.run());

                const Histogram &mw = sys.metrics()->snapshot().deferWait;
                std::uint64_t tlCount = 0, tlSum = 0, tlQueue = 0;
                for (const EpochRow &e : sys.timeline()->epochs()) {
                    tlCount += e.deferWaitCount;
                    tlSum += e.deferWaitSum;
                    tlQueue = std::max(tlQueue, e.maxQueue);
                }
                const ConflictGraphBuilder &g = sys.explainer()->graph();
                std::uint64_t gCount = 0, gSum = 0, gQueue = 0;
                for (const DeferEdge &e : g.edges())
                    gCount += e.serviced ? 1 : 0;
                for (const auto &[line, lc] : g.lines()) {
                    gSum += lc.waitTicks;
                    gQueue = std::max<std::uint64_t>(gQueue, lc.maxQueue);
                }
                EXPECT_EQ(mw.count(), tlCount);
                EXPECT_EQ(mw.count(), gCount);
                EXPECT_EQ(mw.sum(), tlSum);
                EXPECT_EQ(mw.sum(), gSum);
                EXPECT_EQ(tlQueue, gQueue);
                withWaits += mw.count() > 0 ? 1 : 0;
            }
        }
    }
    // The matrix is deferral-heavy: most configs must exercise it.
    EXPECT_GE(withWaits, 24u);
}
