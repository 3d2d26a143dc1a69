/**
 * @file
 * Unit tests for TxnState, the one transaction-instance model behind
 * the lifecycle exporter, the metrics collector and the explainer:
 * each boundary rule on its own. Then an agreement check: on real
 * runs the three observers must see the same instances.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "explain/explain.hh"
#include "harness/scheme.hh"
#include "harness/system.hh"
#include "metrics/collector.hh"
#include "trace/lifecycle.hh"
#include "trace/txn_state.hh"
#include "workloads/registry.hh"

using namespace tlr;

namespace
{

TraceRecord
rec(Tick tick, TraceEvent kind, CpuId cpu, Addr addr = 0,
    std::uint64_t a0 = 0, std::uint64_t a1 = 0, std::uint64_t a2 = 0,
    std::uint64_t a3 = 0)
{
    TraceRecord r;
    r.tick = tick;
    r.comp = TraceComp::Spec;
    r.kind = kind;
    r.cpu = static_cast<std::int16_t>(cpu);
    r.addr = addr;
    r.a0 = a0;
    r.a1 = a1;
    r.a2 = a2;
    r.a3 = a3;
    return r;
}

TraceRecord
elide(Tick tick, CpuId cpu, bool newInstance = true,
      Timestamp ts = Timestamp{})
{
    return rec(tick, TraceEvent::TxnElide, cpu, 0x80, 0, ts.clock,
               packTsMeta(ts), newInstance ? 1 : 0);
}

TraceRecord
restart(Tick tick, CpuId cpu, AbortReason reason, bool fallback,
        Timestamp winner = Timestamp{})
{
    return rec(tick, TraceEvent::TxnRestart, cpu, 0x40,
               static_cast<std::uint64_t>(reason), 0, fallback ? 1 : 0,
               packTsMeta(winner));
}

} // namespace

TEST(TxnState, DanglingElideClosesUnfinished)
{
    TxnState ts;
    ts.onRecord(elide(10, 0));
    ASSERT_NE(ts.opened(), nullptr);
    EXPECT_EQ(ts.opened()->serial, 0u);
    EXPECT_EQ(ts.closed(), nullptr);

    // A second new-instance elide: the first never reported an outcome.
    ts.onRecord(elide(30, 0));
    ASSERT_NE(ts.closed(), nullptr);
    EXPECT_EQ(ts.closed()->serial, 0u);
    EXPECT_EQ(ts.closed()->ended, TxnEnd::Unfinished);
    EXPECT_EQ(ts.closed()->outcome(), "unfinished");
    EXPECT_EQ(ts.closed()->begin, 10u);
    EXPECT_EQ(ts.closed()->end, 30u);
    ASSERT_NE(ts.opened(), nullptr);
    EXPECT_EQ(ts.opened()->serial, 1u);
    EXPECT_EQ(ts.open(0), ts.opened());

    // The accessors describe the last record only.
    ts.onRecord(rec(31, TraceEvent::CohMiss, 0, 0x40));
    EXPECT_EQ(ts.opened(), nullptr);
    EXPECT_EQ(ts.closed(), nullptr);
    EXPECT_NE(ts.open(0), nullptr);
}

TEST(TxnState, ReElideContinuesTheInstance)
{
    TxnState ts;
    const Timestamp stamp = Timestamp::make(7, 0);
    ts.onRecord(elide(10, 0, true, stamp));
    ts.onRecord(rec(15, TraceEvent::TxnNest, 0, 0x80));
    ts.onRecord(rec(18, TraceEvent::TxnCommitStart, 0));
    ts.onRecord(restart(20, 0, AbortReason::ConflictLost, false,
                        Timestamp::make(3, 2)));
    ASSERT_NE(ts.restarted(), nullptr);
    EXPECT_EQ(ts.restarted(), ts.open(0));
    EXPECT_EQ(ts.closed(), nullptr);

    ts.onRecord(elide(25, 0, /*newInstance=*/false));
    EXPECT_EQ(ts.opened(), nullptr);
    EXPECT_EQ(ts.closed(), nullptr);
    const Txn *t = ts.open(0);
    ASSERT_NE(t, nullptr);
    EXPECT_EQ(t->serial, 0u);
    EXPECT_EQ(t->begin, 10u);
    EXPECT_EQ(t->ts.clock, 7u); // the timestamp survives the restart
    EXPECT_TRUE(t->ts.valid);
    EXPECT_EQ(t->restarts, 1u);
    EXPECT_EQ(t->nests, 1u);
    EXPECT_EQ(t->lastRestart, 20u);
    EXPECT_EQ(t->lastRestartWinner, 2);
    EXPECT_FALSE(t->inCommit); // a restart cancels a commit start

    ts.onRecord(rec(40, TraceEvent::TxnCommitStart, 0));
    ts.onRecord(rec(50, TraceEvent::TxnCommit, 0));
    ASSERT_NE(ts.closed(), nullptr);
    EXPECT_EQ(ts.closed()->outcome(), "commit");
    EXPECT_TRUE(ts.closed()->inCommit);
    EXPECT_EQ(ts.closed()->commitStart, 40u);
    EXPECT_EQ(ts.open(0), nullptr);
}

TEST(TxnState, FallbackCountsItsRestart)
{
    TxnState ts;
    ts.onRecord(elide(10, 1));
    ts.onRecord(restart(20, 1, AbortReason::ConflictLost, false));
    ts.onRecord(restart(30, 1, AbortReason::ResourceWriteBuffer, true));
    const Txn *t = ts.closed();
    ASSERT_NE(t, nullptr);
    EXPECT_EQ(ts.restarted(), t);
    EXPECT_EQ(t->restarts, 2u);
    EXPECT_EQ(t->lastRestartWinner, -1);
    EXPECT_EQ(t->ended, TxnEnd::Fallback);
    EXPECT_EQ(t->outcome(),
              std::string("fallback:") +
                  abortReasonName(AbortReason::ResourceWriteBuffer));
    EXPECT_EQ(t->end, 30u);
    EXPECT_EQ(ts.open(1), nullptr);

    // A restart with no open instance counts nowhere.
    ts.onRecord(restart(40, 1, AbortReason::ConflictLost, false));
    EXPECT_EQ(ts.restarted(), nullptr);
    EXPECT_EQ(ts.closed(), nullptr);
}

TEST(TxnState, QuantumEndAndFinishClose)
{
    TxnState ts;
    ts.onRecord(elide(10, 2));
    ts.onRecord(elide(12, 0));
    ts.onRecord(elide(14, 1));
    ts.onRecord(rec(20, TraceEvent::TxnQuantumEnd, 0));
    ASSERT_NE(ts.closed(), nullptr);
    EXPECT_EQ(ts.closed()->outcome(), "quantum-end");
    EXPECT_EQ(ts.closed()->cpu, 0);

    // Nothing open on cpu0 now: its commit closes nothing.
    ts.onRecord(rec(25, TraceEvent::TxnCommit, 0));
    EXPECT_EQ(ts.closed(), nullptr);

    // finish() closes the rest in cpu order, never before begin.
    std::vector<Txn> left = ts.finish(12);
    ASSERT_EQ(left.size(), 2u);
    EXPECT_EQ(left[0].cpu, 1);
    EXPECT_EQ(left[0].end, 14u);
    EXPECT_EQ(left[1].cpu, 2);
    EXPECT_EQ(left[1].end, 12u);
    EXPECT_EQ(left[1].outcome(), "unfinished");
    EXPECT_EQ(ts.open(1), nullptr);
    EXPECT_EQ(ts.open(2), nullptr);
    EXPECT_TRUE(ts.finish(100).empty());
}

// ---------------------------------------------------------------------
// Observer agreement: the lifecycle exporter, the metrics collector
// and the explainer each own a TxnState fed by the same stream, so
// they must see the same instances with the same restarts.

TEST(ObserverAgreement, LifecycleMetricsAndExplainSeeTheSameInstances)
{
    const std::pair<const char *, Scheme> configs[] = {
        {"single-counter", Scheme::BaseSle},
        {"reverse-writers", Scheme::BaseSle},
        {"rotated-blocks", Scheme::BaseSleTlr},
        {"ycsb-a", Scheme::BaseSleTlr},
        {"bank", Scheme::TlrStrictTs}};
    for (const auto &[name, scheme] : configs) {
        for (Protocol protocol : {Protocol::Broadcast, Protocol::Directory}) {
            SCOPED_TRACE(std::string(name) + "/" + schemeName(scheme) +
                         "/" +
                         (protocol == Protocol::Directory ? "directory"
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
            System sys(mp);
            TxnLifecycle lc;
            sys.addTraceListener(&lc);
            installWorkload(sys, makeRegisteredWorkload(name, wp));
            ASSERT_TRUE(sys.run());

            using Key = std::tuple<int, Tick, Tick, Addr, unsigned,
                                   std::string>;
            auto key = [](const Txn &t) {
                return Key{t.cpu,  t.begin,    t.end,
                           t.lock, t.restarts, t.outcome()};
            };
            const auto &spans = lc.spans();
            const auto &inst = sys.explainer()->paths().instances();
            ASSERT_EQ(spans.size(), inst.size());
            std::uint64_t spanRestarts = 0, instRestarts = 0;
            std::uint64_t finished = 0;
            for (size_t i = 0; i < spans.size(); ++i) {
                EXPECT_EQ(key(spans[i]), key(inst[i])) << "instance " << i;
                spanRestarts += spans[i].restarts;
                instRestarts += inst[i].restarts;
                finished += spans[i].ended != TxnEnd::Unfinished;
            }
            const std::uint64_t specRestarts =
                sys.stats().sum("spec", "restarts");
            EXPECT_GT(specRestarts, 0u);
            EXPECT_EQ(spanRestarts, specRestarts);
            EXPECT_EQ(instRestarts, specRestarts);
            EXPECT_EQ(sys.metrics()->snapshot().retries.count(), finished);
        }
    }
}
