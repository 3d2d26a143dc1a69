#include "trace/checkers.hh"

#include <algorithm>
#include <functional>

#include "mem/line.hh"
#include "sim/logging.hh"

namespace tlr
{

void
CheckerContext::violation(const char *checker, Tick tick,
                          const std::string &msg)
{
    if (stats) {
        ++stats->counter("trace", "violations");
        ++stats->counter("trace",
                         std::string("violations.") + checker);
    }
    if (keepGoing) {
        warn("invariant %s violated @%llu: %s", checker,
             static_cast<unsigned long long>(tick), msg.c_str());
        return;
    }
    if (sink)
        sink->dumpRecent(stderr);
    panic("invariant %s violated @%llu: %s", checker,
          static_cast<unsigned long long>(tick), msg.c_str());
}

// ---------------------------------------------------------------------
// SingleOwnerChecker

void
SingleOwnerChecker::onRecord(const TraceRecord &r)
{
    if (r.comp != TraceComp::L1)
        return;

    switch (r.kind) {
      case TraceEvent::LineInstall:
        state_[r.addr][r.cpu] = static_cast<int>(r.a0);
        break;
      case TraceEvent::LineUpgrade:
        state_[r.addr][r.cpu] = static_cast<int>(CohState::Modified);
        break;
      case TraceEvent::LineDowngrade:
        state_[r.addr][r.cpu] = static_cast<int>(r.a0);
        break;
      case TraceEvent::LineInval: {
        auto it = state_.find(r.addr);
        if (it != state_.end()) {
            it->second.erase(r.cpu);
            if (it->second.empty())
                state_.erase(it);
        }
        return; // removal cannot create a violation
      }
      default:
        return;
    }

    // Validate the line whose state just changed.
    const auto &copies = state_[r.addr];
    CpuId writable = invalidCpu;
    int nvalid = 0;
    for (const auto &[cpu, st] : copies) {
        CohState s = static_cast<CohState>(st);
        if (s == CohState::Invalid)
            continue;
        ++nvalid;
        if (s == CohState::Modified || s == CohState::Exclusive) {
            if (writable != invalidCpu) {
                ctx_.violation(
                    "single-owner", r.tick,
                    strfmt("line %#llx writable in cpu%d and cpu%d",
                           static_cast<unsigned long long>(r.addr),
                           writable, cpu));
                return;
            }
            writable = cpu;
        }
    }
    if (writable != invalidCpu && nvalid > 1) {
        ctx_.violation(
            "single-owner", r.tick,
            strfmt("line %#llx writable in cpu%d but %d copies exist",
                   static_cast<unsigned long long>(r.addr), writable,
                   nvalid));
    }
}

// ---------------------------------------------------------------------
// TimestampOrderChecker

void
TimestampOrderChecker::onRecord(const TraceRecord &r)
{
    if (r.kind != TraceEvent::CohLose)
        return;

    Timestamp winner = unpackTs(r.a0, r.a1);
    Timestamp own = unpackTs(r.a2, r.a3);

    if (own.valid && winner.valid && !winner.earlierThan(own)) {
        ctx_.violation(
            "timestamp-order", r.tick,
            strfmt("cpu%d lost line %#llx to later %s (own %s)", r.cpu,
                   static_cast<unsigned long long>(r.addr),
                   winner.str().c_str(), own.str().c_str()));
        return;
    }
    // An un-timestamped winner beating a timestamped transaction is
    // only a bug when the engine's policy says such requests must be
    // deferred (paper Section 2.2 discusses both choices).
    if (own.valid && !winner.valid && ctx_.deferUntimestamped) {
        ctx_.violation(
            "timestamp-order", r.tick,
            strfmt("cpu%d (own %s) lost line %#llx to an "
                   "un-timestamped request despite defer policy",
                   r.cpu, own.str().c_str(),
                   static_cast<unsigned long long>(r.addr)));
    }
}

// ---------------------------------------------------------------------
// DeferralCycleChecker

void
DeferralCycleChecker::onRecord(const TraceRecord &r)
{
    switch (r.kind) {
      case TraceEvent::CohDefer:
      case TraceEvent::CohRelaxedDefer: {
        Edge e{static_cast<CpuId>(r.a0), r.cpu, r.addr};
        if (edges_.insert(e).second)
            edgesChanged(r.tick);
        return;
      }
      case TraceEvent::CohService: {
        // The holder released this line to one specific waiter.
        Edge e{static_cast<CpuId>(r.a0), r.cpu, r.addr};
        if (edges_.erase(e) > 0)
            edgesChanged(r.tick);
        return;
      }
      case TraceEvent::CohDeferDrain: {
        // Commit/abort drains everything deferred at this holder.
        bool changed = false;
        for (auto it = edges_.begin(); it != edges_.end();) {
            if (it->holder == r.cpu) {
                it = edges_.erase(it);
                changed = true;
            } else {
                ++it;
            }
        }
        if (changed)
            edgesChanged(r.tick);
        return;
      }
      case TraceEvent::TxnRestart:
      case TraceEvent::TxnCommit:
        // A cpu leaving speculation can no longer be waiting on
        // anyone's deferral queue; drop its outgoing edges.
        {
            bool changed = false;
            for (auto it = edges_.begin(); it != edges_.end();) {
                if (it->waiter == r.cpu) {
                    it = edges_.erase(it);
                    changed = true;
                } else {
                    ++it;
                }
            }
            if (changed)
                edgesChanged(r.tick);
        }
        return;
      default:
        return;
    }
}

bool
DeferralCycleChecker::hasCycle(std::vector<CpuId> *cycle_out) const
{
    // Tiny graphs (<= #cpus nodes): iterative DFS with colors.
    std::map<CpuId, std::vector<CpuId>> adj;
    for (const Edge &e : edges_)
        adj[e.waiter].push_back(e.holder);

    std::map<CpuId, int> color; // 0 white, 1 gray, 2 black
    std::vector<CpuId> stack;

    std::function<bool(CpuId)> dfs = [&](CpuId u) -> bool {
        color[u] = 1;
        stack.push_back(u);
        for (CpuId v : adj[u]) {
            if (color[v] == 1) {
                if (cycle_out) {
                    auto it = std::find(stack.begin(), stack.end(), v);
                    cycle_out->assign(it, stack.end());
                }
                return true;
            }
            if (color[v] == 0 && dfs(v))
                return true;
        }
        stack.pop_back();
        color[u] = 2;
        return false;
    };

    for (const auto &[u, unused] : adj) {
        (void)unused;
        if (color[u] == 0 && dfs(u))
            return true;
    }
    return false;
}

void
DeferralCycleChecker::edgesChanged(Tick now)
{
    std::vector<CpuId> cycle;
    bool cyc = hasCycle(&cycle);
    if (cyc && !cyclePresent_) {
        cyclePresent_ = true;
        cycleSince_ = now;
        cycleNodes_ = cycle;
    } else if (!cyc) {
        cyclePresent_ = false;
        cycleNodes_.clear();
    }
    // A *persistent* cycle is the bug; transient cycles form and are
    // broken by markers/probes (paper Fig. 6) or the yield timer.
    if (cyclePresent_ && now - cycleSince_ > ctx_.cycleStuckTicks)
        report(now);
}

void
DeferralCycleChecker::report(Tick now)
{
    std::string nodes;
    for (CpuId c : cycleNodes_)
        nodes += strfmt("%scpu%d", nodes.empty() ? "" : " -> ", c);
    ctx_.violation(
        "deferral-cycle", now,
        strfmt("waits-for cycle [%s] unbroken for %llu ticks",
               nodes.c_str(),
               static_cast<unsigned long long>(now - cycleSince_)));
    // keepGoing mode: restart the persistence clock so one stuck
    // cycle reports once per window instead of on every edge change.
    cycleSince_ = now;
}

void
DeferralCycleChecker::finish(Tick now)
{
    if (cyclePresent_ && now - cycleSince_ > ctx_.cycleStuckTicks)
        report(now);
}

// ---------------------------------------------------------------------
// AtomicityChecker

void
AtomicityChecker::noteRead(CpuId cpu, Addr addr, std::uint64_t value,
                           Tick tick)
{
    (void)tick;
    // The oracle learns a word lazily, on first observation: workload
    // initialisation writes directly into backing store and emits no
    // events, so the first traced read defines the starting value.
    shadow_.emplace(addr, value);
    // Keep the FIRST value read in this transaction; later reads of
    // the same word hit the cache and must agree with it, which the
    // commit-time check against the shadow subsumes.
    readSets_[cpu].emplace(addr, value);
}

void
AtomicityChecker::onRecord(const TraceRecord &r)
{
    switch (r.kind) {
      case TraceEvent::TxnElide:
        // An outermost elision starts a new transaction, so it starts
        // a fresh read set. A speculative miss issued in the same tick
        // as a restart can fill (and emit TxnRead) between the restart
        // and this elide; that read belongs to the squashed attempt,
        // not to this transaction.
        readSets_.erase(r.cpu);
        [[fallthrough]];
      case TraceEvent::TxnNest:
        // Eliding reads the lock word and predicts it free; that read
        // is part of the transaction's read set. A nested elision
        // keeps appending to the enclosing transaction's set.
        noteRead(r.cpu, r.addr, r.a0, r.tick);
        return;
      case TraceEvent::TxnRead:
        noteRead(r.cpu, r.addr, r.a0, r.tick);
        return;
      case TraceEvent::TxnRestart:
        // Aborted speculation discards its read set.
        readSets_.erase(r.cpu);
        return;
      case TraceEvent::TxnQuantumEnd:
        readSets_.erase(r.cpu);
        return;
      case TraceEvent::TxnCommitStart: {
        // Atomic commit point: every word this transaction read must
        // still hold the value it read, or some conflicting write
        // slipped past the coherence protocol without aborting us.
        auto it = readSets_.find(r.cpu);
        if (it != readSets_.end()) {
            for (const auto &[addr, readval] : it->second) {
                auto sh = shadow_.find(addr);
                std::uint64_t cur =
                    sh == shadow_.end() ? readval : sh->second;
                if (cur != readval) {
                    ctx_.violation(
                        "atomicity", r.tick,
                        strfmt("cpu%d commits having read %#llx=%llu "
                               "but globally visible value is %llu",
                               r.cpu,
                               static_cast<unsigned long long>(addr),
                               static_cast<unsigned long long>(readval),
                               static_cast<unsigned long long>(cur)));
                }
            }
            readSets_.erase(it);
        }
        return;
      }
      case TraceEvent::TxnWrite:
      case TraceEvent::MemWrite:
        shadow_[r.addr] = r.a0;
        return;
      default:
        return;
    }
}

// ---------------------------------------------------------------------
// InvariantRegistry

InvariantRegistry::InvariantRegistry(StatSet &stats, TraceSink *sink,
                                     const TraceParams &params,
                                     bool defer_untimestamped,
                                     Tick yield_timeout)
    : owner_(ctx_), tsOrder_(ctx_), cycles_(ctx_), atomicity_(ctx_)
{
    ctx_.stats = &stats;
    ctx_.sink = sink;
    ctx_.keepGoing = params.keepGoingOnViolation;
    ctx_.deferUntimestamped = defer_untimestamped;
    if (params.cycleStuckTicks > 0) {
        ctx_.cycleStuckTicks = params.cycleStuckTicks;
    } else {
        // Default bound: well past the point where the yield timer
        // must have fired and broken any real cycle.
        ctx_.cycleStuckTicks = 20 * yield_timeout + 20'000;
    }
    // Ensure the counter exists even on clean runs, so consumers can
    // distinguish "checked, zero violations" from "never checked".
    stats.counter("trace", "violations");
}

void
InvariantRegistry::onRecord(const TraceRecord &r)
{
    owner_.onRecord(r);
    tsOrder_.onRecord(r);
    cycles_.onRecord(r);
    atomicity_.onRecord(r);
}

void
InvariantRegistry::finish(Tick now)
{
    owner_.finish(now);
    tsOrder_.finish(now);
    cycles_.finish(now);
    atomicity_.finish(now);
}

std::uint64_t
InvariantRegistry::violations() const
{
    return ctx_.stats ? ctx_.stats->get("trace", "violations") : 0;
}

} // namespace tlr
