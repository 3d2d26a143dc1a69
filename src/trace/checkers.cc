#include "trace/checkers.hh"

#include <algorithm>

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

InvariantRegistry::InvariantRegistry(StatSet &stats, TraceSink *sink,
                                     const TraceParams &params,
                                     bool defer_untimestamped,
                                     Tick yield_timeout)
    : deferUntimestamped_(defer_untimestamped),
      cycleBound_(20 * yield_timeout + 20'000)
{
    ctx_.stats = &stats;
    ctx_.sink = sink;
    ctx_.keepGoing = params.keepGoingOnViolation;
    // Ensure the counter exists even on clean runs, so consumers can
    // distinguish "checked, zero violations" from "never checked".
    stats.counter("trace", "violations");
}

void
InvariantRegistry::onRecord(const TraceRecord &r)
{
    switch (r.kind) {
      // single-owner
      case TraceEvent::LineInstall:
      case TraceEvent::LineDowngrade:
        if (r.comp == TraceComp::L1)
            setCopy(r, static_cast<CohState>(r.a0));
        return;
      case TraceEvent::LineUpgrade:
        if (r.comp == TraceComp::L1)
            setCopy(r, CohState::Modified);
        return;
      case TraceEvent::LineInval:
        if (r.comp == TraceComp::L1)
            dropCopy(r);
        return;

      // timestamp-order
      case TraceEvent::CohLose:
        checkLose(r);
        return;

      // deferral-cycle
      case TraceEvent::CohDefer:
      case TraceEvent::CohRelaxedDefer:
        if (edges_.insert({static_cast<CpuId>(r.a0), r.cpu, r.addr}).second)
            edgesChanged(r.tick, true);
        return;
      case TraceEvent::CohService:
        // The holder released this line to one specific waiter.
        if (edges_.erase({static_cast<CpuId>(r.a0), r.cpu, r.addr}) > 0)
            edgesChanged(r.tick, false);
        return;
      case TraceEvent::CohDeferDrain:
        // Commit/abort drains everything deferred at this holder.
        if (std::erase_if(edges_,
                          [&](const Edge &e) { return e.holder == r.cpu; }))
            edgesChanged(r.tick, false);
        return;
      case TraceEvent::TxnRestart:
        // Aborted speculation discards its read set (atomicity).
        clearReadSet(r.cpu);
        [[fallthrough]];
      case TraceEvent::TxnCommit:
        // A cpu leaving speculation can no longer be waiting on
        // anyone's deferral queue; drop its outgoing edges.
        if (std::erase_if(edges_,
                          [&](const Edge &e) { return e.waiter == r.cpu; }))
            edgesChanged(r.tick, false);
        return;

      // atomicity
      case TraceEvent::TxnElide:
        // An outermost elision starts a new transaction, so it starts
        // a fresh read set. A speculative miss issued in the same tick
        // as a restart can fill (and emit TxnRead) between the restart
        // and this elide; that read belongs to the squashed attempt,
        // not to this transaction.
        clearReadSet(r.cpu);
        [[fallthrough]];
      case TraceEvent::TxnNest:
        // Eliding reads the lock word and predicts it free; that read
        // is part of the transaction's read set. A nested elision
        // keeps appending to the enclosing transaction's set.
      case TraceEvent::TxnRead:
        noteRead(r);
        return;
      case TraceEvent::TxnQuantumEnd:
        clearReadSet(r.cpu);
        return;
      case TraceEvent::TxnCommitStart:
        checkCommit(r);
        return;
      case TraceEvent::TxnWrite:
      case TraceEvent::MemWrite:
        shadow_[r.addr] = r.a0;
        return;
      default:
        return;
    }
}

void
InvariantRegistry::finish(Tick now)
{
    checkCycleAge(now);
}

std::uint64_t
InvariantRegistry::violations() const
{
    return ctx_.stats ? ctx_.stats->get("trace", "violations") : 0;
}

// ---------------------------------------------------------------------
// single-owner

void
InvariantRegistry::setCopy(const TraceRecord &r, CohState s)
{
    ++work_.lineUpdates;
    const auto cpu = static_cast<std::size_t>(r.cpu);
    numCpus_ = std::max(numCpus_, cpu + 1);
    LineCopies &l = lines_[r.addr];
    if (l.state.size() <= cpu)
        l.state.resize(numCpus_, CohState::Invalid);
    CohState &cur = l.state[cpu];
    l.valid += isValidState(s) - isValidState(cur);
    l.writable += isWritableState(s) - isWritableState(cur);
    cur = s;

    // Only a violation scans, to name the cpus in cpu order.
    if (l.writable == 0 || (l.writable == 1 && l.valid == 1))
        return;
    const auto addr = static_cast<unsigned long long>(r.addr);
    std::vector<CpuId> owners;
    for (std::size_t c = 0; c < l.state.size() && owners.size() < 2; ++c)
        if (isWritableState(l.state[c]))
            owners.push_back(static_cast<CpuId>(c));
    if (owners.size() > 1)
        ctx_.violation("single-owner", r.tick,
                       strfmt("line %#llx writable in cpu%d and cpu%d",
                              addr, owners[0], owners[1]));
    else
        ctx_.violation("single-owner", r.tick,
                       strfmt("line %#llx writable in cpu%d but %d "
                              "copies exist",
                              addr, owners[0], l.valid));
}

void
InvariantRegistry::dropCopy(const TraceRecord &r)
{
    // Removal cannot create a violation.
    auto it = lines_.find(r.addr);
    const auto cpu = static_cast<std::size_t>(r.cpu);
    if (it == lines_.end() || cpu >= it->second.state.size())
        return;
    LineCopies &l = it->second;
    CohState &cur = l.state[cpu];
    l.valid -= isValidState(cur);
    l.writable -= isWritableState(cur);
    cur = CohState::Invalid;
}

// ---------------------------------------------------------------------
// timestamp-order

void
InvariantRegistry::checkLose(const TraceRecord &r)
{
    ++work_.losesChecked;
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
    if (own.valid && !winner.valid && deferUntimestamped_) {
        ctx_.violation(
            "timestamp-order", r.tick,
            strfmt("cpu%d (own %s) lost line %#llx to an "
                   "un-timestamped request despite defer policy",
                   r.cpu, own.str().c_str(),
                   static_cast<unsigned long long>(r.addr)));
    }
}

// ---------------------------------------------------------------------
// deferral-cycle

void
InvariantRegistry::edgesChanged(Tick now, bool added)
{
    // Adding an edge keeps a cycle and removing one cannot make one,
    // so the graph is searched only when its answer can change.
    if (added && !cyclePresent_) {
        cyclePresent_ = hasCycle(&cycleNodes_);
        if (cyclePresent_)
            cycleSince_ = now;
    } else if (!added && cyclePresent_ && !hasCycle(nullptr)) {
        cyclePresent_ = false;
        cycleNodes_.clear();
    }
    checkCycleAge(now);
}

bool
InvariantRegistry::hasCycle(std::vector<CpuId> *cycle_out)
{
    // Depth-first from each waiter in cpu order, out-edges in holder
    // order: the first cycle found names the report. Holders are cpu
    // ids, so {u, invalidCpu, 0} sorts before every out-edge of u.
    ++work_.cycleSearches;
    CpuId top = 0;
    for (const Edge &e : edges_)
        top = std::max({top, e.waiter, e.holder});
    color_.assign(static_cast<std::size_t>(top) + 1, 0);
    path_.clear();
    for (auto it = edges_.begin(); it != edges_.end();
         it = edges_.lower_bound({it->waiter + 1, invalidCpu, 0})) {
        if (color_[it->waiter] == 0 && visit(it->waiter, cycle_out))
            return true;
    }
    return false;
}

bool
InvariantRegistry::visit(CpuId u, std::vector<CpuId> *cycle_out)
{
    // color: 0 unvisited, 1 on the path, 2 done.
    color_[u] = 1;
    path_.push_back(u);
    for (auto it = edges_.lower_bound({u, invalidCpu, 0});
         it != edges_.end() && it->waiter == u; ++it) {
        const CpuId v = it->holder;
        if (color_[v] == 1) {
            if (cycle_out)
                cycle_out->assign(std::find(path_.begin(), path_.end(), v),
                                  path_.end());
            return true;
        }
        if (color_[v] == 0 && visit(v, cycle_out))
            return true;
    }
    path_.pop_back();
    color_[u] = 2;
    return false;
}

void
InvariantRegistry::checkCycleAge(Tick now)
{
    // A *persistent* cycle is the bug; transient cycles form and are
    // broken by markers/probes (paper Fig. 6) or the yield timer.
    if (!cyclePresent_ || now - cycleSince_ <= cycleBound_)
        return;
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

// ---------------------------------------------------------------------
// atomicity

void
InvariantRegistry::noteRead(const TraceRecord &r)
{
    // The oracle learns a word lazily, on first observation: workload
    // initialisation writes directly into backing store and emits no
    // events, so the first traced read defines the starting value.
    shadow_.try_emplace(r.addr, r.a0);
    // Keep the FIRST value read in this transaction; later reads of
    // the same word hit the cache and must agree with it, which the
    // commit-time check against the shadow subsumes.
    const auto cpu = static_cast<std::size_t>(r.cpu);
    if (readSets_.size() <= cpu)
        readSets_.resize(cpu + 1);
    readSets_[cpu].try_emplace(r.addr, r.a0);
}

void
InvariantRegistry::clearReadSet(CpuId cpu)
{
    if (static_cast<std::size_t>(cpu) < readSets_.size())
        readSets_[static_cast<std::size_t>(cpu)].clear();
}

void
InvariantRegistry::checkCommit(const TraceRecord &r)
{
    // Atomic commit point: every word this transaction read must
    // still hold the value it read, or some conflicting write
    // slipped past the coherence protocol without aborting us.
    const auto cpu = static_cast<std::size_t>(r.cpu);
    if (cpu >= readSets_.size())
        return;
    for (const auto &[addr, readval] : readSets_[cpu]) {
        ++work_.readWords;
        auto sh = shadow_.find(addr);
        std::uint64_t cur = sh == shadow_.end() ? readval : sh->second;
        if (cur != readval) {
            ctx_.violation(
                "atomicity", r.tick,
                strfmt("cpu%d commits having read %#llx=%llu "
                       "but globally visible value is %llu",
                       r.cpu, static_cast<unsigned long long>(addr),
                       static_cast<unsigned long long>(readval),
                       static_cast<unsigned long long>(cur)));
        }
    }
    readSets_[cpu].clear();
}

} // namespace tlr
