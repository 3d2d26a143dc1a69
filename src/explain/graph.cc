#include "explain/graph.hh"

#include <algorithm>

#include "trace/txn_state.hh"

namespace tlr
{

void
ConflictGraphBuilder::addDefer(const TraceRecord &r)
{
    LineContention &lc = lines_[r.addr];
    ++lc.defers;
    if (r.kind == TraceEvent::CohRelaxedDefer)
        ++lc.relaxedDefers;
    const Wait *w = waits_.defer(r);
    if (!w)
        return; // re-defer of an open wait: it keeps its first edge

    DeferEdge e;
    static_cast<Wait &>(e) = *w;
    e.end = w->start;
    edges_.push_back(e);

    lc.maxQueue = std::max(lc.maxQueue, waits_.queues().at(r.addr));
    std::vector<std::int16_t> cycle = waits_.cycleThrough(*w);
    if (!cycle.empty())
        cycles_.push_back({std::move(cycle), r.tick});
}

void
ConflictGraphBuilder::onRecord(const TraceRecord &r)
{
    switch (r.kind) {
      case TraceEvent::CohDefer:
      case TraceEvent::CohRelaxedDefer:
        addDefer(r);
        return;
      case TraceEvent::CohService: {
        const Wait *w = waits_.service(r);
        if (!w)
            return; // chain service with no prior defer record
        DeferEdge &e = edges_[w->ordinal];
        e.end = r.tick;
        e.serviced = true;
        e.cause = static_cast<ServiceCause>(r.a1);
        lines_[r.addr].waitTicks += e.span();
        return;
      }
      case TraceEvent::TxnRestart:
        // Every restart record, with or without its instance's elide
        // in the stream: a filtered trace may have dropped that.
        restarts_.push_back({r.cpu, restartWinner(r), r.addr, r.tick});
        if (r.addr != 0)
            ++lines_[r.addr].restarts;
        return;
      default:
        return;
    }
}

void
ConflictGraphBuilder::finish(Tick now)
{
    // Leaves the waits open: the path accountant, finishing next,
    // charges them to their instances.
    for (const auto &[key, w] : waits_.open()) {
        DeferEdge &e = edges_[w.ordinal];
        e.end = now;
        lines_[key.first].waitTicks += e.span();
    }
}

std::vector<Addr>
ConflictGraphBuilder::convoyLines(unsigned minQueue) const
{
    std::vector<Addr> out;
    for (const auto &[addr, lc] : lines_) {
        if (lc.maxQueue >= minQueue)
            out.push_back(addr);
    }
    return out;
}

} // namespace tlr
