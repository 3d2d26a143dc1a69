/**
 * @file
 * Online wait-for/defer graph builder.
 *
 * Consumes the structured trace stream and materializes the paper's
 * implicit conflict structure: every deferral (paper Section 3.1)
 * becomes an edge  waiter-cpu → owner-cpu  carrying the contended
 * line, the waiter's timestamp and the tick span from deferral to
 * service; every conflict-caused restart becomes a loser → winner
 * edge. On top of the live edge set the builder detects the two
 * pathologies the relaxed-timestamp path (Section 3.2) is supposed to
 * avoid: wait cycles (A defers behind B while B defers behind A,
 * possibly through intermediaries) and convoys (many simultaneous
 * waiters parked on one line). The live edge set is the Explainer's
 * WaitState, which this builder updates.
 */

#ifndef TLR_EXPLAIN_GRAPH_HH
#define TLR_EXPLAIN_GRAPH_HH

#include <cstdint>
#include <map>
#include <vector>

#include "trace/sink.hh"
#include "trace/wait_state.hh"

namespace tlr
{

/** One deferral: the wait, plus how it ended. */
struct DeferEdge : Wait
{
    Tick end = 0;      ///< service tick, or stream end if never
    bool serviced = false;
    ServiceCause cause = ServiceCause::Chain;

    Tick span() const { return end > start ? end - start : 0; }
};

/** One conflict loss: @c loser restarted because of @c winner. */
struct RestartEdge
{
    std::int16_t loser = -1;
    std::int16_t winner = -1; ///< -1 when the trace had no contender
    Addr line = 0;
    Tick tick = 0;
};

/** A wait cycle observed among concurrently-pending deferrals. */
struct CycleHit
{
    std::vector<std::int16_t> cpus; ///< cycle path, waiter order
    Tick tick = 0;                  ///< tick the closing edge appeared
};

/** Per-line contention aggregate. */
struct LineContention
{
    std::uint64_t defers = 0;
    std::uint64_t relaxedDefers = 0;
    std::uint64_t restarts = 0;
    Tick waitTicks = 0;       ///< sum of completed defer spans
    unsigned maxQueue = 0;    ///< max simultaneous waiters (convoy)
};

/** Driven by the Explainer, before the CriticalPathAccountant that
 *  shares its WaitState. */
class ConflictGraphBuilder
{
  public:
    explicit ConflictGraphBuilder(WaitState &waits) : waits_(waits) {}

    void onRecord(const TraceRecord &r);
    void finish(Tick now);

    const std::vector<DeferEdge> &edges() const { return edges_; }
    const std::vector<RestartEdge> &restartEdges() const
    {
        return restarts_;
    }
    const std::vector<CycleHit> &cycles() const { return cycles_; }
    const std::map<Addr, LineContention> &lines() const { return lines_; }

    /** Lines whose waiter queue ever held @p minQueue+ cpus at once. */
    std::vector<Addr> convoyLines(unsigned minQueue = 2) const;

  private:
    void addDefer(const TraceRecord &r);

    WaitState &waits_;
    std::vector<DeferEdge> edges_; ///< index == Wait::ordinal
    std::vector<RestartEdge> restarts_;
    std::vector<CycleHit> cycles_;
    std::map<Addr, LineContention> lines_;
};

} // namespace tlr

#endif // TLR_EXPLAIN_GRAPH_HH
