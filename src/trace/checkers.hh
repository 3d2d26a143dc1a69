/**
 * @file
 * The online invariant checker, driven from the structured event stream.
 *
 * One listener verifies four of the paper's correctness claims *while
 * the run executes*, panicking at the violating tick (with a
 * flight-recorder dump) instead of letting the bug surface as a wrong
 * answer at run end. Each record goes through one switch on its kind,
 * which applies the rule that record can break:
 *
 *  - single-owner: MOESI safety — at most one cache holds a line
 *    writable (M/E), and a writable copy excludes all others.
 *  - timestamp-order: the paper's conflict-resolution rule — a
 *    transaction never loses a conflict to a contender with a *later*
 *    timestamp (Section 2.1.2: earlier timestamp wins).
 *  - deferral-cycle: deferral chains never deadlock — a cycle in the
 *    waits-for graph built from deferral decisions must be broken (by
 *    probes or the recovery timer) within a bounded window (paper
 *    Fig. 6 and Section 3.1.1).
 *  - atomicity: commit atomicity against a shadow-memory oracle —
 *    every value a transaction read must still be the globally
 *    visible value when the transaction commits (exactly the
 *    serializability obligation of paper Section 2.1.1).
 *
 * The checker is a passive listener: it never schedules events or
 * touches simulation state, so attaching it cannot change simulated
 * cycles.
 */

#ifndef TLR_TRACE_CHECKERS_HH
#define TLR_TRACE_CHECKERS_HH

#include <cstdint>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "mem/line.hh"
#include "sim/stats.hh"
#include "trace/sink.hh"

namespace tlr
{

/** Violation accounting, shared with checks that live outside the
 *  trace stream (the L1 boundary-clear oracle). */
struct CheckerContext
{
    StatSet *stats = nullptr;
    TraceSink *sink = nullptr; ///< for flight-recorder dumps on panic
    bool keepGoing = false;    ///< count violations instead of panicking

    /** Record a violation; panics at the violating tick unless
     *  keepGoing is set. */
    void violation(const char *checker, Tick tick, const std::string &msg);
};

/**
 * The four rules behind one listener. Violations increment StatSet
 * counter "trace.violations" (and "trace.violations.<rule>") before
 * panicking, so tests running with keepGoing can assert on counts.
 */
class InvariantRegistry : public TraceListener
{
  public:
    /** Records each rule checked: host-side work counts, not StatSet
     *  keys, so they never reach a simulated output. */
    struct Work
    {
        std::uint64_t lineUpdates = 0;   ///< single-owner: line states set
        std::uint64_t losesChecked = 0;  ///< timestamp-order: CohLose records
        std::uint64_t cycleSearches = 0; ///< deferral-cycle: graph searches
        std::uint64_t readWords = 0;     ///< atomicity: words checked at commit
    };

    /** A waits-for cycle older than 20 yield timeouts plus 20,000
     *  ticks is a deadlock: the yield timer must have broken any real
     *  one by then. */
    InvariantRegistry(StatSet &stats, TraceSink *sink,
                      const TraceParams &params,
                      bool defer_untimestamped, Tick yield_timeout);

    void onRecord(const TraceRecord &r) override;
    void finish(Tick now) override;

    std::uint64_t violations() const;
    const Work &work() const { return work_; }
    /** Shared violation path for checks that live outside the trace
     *  stream (the L1 boundary-clear oracle). */
    CheckerContext &context() { return ctx_; }

    /** Atomicity oracle introspection (tests). */
    bool hasWord(Addr addr) const { return shadow_.count(addr) != 0; }
    std::uint64_t word(Addr addr) const
    {
        auto it = shadow_.find(addr);
        return it == shadow_.end() ? 0 : it->second;
    }

  private:
    /** One line's copies: a state per cpu and the counts the rule
     *  compares, so an update is O(1) and only a violation scans. */
    struct LineCopies
    {
        std::vector<CohState> state; ///< indexed by cpu
        int valid = 0;
        int writable = 0;
    };

    struct Edge
    {
        CpuId waiter;
        CpuId holder;
        Addr line;
        bool operator<(const Edge &o) const
        {
            if (waiter != o.waiter)
                return waiter < o.waiter;
            if (holder != o.holder)
                return holder < o.holder;
            return line < o.line;
        }
    };

    using ReadSet = std::unordered_map<Addr, std::uint64_t>;

    void setCopy(const TraceRecord &r, CohState s);
    void dropCopy(const TraceRecord &r);
    void checkLose(const TraceRecord &r);
    void edgesChanged(Tick now, bool added);
    bool hasCycle(std::vector<CpuId> *cycle_out);
    bool visit(CpuId u, std::vector<CpuId> *cycle_out);
    void checkCycleAge(Tick now);
    void noteRead(const TraceRecord &r);
    void clearReadSet(CpuId cpu);
    void checkCommit(const TraceRecord &r);

    CheckerContext ctx_;
    bool deferUntimestamped_;
    Tick cycleBound_;
    Work work_;

    // single-owner
    std::unordered_map<Addr, LineCopies> lines_;
    std::size_t numCpus_ = 0; ///< highest cpu seen + 1

    // deferral-cycle: its own edge set, independent of WaitState
    std::set<Edge> edges_;
    bool cyclePresent_ = false;
    Tick cycleSince_ = 0;
    std::vector<CpuId> cycleNodes_;
    std::vector<std::uint8_t> color_; ///< search scratch, by cpu
    std::vector<CpuId> path_;         ///< search scratch

    // atomicity
    std::unordered_map<Addr, std::uint64_t> shadow_; ///< word -> value
    /** By cpu: word -> first value read inside the transaction. */
    std::vector<ReadSet> readSets_;
};

} // namespace tlr

#endif // TLR_TRACE_CHECKERS_HH
