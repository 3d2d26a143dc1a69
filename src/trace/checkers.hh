/**
 * @file
 * Online invariant checkers driven from the structured event stream.
 *
 * Each checker watches the TraceRecord stream and verifies one of the
 * paper's correctness claims *while the run executes*, panicking at
 * the violating tick (with a flight-recorder dump) instead of letting
 * the bug surface as a wrong answer at run end:
 *
 *  - SingleOwnerChecker: MOESI safety — at most one cache holds a
 *    line writable (M/E), and a writable copy excludes all others.
 *  - TimestampOrderChecker: the paper's conflict-resolution rule —
 *    a transaction never loses a conflict to a contender with a
 *    *later* timestamp (Section 2.1.2: earlier timestamp wins).
 *  - DeferralCycleChecker: deferral chains never deadlock — a cycle
 *    in the waits-for graph built from deferral decisions must be
 *    broken (by probes or the recovery timer) within a bounded window
 *    (paper Fig. 6 and Section 3.1.1).
 *  - AtomicityChecker: commit atomicity against a shadow-memory
 *    oracle — every value a transaction read must still be the
 *    globally visible value when the transaction commits (exactly
 *    the serializability obligation of paper Section 2.1.1).
 *
 * Checkers are passive listeners: they never schedule events or touch
 * simulation state, so attaching them cannot change simulated cycles.
 */

#ifndef TLR_TRACE_CHECKERS_HH
#define TLR_TRACE_CHECKERS_HH

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/stats.hh"
#include "trace/sink.hh"

namespace tlr
{

/** Shared context: violation accounting + policy knobs. */
struct CheckerContext
{
    StatSet *stats = nullptr;
    TraceSink *sink = nullptr; ///< for flight-recorder dumps on panic
    bool keepGoing = false;    ///< count violations instead of panicking
    bool deferUntimestamped = true; ///< engine policy (SpecConfig)
    Tick cycleStuckTicks = 50'000;  ///< deadlock persistence bound

    /** Record a violation; panics at the violating tick unless
     *  keepGoing is set. */
    void violation(const char *checker, Tick tick, const std::string &msg);
};

/** At most one writable (M/E) copy of a line system-wide, and a
 *  writable copy excludes every other valid copy. */
class SingleOwnerChecker : public TraceListener
{
  public:
    explicit SingleOwnerChecker(CheckerContext &ctx) : ctx_(ctx) {}
    void onRecord(const TraceRecord &r) override;

  private:
    CheckerContext &ctx_;
    /** line -> (cpu -> CohState as int). */
    std::unordered_map<Addr, std::map<CpuId, int>> state_;
};

/** A conflict is never lost to a later-timestamp contender. */
class TimestampOrderChecker : public TraceListener
{
  public:
    explicit TimestampOrderChecker(CheckerContext &ctx) : ctx_(ctx) {}
    void onRecord(const TraceRecord &r) override;

  private:
    CheckerContext &ctx_;
};

/** Deferral waits-for cycles must be broken within a bounded window. */
class DeferralCycleChecker : public TraceListener
{
  public:
    explicit DeferralCycleChecker(CheckerContext &ctx) : ctx_(ctx) {}
    void onRecord(const TraceRecord &r) override;
    void finish(Tick now) override;

  private:
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

    bool hasCycle(std::vector<CpuId> *cycle_out) const;
    void edgesChanged(Tick now);
    void report(Tick now);

    CheckerContext &ctx_;
    std::set<Edge> edges_;
    bool cyclePresent_ = false;
    Tick cycleSince_ = 0;
    std::vector<CpuId> cycleNodes_;
};

/** Shadow-memory oracle: transactional read sets must still be valid
 *  at commit time (commit atomicity / serializability). */
class AtomicityChecker : public TraceListener
{
  public:
    explicit AtomicityChecker(CheckerContext &ctx) : ctx_(ctx) {}
    void onRecord(const TraceRecord &r) override;

    /** Oracle introspection (tests). */
    bool hasWord(Addr addr) const { return shadow_.count(addr) != 0; }
    std::uint64_t word(Addr addr) const
    {
        auto it = shadow_.find(addr);
        return it == shadow_.end() ? 0 : it->second;
    }

  private:
    void noteRead(CpuId cpu, Addr addr, std::uint64_t value, Tick tick);

    CheckerContext &ctx_;
    std::unordered_map<Addr, std::uint64_t> shadow_; ///< word -> value
    /** cpu -> (word -> first value read inside the transaction). */
    std::map<CpuId, std::unordered_map<Addr, std::uint64_t>> readSets_;
};

/**
 * Bundles the four checkers behind one listener and owns the shared
 * context. Violations increment StatSet counter "trace.violations"
 * (and "trace.violations.<checker>") before panicking, so tests
 * running with keepGoing can assert on counts.
 */
class InvariantRegistry : public TraceListener
{
  public:
    InvariantRegistry(StatSet &stats, TraceSink *sink,
                      const TraceParams &params,
                      bool defer_untimestamped, Tick yield_timeout);

    void onRecord(const TraceRecord &r) override;
    void finish(Tick now) override;

    std::uint64_t violations() const;
    AtomicityChecker &atomicity() { return atomicity_; }
    /** Shared violation path for checks that live outside the trace
     *  stream (the L1 boundary-clear oracle). */
    CheckerContext &context() { return ctx_; }

  private:
    CheckerContext ctx_;
    SingleOwnerChecker owner_;
    TimestampOrderChecker tsOrder_;
    DeferralCycleChecker cycles_;
    AtomicityChecker atomicity_;
};

} // namespace tlr

#endif // TLR_TRACE_CHECKERS_HH
