/**
 * @file
 * Per-transaction critical-path accountant.
 *
 * Takes every critical-section instance the Explainer's TxnState
 * closes and decomposes its wall-clock ticks into four exclusive
 * buckets, classified with the priority
 * defer-wait > coherence-miss > restart-redo > exec:
 *
 *   - defer : ticks this cpu's own request sat deferred behind a
 *             transactional owner (paper Section 3.1)
 *   - miss  : ticks waiting for line data outside any deferral
 *   - redo  : remaining ticks before the last restart — work that was
 *             thrown away and re-executed
 *   - exec  : everything else (useful forward progress)
 *
 * Instances carry the TxnState's serial number, in elision order, so
 * reports can name them ("T17@cpu3") consistently across online and
 * offline analysis. Closed instances are kept per cpu in chronological order
 * for causal-chain resolution: given (cpu, tick), instanceAt() finds
 * the transaction that held the resource at that moment. Deferral
 * spans come from the WaitState the Explainer's graph builder keeps.
 */

#ifndef TLR_EXPLAIN_PATH_HH
#define TLR_EXPLAIN_PATH_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace/sink.hh"
#include "trace/txn_state.hh"
#include "trace/wait_state.hh"

namespace tlr
{

/** One closed critical-section instance with its tick decomposition. */
struct TxnInstance : Txn
{
    /** @{ tick decomposition (sums to end - begin) */
    Tick execTicks = 0;
    Tick deferTicks = 0;
    Tick missTicks = 0;
    Tick redoTicks = 0;
    /** @} */

    /** Longest single deferral suffered, for causal-chain walking. */
    Tick longestDeferSpan = 0;
    std::int16_t longestDeferOwner = -1;
    Addr longestDeferLine = 0;
    Tick longestDeferTick = 0; ///< tick that deferral started

    Tick total() const { return end > begin ? end - begin : 0; }
    Tick delay() const { return deferTicks + missTicks + redoTicks; }
    std::string
    name() const
    {
        // Built with append, not operator+: gcc 12's -Wrestrict
        // false-positives on chained const char* + std::string&&.
        std::string s = "T";
        s += std::to_string(serial);
        s += "@cpu";
        s += std::to_string(cpu);
        return s;
    }
};

/** Driven by the Explainer, after the TxnState it shares and after
 *  the ConflictGraphBuilder that updates the shared WaitState on the
 *  same record. */
class CriticalPathAccountant
{
  public:
    CriticalPathAccountant(const WaitState &w, const TxnState &t)
        : waits_(w), txns_(t) {}

    void onRecord(const TraceRecord &r);
    /** Keep the instances the TxnState closed at the stream end. */
    void finish(const std::vector<Txn> &unfinished);

    /** All closed instances, in closing order. */
    const std::vector<TxnInstance> &instances() const
    {
        return instances_;
    }

    /** The instance live on @p cpu at @p tick, or null. */
    const TxnInstance *instanceAt(std::int16_t cpu, Tick tick) const;

  private:
    /** [start, end]; a deferral's also names its owner and line. */
    struct Interval
    {
        Tick start = 0;
        Tick end = 0;
        std::int16_t owner = -1;
        Addr line = 0;
    };

    /** The intervals an open instance has met so far. */
    struct Intervals
    {
        std::vector<Interval> defer;
        std::vector<Interval> miss;
    };

    /** Charge @p t its intervals, classify its ticks and keep it. */
    void close(const Txn &t);
    static void classify(TxnInstance &t, const Intervals &iv);

    const WaitState &waits_;
    const TxnState &txns_;
    /** Open instance's serial → the intervals it has met. */
    std::map<std::uint64_t, Intervals> open_;
    /** cpu → its waits below this ordinal were charged at a close. */
    std::map<std::int16_t, std::uint64_t> chargedBelow_;
    /** (cpu, line) → miss start tick. */
    std::map<std::pair<std::int16_t, Addr>, Tick> missOpen_;

    std::vector<TxnInstance> instances_;
    /** Per-cpu indices into instances_, chronological. */
    std::map<std::int16_t, std::vector<size_t>> byCpu_;
};

} // namespace tlr

#endif // TLR_EXPLAIN_PATH_HH
