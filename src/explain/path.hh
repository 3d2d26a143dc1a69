/**
 * @file
 * Per-transaction critical-path accountant.
 *
 * Reconstructs every critical-section instance from the trace stream
 * (like the lifecycle tracker) and decomposes its wall-clock ticks
 * into four exclusive buckets, classified with the priority
 * defer-wait > coherence-miss > restart-redo > exec:
 *
 *   - defer : ticks this cpu's own request sat deferred behind a
 *             transactional owner (paper Section 3.1)
 *   - miss  : ticks waiting for line data outside any deferral
 *   - redo  : remaining ticks before the last restart — work that was
 *             thrown away and re-executed
 *   - exec  : everything else (useful forward progress)
 *
 * Instances get a global serial number in elision order, so reports
 * can name them ("T17@cpu3") consistently across online and offline
 * analysis. Closed instances are kept per cpu in chronological order
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
#include "trace/wait_state.hh"

namespace tlr
{

/** One closed critical-section instance with its tick decomposition. */
struct TxnInstance
{
    std::uint64_t serial = 0; ///< global elision-order id
    std::int16_t cpu = -1;
    Addr lock = 0;
    Tick begin = 0;
    Tick end = 0;
    unsigned restarts = 0;
    std::string outcome; ///< "commit" | "fallback:..." | "quantum-end"
                         ///< | "unfinished"

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

    /** Winner cpu of the last conflict-caused restart, -1 if none. */
    std::int16_t lastRestartWinner = -1;

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

/** Driven by the Explainer, after the ConflictGraphBuilder that
 *  updates the shared WaitState on the same record. */
class CriticalPathAccountant
{
  public:
    explicit CriticalPathAccountant(const WaitState &w) : waits_(w) {}

    void onRecord(const TraceRecord &r);
    void finish(Tick now);

    /** All closed instances, global serial order. */
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

    struct OpenInstance
    {
        TxnInstance inst;
        std::vector<Interval> defer;
        std::vector<Interval> miss;
        Tick lastRestartTick = 0;
    };

    void closeInstance(std::int16_t cpu, Tick end, std::string outcome);
    static void classify(OpenInstance &o);

    const WaitState &waits_;
    std::map<std::int16_t, OpenInstance> open_;
    /** cpu → its waits below this ordinal were charged at a close. */
    std::map<std::int16_t, std::uint64_t> chargedBelow_;
    /** (cpu, line) → miss start tick. */
    std::map<std::pair<std::int16_t, Addr>, Tick> missOpen_;

    std::vector<TxnInstance> instances_;
    /** Per-cpu indices into instances_, chronological. */
    std::map<std::int16_t, std::vector<size_t>> byCpu_;
    std::uint64_t nextSerial_ = 0;
};

} // namespace tlr

#endif // TLR_EXPLAIN_PATH_HH
