/**
 * @file
 * The one transaction-instance model (DESIGN.md §10). An instance
 * opens at its first elision, keeps its timestamp across restarts
 * (paper Sections 2.1.2 and 4) and ends at its commit, its fallback to
 * the lock or the quantum bound. Owners feed every record to
 * onRecord(), then read what that record did.
 */

#ifndef TLR_TRACE_TXN_STATE_HH
#define TLR_TRACE_TXN_STATE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "coherence/spec_hooks.hh"
#include "trace/events.hh"

namespace tlr
{

/** @{ The TxnElide/TxnRestart payload, decoded in this one place. */
inline bool
opensInstance(const TraceRecord &r)
{
    return r.kind == TraceEvent::TxnElide && r.a3 != 0;
}

inline bool
endsInFallback(const TraceRecord &r)
{
    return r.kind == TraceEvent::TxnRestart && r.a2 != 0;
}

inline AbortReason
restartReason(const TraceRecord &r)
{
    return static_cast<AbortReason>(r.a0);
}

/** The contender a TxnRestart lost to, or -1 when none was noted. */
inline std::int16_t
restartWinner(const TraceRecord &r)
{
    const Timestamp winner = unpackTs(0, r.a3);
    return winner.valid ? static_cast<std::int16_t>(winner.cpu) : -1;
}
/** @} */

/** How a closed instance ended. */
enum class TxnEnd : std::uint8_t
{
    Commit,
    Fallback,
    QuantumEnd,
    Unfinished, ///< no outcome before a new elide or the stream end
};

/** One critical-section instance, first elision to its end. Fields
 *  run largest first: the explainer keeps one per closed instance. */
struct Txn
{
    std::uint64_t serial = 0; ///< opening order, from 0
    Addr lock = 0;
    Timestamp ts;
    Tick begin = 0;
    Tick end = 0;          ///< never before begin
    Tick commitStart = 0;  ///< valid while inCommit
    Tick lastRestart = 0;
    unsigned restarts = 0; ///< every restart, the fallback one too
    unsigned nests = 0;
    AbortReason lastRestartReason = AbortReason::ConflictLost;
    std::int16_t cpu = -1;
    std::int16_t lastRestartWinner = -1; ///< -1: no contender noted
    TxnEnd ended = TxnEnd::Unfinished;   ///< read once closed
    bool inCommit = false; ///< a TxnCommitStart since the last restart

    /** "commit" | "fallback:<reason>" | "quantum-end" | "unfinished" */
    std::string outcome() const;
};

class TxnState
{
  public:
    void onRecord(const TraceRecord &r);
    /** Close the open instances as unfinished, in cpu order. */
    std::vector<Txn> finish(Tick now);

    const Txn *
    open(std::int16_t cpu) const
    {
        const auto idx = static_cast<size_t>(cpu);
        return cpu >= 0 && idx < open_.size() && open_[idx] ? &*open_[idx]
                                                            : nullptr;
    }

    /** @{ What the last onRecord() did, null where it did not: the
     *  instance it opened, the one it restarted (a restart with no
     *  open instance counts nowhere) and the one it closed. */
    const Txn *opened() const { return opened_; }
    const Txn *restarted() const { return restarted_; }
    const Txn *closed() const { return closed_ ? &*closed_ : nullptr; }
    /** @} */

  private:
    void close(std::optional<Txn> &slot, Tick end, TxnEnd how);

    std::vector<std::optional<Txn>> open_; ///< by cpu
    std::optional<Txn> closed_;
    const Txn *opened_ = nullptr;
    const Txn *restarted_ = nullptr;
    std::uint64_t serial_ = 0;
};

} // namespace tlr

#endif // TLR_TRACE_TXN_STATE_HH
