#include "trace/txn_state.hh"

#include <algorithm>

namespace tlr
{

std::string
Txn::outcome() const
{
    switch (ended) {
      case TxnEnd::Commit: return "commit";
      case TxnEnd::Fallback:
        return std::string("fallback:") +
               abortReasonName(lastRestartReason);
      case TxnEnd::QuantumEnd: return "quantum-end";
      case TxnEnd::Unfinished: break;
    }
    return "unfinished";
}

void
TxnState::close(std::optional<Txn> &slot, Tick end, TxnEnd how)
{
    if (!slot)
        return;
    slot->end = std::max(end, slot->begin); // Perfetto: no negative spans
    slot->ended = how;
    closed_ = *slot;
    slot.reset();
}

void
TxnState::onRecord(const TraceRecord &r)
{
    opened_ = restarted_ = nullptr;
    closed_.reset();
    // The six boundary kinds lead the TraceEvent enum; the rest skip.
    static_assert(static_cast<int>(TraceEvent::TxnElide) == 0 &&
                  static_cast<int>(TraceEvent::TxnQuantumEnd) == 5);
    if (r.kind > TraceEvent::TxnQuantumEnd || r.cpu < 0)
        return;
    const auto idx = static_cast<size_t>(r.cpu);
    if (idx >= open_.size())
        open_.resize(idx + 1);
    std::optional<Txn> &slot = open_[idx];

    switch (r.kind) {
      case TraceEvent::TxnElide:
        // A re-elide after a restart continues the open instance; a
        // new one closes a dangling instance that never ended.
        if (!opensInstance(r))
            return;
        close(slot, r.tick, TxnEnd::Unfinished);
        slot = Txn{.serial = serial_++, .lock = r.addr,
                   .ts = unpackTs(r.a1, r.a2), .begin = r.tick, .cpu = r.cpu};
        opened_ = &*slot;
        return;
      case TraceEvent::TxnNest:
        if (slot)
            ++slot->nests;
        return;
      case TraceEvent::TxnRestart:
        if (!slot)
            return;
        ++slot->restarts;
        slot->lastRestart = r.tick;
        slot->lastRestartReason = restartReason(r);
        slot->lastRestartWinner = restartWinner(r);
        slot->inCommit = false;
        restarted_ = &*slot;
        if (endsInFallback(r)) {
            close(slot, r.tick, TxnEnd::Fallback);
            restarted_ = &*closed_;
        }
        return;
      case TraceEvent::TxnCommitStart:
        if (slot) {
            slot->inCommit = true;
            slot->commitStart = r.tick;
        }
        return;
      case TraceEvent::TxnCommit:
        close(slot, r.tick, TxnEnd::Commit);
        return;
      case TraceEvent::TxnQuantumEnd:
        close(slot, r.tick, TxnEnd::QuantumEnd);
        return;
      default:
        return;
    }
}

std::vector<Txn>
TxnState::finish(Tick now)
{
    std::vector<Txn> left;
    for (std::optional<Txn> &slot : open_) {
        if (slot) {
            close(slot, now, TxnEnd::Unfinished);
            left.push_back(*closed_);
        }
    }
    opened_ = restarted_ = nullptr;
    closed_.reset();
    return left;
}

} // namespace tlr
