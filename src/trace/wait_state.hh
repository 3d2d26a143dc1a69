/**
 * @file
 * The one wait-for model (DESIGN.md §10): a request deferred at a
 * transactional owner (paper Section 3.1) is an open wait, waiter →
 * owner on a line, from its CohDefer/CohRelaxedDefer record to the
 * CohService that lets it go. Owners call defer()/service() from the
 * defer and service cases of their own per-record switch.
 */

#ifndef TLR_TRACE_WAIT_STATE_HH
#define TLR_TRACE_WAIT_STATE_HH

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "trace/events.hh"

namespace tlr
{

/** Hop cap of every causal-chain walk. */
constexpr unsigned maxChainHops = 8;

/** Walk a wait-for chain: @p step(node) emits one hop and returns the
 *  next node, or null at the end. Stops after maxChainHops hops, or
 *  when @p id(node) repeats (a wait cycle). */
template <typename Node, typename Id, typename Step>
void
walkChain(const Node *node, Id id, Step step)
{
    std::set<decltype(id(node))> seen;
    for (unsigned hop = 0; node && hop < maxChainHops; ++hop) {
        if (!seen.insert(id(node)).second)
            return;
        node = step(node);
    }
}

/** One open deferral: @c waiter parked behind @c owner on @c line. */
struct Wait
{
    Addr line = 0;
    std::int16_t waiter = -1;
    std::int16_t owner = -1;
    Tick start = 0;        ///< tick of the first deferral
    bool relaxed = false;  ///< via the Section 3.2 relaxation
    Timestamp waiterTs;
    std::uint64_t ordinal = 0; ///< opening order, from 0
};

class WaitState
{
  public:
    using Key = std::pair<Addr, std::int16_t>; ///< (line, waiter)

    /** Open the wait a defer record describes; null when the key is
     *  already open (a re-defer keeps the first deferral). */
    const Wait *defer(const TraceRecord &r);

    /** Close and return the wait a CohService record lets go; null for
     *  a chain service with no open deferral. Also lastClosed() until
     *  the next service(). */
    const Wait *service(const TraceRecord &r);
    const Wait *lastClosed() const { return closed_ ? &*closed_ : nullptr; }

    /** Open waits in (line, waiter) order. */
    const std::map<Key, Wait> &open() const { return open_; }
    /** Live waiter count of every line with a waiter. */
    const std::map<Addr, unsigned> &queues() const { return queue_; }
    /** The next wait's ordinal. */
    std::uint64_t opened() const { return opened_; }

    /** The cpus, waiter first, of the first wait cycle the open wait
     *  @p w closes (depth-first in open() order); empty if none. */
    std::vector<std::int16_t> cycleThrough(const Wait &w) const;

    /** Live chain from @p line: its longest-waiting open wait, then
     *  that owner's longest-waiting open wait, and so on. */
    std::vector<const Wait *> chainFrom(Addr line) const;

  private:
    std::map<Key, Wait> open_;
    std::map<Addr, unsigned> queue_;
    std::uint64_t opened_ = 0;
    std::optional<Wait> closed_;
};

} // namespace tlr

#endif // TLR_TRACE_WAIT_STATE_HH
