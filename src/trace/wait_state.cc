#include "trace/wait_state.hh"

namespace tlr
{

const Wait *
WaitState::defer(const TraceRecord &r)
{
    Wait w{r.addr, static_cast<std::int16_t>(r.a0), r.cpu, r.tick,
           r.kind == TraceEvent::CohRelaxedDefer, unpackTs(r.a2, r.a3),
           opened_};
    auto [it, opened] = open_.try_emplace({w.line, w.waiter}, w);
    if (!opened)
        return nullptr;
    ++opened_;
    ++queue_[w.line];
    return &it->second;
}

const Wait *
WaitState::service(const TraceRecord &r)
{
    closed_.reset();
    auto it = open_.find({r.addr, static_cast<std::int16_t>(r.a0)});
    if (it == open_.end())
        return nullptr;
    closed_ = it->second;
    open_.erase(it);
    auto q = queue_.find(r.addr);
    if (--q->second == 0)
        queue_.erase(q);
    return &*closed_;
}

std::vector<std::int16_t>
WaitState::cycleThrough(const Wait &w) const
{
    // w.waiter → w.owner closes a cycle iff the owner already waits,
    // transitively, on the waiter. Keep one concrete path: the first
    // found, deterministic through the ordered map.
    std::vector<std::int16_t> path{w.waiter, w.owner};
    std::set<std::int16_t> seen{w.waiter, w.owner};
    auto walk = [&](auto &self, std::int16_t from) -> bool {
        for (const auto &[key, e] : open_) {
            if (e.waiter != from)
                continue;
            if (e.owner == w.waiter)
                return true;
            if (!seen.insert(e.owner).second)
                continue;
            path.push_back(e.owner);
            if (self(self, e.owner))
                return true;
            path.pop_back();
        }
        return false;
    };
    if (!walk(walk, w.owner))
        path.clear();
    return path;
}

std::vector<const Wait *>
WaitState::chainFrom(Addr line) const
{
    // Earliest-started open wait passing @p pred; ties go to the first
    // in (line, waiter) order.
    auto earliest = [this](auto pred) {
        const Wait *best = nullptr;
        for (const auto &[key, w] : open_)
            if (pred(w) && (!best || w.start < best->start))
                best = &w;
        return best;
    };
    std::vector<const Wait *> chain;
    walkChain(earliest([&](const Wait &w) { return w.line == line; }),
              [](const Wait *w) { return w->waiter; },
              [&](const Wait *w) {
                  chain.push_back(w);
                  return earliest([&](const Wait &next) {
                      return next.waiter == w->owner;
                  });
              });
    return chain;
}

} // namespace tlr
