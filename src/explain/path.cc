#include "explain/path.hh"

#include <algorithm>

namespace tlr
{

void
CriticalPathAccountant::classify(TxnInstance &t, const Intervals &o)
{
    const Tick begin = t.begin, end = t.end;
    if (end <= begin)
        return;

    // Every interval endpoint is a bound, so each segment between two
    // bounds lies wholly inside or outside each interval.
    std::vector<Tick> bounds{begin, end};
    auto cut = [&](const std::vector<Interval> &iv) {
        for (const Interval &i : iv) {
            bounds.push_back(std::clamp(i.start, begin, end));
            bounds.push_back(std::clamp(i.end, begin, end));
        }
    };
    cut(o.defer);
    cut(o.miss);
    const Tick lastRestart = std::clamp(t.lastRestart, begin, end);
    if (t.restarts > 0)
        bounds.push_back(lastRestart);
    std::sort(bounds.begin(), bounds.end());
    bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());

    auto covered = [](const std::vector<Interval> &iv, Tick a, Tick b) {
        return std::any_of(iv.begin(), iv.end(), [&](const Interval &i) {
            return i.start <= a && b <= i.end;
        });
    };
    for (size_t i = 0; i + 1 < bounds.size(); ++i) {
        const Tick a = bounds[i], b = bounds[i + 1];
        if (covered(o.defer, a, b))
            t.deferTicks += b - a;
        else if (covered(o.miss, a, b))
            t.missTicks += b - a;
        else if (t.restarts > 0 && b <= lastRestart)
            t.redoTicks += b - a;
        else
            t.execTicks += b - a;
    }

    // Longest single deferral → the causal-chain hop for this txn.
    for (const Interval &d : o.defer) {
        Tick s = std::max(d.start, begin);
        Tick e = std::min(d.end, end);
        if (s >= e)
            continue;
        if (e - s > t.longestDeferSpan) {
            t.longestDeferSpan = e - s;
            t.longestDeferOwner = d.owner;
            t.longestDeferLine = d.line;
            t.longestDeferTick = s;
        }
    }
}

void
CriticalPathAccountant::close(const Txn &t)
{
    const std::int16_t cpu = t.cpu;
    Intervals o;
    if (auto node = open_.extract(t.serial))
        o = std::move(node.mapped());

    // Attribute still-open wait intervals up to the close tick, once:
    // their later service is not charged again. Ordinals follow record
    // order, so a same-tick defer after this close is not clipped.
    std::uint64_t &charged = chargedBelow_[cpu];
    for (const auto &[key, w] : waits_.open()) {
        if (w.waiter != cpu || w.ordinal < charged)
            continue;
        o.defer.push_back({w.start, t.end, w.owner, key.first});
    }
    charged = waits_.opened();
    auto mit = missOpen_.lower_bound({cpu, 0});
    while (mit != missOpen_.end() && mit->first.first == cpu) {
        o.miss.push_back({mit->second, t.end});
        mit = missOpen_.erase(mit);
    }

    TxnInstance inst;
    static_cast<Txn &>(inst) = t;
    classify(inst, o);
    byCpu_[cpu].push_back(instances_.size());
    instances_.push_back(std::move(inst));
}

void
CriticalPathAccountant::onRecord(const TraceRecord &r)
{
    if (const Txn *t = txns_.closed())
        close(*t);
    switch (r.kind) {
      case TraceEvent::CohService: {
        // The graph builder closed the wait on this same record.
        const Wait *w = waits_.lastClosed();
        if (!w || w->ordinal < chargedBelow_[w->waiter])
            return;
        if (const Txn *t = txns_.open(w->waiter))
            open_[t->serial].defer.push_back(
                {w->start, r.tick, w->owner, r.addr});
        return;
      }
      case TraceEvent::CohMiss:
        missOpen_[{r.cpu, r.addr}] = r.tick;
        return;
      case TraceEvent::LineInstall: {
        auto mit = missOpen_.find({r.cpu, r.addr});
        if (mit == missOpen_.end())
            return;
        if (const Txn *t = txns_.open(r.cpu))
            open_[t->serial].miss.push_back({mit->second, r.tick});
        missOpen_.erase(mit);
        return;
      }
      default:
        return;
    }
}

void
CriticalPathAccountant::finish(const std::vector<Txn> &unfinished)
{
    for (const Txn &t : unfinished)
        close(t);
}

const TxnInstance *
CriticalPathAccountant::instanceAt(std::int16_t cpu, Tick tick) const
{
    auto it = byCpu_.find(cpu);
    if (it == byCpu_.end())
        return nullptr;
    const std::vector<size_t> &idx = it->second;
    // Last instance with begin <= tick (instances on one cpu are
    // chronological and non-overlapping).
    auto pos = std::upper_bound(
        idx.begin(), idx.end(), tick, [this](Tick t, size_t i) {
            return t < instances_[i].begin;
        });
    if (pos == idx.begin())
        return nullptr;
    const TxnInstance &cand = instances_[*(pos - 1)];
    return (tick <= cand.end) ? &cand : nullptr;
}

} // namespace tlr
