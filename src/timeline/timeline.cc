#include "timeline/timeline.hh"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "sim/build_info.hh"
#include "sim/logging.hh"
#include "trace/events.hh"
#include "trace/txn_state.hh"

namespace tlr
{

namespace
{

/** EpochRow columns in CSV/JSON order, named as in both. */
constexpr std::pair<const char *, std::uint64_t EpochRow::*> rowColumns[] = {
    {"epoch", &EpochRow::epoch},
    {"start_tick", &EpochRow::startTick},
    {"records", &EpochRow::records},
    {"commits", &EpochRow::commits},
    {"restarts", &EpochRow::restarts},
    {"fallbacks", &EpochRow::fallbacks},
    {"elisions", &EpochRow::elisions},
    {"quantum_ends", &EpochRow::quantumEnds},
    {"defers", &EpochRow::defers},
    {"services", &EpochRow::services},
    {"orders", &EpochRow::orders},
    {"defer_wait_sum", &EpochRow::deferWaitSum},
    {"defer_wait_count", &EpochRow::deferWaitCount},
    {"defer_wait_max", &EpochRow::deferWaitMax},
    {"max_defer_depth", &EpochRow::maxDeferDepth},
    {"max_queue", &EpochRow::maxQueue},
    {"hot_line", &EpochRow::hotLine},
    {"hot_score", &EpochRow::hotScore},
};

} // namespace

EpochTimeline::EpochTimeline(Tick epoch_len) : len_(epoch_len)
{
    if (len_ == 0)
        panic("EpochTimeline requires a positive epoch length");
}

void
EpochTimeline::onRecord(const TraceRecord &r)
{
    if (finished_)
        return;
    // The sink delivers records in nondecreasing tick order (events
    // execute in tick order), so epoch boundaries are crossings, never
    // back-fills.
    while (r.tick >= static_cast<Tick>(cur_ + 1) * len_)
        closeEpoch();

    ++acc_.records;
    switch (r.kind) {
      case TraceEvent::TxnElide:
        if (opensInstance(r))
            ++acc_.elisions;
        return;
      case TraceEvent::TxnCommit:
        ++acc_.commits;
        return;
      case TraceEvent::TxnRestart:
        ++acc_.restarts;
        if (endsInFallback(r))
            ++acc_.fallbacks;
        if (r.addr != 0)
            ++epochScore_[r.addr];
        return;
      case TraceEvent::TxnQuantumEnd:
        ++acc_.quantumEnds;
        return;
      case TraceEvent::CohDefer:
      case TraceEvent::CohRelaxedDefer: {
        ++acc_.defers;
        ++epochScore_[r.addr];
        if (waits_.defer(r)) {
            std::uint64_t &hi = epochQueueMax_[r.addr];
            hi = std::max<std::uint64_t>(hi, waits_.queues().at(r.addr));
        }
        return;
      }
      case TraceEvent::CohService: {
        ++acc_.services;
        if (const Wait *w = waits_.service(r)) {
            std::uint64_t span = r.tick - w->start;
            acc_.deferWaitSum += span;
            ++acc_.deferWaitCount;
            acc_.deferWaitMax = std::max(acc_.deferWaitMax, span);
            waitHist_.record(span);
        }
        return;
      }
      case TraceEvent::CohDeferDepth:
        acc_.maxDeferDepth = std::max(acc_.maxDeferDepth, r.a0);
        return;
      case TraceEvent::CohOrder:
        ++acc_.orders;
        return;
      default:
        return;
    }
}

void
EpochTimeline::finish(Tick now)
{
    if (finished_)
        return;
    // finished_ goes up first so the epoch callback (a live progress
    // line) stays quiet while the final rows are closed.
    finished_ = true;
    finalTick_ = now;
    while (now >= static_cast<Tick>(cur_ + 1) * len_)
        closeEpoch();
    closeEpoch(); // the partial final epoch containing `now`
}

void
EpochTimeline::closeEpoch()
{
    Tick boundary = static_cast<Tick>(cur_ + 1) * len_;
    // Hottest line of the epoch: most defers + conflict restarts, ties
    // to the lowest address (map order makes the scan deterministic).
    for (const auto &[line, score] : epochScore_) {
        if (score > acc_.hotScore) {
            acc_.hotScore = score;
            acc_.hotLine = line;
        }
    }
    for (const auto &[line, hi] : epochQueueMax_)
        acc_.maxQueue = std::max(acc_.maxQueue, hi);

    runDetectors(acc_, boundary);
    rows_.push_back(acc_);

    histRestarts_.push_back(acc_.restarts);
    histCommits_.push_back(acc_.commits);
    if (histRestarts_.size() > trailingWindow) {
        histRestarts_.erase(histRestarts_.begin());
        histCommits_.erase(histCommits_.begin());
    }
    if (onEpoch_ && !finished_)
        onEpoch_(rows_.back(), alerts_.size());

    ++cur_;
    acc_ = EpochRow{};
    acc_.epoch = cur_;
    acc_.startTick = boundary;
    epochScore_.clear();
    // Waiters still parked carry their queue into the next epoch: a
    // convoy that persists keeps its high-water mark without needing
    // fresh deferrals.
    epochQueueMax_.clear();
    for (const auto &[line, q] : waits_.queues())
        epochQueueMax_[line] = q;
}

void
EpochTimeline::runDetectors(const EpochRow &row, Tick boundary)
{
    // Trailing histories exclude the row being closed (they are
    // appended after detection), so each detector compares the new
    // epoch against up to trailingWindow previous ones.

    // 1. Restart storm: restarts spike to stormFactor x the trailing
    //    mean (an empty history counts as mean 0, so a storm that
    //    starts at epoch 0 — the Figure 2 livelock — still fires).
    {
        std::uint64_t sum = std::accumulate(
            histRestarts_.begin(), histRestarts_.end(), std::uint64_t{0});
        std::uint64_t n = std::max<std::uint64_t>(histRestarts_.size(), 1);
        bool storm = row.restarts >= stormMinRestarts &&
                     row.restarts * n > stormFactor * sum;
        if (storm && !stormActive_) {
            std::uint64_t thr = std::max(stormMinRestarts,
                                         stormFactor * sum / n);
            fire("restart-storm", row.hotLine, row.restarts, thr,
                 boundary);
        }
        stormActive_ = storm;
    }

    // 2. Convoy onset: a line's simultaneous-waiter queue reached
    //    convoyMinQueue this epoch. Per line, edge-triggered: the line
    //    re-arms once its queue high-water mark drops back below the
    //    threshold.
    for (const auto &[line, hi] : epochQueueMax_) {
        if (hi >= convoyMinQueue && convoyActive_.insert(line).second)
            fire("convoy", line, hi, convoyMinQueue, boundary);
    }
    std::erase_if(convoyActive_, [&](Addr line) {
        auto it = epochQueueMax_.find(line);
        return it == epochQueueMax_.end() || it->second < convoyMinQueue;
    });

    // 3. Starvation: an open deferral's age crosses a threshold
    //    derived from the completed-wait distribution (starvationFactor
    //    x p99), floored at four epochs so sparse histograms cannot
    //    trip it on ordinary waits. One alert per (line, waiter).
    {
        double p99 = waitHist_.percentile(starvationPercentile);
        std::uint64_t thr = std::max<std::uint64_t>(
            4 * len_,
            starvationFactor * static_cast<std::uint64_t>(p99));
        for (const auto &[key, w] : waits_.open()) {
            std::uint64_t age = boundary - w.start;
            if (age > thr && starvedAlerted_.insert(key).second)
                fire("starvation", key.first, age, thr, boundary);
        }
    }

    // 4. Throughput collapse: commits drop below 1/collapseFactor of
    //    the trailing mean while conflicts (restarts or deferrals)
    //    continue — progress stopped, activity did not.
    {
        std::uint64_t sum = std::accumulate(
            histCommits_.begin(), histCommits_.end(), std::uint64_t{0});
        std::uint64_t n = histCommits_.size();
        bool collapse = n > 0 && sum >= collapseMinCommits &&
                        row.commits * collapseFactor * n < sum &&
                        (row.restarts + row.defers) > 0;
        if (collapse && !collapseActive_)
            fire("throughput-collapse", row.hotLine, row.commits,
                 sum / (n * collapseFactor), boundary);
        collapseActive_ = collapse;
    }
}

void
EpochTimeline::fire(const std::string &kind, Addr line,
                    std::uint64_t value, std::uint64_t threshold,
                    Tick boundary)
{
    TimelineAlert a;
    a.kind = kind;
    a.epoch = cur_;
    a.line = line;
    a.value = value;
    a.threshold = threshold;
    // "cpu3 waits on cpu1 (line 0x80, 120t) -> cpu1 waits on ...".
    for (const Wait *w : waits_.chainFrom(line)) {
        if (!a.chain.empty())
            a.chain += " -> ";
        a.chain += strfmt("cpu%d waits on cpu%d (line %#llx, %llut)",
                          w->waiter, w->owner,
                          static_cast<unsigned long long>(w->line),
                          static_cast<unsigned long long>(boundary -
                                                          w->start));
    }
    alerts_.push_back(std::move(a));
}

std::string
EpochTimeline::csv() const
{
    std::string out;
    out += strfmt("# tlr-timeline schema=%d epoch_len=%llu "
                  "final_tick=%llu epochs=%zu alerts=%zu\n",
                  timelineSchemaVersion,
                  static_cast<unsigned long long>(len_),
                  static_cast<unsigned long long>(finalTick_),
                  rows_.size(), alerts_.size());
    const char *sep = "";
    for (const auto &[name, field] : rowColumns) {
        out += sep;
        out += name;
        sep = ",";
    }
    out += "\n";
    for (const EpochRow &e : rows_) {
        sep = "";
        for (const auto &[name, field] : rowColumns) {
            out += sep;
            out += field == &EpochRow::hotLine
                       ? strfmt("%#llx",
                                static_cast<unsigned long long>(e.*field))
                       : std::to_string(e.*field);
            sep = ",";
        }
        out += "\n";
    }
    for (const TimelineAlert &a : alerts_) {
        out += strfmt("alert,%s,%llu,%#llx,%llu,%llu,\"%s\"\n",
                      a.kind.c_str(),
                      static_cast<unsigned long long>(a.epoch),
                      static_cast<unsigned long long>(a.line),
                      static_cast<unsigned long long>(a.value),
                      static_cast<unsigned long long>(a.threshold),
                      a.chain.c_str());
    }
    return out;
}

std::string
EpochTimeline::json() const
{
    std::ostringstream os;
    os << "{\n";
    os << "    \"schema\": " << timelineSchemaVersion << ",\n";
    os << "    \"epoch_len\": " << len_ << ",\n";
    os << "    \"final_tick\": " << finalTick_ << ",\n";
    os << "    \"epochs\": [";
    for (size_t i = 0; i < rows_.size(); ++i) {
        const EpochRow &e = rows_[i];
        os << (i == 0 ? "\n" : ",\n");
        const char *sep = "      {";
        for (const auto &[name, field] : rowColumns) {
            os << sep << '"' << name << "\": " << e.*field;
            sep = ", ";
        }
        os << "}";
    }
    os << (rows_.empty() ? "],\n" : "\n    ],\n");
    os << "    \"alerts\": [";
    for (size_t i = 0; i < alerts_.size(); ++i) {
        const TimelineAlert &a = alerts_[i];
        os << (i == 0 ? "\n" : ",\n");
        os << strfmt("      {\"kind\": \"%s\", \"epoch\": %llu, "
                     "\"line\": %llu, \"value\": %llu, "
                     "\"threshold\": %llu, \"chain\": \"%s\"}",
                     a.kind.c_str(),
                     static_cast<unsigned long long>(a.epoch),
                     static_cast<unsigned long long>(a.line),
                     static_cast<unsigned long long>(a.value),
                     static_cast<unsigned long long>(a.threshold),
                     a.chain.c_str());
    }
    os << (alerts_.empty() ? "]\n  }" : "\n    ]\n  }");
    return os.str();
}

std::string
EpochTimeline::report() const
{
    std::string out;
    out += strfmt("-- timeline (epoch = %llu cycles, %zu epochs, "
                  "%zu alerts) --\n",
                  static_cast<unsigned long long>(len_), rows_.size(),
                  alerts_.size());
    const EpochRow *busiest = nullptr;
    for (const EpochRow &e : rows_)
        if (!busiest || e.records > busiest->records)
            busiest = &e;
    if (busiest && busiest->records > 0) {
        out += strfmt("  busiest epoch %llu: %llu commits, "
                      "%llu restarts, %llu defers (hot line %#llx)\n",
                      static_cast<unsigned long long>(busiest->epoch),
                      static_cast<unsigned long long>(busiest->commits),
                      static_cast<unsigned long long>(busiest->restarts),
                      static_cast<unsigned long long>(busiest->defers),
                      static_cast<unsigned long long>(busiest->hotLine));
    }
    if (alerts_.empty()) {
        out += "  (no alerts)\n";
        return out;
    }
    for (const TimelineAlert &a : alerts_) {
        out += strfmt("  [epoch %llu] %s: %llu vs threshold %llu on "
                      "line %#llx\n",
                      static_cast<unsigned long long>(a.epoch),
                      a.kind.c_str(),
                      static_cast<unsigned long long>(a.value),
                      static_cast<unsigned long long>(a.threshold),
                      static_cast<unsigned long long>(a.line));
        if (!a.chain.empty())
            out += strfmt("      chain: %s\n", a.chain.c_str());
    }
    return out;
}

std::vector<CounterTrack>
EpochTimeline::counterTracks() const
{
    std::vector<CounterTrack> tracks(3);
    tracks[0].name = "epoch commits";
    tracks[1].name = "epoch restarts";
    tracks[2].name = "epoch defers";
    for (const EpochRow &e : rows_) {
        tracks[0].samples.emplace_back(e.startTick, e.commits);
        tracks[1].samples.emplace_back(e.startTick, e.restarts);
        tracks[2].samples.emplace_back(e.startTick, e.defers);
    }
    return tracks;
}

} // namespace tlr
