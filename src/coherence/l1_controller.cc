#include "coherence/l1_controller.hh"

#include "sim/logging.hh"
#include "trace/checkers.hh"

namespace tlr
{

const char *
abortReasonName(AbortReason r)
{
    switch (r) {
      case AbortReason::ConflictLost: return "conflict-lost";
      case AbortReason::SharedInvalidation: return "shared-invalidation";
      case AbortReason::ProbeLost: return "probe-lost";
      case AbortReason::PendingInvalidated: return "pending-invalidated";
      case AbortReason::ResourceVictimFull: return "victim-full";
      case AbortReason::ResourceWriteBuffer: return "write-buffer-full";
      case AbortReason::ResourceStructural: return "structural";
      case AbortReason::Unbufferable: return "unbufferable";
      case AbortReason::Preempted: return "preempted";
      case AbortReason::QuantumExpired: return "quantum-expired";
    }
    return "?";
}

L1Controller::L1Controller(EventQueue &eq, StatSet &stats, CpuId id,
                           L1Params params, Interconnect &net,
                           MemoryController &mem, SpecHooks &hooks)
    : eq_(eq), stats_(stats), id_(id), params_(params), net_(net),
      mem_(mem), hooks_(hooks), array_(params.sizeBytes, params.ways),
      victim_(params.victimEntries),
      hits_(stats.counter("l1_" + std::to_string(id), "hits")),
      misses_(stats.counter("l1_" + std::to_string(id), "misses")),
      upgrades_(stats.counter("l1_" + std::to_string(id), "upgrades")),
      defers_(stats.counter("l1_" + std::to_string(id), "defers")),
      relaxedDefers_(
          stats.counter("l1_" + std::to_string(id), "relaxedDefers")),
      probesSent_(stats.counter("l1_" + std::to_string(id), "probesSent")),
      writeBacksInit_(
          stats.counter("l1_" + std::to_string(id), "writeBacks")),
      victimInserts_(
          stats.counter("l1_" + std::to_string(id), "victimInserts"))
{
}

//
// ---- lookup / replacement ---------------------------------------------
//

CacheLine *
L1Controller::findLine(Addr line_addr)
{
    if (CacheLine *l = array_.find(line_addr))
        return l;
    if (CacheLine *v = victim_.find(line_addr)) {
        // Lazy promotion: move back only if a way is free, avoiding an
        // eviction cascade; otherwise operate on the line in place.
        CacheLine *slot = array_.allocateSlot(line_addr);
        if (slot && !isValidState(slot->state)) {
            array_.assign(*slot, *v);
            victim_.erase(line_addr);
            return slot;
        }
        return v;
    }
    return nullptr;
}

const CacheLine *
L1Controller::peekLine(Addr line_addr) const
{
    if (const CacheLine *l = array_.find(line_addr))
        return l;
    return victim_.find(line_addr);
}

bool
L1Controller::evictLine(CacheLine &line)
{
    if (line.inTransaction() && hooks_.specActive()) {
        CacheLine copy = line;
        if (victim_.insert(copy)) {
            ++victimInserts_;
            array_.invalidate(line);
            return true;
        }
        // Victim cache full of transactional lines: the resource
        // guarantee of paper Section 3.3 is exceeded; fall back.
        hooks_.resourceAbort(line.addr, AbortReason::ResourceVictimFull);
        // Access bits are now cleared; fall through to a normal evict.
    }
    if (isDirtyState(line.state)) {
        mem_.writeBack(line.addr, line.data);
        net_.submit({ReqType::WriteBack, line.addr, id_, Timestamp{}, 0});
        ++writeBacksInit_;
    }
    dropLine(line); // an array line: the victim cache holds no copy
    return true;
}

void
L1Controller::dropLine(CacheLine &line)
{
    const Addr la = line.addr;
    clearLinkIf(la);
    if (TLR_TRACE_ARMED(trace_))
        trace_->emit(eq_.now(), TraceComp::L1, TraceEvent::LineInval, id_,
                     la);
    array_.invalidate(line);
    victim_.erase(la);
}

CacheLine *
L1Controller::installLine(Addr line_addr, const LineData &data,
                          CohState state)
{
    CacheLine *slot = array_.allocateSlot(line_addr);
    if (!slot) {
        if (hooks_.specActive()) {
            hooks_.resourceAbort(line_addr,
                                 AbortReason::ResourceStructural);
            slot = array_.allocateSlot(line_addr);
        }
        if (!slot)
            panic("l1 %d: no allocatable way for line %#llx", id_,
                  static_cast<unsigned long long>(line_addr));
    }
    if (isValidState(slot->state))
        evictLine(*slot);
    array_.invalidate(*slot);
    slot->addr = line_addr;
    slot->state = state;
    slot->data = data;
    array_.touch(*slot, eq_.now());
    if (TLR_TRACE_ARMED(trace_))
        trace_->emit(eq_.now(), TraceComp::L1, TraceEvent::LineInstall,
                     id_, line_addr,
                     static_cast<std::uint64_t>(state));
    return slot;
}

//
// ---- engine-facing request path ---------------------------------------
//

void
L1Controller::respond(const CacheOp &op, std::uint64_t value)
{
    eq_.scheduleIn(params_.hitLatency,
                   [this, op, value] { hooks_.cacheOpDone(op, value); },
                   EventPrio::DataResponse);
}

template <class Visit>
bool
L1Controller::anyEarlierContender(Visit &&visit)
{
    // The contenders this transaction holds off that carry an earlier
    // timestamp: its deferred requests (no MSHR), then the deferred
    // chain waiters of every miss the transaction depends on. Stops at
    // the first one @p visit accepts.
    const Timestamp mine = hooks_.currentTs();
    for (const auto &d : deferred_)
        if (d.ts.valid && d.ts.earlierThan(mine) &&
            visit(d.line, d.cpu, d.ts, static_cast<Mshr *>(nullptr)))
            return true;
    for (auto &[la, m] : mshrs_) {
        if (!m.awaitedBySpec())
            continue;
        for (const Waiter &w : m.waiters)
            if (w.deferred && w.ts.valid && w.ts.earlierThan(mine) &&
                visit(la, w.cpu, w.ts, &m))
                return true;
    }
    return false;
}

bool
L1Controller::hasEarlierContender(Addr *line_out)
{
    auto found = [line_out](Addr la) {
        if (line_out)
            *line_out = la;
        return true;
    };
    if (anyEarlierContender([&](Addr la, CpuId, const Timestamp &,
                                Mshr *) { return found(la); }))
        return true;
    // A relax-ignored probe still counts while the transaction retains
    // the line it named.
    const Timestamp mine = hooks_.currentTs();
    for (const auto &[la, hint] : probeHints_) {
        if (!hint.valid || !hint.earlierThan(mine))
            continue;
        const CacheLine *l = findLine(la);
        auto mit = mshrs_.find(la);
        if ((l && isOwnerState(l->state) && l->inTransaction()) ||
            (mit != mshrs_.end() && mit->second.awaitedBySpec()))
            return found(la);
    }
    return false;
}

void
L1Controller::forwardProbe(Mshr &mshr, const Timestamp &ts)
{
    // Toward the data: to the upstream chain neighbor once its marker
    // arrived, else held (earliest wins) until it does.
    if (mshr.markerFrom != invalidCpu) {
        net_.sendProbe(mshr.markerFrom, {mshr.line, ts, id_});
        ++probesSent_;
    } else if (!mshr.pendingProbe || ts.earlierThan(*mshr.pendingProbe)) {
        mshr.pendingProbe = ts;
    }
}

void
L1Controller::forwardContenderProbes()
{
    // Push the priority of every held-off higher-priority contender
    // toward the data its chain is rooted at, so upstream holders
    // learn about it (paper Section 3.1.1).
    anyEarlierContender([this](Addr, CpuId, const Timestamp &ts, Mshr *m) {
        if (m) {
            forwardProbe(*m, ts);
            m->loseOnArrival = true;
        }
        return false;
    });
}

bool
L1Controller::detectTwoCycle(Addr *line_out)
{
    // A locally certain deadlock: an earlier-timestamp contender C is
    // queued behind us (so C waits on us) while our upstream neighbor
    // for some outstanding transactional miss is C itself (so we wait
    // on C). Neither can commit; no timer needed.
    for (const auto &[la, m] : mshrs_) {
        if (!m.awaitedBySpec() || m.markerFrom == invalidCpu)
            continue;
        const CpuId upstream = m.markerFrom;
        if (anyEarlierContender([upstream](Addr, CpuId c,
                                           const Timestamp &, Mshr *) {
                return c == upstream;
            })) {
            if (line_out)
                *line_out = la;
            return true;
        }
    }
    return false;
}

void
L1Controller::maybeArmYield()
{
    if (!hooks_.tlrActive() || hooks_.strictTimestamps())
        return;
    Addr cycleLine = 0;
    if (hooks_.specActive() && outstandingSpecMisses() > 0 &&
        detectTwoCycle(&cycleLine)) {
        yieldTo(cycleLine);
        return;
    }
    if (yieldArmed_)
        return;
    if (outstandingSpecMisses() == 0)
        return; // not waiting for anything: we will commit and service
    if (!hasEarlierContender())
        return;
    yieldArmed_ = true;
    const std::uint64_t gen = ++yieldGen_;
    eq_.scheduleIn(params_.yieldTimeout,
                   [this, gen] { yieldFire(gen); });
}

void
L1Controller::yieldFire(std::uint64_t gen)
{
    if (gen != yieldGen_ || !yieldArmed_)
        return;
    yieldArmed_ = false;
    if (!hooks_.specActive() || !hooks_.tlrActive())
        return;
    if (outstandingSpecMisses() == 0)
        return; // the wait resolved: commit is imminent
    Addr line = 0;
    if (!hasEarlierContender(&line)) {
        maybeArmYield(); // still waiting; re-arm if one appears
        return;
    }
    // We have both waited for yieldTimeout and held off a
    // higher-priority contender the whole time: a cyclic wait is the
    // only schedule that cannot drain, so enforce timestamp order.
    yieldTo(line);
}

void
L1Controller::yieldTo(Addr line_addr)
{
    // Enforce timestamp order: hand every held-off earlier contender's
    // priority upstream, then restart.
    if (TLR_TRACE_ARMED(trace_))
        trace_->emit(eq_.now(), TraceComp::L1, TraceEvent::CohYield, id_,
                     line_addr);
    forwardContenderProbes();
    hooks_.conflictAbort(line_addr, AbortReason::ConflictLost);
}

bool
L1Controller::yieldBeforeWaiting(Addr la, bool spec)
{
    // Strict mode enforces timestamp order the moment a new wait would
    // begin while a higher-priority contender is held off (paper
    // Section 3.2). Relaxed mode allows the wait; the deadlock-recovery
    // timer enforces the order only if the wait persists.
    if (!spec || !hooks_.tlrActive() || !hooks_.strictTimestamps() ||
        !hasEarlierContender())
        return false;
    yieldTo(la);
    return true;
}

void
L1Controller::missIssue(const CacheOp &op, ReqType type)
{
    Addr la = lineAlign(op.addr);
    if (yieldBeforeWaiting(la, op.spec))
        return;
    if (TLR_TRACE_ARMED(trace_))
        trace_->emit(eq_.now(), TraceComp::L1, TraceEvent::CohMiss, id_,
                     la, static_cast<std::uint64_t>(type),
                     op.spec ? 1 : 0);
    ++misses_;
    if (type == ReqType::Upgrade)
        ++upgrades_;
    Mshr m;
    m.type = type;
    m.line = la;
    m.spec = op.spec;
    m.op = op;
    mshrs_.emplace(la, std::move(m));
    Timestamp ts = op.spec ? hooks_.currentTs() : Timestamp{};
    net_.submit({type, la, id_, ts, 0});
    if (op.spec)
        maybeArmYield();
}

void
L1Controller::access(const CacheOp &op)
{
    Addr la = lineAlign(op.addr);
    auto mit = mshrs_.find(la);
    if (mit != mshrs_.end()) {
        // A restart re-issued an access to a line whose miss (from the
        // squashed attempt) is still in flight: complete it afterwards.
        // Queueing is a wait, so the same yield rules apply.
        if (yieldBeforeWaiting(la, op.spec))
            return;
        if (mit->second.queuedOp)
            panic("l1 %d: two queued ops for line %#llx", id_,
                  static_cast<unsigned long long>(la));
        mit->second.queuedOp = op;
        return;
    }

    CacheLine *l = findLine(la);
    if (op.kind == CacheOp::Kind::StoreCond && !linkValid(op.addr)) {
        applyOp(op, nullptr); // a broken link fails without an access
        return;
    }
    const bool load = op.kind == CacheOp::Kind::LoadShared ||
                      op.kind == CacheOp::Kind::LoadExclusive;
    if (!l || (!load && !isWritableState(l->state))) {
        // A load misses only on an absent line.
        missIssue(op, op.kind == CacheOp::Kind::LoadShared ? ReqType::GetS
                      : l                                  ? ReqType::Upgrade
                                                           : ReqType::GetX);
        return;
    }
    ++hits_;
    array_.touch(*l, eq_.now());
    applyOp(op, l);
}

//
// ---- snooping ----------------------------------------------------------
//

bool
L1Controller::conflicts(const BusRequest &req, bool read_set,
                        bool write_set) const
{
    if (req.type == ReqType::GetS)
        return write_set;
    return read_set || write_set; // GetX / Upgrade
}

bool
L1Controller::winsConflict(const Timestamp &incoming) const
{
    if (!hooks_.tlrActive())
        return false; // SLE alone cannot defer: it always restarts
    if (!incoming.valid)
        return hooks_.deferUntimestamped();
    // Win unless the incoming timestamp is strictly earlier. Equality
    // means the request is our own (timestamps are globally unique):
    // a probe carrying our priority must never restart us.
    return !incoming.earlierThan(hooks_.currentTs());
}

void
L1Controller::emitDefer(const BusRequest &req, bool relaxed)
{
    // The deferral, then the backlog it grows (counting @p req, which
    // the caller queues next).
    if (!TLR_TRACE_ARMED(trace_))
        return;
    trace_->emit(eq_.now(), TraceComp::L1,
                 relaxed ? TraceEvent::CohRelaxedDefer : TraceEvent::CohDefer,
                 id_, req.line, req.requester,
                 static_cast<std::uint64_t>(req.type), req.ts.clock,
                 packTsMeta(req.ts));
    trace_->emit(eq_.now(), TraceComp::L1, TraceEvent::CohDeferDepth, id_, 0,
                 deferredDepth() + 1);
}

void
L1Controller::emitLose(Addr line_addr, const Timestamp &winner)
{
    if (!TLR_TRACE_ARMED(trace_))
        return;
    const Timestamp own = hooks_.currentTs();
    trace_->emit(eq_.now(), TraceComp::L1, TraceEvent::CohLose, id_,
                 line_addr, winner.clock, packTsMeta(winner), own.clock,
                 packTsMeta(own));
}

std::uint64_t
L1Controller::deferredDepth() const
{
    std::uint64_t n = deferred_.size();
    for (const auto &[la, m] : mshrs_) {
        (void)la;
        for (const Waiter &w : m.waiters)
            if (w.deferred)
                ++n;
    }
    return n;
}

bool
L1Controller::deferredExclusive(Addr line_addr) const
{
    for (const auto &d : deferred_)
        if (d.line == line_addr && d.type != ReqType::GetS)
            return true;
    return false;
}

void
L1Controller::handleChainSnoop(Mshr &mshr, const BusRequest &req)
{
    Waiter w{req.requester, req.type, req.ts, false};
    // Tell the new pending owner who its upstream neighbor is so it
    // can forward probes toward the data (paper Section 3.1.1).
    net_.sendMarker(req.requester, {mshr.line, id_});

    // Propagate the request's priority toward the data holder at the
    // head of the chain ("conflicting requests must propagate along
    // the coherence chain towards the root"). The holder compares
    // timestamps itself: a winner ignores the probe, a loser releases
    // the block. We cannot make that decision here — the holder may
    // be a multi-block transaction that has to yield even when we
    // would not.
    if (req.ts.valid)
        forwardProbe(mshr, req.ts);

    bool writeIntent =
        mshr.op && (mshr.op->kind == CacheOp::Kind::EnsureExclusive ||
                    mshr.op->kind == CacheOp::Kind::Store ||
                    mshr.op->kind == CacheOp::Kind::StoreCond ||
                    mshr.op->kind == CacheOp::Kind::AtomicSwap ||
                    mshr.op->kind == CacheOp::Kind::AtomicCas);
    bool readIntent = mshr.op && !writeIntent;

    bool holdsEarlier = false;
    if (mshr.spec && hooks_.specActive() &&
        conflicts(req, readIntent, writeIntent)) {
        hooks_.noteConflictTs(req.ts);
        bool win = winsConflict(req.ts);
        bool relaxed = false;
        if (!win && hooks_.tlrActive() && !hooks_.strictTimestamps() &&
            outstandingSpecMisses() == 1 && deferred_.empty()) {
            // Paper Section 3.2: our transaction is involved with a
            // single contended block (this one), so we are not a
            // deadlock risk ourselves and may stay queued; the probe
            // sent above carries the contender's priority to the
            // data holder, which yields if it must.
            win = true;
            relaxed = true;
            ++relaxedDefers_;
        }
        if (!win && !hooks_.strictTimestamps() && req.ts.valid) {
            // Higher-priority contender behind us in the chain. The
            // probe above already carries its priority upstream; keep
            // it queued and let the deadlock-recovery timer enforce
            // timestamp order only if this wait persists — in an
            // order-consistent queue we finish first and service it.
            win = true;
            relaxed = true;
        }
        if (win) {
            // The requester waits until we commit.
            w.deferred = true;
            ++defers_;
            emitDefer(req, relaxed); // w joins mshr.waiters below
            holdsEarlier =
                req.ts.valid && req.ts.earlierThan(hooks_.currentTs());
        } else {
            // Strict mode / un-deferrable: step aside immediately.
            if (hooks_.tlrActive())
                emitLose(mshr.line, req.ts);
            mshr.loseOnArrival = true;
            hooks_.conflictAbort(mshr.line, AbortReason::ConflictLost);
        }
    }

    mshr.waiters.push_back(w);
    if (req.type != ReqType::GetS)
        mshr.ownershipPassed = true;
    if (holdsEarlier)
        maybeArmYield();
}

void
L1Controller::handleOwnerSnoop(CacheLine &line, const BusRequest &req,
                               SnoopReply &reply)
{
    Addr la = req.line;
    if (hooks_.specActive() &&
        conflicts(req, line.accessRead(), line.accessWrite())) {
        hooks_.noteConflictTs(req.ts);
        // Only an exclusively owned block (M/E) is retainable (paper
        // Fig. 3). An Owned copy implies we may ourselves need an
        // upgrade for it, so holding requests hostage from O could
        // invert the protocol order: lose the conflict instead.
        bool win = isWritableState(line.state) && winsConflict(req.ts);
        bool relaxed = false;
        if (!win && isWritableState(line.state) && hooks_.tlrActive() &&
            !hooks_.strictTimestamps() && req.ts.valid) {
            // Relaxed mode: retain the block and queue even a
            // higher-priority request (paper Section 3.2 generalized).
            // If we are not waiting for anything we commit first and
            // service it; if we are, the deadlock-recovery timer
            // enforces timestamp order should the wait persist.
            win = true;
            relaxed = true;
            ++relaxedDefers_;
        }
        if (win) {
            emitDefer(req, relaxed);
            ++defers_;
            deferred_.push_back({la, req.requester, req.type, req.ts});
            pin(line);
            net_.sendMarker(req.requester, {la, id_});
            maybeArmYield();
            return; // owner=true already: requester waits on us
        }
        if (hooks_.tlrActive() && isWritableState(line.state))
            emitLose(la, req.ts);
        hooks_.conflictAbort(la, isWritableState(line.state)
                                     ? AbortReason::ConflictLost
                                     : AbortReason::SharedInvalidation);
        // Access bits are cleared now; service the request normally.
        // Note: `line` is still valid — aborting never invalidates it.
    }
    if (req.type == ReqType::GetS)
        reply.sharer = true;
    supplyData(line, req.requester, req.type);
}

void
L1Controller::supplyData(CacheLine &line, CpuId to, ReqType type)
{
    // The one data-supply path, for snoops and queued waiters alike: a
    // GetS downgrades M to O and E to S, anything else takes the line.
    DataMsg msg;
    msg.line = line.addr;
    msg.data = line.data;
    msg.from = id_;
    if (type == ReqType::GetS) {
        msg.grant = Grant::SharedData;
        if (line.state == CohState::Modified)
            line.state = CohState::Owned;
        else if (line.state == CohState::Exclusive)
            line.state = CohState::Shared;
        if (TLR_TRACE_ARMED(trace_))
            trace_->emit(eq_.now(), TraceComp::L1,
                         TraceEvent::LineDowngrade, id_, line.addr,
                         static_cast<std::uint64_t>(line.state));
    } else {
        msg.grant = Grant::ModifiedData;
        dropLine(line);
    }
    net_.sendData(to, msg);
}

SnoopReply
L1Controller::snoop(const BusRequest &req)
{
    SnoopReply reply;
    Addr la = req.line;

    auto mit = mshrs_.find(la);
    if (mit != mshrs_.end() && mit->second.ordered) {
        Mshr &m = mit->second;
        if (m.isExclusive() && !m.ownershipPassed) {
            // We are the protocol owner even though data has not
            // arrived: record the request in the ownership chain.
            reply.owner = true;
            handleChainSnoop(m, req);
            return reply;
        }
        if (!m.isExclusive()) {
            if (req.type == ReqType::GetS) {
                // Another reader: we will hold a Shared copy, so it
                // must not be granted (nor keep) Exclusive.
                reply.sharer = true;
                m.downgradeToShared = true;
                return reply;
            }
            // Pending read overtaken by a write: the arriving data may
            // be used once but must not be cached.
            m.invalidateOnArrival = true;
            if (m.spec && m.op && hooks_.specActive()) {
                hooks_.noteConflictTs(req.ts);
                hooks_.conflictAbort(la, AbortReason::PendingInvalidated);
            }
            return reply;
        }
        return reply; // exclusive MSHR, ownership already passed on
    }

    CacheLine *l = findLine(la);
    if (!l)
        return reply;

    if (isOwnerState(l->state)) {
        if (deferredExclusive(la)) {
            // Ownership was already promised to a deferred GetX; new
            // requests are recorded at that pending owner instead.
            return reply;
        }
        if (req.type == ReqType::Upgrade) {
            // A valid upgrade implies the requester holds Shared, so
            // no Modified/Exclusive copy can exist anywhere.
            if (isWritableState(l->state))
                panic("l1 %d: valid upgrade snooped on %s line %#llx",
                      id_, cohStateName(l->state),
                      static_cast<unsigned long long>(la));
            // Owned copy: same data as the upgrader's Shared copy; no
            // data response exists to withhold, so an upgrade can
            // never be deferred (paper Section 3.1.2).
            invalidateCopy(*l, req.ts);
            return reply;
        }
        reply.owner = true;
        handleOwnerSnoop(*l, req, reply);
        return reply;
    }

    if (l->state == CohState::Shared) {
        reply.sharer = true;
        if (req.type != ReqType::GetS)
            invalidateCopy(*l, req.ts);
    }
    return reply;
}

void
L1Controller::invalidateCopy(CacheLine &line, const Timestamp &ts)
{
    // A write takes a copy that has no data response to withhold: a
    // transaction that accessed it restarts, then the copy goes.
    if (line.inTransaction() && hooks_.specActive()) {
        hooks_.noteConflictTs(ts);
        hooks_.conflictAbort(line.addr, AbortReason::SharedInvalidation);
    }
    dropLine(line);
}

void
L1Controller::ownRequestOrdered(const BusRequest &req, bool /*any_owner*/,
                                bool /*any_sharer*/)
{
    auto it = mshrs_.find(req.line);
    if (it == mshrs_.end())
        panic("l1 %d: ordered request without MSHR line=%#llx", id_,
              static_cast<unsigned long long>(req.line));
    Mshr &m = it->second;

    if (req.type == ReqType::Upgrade) {
        CacheLine *l = findLine(req.line);
        if (l && (l->state == CohState::Shared ||
                  l->state == CohState::Owned)) {
            // Still valid: upgrade completes instantly, no data needed.
            // (An Owned copy has the authoritative data already; the
            // snoop invalidated every other sharer.)
            l->state = CohState::Modified;
            if (TLR_TRACE_ARMED(trace_))
                trace_->emit(eq_.now(), TraceComp::L1,
                             TraceEvent::LineUpgrade, id_, req.line);
            Mshr done = std::move(m);
            mshrs_.erase(it);
            if (done.op)
                applyOp(*done.op, l);
            if (done.op && done.op->spec)
                hooks_.specMshrDrained(req.line);
            if (done.queuedOp) {
                CacheOp q = *done.queuedOp;
                eq_.scheduleIn(1, [this, q] { access(q); });
            }
            return;
        }
        // Invalidated while the upgrade was in flight: reissue as GetX.
        // A spec-originated miss keeps its transactional identity even
        // if the attempt restarted meanwhile (the instance timestamp
        // is retained), so the reissue carries the current timestamp.
        m.type = ReqType::GetX;
        m.ordered = false;
        Timestamp ts = m.spec ? hooks_.currentTs() : Timestamp{};
        net_.submit({ReqType::GetX, req.line, id_, ts, 0});
        return;
    }

    m.ordered = true;
}

void
L1Controller::applyOp(const CacheOp &op, CacheLine *line,
                      const LineData *uncached)
{
    // The one place each CacheOp kind reads, writes and responds: on a
    // hit from access(), on a fill, or on data that must not be cached.
    const unsigned wi = wordIndex(op.addr);
    const bool writable = line && isWritableState(line->state);
    const bool load = op.kind == CacheOp::Kind::LoadShared ||
                      op.kind == CacheOp::Kind::LoadExclusive;
    if (!load && op.kind != CacheOp::Kind::StoreCond && !writable)
        panic("l1 %d: %s line %#llx without write permission", id_,
              line ? cohStateName(line->state) : "uncached",
              static_cast<unsigned long long>(lineAlign(op.addr)));
    // A non-speculative write is a MemWrite record when it is traced
    // (an atomic only when it changed the word).
    auto write = [&](std::uint64_t v, bool traced) {
        line->data[wi] = v;
        line->state = CohState::Modified;
        clearLinkIf(lineAlign(op.addr));
        if (traced && !op.spec && TLR_TRACE_ARMED(trace_))
            trace_->emit(eq_.now(), TraceComp::L1, TraceEvent::MemWrite,
                         id_, op.addr, v);
    };

    switch (op.kind) {
      case CacheOp::Kind::LoadShared:
      case CacheOp::Kind::LoadExclusive: {
        std::uint64_t v = line ? line->data[wi] : (*uncached)[wi];
        if (op.spec && line)
            markRead(*line);
        if (op.isLl && line) {
            linkValid_ = true;
            linkLine_ = lineAlign(op.addr);
            linkAddr_ = op.addr;
        }
        if (op.spec && TLR_TRACE_ARMED(trace_))
            trace_->emit(eq_.now(), TraceComp::L1, TraceEvent::TxnRead,
                         id_, op.addr, v);
        respond(op, v);
        return;
      }
      case CacheOp::Kind::Store:
        write(op.data, true);
        respond(op, 0);
        return;
      case CacheOp::Kind::EnsureExclusive:
        // The current word value is returned so speculative atomics
        // can read-modify-write through the write buffer.
        markWrite(*line);
        if (op.spec && TLR_TRACE_ARMED(trace_))
            trace_->emit(eq_.now(), TraceComp::L1, TraceEvent::TxnRead,
                         id_, op.addr, line->data[wi]);
        respond(op, line->data[wi]);
        return;
      case CacheOp::Kind::AtomicSwap:
      case CacheOp::Kind::AtomicCas:
      case CacheOp::Kind::AtomicAdd: {
        const std::uint64_t old = line->data[wi];
        const std::uint64_t v =
            op.kind == CacheOp::Kind::AtomicAdd ? old + op.data : op.data;
        if (op.kind != CacheOp::Kind::AtomicCas || old == op.expected)
            write(v, v != old);
        respond(op, old);
        return;
      }
      case CacheOp::Kind::StoreCond:
        // The link names this line, so the write breaks it.
        if (writable && linkValid(op.addr)) {
            write(op.data, true);
            respond(op, 1);
        } else {
            respond(op, 0);
        }
        return;
    }
}

void
L1Controller::dataResponse(const DataMsg &msg)
{
    auto it = mshrs_.find(msg.line);
    if (it == mshrs_.end())
        panic("l1 %d: data without MSHR line=%#llx", id_,
              static_cast<unsigned long long>(msg.line));
    Mshr m = std::move(it->second);
    mshrs_.erase(it);

    // An op dropped by an abort completes nothing; the fill still
    // installs the line.
    CacheLine *l = nullptr;
    if (msg.grant == Grant::DontInstall || m.invalidateOnArrival) {
        // Use the data for the pending op only (ordered before the
        // overtaking write), do not cache it.
        if (m.op)
            applyOp(*m.op, nullptr, &msg.data);
    } else {
        CohState st = CohState::Shared;
        if (msg.grant == Grant::ExclusiveData && !m.downgradeToShared)
            st = CohState::Exclusive;
        else if (msg.grant == Grant::ModifiedData)
            st = CohState::Modified;
        l = installLine(msg.line, msg.data, st);
        if (m.op && !m.loseOnArrival)
            applyOp(*m.op, l);
    }

    if (m.op && m.op->spec)
        hooks_.specMshrDrained(msg.line);

    // Service or defer the requests recorded while we were the pending
    // owner. `m.loseOnArrival` or a completed abort forces servicing.
    // The disposition is all-or-nothing: servicing an early GetS while
    // holding a later GetX hostage would downgrade us to Owned, which
    // is not a retainable state — the per-line FIFO order is preserved
    // either way because the deferred queue drains in order.
    bool keepDeferring = hooks_.specActive() && m.spec && m.op &&
                         !m.loseOnArrival && l &&
                         isWritableState(l->state) &&
                         l->inTransaction();
    for (const Waiter &w : m.waiters) {
        if (keepDeferring) {
            deferred_.push_back({msg.line, w.cpu, w.type, w.ts});
            pin(*l);
        } else {
            serviceWaiter(w, msg.line);
        }
    }
    if (!m.waiters.empty() && TLR_TRACE_ARMED(trace_))
        trace_->emit(eq_.now(), TraceComp::L1, TraceEvent::CohDeferDepth,
                     id_, 0, deferredDepth());

    if (m.queuedOp) {
        CacheOp q = *m.queuedOp;
        eq_.scheduleIn(1, [this, q] { access(q); });
    }
    if (hooks_.specActive())
        maybeArmYield();
}

void
L1Controller::serviceWaiter(const Waiter &w, Addr line_addr,
                            ServiceCause cause)
{
    // A pinned line still owes data to every request queued on it. A
    // queued GetS that found it in E left it in S; E is clean, so that
    // copy equals memory and serves the rest of the drain (DESIGN.md
    // §6 item 10).
    CacheLine *l = findLine(line_addr);
    if (!l || !(isOwnerState(l->state) ||
                (l->pinned() && l->state == CohState::Shared)))
        panic("l1 %d: servicing waiter for line %#llx without owned data",
              id_, static_cast<unsigned long long>(line_addr));
    if (TLR_TRACE_ARMED(trace_))
        trace_->emit(eq_.now(), TraceComp::L1, TraceEvent::CohService,
                     id_, line_addr,
                     static_cast<std::uint64_t>(w.cpu),
                     static_cast<std::uint64_t>(cause));
    supplyData(*l, w.cpu, w.type);
}

//
// ---- TLR control messages ----------------------------------------------
//

void
L1Controller::marker(const MarkerMsg &msg)
{
    auto it = mshrs_.find(msg.line);
    if (it == mshrs_.end())
        return; // the miss already completed; marker is stale
    Mshr &m = it->second;
    m.markerFrom = msg.from;
    if (m.pendingProbe) {
        net_.sendProbe(m.markerFrom, {msg.line, *m.pendingProbe, id_});
        ++probesSent_;
        m.pendingProbe.reset();
    }
    // Knowing the upstream neighbor may complete a two-party cycle
    // (we hold its higher-priority request while waiting on it).
    if (hooks_.specActive())
        maybeArmYield();
}

void
L1Controller::probe(const ProbeMsg &msg)
{
    Addr la = msg.line;

    // Case 1: we hold the line inside our transaction — either
    // already deferring requests for it, or the probe raced ahead of
    // the conflicting request itself.
    bool holdsDeferred = false;
    for (const auto &d : deferred_)
        if (d.line == la)
            holdsDeferred = true;
    if (CacheLine *l = findLine(la))
        holdsDeferred |= isOwnerState(l->state) && l->inTransaction();
    if (holdsDeferred && hooks_.specActive() && hooks_.tlrActive()) {
        hooks_.noteConflictTs(msg.ts);
        if (!winsConflict(msg.ts))
            loseOrHint(la, msg.ts, nullptr);
        return;
    }

    // Case 2: pending owner in the chain: forward upstream.
    auto it = mshrs_.find(la);
    if (it != mshrs_.end() && it->second.ordered &&
        it->second.isExclusive()) {
        Mshr &m = it->second;
        forwardProbe(m, msg.ts);
        if (m.spec && m.op && hooks_.specActive() &&
            !winsConflict(msg.ts)) {
            hooks_.noteConflictTs(msg.ts);
            loseOrHint(la, msg.ts, &m);
        }
        return;
    }
    // Otherwise stale: the chain already drained.
}

void
L1Controller::loseOrHint(Addr la, const Timestamp &ts, Mshr *mshr)
{
    if (hooks_.tlrActive() && !hooks_.strictTimestamps()) {
        // Remember the contender's priority: if our wait (or a future
        // one) persists, the recovery timer enforces timestamp order;
        // if we commit first, servicing the deferred queue satisfies
        // the contender anyway.
        auto it = probeHints_.find(la);
        if (it == probeHints_.end() || ts.earlierThan(it->second))
            probeHints_[la] = ts;
        maybeArmYield();
        return;
    }
    emitLose(la, ts);
    if (mshr)
        mshr->loseOnArrival = true;
    hooks_.conflictAbort(la, AbortReason::ProbeLost);
}

//
// ---- transaction boundary operations -----------------------------------
//

void
L1Controller::commitTransaction(const WriteBuffer &wb)
{
    for (const auto &[la, entry] : wb.entries()) {
        CacheLine *l = findLine(la);
        if (!l || !isWritableState(l->state))
            panic("l1 %d: commit without writable line %#llx", id_,
                  static_cast<unsigned long long>(la));
        for (unsigned w = 0; w < wordsPerLine; ++w)
            if (entry.mask & (1u << w)) {
                l->data[w] = entry.words[w];
                if (TLR_TRACE_ARMED(trace_))
                    trace_->emit(eq_.now(), TraceComp::L1,
                                 TraceEvent::TxnWrite, id_, la + 8 * w,
                                 entry.words[w]);
            }
        l->state = CohState::Modified;
    }
    clearAccessBits();
    serviceDeferredQueue(/*at_commit=*/true);
}

void
L1Controller::abortTransaction()
{
    for (auto &[la, m] : mshrs_) {
        (void)la;
        if (m.op && m.op->spec)
            m.op.reset();
        if (m.queuedOp && m.queuedOp->spec)
            m.queuedOp.reset();
    }
    clearAccessBits();
    serviceDeferredQueue(/*at_commit=*/false);
}

void
L1Controller::markRead(CacheLine &line)
{
    if (!line.inTransaction())
        markedLines_.push_back(line.addr);
    array_.markRead(line);
}

void
L1Controller::markWrite(CacheLine &line)
{
    if (!line.inTransaction())
        markedLines_.push_back(line.addr);
    array_.markWrite(line);
}

void
L1Controller::pin(CacheLine &line)
{
    if (!line.pinned())
        pinnedLines_.push_back(line.addr);
    array_.pin(line);
}

void
L1Controller::clearAccessBits()
{
    // find(), not findLine(): a lookup here must not promote victim
    // lines, or clearing would move LRU and victim-cache state.
    ++boundaryWork_.boundaries;
    boundaryWork_.linesVisited += markedLines_.size();
    for (Addr la : markedLines_)
        if (CacheLine *l = array_.find(la))
            array_.clearAccess(*l);
    markedLines_.clear();
    for (auto &v : victim_.entries())
        array_.clearAccess(v);
}

void
L1Controller::clearPins()
{
    boundaryWork_.linesVisited += pinnedLines_.size();
    for (Addr la : pinnedLines_)
        if (CacheLine *l = array_.find(la))
            array_.unpin(*l);
    pinnedLines_.clear();
    for (auto &v : victim_.entries())
        array_.unpin(v);
    if (invariants_)
        checkCleared();
}

void
L1Controller::checkCleared()
{
    // Oracle for the tracked clears, once per boundary after both
    // clears (the drain between them sets no bits). The array counts
    // every bit write, independently of the address lists, so a clean
    // boundary costs one compare; the scan runs only to name the
    // survivors, which mean a set site bypassed markRead/markWrite/pin.
    if (array_.flaggedLines() == 0)
        return;
    boundaryWork_.oracleLinesScanned += array_.lines().size();
    for (const CacheLine &l : array_.lines()) {
        if (!l.flagged() || !isValidState(l.state))
            continue;
        invariants_->violation(
            "boundary-clear", eq_.now(),
            strfmt("l1 %d: line %#llx keeps read=%d write=%d pin=%d "
                   "after the boundary clear",
                   id_, static_cast<unsigned long long>(l.addr),
                   l.accessRead(), l.accessWrite(), l.pinned()));
    }
}

void
L1Controller::serviceDeferredQueue(bool at_commit)
{
    if (!deferred_.empty() && TLR_TRACE_ARMED(trace_))
        trace_->emit(eq_.now(), TraceComp::L1, TraceEvent::CohDeferDrain,
                     id_, 0, deferred_.size(), at_commit ? 1 : 0);
    const bool drained = !deferred_.empty();
    while (!deferred_.empty()) {
        DeferredReq d = deferred_.front();
        deferred_.pop_front();
        serviceWaiter({d.cpu, d.type, d.ts, false}, d.line,
                      at_commit ? ServiceCause::CommitDrain
                                : ServiceCause::AbortDrain);
    }
    if (drained && TLR_TRACE_ARMED(trace_))
        trace_->emit(eq_.now(), TraceComp::L1, TraceEvent::CohDeferDepth,
                     id_, 0, deferredDepth());
    probeHints_.clear();
    yieldArmed_ = false;
    ++yieldGen_;
    clearPins();
}

//
// ---- queries ------------------------------------------------------------
//

unsigned
L1Controller::outstandingSpecMisses() const
{
    unsigned n = 0;
    for (const auto &[la, m] : mshrs_) {
        (void)la;
        if (m.awaitedBySpec())
            ++n;
    }
    return n;
}

bool
L1Controller::upgradeValid(Addr line) const
{
    const CacheLine *l = peekLine(line);
    return l && (l->state == CohState::Shared ||
                 l->state == CohState::Owned);
}

bool
L1Controller::linkValid(Addr addr) const
{
    return linkValid_ && linkLine_ == lineAlign(addr);
}

void
L1Controller::markTransactionalRead(Addr addr)
{
    CacheLine *l = findLine(lineAlign(addr));
    if (!l)
        panic("l1 %d: markTransactionalRead on absent line %#llx", id_,
              static_cast<unsigned long long>(addr));
    markRead(*l);
}

void
L1Controller::markTransactionalWrite(Addr addr)
{
    CacheLine *l = findLine(lineAlign(addr));
    if (!l || !isWritableState(l->state))
        panic("l1 %d: markTransactionalWrite needs a writable line "
              "%#llx",
              id_, static_cast<unsigned long long>(addr));
    markWrite(*l);
}

void
L1Controller::clearLinkIf(Addr line_addr)
{
    if (linkValid_ && linkLine_ == line_addr)
        linkValid_ = false;
}

CohState
L1Controller::lineState(Addr addr) const
{
    const CacheLine *l = peekLine(lineAlign(addr));
    return l ? l->state : CohState::Invalid;
}

std::string
L1Controller::debugState() const
{
    std::string out;
    for (const auto &[la, m] : mshrs_) {
        out += strfmt("  l1 %d MSHR line=%#llx %s ordered=%d spec=%d "
                      "op=%d queued=%d lose=%d ownPassed=%d marker=%d "
                      "waiters=[",
                      id_, static_cast<unsigned long long>(la),
                      reqTypeName(m.type), m.ordered ? 1 : 0,
                      m.spec ? 1 : 0, m.op ? 1 : 0, m.queuedOp ? 1 : 0,
                      m.loseOnArrival ? 1 : 0, m.ownershipPassed ? 1 : 0,
                      m.markerFrom);
        for (const Waiter &w : m.waiters)
            out += strfmt("%d(%s,%s,def=%d) ", w.cpu,
                          reqTypeName(w.type), w.ts.str().c_str(),
                          w.deferred ? 1 : 0);
        out += "]\n";
    }
    for (const auto &d : deferred_)
        out += strfmt("  l1 %d DEFERRED line=%#llx cpu=%d %s %s\n", id_,
                      static_cast<unsigned long long>(d.line), d.cpu,
                      reqTypeName(d.type), d.ts.str().c_str());
    return out;
}

std::uint64_t
L1Controller::peekWord(Addr addr) const
{
    const CacheLine *l = peekLine(lineAlign(addr));
    return l ? l->data[wordIndex(addr)] : 0;
}

} // namespace tlr
