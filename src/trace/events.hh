/**
 * @file
 * Structured trace event definitions.
 *
 * Every observable step of the machine — transaction lifecycle
 * transitions, coherence decisions, line-ownership changes, committed
 * memory writes — is describable as one fixed-size binary TraceRecord.
 * Records are cheap to produce (a struct store into a ring buffer, no
 * formatting) and carry enough payload for online invariant checkers
 * and offline timeline export to reconstruct the run.
 */

#ifndef TLR_TRACE_EVENTS_HH
#define TLR_TRACE_EVENTS_HH

#include <cstdint>

#include "core/timestamp.hh"
#include "sim/types.hh"

namespace tlr
{

/** Which hardware component emitted a record. */
enum class TraceComp : std::uint8_t
{
    Spec, ///< SLE/TLR speculation engine
    L1,   ///< L1 coherence controller
    Bus,  ///< broadcast address network
    Dir,  ///< directory ordering point
    Net,  ///< point-to-point data network
};

constexpr int numTraceComps = static_cast<int>(TraceComp::Net) + 1;

const char *traceCompName(TraceComp c);

/**
 * Event kinds. The payload convention for each kind is documented
 * inline; a0..a3 are free-form 64-bit words (timestamps travel as a
 * (clock, meta) pair — see packTsMeta/unpackTs below).
 */
enum class TraceEvent : std::uint8_t
{
    /** @{ Transaction lifecycle (comp=Spec, cpu=transacting cpu). */
    TxnElide,       ///< region elided; addr=lock, a0=free value,
                    ///< a1=ts clock, a2=ts meta, a3=1 if new instance
    TxnNest,        ///< nested elision; addr=lock, a0=free value
    TxnRestart,     ///< misspeculation restart; addr=conflicting or
                    ///< overflowing line (0 when none applies),
                    ///< a0=AbortReason, a1=1 if resource, a2=1 if
                    ///< instance ended (fallback to real lock
                    ///< acquisition), a3=ts meta of the last
                    ///< conflicting contender (packTsMeta; the winner
                    ///< that caused a conflict abort — invalid when no
                    ///< conflict was noted this instance)
    TxnCommitStart, ///< all misses drained, atomic commit begins
    TxnCommit,      ///< commit done; a0=lines written, a1=ts clock
    TxnQuantumEnd,  ///< instance ended by the scheduling-quantum bound
                    ///< while between restarts (no active speculation)
    TxnRead,        ///< transactional read observed a global value;
                    ///< addr=word, a0=value (comp=L1)
    TxnWrite,       ///< one committed word; addr=word, a0=value
                    ///< (comp=L1, between TxnCommitStart and TxnCommit)
    /** @} */

    /** @{ Coherence activity (cpu=acting controller). */
    CohMiss,        ///< miss issued; addr=line, a0=ReqType, a1=spec
    CohSubmit,      ///< request submitted for ordering; addr=line,
                    ///< a0=ReqType, a1=ts clock, a2=ts meta
    CohOrder,       ///< request globally ordered; addr=line,
                    ///< a0=ReqType, a1=sn, a2=ts clock, a3=ts meta
    CohDefer,       ///< incoming request deferred until commit;
                    ///< addr=line, a0=requesting cpu, a1=ReqType,
                    ///< a2=requester ts clock, a3=requester ts meta
    CohRelaxedDefer,///< Section 3.2 relaxation applied; same payload
    CohLose,        ///< conflict lost at a timestamp decision point;
                    ///< addr=line, a0=winner ts clock, a1=winner meta,
                    ///< a2=own ts clock, a3=own ts meta
    CohYield,       ///< deadlock-recovery yield (timer or 2-cycle);
                    ///< addr=line
    CohService,     ///< one waiter/deferred request serviced;
                    ///< addr=line, a0=serviced cpu,
                    ///< a1=ServiceCause (why the owner let go)
    CohDeferDrain,  ///< deferred queue drained at commit/abort;
                    ///< a0=queue entries drained, a1=1 when the drain
                    ///< happens on the commit path, 0 on abort
    CohMarker,      ///< marker sent; addr=line, a0=destination cpu
    CohProbe,       ///< probe sent; addr=line, a0=destination cpu,
                    ///< a1=ts clock, a2=ts meta
    CohData,        ///< data message sent; addr=line, a0=dest, a1=Grant
    CohDeferDepth,  ///< deferral backlog changed; a0=new depth
                    ///< (deferred queue + deferred chain waiters) —
                    ///< sampled by the metrics layer as a counter track
    CohFwd,         ///< directory forwarded a snoop; addr=line,
                    ///< a0=target cpu, a1=ReqType, a2=1 if invalidation,
                    ///< a3=global order sn of the triggering request
                    ///< (comp=Dir, cpu=requester)
    /** @} */

    /** @{ Line-ownership transitions (comp=L1, cpu=cache). */
    LineInstall,    ///< line filled into the cache; addr=line,
                    ///< a0=CohState installed
    LineUpgrade,    ///< Shared/Owned copy upgraded to Modified
    LineDowngrade,  ///< owner downgraded; addr=line, a0=new CohState
    LineInval,      ///< valid copy invalidated (snoop/evict/service)
    /** @} */

    /** Non-speculative store/atomic made globally visible;
     *  addr=word, a0=value (comp=L1). */
    MemWrite,
};

constexpr int numTraceEvents = static_cast<int>(TraceEvent::MemWrite) + 1;

const char *traceEventName(TraceEvent e);

/** Why an owner released a deferred/waiting request (CohService a1). */
enum class ServiceCause : std::uint8_t
{
    Chain,       ///< ownership-chain handoff outside any drain
    CommitDrain, ///< deferred queue drained after an atomic commit
    AbortDrain,  ///< deferred queue drained after a restart/abort
};

const char *serviceCauseName(ServiceCause c);

/** One binary trace record. Fixed 64-byte layout, no heap. */
struct TraceRecord
{
    Tick tick = 0;
    TraceComp comp = TraceComp::Spec;
    TraceEvent kind = TraceEvent::TxnElide;
    std::int16_t cpu = -1;
    std::uint32_t pad_ = 0;
    Addr addr = 0;
    std::uint64_t a0 = 0;
    std::uint64_t a1 = 0;
    std::uint64_t a2 = 0;
    std::uint64_t a3 = 0;
    /** Global emission sequence number, stamped by the sink. Orders
     *  records that share a tick (e.g. snoop then own-request). */
    std::uint64_t seq = 0;
};

static_assert(sizeof(TraceRecord) == 64, "records must stay compact");

/** Timestamps ride in two payload words: the clock and this meta word
 *  (cpu id in the low 32 bits, validity in bit 32). */
inline std::uint64_t
packTsMeta(const Timestamp &ts)
{
    return static_cast<std::uint32_t>(ts.cpu) |
           (ts.valid ? (1ull << 32) : 0);
}

inline Timestamp
unpackTs(std::uint64_t clock, std::uint64_t meta)
{
    Timestamp ts;
    ts.clock = clock;
    ts.cpu = static_cast<CpuId>(static_cast<std::int32_t>(
        meta & 0xffffffffull));
    ts.valid = (meta & (1ull << 32)) != 0;
    return ts;
}

} // namespace tlr

#endif // TLR_TRACE_EVENTS_HH
