/**
 * @file
 * L1Controller unit tests with scriptable speculation hooks: drive
 * the controller directly (three controllers on a real broadcast
 * interconnect + memory) and check the TLR decision logic — deferral
 * vs restart by timestamp, un-timestamped request policy, strict-mode
 * enforcement, deferred-queue service at commit/abort — without the
 * core/engine stack on top.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "coherence/interconnect.hh"
#include "coherence/l1_controller.hh"
#include "coherence/memory_controller.hh"
#include "mem/backing_store.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "trace/checkers.hh"

using namespace tlr;

namespace
{

/** Scriptable SpecHooks: the test sets the mode/timestamp and records
 *  every callback the controller makes. */
class FakeHooks : public SpecHooks
{
  public:
    bool spec = false;
    bool tlr = false;
    bool strict = false;
    bool deferUnts = true;
    Timestamp ts;

    std::vector<AbortReason> aborts;
    std::vector<std::pair<CacheOp, std::uint64_t>> completions;
    L1Controller *l1 = nullptr; ///< set after construction

    bool specActive() const override { return spec; }
    bool tlrActive() const override { return spec && tlr; }
    Timestamp currentTs() const override { return ts; }
    bool strictTimestamps() const override { return strict; }
    bool deferUntimestamped() const override { return deferUnts; }
    void noteConflictTs(const Timestamp &) override {}

    void
    conflictAbort(Addr, AbortReason reason) override
    {
        aborts.push_back(reason);
        spec = false; // engine leaves speculation...
        l1->abortTransaction();
    }

    void
    resourceAbort(Addr, AbortReason reason) override
    {
        aborts.push_back(reason);
        spec = false;
        l1->abortTransaction();
    }

    void specMshrDrained(Addr) override {}

    void
    cacheOpDone(const CacheOp &op, std::uint64_t value) override
    {
        completions.emplace_back(op, value);
    }
};

struct Rig
{
    EventQueue eq;
    StatSet stats;
    BackingStore store{1 << 16};
    BroadcastInterconnect net{eq, stats, InterconnectParams{}};
    MemoryController mem{eq, stats, net, store, MemParams{}};
    FakeHooks hooks0, hooks1, hooks2;
    L1Controller l1a{eq, stats, 0, L1Params{}, net, mem, hooks0};
    L1Controller l1b{eq, stats, 1, L1Params{}, net, mem, hooks1};
    L1Controller l1c{eq, stats, 2, L1Params{}, net, mem, hooks2};

    Rig()
    {
        net.setMemory(&mem);
        net.addSnooper(&l1a);
        net.addSnooper(&l1b);
        net.addSnooper(&l1c);
        hooks0.l1 = &l1a;
        hooks1.l1 = &l1b;
        hooks2.l1 = &l1c;
    }

    void
    run()
    {
        ASSERT_TRUE(eq.run(1'000'000));
    }

    void
    access(L1Controller &c, CacheOp::Kind kind, Addr addr,
           std::uint64_t data = 0, bool spec = false)
    {
        CacheOp op;
        op.kind = kind;
        op.addr = addr;
        op.data = data;
        op.spec = spec;
        c.access(op);
    }
};

constexpr Addr lineA = 0x4000;
constexpr Addr lineB = lineA + 2 * lineBytes;

/** cpu0 reads lineA into E inside a transaction, then sets its write
 *  bit (a speculative store's permission check): the clean-exclusive
 *  holder state whose abort drain must serve several queued requests. */
void
holdCleanExclusive(Rig &r)
{
    r.store.writeWord(lineA, 7); // pre-transactional value
    r.hooks0.spec = r.hooks0.tlr = true;
    r.hooks0.ts = Timestamp::make(1, 0);
    r.access(r.l1a, CacheOp::Kind::LoadShared, lineA, 0, true);
    r.run();
    ASSERT_EQ(r.l1a.lineState(lineA), CohState::Exclusive);
    r.access(r.l1a, CacheOp::Kind::EnsureExclusive, lineA, 0, true);
    r.run();
    ASSERT_EQ(r.l1a.lineState(lineA), CohState::Exclusive);
}

} // namespace

TEST(Controller, MissFillsFromMemoryExclusive)
{
    Rig r;
    r.store.writeWord(lineA, 99);
    r.access(r.l1a, CacheOp::Kind::LoadShared, lineA);
    r.run();
    ASSERT_EQ(r.hooks0.completions.size(), 1u);
    EXPECT_EQ(r.hooks0.completions[0].second, 99u);
    EXPECT_EQ(r.l1a.lineState(lineA), CohState::Exclusive);
}

TEST(Controller, TlrOwnerDefersLaterTimestamp)
{
    Rig r;
    // cpu0: transactional exclusive copy with the earlier timestamp.
    r.hooks0.spec = r.hooks0.tlr = true;
    r.hooks0.ts = Timestamp::make(1, 0);
    r.access(r.l1a, CacheOp::Kind::LoadExclusive, lineA, 0, true);
    r.run();
    // cpu1: conflicting transactional GetX with a later timestamp.
    r.hooks1.spec = r.hooks1.tlr = true;
    r.hooks1.ts = Timestamp::make(5, 1);
    r.access(r.l1b, CacheOp::Kind::EnsureExclusive, lineA, 0, true);
    r.eq.run(2'000); // bounded: cpu1 is deferred, so no completion
    EXPECT_EQ(r.l1a.deferredCount(), 1u);
    EXPECT_TRUE(r.hooks0.aborts.empty());
    EXPECT_TRUE(r.hooks1.completions.empty());
    // Commit at cpu0 services the deferred request.
    WriteBuffer wb(4);
    r.hooks0.spec = false;
    r.l1a.commitTransaction(wb);
    r.run();
    EXPECT_EQ(r.l1a.deferredCount(), 0u);
    ASSERT_EQ(r.hooks1.completions.size(), 1u);
    EXPECT_EQ(r.l1b.lineState(lineA), CohState::Modified);
    EXPECT_EQ(r.l1a.lineState(lineA), CohState::Invalid);
}

TEST(Controller, StrictModeRestartsOnEarlierTimestamp)
{
    Rig r;
    // cpu0 holds the line transactionally with the LATER timestamp and
    // strict timestamp enforcement.
    r.hooks0.spec = r.hooks0.tlr = true;
    r.hooks0.strict = true;
    r.hooks0.ts = Timestamp::make(9, 0);
    r.access(r.l1a, CacheOp::Kind::LoadExclusive, lineA, 0, true);
    r.run();
    // cpu1 requests with the earlier timestamp: cpu0 must lose now.
    r.hooks1.spec = r.hooks1.tlr = true;
    r.hooks1.ts = Timestamp::make(2, 1);
    r.access(r.l1b, CacheOp::Kind::EnsureExclusive, lineA, 0, true);
    r.run();
    ASSERT_EQ(r.hooks0.aborts.size(), 1u);
    EXPECT_EQ(r.hooks0.aborts[0], AbortReason::ConflictLost);
    ASSERT_EQ(r.hooks1.completions.size(), 1u);
    EXPECT_EQ(r.l1b.lineState(lineA), CohState::Modified);
}

TEST(Controller, UntimestampedRequestDeferredByPolicy)
{
    Rig r;
    r.hooks0.spec = r.hooks0.tlr = true;
    r.hooks0.ts = Timestamp::make(3, 0);
    r.access(r.l1a, CacheOp::Kind::LoadExclusive, lineA, 0, true);
    r.run();
    // Non-transactional store from cpu1 (no timestamp): with the defer
    // policy it waits; the transaction is not disturbed.
    r.access(r.l1b, CacheOp::Kind::Store, lineA, 42, false);
    r.eq.run(2'000);
    EXPECT_EQ(r.l1a.deferredCount(), 1u);
    EXPECT_TRUE(r.hooks0.aborts.empty());
    WriteBuffer wb(4);
    r.hooks0.spec = false;
    r.l1a.commitTransaction(wb);
    r.run();
    ASSERT_EQ(r.hooks1.completions.size(), 1u);
    EXPECT_EQ(r.l1b.peekWord(lineA), 42u);
}

TEST(Controller, UntimestampedRequestAbortsByPolicy)
{
    Rig r;
    r.hooks0.deferUnts = false; // paper's first approach: treat as race
    r.hooks0.spec = r.hooks0.tlr = true;
    r.hooks0.ts = Timestamp::make(3, 0);
    r.access(r.l1a, CacheOp::Kind::LoadExclusive, lineA, 0, true);
    r.run();
    r.access(r.l1b, CacheOp::Kind::Store, lineA, 42, false);
    r.run();
    ASSERT_GE(r.hooks0.aborts.size(), 1u);
    ASSERT_EQ(r.hooks1.completions.size(), 1u);
    EXPECT_EQ(r.l1b.peekWord(lineA), 42u);
}

TEST(Controller, SleOnlyAlwaysRestartsOnConflict)
{
    Rig r;
    r.hooks0.spec = true; // SLE without TLR: cannot defer
    r.hooks0.tlr = false;
    r.access(r.l1a, CacheOp::Kind::LoadExclusive, lineA, 0, true);
    r.run();
    r.hooks1.spec = r.hooks1.tlr = true;
    r.hooks1.ts = Timestamp::make(9, 1);
    r.access(r.l1b, CacheOp::Kind::EnsureExclusive, lineA, 0, true);
    r.run();
    ASSERT_EQ(r.hooks0.aborts.size(), 1u);
    ASSERT_EQ(r.hooks1.completions.size(), 1u);
}

TEST(Controller, AbortServicesDeferredWithPreTransactionalData)
{
    Rig r;
    r.store.writeWord(lineA, 7); // pre-transactional value
    r.hooks0.spec = r.hooks0.tlr = true;
    r.hooks0.ts = Timestamp::make(1, 0);
    r.access(r.l1a, CacheOp::Kind::EnsureExclusive, lineA, 0, true);
    r.run();
    // Later-ts reader is deferred...
    r.hooks1.spec = r.hooks1.tlr = true;
    r.hooks1.ts = Timestamp::make(4, 1);
    r.access(r.l1b, CacheOp::Kind::LoadShared, lineA, 0, true);
    r.eq.run(2'000);
    ASSERT_EQ(r.l1a.deferredCount(), 1u);
    // ...then the transaction aborts: the reader must observe the
    // pre-transactional value (speculative data lived in the write
    // buffer and is discarded, never exposed).
    r.hooks0.spec = false;
    r.l1a.abortTransaction();
    r.run();
    ASSERT_EQ(r.hooks1.completions.size(), 1u);
    EXPECT_EQ(r.hooks1.completions[0].second, 7u);
}

TEST(Controller, AbortDrainServesTwoReadersFromCleanExclusive)
{
    Rig r;
    holdCleanExclusive(r);
    // Two later-timestamp readers queue behind the write bit.
    r.hooks1.spec = r.hooks1.tlr = true;
    r.hooks1.ts = Timestamp::make(4, 1);
    r.access(r.l1b, CacheOp::Kind::LoadShared, lineA, 0, true);
    r.hooks2.spec = r.hooks2.tlr = true;
    r.hooks2.ts = Timestamp::make(5, 2);
    r.access(r.l1c, CacheOp::Kind::LoadShared, lineA, 0, true);
    r.eq.run(2'000);
    ASSERT_EQ(r.l1a.deferredCount(), 2u);
    // The first GetS of the drain leaves the line in S; the second is
    // served from that clean copy instead of finding no owned data.
    r.hooks0.spec = false;
    r.l1a.abortTransaction();
    r.run();
    ASSERT_EQ(r.hooks1.completions.size(), 1u);
    ASSERT_EQ(r.hooks2.completions.size(), 1u);
    EXPECT_EQ(r.hooks1.completions[0].second, 7u);
    EXPECT_EQ(r.hooks2.completions[0].second, 7u);
    EXPECT_EQ(r.l1a.lineState(lineA), CohState::Shared);
    EXPECT_EQ(r.l1b.lineState(lineA), CohState::Shared);
    EXPECT_EQ(r.l1c.lineState(lineA), CohState::Shared);
}

TEST(Controller, AbortDrainServesReadThenWriteFromCleanExclusive)
{
    Rig r;
    holdCleanExclusive(r);
    // A plain read, then a later-timestamp transactional write, queue
    // behind the write bit: [GetS, GetX] against the E line.
    r.access(r.l1b, CacheOp::Kind::LoadShared, lineA);
    r.hooks2.spec = r.hooks2.tlr = true;
    r.hooks2.ts = Timestamp::make(5, 2);
    r.access(r.l1c, CacheOp::Kind::EnsureExclusive, lineA, 0, true);
    r.eq.run(2'000);
    ASSERT_EQ(r.l1a.deferredCount(), 2u);
    r.hooks0.spec = false;
    r.l1a.abortTransaction();
    r.run();
    // The reader sees the pre-transactional value once; the write was
    // ordered after it, so its copy is not kept. The writer ends up
    // the only holder.
    ASSERT_EQ(r.hooks1.completions.size(), 1u);
    ASSERT_EQ(r.hooks2.completions.size(), 1u);
    EXPECT_EQ(r.hooks1.completions[0].second, 7u);
    EXPECT_EQ(r.hooks2.completions[0].second, 7u);
    EXPECT_EQ(r.l1a.lineState(lineA), CohState::Invalid);
    EXPECT_EQ(r.l1b.lineState(lineA), CohState::Invalid);
    EXPECT_EQ(r.l1c.lineState(lineA), CohState::Modified);
}

TEST(Controller, LinkRegisterClearedByRemoteWrite)
{
    Rig r;
    CacheOp ll;
    ll.kind = CacheOp::Kind::LoadShared;
    ll.addr = lineA;
    ll.isLl = true;
    r.l1a.access(ll);
    r.run();
    EXPECT_TRUE(r.l1a.linkValid(lineA));
    r.access(r.l1b, CacheOp::Kind::Store, lineA, 1, false);
    r.run();
    EXPECT_FALSE(r.l1a.linkValid(lineA));
}

TEST(Controller, DebugStateRendersMshrsAndDeferred)
{
    Rig r;
    r.hooks0.spec = r.hooks0.tlr = true;
    r.hooks0.ts = Timestamp::make(1, 0);
    r.access(r.l1a, CacheOp::Kind::LoadExclusive, lineA, 0, true);
    r.run();
    r.hooks1.spec = r.hooks1.tlr = true;
    r.hooks1.ts = Timestamp::make(4, 1);
    r.access(r.l1b, CacheOp::Kind::EnsureExclusive, lineA, 0, true);
    r.eq.run(2'000);
    std::string dump = r.l1a.debugState();
    EXPECT_NE(dump.find("DEFERRED"), std::string::npos);
}

TEST(Controller, BoundaryClearVisitsOnlyTheFootprint)
{
    Rig r;
    CheckerContext ctx;
    ctx.stats = &r.stats;
    ctx.keepGoing = true;
    r.l1a.setInvariantContext(&ctx);

    // cpu0 reads two lines transactionally; cpu1's later-timestamp
    // write to one of them is deferred, pinning that line.
    r.hooks0.spec = r.hooks0.tlr = true;
    r.hooks0.ts = Timestamp::make(1, 0);
    r.access(r.l1a, CacheOp::Kind::LoadExclusive, lineA, 0, true);
    r.access(r.l1a, CacheOp::Kind::LoadShared, lineB, 0, true);
    r.run();
    r.hooks1.spec = r.hooks1.tlr = true;
    r.hooks1.ts = Timestamp::make(5, 1);
    r.access(r.l1b, CacheOp::Kind::EnsureExclusive, lineA, 0, true);
    r.eq.run(2'000);
    ASSERT_EQ(r.l1a.deferredCount(), 1u);

    // The commit looks up the two marked lines and the one pinned
    // line, not the 2048 lines of the array.
    WriteBuffer wb(4);
    r.hooks0.spec = false;
    r.l1a.commitTransaction(wb);
    r.run();
    EXPECT_EQ(r.l1a.boundaryWork().boundaries, 1u);
    EXPECT_EQ(r.l1a.boundaryWork().linesVisited, 3u);

    // lineB left the read set at commit: a remote write now proceeds
    // without aborting or deferring anything.
    r.hooks0.spec = r.hooks0.tlr = true;
    r.hooks0.ts = Timestamp::make(2, 0);
    r.hooks1.spec = false;
    r.access(r.l1b, CacheOp::Kind::Store, lineB, 9, false);
    r.run();
    EXPECT_TRUE(r.hooks0.aborts.empty());
    EXPECT_EQ(r.l1a.deferredCount(), 0u);
    EXPECT_EQ(r.l1b.peekWord(lineB), 9u);

    // An abort with an empty footprint visits nothing. The oracle
    // found the array's count at zero after both boundaries, so it
    // never scanned the array, and a clean run adds no violation
    // counter at all.
    r.l1a.abortTransaction();
    EXPECT_EQ(r.l1a.boundaryWork().boundaries, 2u);
    EXPECT_EQ(r.l1a.boundaryWork().linesVisited, 3u);
    EXPECT_EQ(r.l1a.boundaryWork().oracleLinesScanned, 0u);
    EXPECT_EQ(r.l1a.array().flaggedLines(), 0u);
    EXPECT_EQ(r.stats.all().count("trace.violations.boundary-clear"), 0u);
}

namespace
{

/** Arm cpu0's boundary-clear oracle; a violation panics. */
void
armOracle(Rig &r, CheckerContext &ctx)
{
    ctx.stats = &r.stats;
    r.l1a.setInvariantContext(&ctx);
}

/** After a boundary: cpu0's array counts no access or pin bit, so the
 *  oracle never scanned, and no violation was recorded. */
void
expectCleared(Rig &r)
{
    EXPECT_EQ(r.l1a.array().flaggedLines(), 0u);
    EXPECT_EQ(r.l1a.boundaryWork().oracleLinesScanned, 0u);
    EXPECT_EQ(r.stats.all().count("trace.violations.boundary-clear"), 0u);
}

/** cpu0 reads lineA and writes lineB inside a transaction. */
void
markTwoLines(Rig &r)
{
    r.hooks0.spec = r.hooks0.tlr = true;
    r.hooks0.ts = Timestamp::make(1, 0);
    r.access(r.l1a, CacheOp::Kind::LoadShared, lineA, 0, true);
    r.access(r.l1a, CacheOp::Kind::EnsureExclusive, lineB, 0, true);
    r.run();
    ASSERT_EQ(r.l1a.array().flaggedLines(), 2u);
}

} // namespace

TEST(Controller, BoundaryCountIsExactAtCommitAbortAndTheirDrains)
{
    // With a drain, a later-timestamp write queued on each marked line
    // pins both; the drain serves the writers and the pin clear
    // uncounts them.
    for (bool commit : {true, false}) {
        for (bool drain : {false, true}) {
            SCOPED_TRACE(std::string(commit ? "commit" : "abort") +
                         (drain ? " with drain" : ""));
            Rig r;
            CheckerContext ctx;
            armOracle(r, ctx);
            markTwoLines(r);
            if (drain) {
                r.hooks1.spec = r.hooks1.tlr = true;
                r.hooks1.ts = Timestamp::make(4, 1);
                r.access(r.l1b, CacheOp::Kind::EnsureExclusive, lineB, 0,
                         true);
                r.hooks2.spec = r.hooks2.tlr = true;
                r.hooks2.ts = Timestamp::make(5, 2);
                r.access(r.l1c, CacheOp::Kind::EnsureExclusive, lineA, 0,
                         true);
                r.eq.run(2'000);
                ASSERT_EQ(r.l1a.deferredCount(), 2u);
                ASSERT_TRUE(r.l1a.array().find(lineA)->pinned());
                ASSERT_TRUE(r.l1a.array().find(lineB)->pinned());
            }
            r.hooks0.spec = false;
            if (commit)
                r.l1a.commitTransaction(WriteBuffer(4));
            else
                r.l1a.abortTransaction();
            r.run();
            EXPECT_EQ(r.l1a.boundaryWork().boundaries, 1u);
            EXPECT_EQ(r.hooks1.completions.size(), drain ? 1u : 0u);
            EXPECT_EQ(r.hooks2.completions.size(), drain ? 1u : 0u);
            expectCleared(r);
        }
    }
}

TEST(Controller, BoundaryCountFollowsALineThroughTheVictimCache)
{
    // lineA and four more lines share one set of the 4-way array.
    Rig r;
    CheckerContext ctx;
    armOracle(r, ctx);
    const Addr setSpan = L1Params{}.sizeBytes / L1Params{}.ways;
    r.hooks0.spec = r.hooks0.tlr = true;
    r.hooks0.ts = Timestamp::make(1, 0);
    r.access(r.l1a, CacheOp::Kind::LoadShared, lineA, 0, true);
    r.run();
    for (Addr k = 1; k <= 3; ++k)
        r.access(r.l1a, CacheOp::Kind::LoadShared, lineA + k * setSpan);
    r.run();
    ASSERT_EQ(r.l1a.array().flaggedLines(), 1u);

    // A fifth line evicts the least recently used one, lineA, into
    // the victim cache: the array no longer holds its read bit.
    r.access(r.l1a, CacheOp::Kind::LoadShared, lineA + 4 * setSpan);
    r.run();
    EXPECT_EQ(r.l1a.array().find(lineA), nullptr);
    EXPECT_EQ(r.l1a.array().flaggedLines(), 0u);

    // A remote write frees a way; the next access to lineA moves it
    // back from the victim cache with its read bit.
    r.access(r.l1b, CacheOp::Kind::Store, lineA + setSpan, 1);
    r.run();
    r.access(r.l1a, CacheOp::Kind::LoadShared, lineA, 0, true);
    r.run();
    ASSERT_NE(r.l1a.array().find(lineA), nullptr);
    EXPECT_TRUE(r.l1a.array().find(lineA)->accessRead());
    EXPECT_EQ(r.l1a.array().flaggedLines(), 1u);

    r.hooks0.spec = false;
    r.l1a.commitTransaction(WriteBuffer(4));
    r.run();
    expectCleared(r);
}

TEST(Controller, ConstQueriesDoNotPromoteAVictimLine)
{
    // lineA goes to the victim cache as in the test above, then a
    // remote write frees a way in its set. The const queries must read
    // lineA where it lies, not move it back into the free way.
    Rig r;
    const Addr setSpan = L1Params{}.sizeBytes / L1Params{}.ways;
    r.hooks0.spec = r.hooks0.tlr = true;
    r.hooks0.ts = Timestamp::make(1, 0);
    r.access(r.l1a, CacheOp::Kind::LoadShared, lineA, 0, true);
    r.run();
    for (Addr k = 1; k <= 4; ++k) {
        r.access(r.l1a, CacheOp::Kind::LoadShared, lineA + k * setSpan);
        r.run();
    }
    ASSERT_EQ(r.l1a.array().find(lineA), nullptr);
    r.access(r.l1b, CacheOp::Kind::Store, lineA + setSpan, 1);
    r.run();

    const CohState state = r.l1a.lineState(lineA);
    EXPECT_NE(state, CohState::Invalid);
    EXPECT_EQ(r.l1a.array().find(lineA), nullptr);
    EXPECT_EQ(r.l1a.upgradeValid(lineA), state == CohState::Shared ||
                                             state == CohState::Owned);
    EXPECT_EQ(r.l1a.peekWord(lineA), 0u);
    EXPECT_EQ(r.l1a.array().find(lineA), nullptr);
}

TEST(Controller, BoundaryCountDropsAnInvalidatedMarkedLine)
{
    // With speculation already off, a remote write takes lineB while
    // its write bit is still set: dropping the line uncounts it before
    // the boundary.
    Rig r;
    CheckerContext ctx;
    armOracle(r, ctx);
    markTwoLines(r);
    r.hooks0.spec = false;
    r.access(r.l1b, CacheOp::Kind::Store, lineB, 3);
    r.run();
    EXPECT_EQ(r.l1a.lineState(lineB), CohState::Invalid);
    EXPECT_EQ(r.l1a.array().flaggedLines(), 1u);
    r.l1a.abortTransaction();
    expectCleared(r);
}

TEST(Controller, BoundaryOracleNamesABitTheListsMissed)
{
    // Each counted writer sets a bit on a resident line behind the
    // controller's address lists, so the boundary clear leaves it
    // set. The count must see it and the scan must name the line.
    struct Injection
    {
        void (CacheArray::*write)(CacheLine &);
        const char *bits;
    };
    for (const Injection &inj :
         {Injection{&CacheArray::markRead, "read=1 write=0 pin=0"},
          Injection{&CacheArray::markWrite, "read=0 write=1 pin=0"},
          Injection{&CacheArray::pin, "read=0 write=0 pin=1"}}) {
        SCOPED_TRACE(inj.bits);
        Rig r;
        CheckerContext ctx;
        armOracle(r, ctx);
        r.access(r.l1a, CacheOp::Kind::LoadShared, lineB);
        r.run();
        CacheLine *l = r.l1a.array().find(lineB);
        ASSERT_NE(l, nullptr);
        (r.l1a.array().*inj.write)(*l);
        ASSERT_EQ(r.l1a.array().flaggedLines(), 1u);
        try {
            r.l1a.abortTransaction();
            ADD_FAILURE() << "the oracle missed the unlisted bit";
        } catch (const std::logic_error &e) {
            const std::string want =
                strfmt("l1 0: line %#llx keeps %s after the boundary "
                       "clear",
                       static_cast<unsigned long long>(lineB), inj.bits);
            EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
                << e.what();
        }
        EXPECT_EQ(r.stats.get("trace", "violations.boundary-clear"), 1u);
        EXPECT_EQ(r.l1a.boundaryWork().oracleLinesScanned,
                  r.l1a.array().lines().size());
    }
}
