/**
 * @file
 * Invariant matrix: every registered workload under every scheme and
 * both coherence protocols, at small size, with the online checkers
 * and the L1 boundary-clear oracle armed. Every run must complete,
 * validate and report zero violations, and every L1's count of lines
 * holding an access or pin bit must be zero at each boundary, so the
 * oracle never falls back to its scan; a combination the workload
 * refuses (octree accepts test&test&set locks only) must end in its
 * clean fatal error instead.
 *
 * A 16-CPU arm runs the deferral-heavy workloads under TLR at seeds
 * that queue two or more requests behind one clean-exclusive holder,
 * the drain state an 8-CPU matrix never reaches.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "harness/runner.hh"
#include "harness/system.hh"
#include "harness/scheme.hh"
#include "workloads/registry.hh"

using namespace tlr;

namespace
{

struct SchemeCase
{
    const char *name;
    Scheme scheme;
};

constexpr SchemeCase kSchemes[] = {
    {"base", Scheme::Base},
    {"mcs", Scheme::Mcs},
    {"sle", Scheme::BaseSle},
    {"tlr", Scheme::BaseSleTlr},
    {"tlr-strict", Scheme::TlrStrictTs},
};

constexpr int kCpus = 8;
constexpr std::uint64_t kOps = 32;

/** Runs @p wl on @p protocol with every checker armed and requires a
 *  completed, valid, violation-free run whose boundary-clear oracle
 *  never scanned the array. */
void
expectCleanRun(const Workload &wl, Scheme scheme, Protocol protocol,
               int cpus, std::uint64_t seed)
{
    MachineParams mp;
    mp.numCpus = cpus;
    mp.protocol = protocol;
    mp.seed = seed;
    mp.spec = schemeSpecConfig(scheme);
    mp.trace.checkInvariants = true;
    mp.trace.keepGoingOnViolation = true;
    System sys(mp);
    installWorkload(sys, wl);
    EXPECT_TRUE(sys.run());
    EXPECT_TRUE(wl.validate ? wl.validate(sys) : true);
    EXPECT_GT(sys.traceSink().emitted(), 0u);
    EXPECT_EQ(sys.stats().get("trace", "violations"), 0u);
    for (int i = 0; i < cpus; ++i) {
        EXPECT_EQ(sys.l1(i).boundaryWork().oracleLinesScanned, 0u)
            << "l1 " << i;
        EXPECT_EQ(sys.l1(i).array().flaggedLines(), 0u) << "l1 " << i;
    }
}

/** Runs the whole matrix on @p protocol. */
void
runMatrix(Protocol protocol)
{
    int runs = 0;
    int refused = 0;
    for (const WorkloadEntry &e : workloadRegistry()) {
        for (const SchemeCase &sc : kSchemes) {
            SCOPED_TRACE(e.name + "/" + sc.name);
            WorkloadParams wp;
            wp.numCpus = kCpus;
            wp.ops = kOps;
            wp.lockKind = schemeLockKind(sc.scheme);
            Workload wl;
            try {
                wl = e.make(wp);
            } catch (const std::runtime_error &err) {
                // A refusal is a clean fatal(), never a panic
                // (std::logic_error) or a crash.
                EXPECT_EQ(std::string(err.what()).rfind("fatal: ", 0), 0u)
                    << err.what();
                ++refused;
                continue;
            }
            expectCleanRun(wl, sc.scheme, protocol, kCpus, wp.seed);
            ++runs;
        }
    }
    // The registry's one refusal: octree with MCS locks.
    EXPECT_EQ(refused, 1);
    EXPECT_EQ(runs + refused,
              static_cast<int>(workloadRegistry().size() *
                               std::size(kSchemes)));
}

/** 16-CPU cases: bank seed 1 and partition seeds 2 and 4 each queue
 *  two or more requests behind a clean-exclusive holder that then
 *  drains (bank/tlr on both protocols, partition/tlr/broadcast at 4,
 *  partition/tlr-strict/directory at 2). */
struct WideCase
{
    const char *workload;
    std::uint64_t seed;
};

constexpr WideCase kWideCases[] = {
    {"bank", 1},
    {"partition", 2},
    {"partition", 4},
    {"reverse-writers", 1},
    {"ycsb-a", 1},
};

constexpr int kWideCpus = 16;
constexpr std::uint64_t kWideOps = 32;

void
runWide(Protocol protocol)
{
    for (const WideCase &c : kWideCases) {
        for (Scheme scheme : {Scheme::BaseSleTlr, Scheme::TlrStrictTs}) {
            SCOPED_TRACE(std::string(c.workload) + "/" +
                         schemeName(scheme) + "/seed " +
                         std::to_string(c.seed));
            WorkloadParams wp;
            wp.numCpus = kWideCpus;
            wp.ops = kWideOps;
            wp.seed = c.seed;
            wp.lockKind = schemeLockKind(scheme);
            expectCleanRun(makeRegisteredWorkload(c.workload, wp), scheme,
                           protocol, kWideCpus, c.seed);
        }
    }
}

} // namespace

TEST(InvariantMatrix, Broadcast) { runMatrix(Protocol::Broadcast); }

TEST(InvariantMatrix, Directory) { runMatrix(Protocol::Directory); }

TEST(InvariantMatrix, SixteenCpusBroadcast) { runWide(Protocol::Broadcast); }

TEST(InvariantMatrix, SixteenCpusDirectory) { runWide(Protocol::Directory); }
