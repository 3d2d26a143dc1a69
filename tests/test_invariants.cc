/**
 * @file
 * Invariant matrix: every registered workload under every scheme and
 * both coherence protocols, at small size, with the online checkers
 * and the L1 boundary-clear oracle armed. Every run must complete,
 * validate and report zero violations; a combination the workload
 * refuses (octree accepts test&test&set locks only) must end in its
 * clean fatal error instead.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "harness/runner.hh"
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
            MachineParams mp;
            mp.numCpus = kCpus;
            mp.protocol = protocol;
            mp.spec = schemeSpecConfig(sc.scheme);
            mp.trace.checkInvariants = true;
            mp.trace.keepGoingOnViolation = true;
            RunStats r = runWorkload(mp, wl);
            EXPECT_TRUE(r.completed);
            EXPECT_TRUE(r.valid);
            EXPECT_GT(r.traceRecords, 0u);
            EXPECT_EQ(r.invariantViolations, 0u);
            ++runs;
        }
    }
    // The registry's one refusal: octree with MCS locks.
    EXPECT_EQ(refused, 1);
    EXPECT_EQ(runs + refused,
              static_cast<int>(workloadRegistry().size() *
                               std::size(kSchemes)));
}

} // namespace

TEST(InvariantMatrix, Broadcast) { runMatrix(Protocol::Broadcast); }

TEST(InvariantMatrix, Directory) { runMatrix(Protocol::Directory); }
