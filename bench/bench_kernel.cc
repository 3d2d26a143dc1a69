/**
 * @file
 * Host-performance benchmark for the simulation kernel — the repo's
 * perf-trajectory artifact (BENCH_kernel.json).
 *
 * Measures, on the host (nothing here is simulated time):
 *   1. raw kernel events/sec with small (16 B) captures — the core
 *      tick path;
 *   2. raw kernel events/sec with DataMsg-sized (~96 B) captures —
 *      the data-network path, still inline in the event node;
 *   3. full-simulation events/sec and sims/sec (single-counter, TLR,
 *      8 cpus);
 *   4. a fig08-style sweep serially and with --jobs=4 via runSweep();
 *   5. kernel allocation counters: pool chunk mallocs and spilled
 *      (heap-allocated) captures — steady state should be zero
 *      spills and a handful of chunks;
 *   6. transaction-boundary work on a ycsb-a TLR run: commits plus
 *      aborts, and the L1 lines looked up to clear access and pin
 *      bits (a deterministic count, hard-gated in CI: the tracked
 *      clear visits a transaction's footprint, where a full scan
 *      would visit every one of the L1's 2048 lines).
 *
 * Usage: bench_kernel [--json=FILE] [--quick]
 * CI runs this and uploads the JSON; compare events/sec across
 * commits to catch host-performance regressions.
 *
 * Parallel-kernel mode (BENCH_parallel.json): --threads=N or
 * --threads-grid=1,2,4,8 measures the partitioned kernel instead —
 * per worker count: events/sec, speedup over the first grid entry and
 * parallel efficiency (speedup / workers). Simulated results are
 * bit-identical across the grid by construction (DESIGN.md §13); only
 * host throughput varies. host_threads records the machine's
 * concurrency so readers can judge whether a speedup was measurable
 * at all.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "harness/runner.hh"
#include "harness/scheme.hh"
#include "harness/sweep.hh"
#include "harness/system.hh"
#include "sim/build_info.hh"
#include "workloads/micro.hh"
#include "workloads/registry.hh"
#include "workloads/workload.hh"

using namespace tlr;
using Clock = std::chrono::steady_clock;

namespace
{

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// 1. Pure kernel: N self-rescheduling events with a small capture.
double
kernelSmall(std::uint64_t events)
{
    EventQueue eq;
    std::uint64_t fired = 0;
    auto t0 = Clock::now();
    std::function<void()> chain = [&] {
        if (++fired < events)
            eq.scheduleIn(1 + (fired & 7), chain, EventPrio::CoreTick);
    };
    eq.schedule(0, chain);
    eq.run();
    return static_cast<double>(fired) / secondsSince(t0);
}

// 2. Kernel with a DataMsg-sized (96-byte) capture per event; fits
// the node's inline storage, so still allocation-free.
struct Payload
{
    std::uint64_t words[11];
};

double
kernelLarge(std::uint64_t events, std::uint64_t *spills_out)
{
    EventQueue eq;
    std::uint64_t fired = 0;
    std::uint64_t sink = 0;
    Payload p{};
    auto t0 = Clock::now();
    std::function<void()> chain = [&] {
        ++fired;
        Payload q = p;
        q.words[0] = fired;
        eq.scheduleIn(3, [&eq, &sink, q] { sink += q.words[0]; },
                      EventPrio::DataResponse);
        if (fired < events)
            eq.scheduleIn(2, chain, EventPrio::CoreTick);
    };
    eq.schedule(0, chain);
    eq.run();
    double rate = static_cast<double>(fired * 2) / secondsSince(t0);
    *spills_out = eq.kernelStats().spilledEvents;
    (void)sink;
    return rate;
}

// 3. Full simulation: events/sec and sims/sec over repeated runs.
void
fullSim(int reps, double *events_per_sec, double *sims_per_sec,
        std::uint64_t *events_out, EventQueue::KernelStats *kstats_out)
{
    MicroParams p;
    p.numCpus = 8;
    p.lockKind = schemeLockKind(Scheme::BaseSleTlr);
    p.totalOps = 1024;
    std::uint64_t events = 0;
    auto t0 = Clock::now();
    for (int i = 0; i < reps; ++i) {
        MachineParams mp;
        mp.numCpus = 8;
        mp.spec = schemeSpecConfig(Scheme::BaseSleTlr);
        System sys(mp);
        installWorkload(sys, makeSingleCounter(p));
        sys.run();
        events += sys.eventQueue().executed();
        if (i == reps - 1)
            *kstats_out = sys.eventQueue().kernelStats();
    }
    double dt = secondsSince(t0);
    *events_per_sec = static_cast<double>(events) / dt;
    *sims_per_sec = reps / dt;
    *events_out = events;
}

// 6. Boundary work: one ycsb-a TLR run, summed over every L1.
L1Controller::BoundaryWork
boundaryWork(std::uint64_t ops)
{
    WorkloadParams wp;
    wp.numCpus = 8;
    wp.ops = ops;
    wp.lockKind = schemeLockKind(Scheme::BaseSleTlr);
    MachineParams mp;
    mp.numCpus = 8;
    mp.spec = schemeSpecConfig(Scheme::BaseSleTlr);
    System sys(mp);
    installWorkload(sys, makeRegisteredWorkload("ycsb-a", wp));
    sys.run();
    L1Controller::BoundaryWork total;
    for (int i = 0; i < sys.numCpus(); ++i) {
        total.boundaries += sys.l1(i).boundaryWork().boundaries;
        total.linesVisited += sys.l1(i).boundaryWork().linesVisited;
    }
    return total;
}

// 4. fig08-style sweep: multiple-counter grid, serial vs jobs=4.
std::vector<SweepTask>
sweepTasks(std::uint64_t ops)
{
    std::vector<SweepTask> tasks;
    for (Scheme s : {Scheme::Base, Scheme::Mcs, Scheme::BaseSle,
                     Scheme::BaseSleTlr}) {
        for (int n : {2, 4, 8, 12}) {
            MicroParams p;
            p.numCpus = n;
            p.lockKind = schemeLockKind(s);
            p.totalOps = ops;
            MachineParams mp;
            mp.numCpus = n;
            mp.spec = schemeSpecConfig(s);
            tasks.push_back(makeSweepTask(
                std::string(schemeName(s)) + "/p" + std::to_string(n),
                mp, makeMultipleCounter(p)));
        }
    }
    return tasks;
}

double
sweepWall(const std::vector<SweepTask> &tasks, unsigned jobs)
{
    auto t0 = Clock::now();
    runSweep(tasks, jobs);
    return secondsSince(t0);
}

// Parallel-kernel grid: a full ycsb-a simulation (contended enough to
// keep the serialized phases busy) on the partitioned kernel with a
// given worker count, plus the phase-attribution counters the batched
// scheduling overhaul is judged by. The compat configuration reruns
// the PR-7 schedule: one barrier pair per serialized global, fixed
// worst-case windows, no snoop filter.
struct ParallelPoint
{
    unsigned threads = 1;
    double wallSec = 0;
    double eventsPerSec = 0;
    std::uint64_t cycles = 0; ///< simulated cycles — grid-invariant
    std::uint64_t events = 0; ///< one run's event population
    /** @{ pkernel phase counters from one run (thread-invariant) */
    std::uint64_t windows = 0;
    std::uint64_t barriers = 0;
    std::uint64_t barrierSkips = 0;
    std::uint64_t inlineSegments = 0;
    std::uint64_t serialGlobals = 0;
    std::uint64_t serialOps = 0;
    std::uint64_t orderingEvents = 0;
    std::uint64_t partitionEvents = 0;
    /** @} */
    ParallelKernel::PhaseProfile prof{}; ///< host-ns attribution

    /** Share of the event population executed in serialized phases:
     *  the globals themselves plus every controller operation they
     *  perform while partitions are parked. */
    double serialShare() const
    {
        return events ? static_cast<double>(serialGlobals + serialOps) /
                            static_cast<double>(events)
                      : 0;
    }
    double barriersPerKcycle() const
    {
        return cycles ? 1000.0 * static_cast<double>(barriers) /
                            static_cast<double>(cycles)
                      : 0;
    }
};

ParallelPoint
parallelSim(unsigned threads, int reps, std::uint64_t ops, bool compat)
{
    WorkloadParams wp;
    wp.numCpus = 8;
    wp.ops = ops;
    wp.lockKind = schemeLockKind(Scheme::BaseSleTlr);
    ParallelPoint pt;
    pt.threads = threads;
    std::uint64_t events = 0;
    auto t0 = Clock::now();
    for (int i = 0; i < reps; ++i) {
        MachineParams mp;
        mp.numCpus = 8;
        mp.spec = schemeSpecConfig(Scheme::BaseSleTlr);
        mp.threads = threads;
        mp.profilePhases = true;
        if (compat) {
            mp.batchedGlobals = false;
            mp.dynamicLookahead = false;
            mp.net.snoopFilter = false;
        }
        System sys(mp);
        installWorkload(sys, makeRegisteredWorkload("ycsb-a", wp));
        sys.run();
        events += sys.kernelEventsExecuted();
        pt.cycles = sys.completionTick();
        if (i == reps - 1) {
            pt.events = sys.kernelEventsExecuted();
            const StatSet &st = sys.stats();
            pt.windows = st.get("pkernel", "windows");
            pt.barriers = st.get("pkernel", "barriers");
            pt.barrierSkips = st.get("pkernel", "barrierSkips");
            pt.inlineSegments = st.get("pkernel", "inlineSegments");
            pt.serialGlobals = st.get("pkernel", "serialGlobals");
            pt.serialOps = st.get("pkernel", "serialOps");
            pt.orderingEvents = st.get("pkernel", "orderingEvents");
            pt.partitionEvents = st.get("pkernel", "partitionEvents");
            pt.prof = sys.kernel()->phaseProfile();
        }
    }
    pt.wallSec = secondsSince(t0);
    pt.eventsPerSec =
        pt.wallSec > 0 ? static_cast<double>(events) / pt.wallSec : 0;
    return pt;
}

std::vector<unsigned>
parseGrid(const std::string &s)
{
    std::vector<unsigned> out;
    size_t pos = 0;
    while (pos <= s.size()) {
        size_t comma = s.find(',', pos);
        if (comma == std::string::npos)
            comma = s.size();
        if (comma > pos)
            out.push_back(static_cast<unsigned>(
                std::atoi(s.substr(pos, comma - pos).c_str())));
        pos = comma + 1;
    }
    return out;
}

int
runParallelGrid(const std::vector<unsigned> &grid, bool quick,
                const std::string &jsonFile)
{
    const int reps = quick ? 3 : 10;
    const std::uint64_t ops = quick ? 256 : 1024;
    std::vector<ParallelPoint> pts;
    for (unsigned t : grid) {
        if (t == 0) {
            std::fprintf(stderr, "--threads values must be >= 1\n");
            return 1;
        }
        pts.push_back(parallelSim(t, reps, ops, false));
    }
    for (size_t i = 1; i < pts.size(); ++i) {
        if (pts[i].cycles != pts[0].cycles) {
            std::fprintf(stderr,
                         "BUG: simulated cycles diverged across the "
                         "thread grid (%llu @%u vs %llu @%u)\n",
                         static_cast<unsigned long long>(pts[i].cycles),
                         pts[i].threads,
                         static_cast<unsigned long long>(pts[0].cycles),
                         pts[0].threads);
            return 1;
        }
    }
    // PR-7 compat schedule on the same workload: the baseline the
    // batched/dynamic/filtered overhaul is measured against.
    ParallelPoint compat = parallelSim(grid[0], reps, ops, true);

    const ParallelPoint &pt0 = pts[0];
    double serialReduction =
        pt0.serialShare() > 0 ? compat.serialShare() / pt0.serialShare()
                              : 0;
    // Simulated cycles are policy-invariant, so the count ratio IS the
    // per-kcycle ratio; the floor-1 denominator keeps the fully-
    // eliminated case (new kernel: zero barriers) finite.
    double barrierReduction =
        static_cast<double>(compat.barriers) /
        static_cast<double>(pt0.barriers ? pt0.barriers : 1);
    std::uint64_t profTotal =
        pt0.prof.barrierWaitNs + pt0.prof.serialGlobalNs +
        pt0.prof.orderingNs + pt0.prof.partitionNs + pt0.prof.commitNs;
    auto share = [&](std::uint64_t ns) {
        return profTotal ? static_cast<double>(ns) /
                               static_cast<double>(profTotal)
                         : 0;
    };

    std::string json = "{\n  \"schema_version\": " +
                       std::to_string(statsSchemaVersion) + ",\n";
    char buf[1024];
    for (const ParallelPoint &pt : pts) {
        double speedup =
            pt.wallSec > 0 ? pts[0].wallSec / pt.wallSec : 0;
        std::snprintf(
            buf, sizeof(buf),
            "  \"threads_%u_events_per_sec\": %.0f,\n"
            "  \"threads_%u_wall_sec\": %.3f,\n"
            "  \"threads_%u_speedup\": %.3f,\n"
            "  \"threads_%u_efficiency\": %.3f,\n",
            pt.threads, pt.eventsPerSec, pt.threads, pt.wallSec,
            pt.threads, speedup, pt.threads, speedup / pt.threads);
        json += buf;
        std::printf("threads=%-2u  %.0f events/s  wall %.3fs  "
                    "speedup %.2fx  efficiency %.2f\n",
                    pt.threads, pt.eventsPerSec, pt.wallSec, speedup,
                    speedup / pt.threads);
    }
    std::snprintf(
        buf, sizeof(buf),
        "  \"phase_windows\": %llu,\n"
        "  \"phase_barriers\": %llu,\n"
        "  \"phase_barrier_skips\": %llu,\n"
        "  \"phase_inline_segments\": %llu,\n"
        "  \"phase_serial_globals\": %llu,\n"
        "  \"phase_serial_ops\": %llu,\n"
        "  \"phase_ordering_events\": %llu,\n"
        "  \"phase_partition_events\": %llu,\n"
        "  \"events_per_run\": %llu,\n"
        "  \"serial_share\": %.4f,\n"
        "  \"barriers_per_kcycle\": %.3f,\n",
        static_cast<unsigned long long>(pt0.windows),
        static_cast<unsigned long long>(pt0.barriers),
        static_cast<unsigned long long>(pt0.barrierSkips),
        static_cast<unsigned long long>(pt0.inlineSegments),
        static_cast<unsigned long long>(pt0.serialGlobals),
        static_cast<unsigned long long>(pt0.serialOps),
        static_cast<unsigned long long>(pt0.orderingEvents),
        static_cast<unsigned long long>(pt0.partitionEvents),
        static_cast<unsigned long long>(pt0.events), pt0.serialShare(),
        pt0.barriersPerKcycle());
    json += buf;
    std::snprintf(
        buf, sizeof(buf),
        "  \"compat_barriers\": %llu,\n"
        "  \"compat_serial_ops\": %llu,\n"
        "  \"compat_serial_share\": %.4f,\n"
        "  \"compat_barriers_per_kcycle\": %.3f,\n"
        "  \"compat_wall_sec\": %.3f,\n"
        "  \"serial_share_reduction\": %.2f,\n"
        "  \"barrier_reduction\": %.2f,\n"
        "  \"time_share_barrier_wait\": %.3f,\n"
        "  \"time_share_serial_global\": %.3f,\n"
        "  \"time_share_ordering\": %.3f,\n"
        "  \"time_share_partition\": %.3f,\n"
        "  \"time_share_commit\": %.3f,\n",
        static_cast<unsigned long long>(compat.barriers),
        static_cast<unsigned long long>(compat.serialOps),
        compat.serialShare(), compat.barriersPerKcycle(),
        compat.wallSec, serialReduction, barrierReduction,
        share(pt0.prof.barrierWaitNs), share(pt0.prof.serialGlobalNs),
        share(pt0.prof.orderingNs), share(pt0.prof.partitionNs),
        share(pt0.prof.commitNs));
    json += buf;
    std::printf(
        "phases: windows=%llu barriers=%llu (skips=%llu inline=%llu)  "
        "serial share %.4f  barriers/kcycle %.3f\n"
        "compat: barriers=%llu  serial share %.4f  barriers/kcycle "
        "%.3f  ->  serial reduction %.2fx, barrier reduction %.2fx\n"
        "time shares: barrier-wait %.3f  serial-global %.3f  "
        "ordering %.3f  partition %.3f  commit %.3f\n",
        static_cast<unsigned long long>(pt0.windows),
        static_cast<unsigned long long>(pt0.barriers),
        static_cast<unsigned long long>(pt0.barrierSkips),
        static_cast<unsigned long long>(pt0.inlineSegments),
        pt0.serialShare(), pt0.barriersPerKcycle(),
        static_cast<unsigned long long>(compat.barriers),
        compat.serialShare(), compat.barriersPerKcycle(),
        serialReduction, barrierReduction, share(pt0.prof.barrierWaitNs),
        share(pt0.prof.serialGlobalNs), share(pt0.prof.orderingNs),
        share(pt0.prof.partitionNs), share(pt0.prof.commitNs));
    std::snprintf(buf, sizeof(buf),
                  "  \"simulated_cycles\": %llu,\n"
                  "  \"host_threads\": %u\n}\n",
                  static_cast<unsigned long long>(pts[0].cycles),
                  defaultJobs());
    json += buf;
    if (!jsonFile.empty()) {
        std::ofstream out(jsonFile);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n", jsonFile.c_str());
            return 1;
        }
        out << json;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string jsonFile;
    std::string threadsGrid;
    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--json=", 7) == 0)
            jsonFile = argv[i] + 7;
        else if (std::strncmp(argv[i], "--threads-grid=", 15) == 0)
            threadsGrid = argv[i] + 15;
        else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
            if (!threadsGrid.empty())
                threadsGrid += ",";
            threadsGrid += argv[i] + 10;
        }
        else if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
        else {
            std::fprintf(stderr,
                         "usage: bench_kernel [--json=FILE] [--quick] "
                         "[--threads=N ...] [--threads-grid=1,2,4,8]\n");
            return 1;
        }
    }
    if (!threadsGrid.empty())
        return runParallelGrid(parseGrid(threadsGrid), quick, jsonFile);

    const std::uint64_t smallN = quick ? 400'000 : 4'000'000;
    const std::uint64_t largeN = quick ? 100'000 : 1'000'000;
    const int simReps = quick ? 5 : 40;
    const std::uint64_t sweepOps = quick ? 512 : 2048;

    double evSmall = kernelSmall(smallN);
    std::uint64_t largeSpills = 0;
    double evLarge = kernelLarge(largeN, &largeSpills);
    double simEv = 0, simsPs = 0;
    std::uint64_t simEvents = 0;
    EventQueue::KernelStats ks{};
    fullSim(simReps, &simEv, &simsPs, &simEvents, &ks);
    std::vector<SweepTask> tasks = sweepTasks(sweepOps);
    double sweepSerial = sweepWall(tasks, 1);
    double sweepJobs4 = sweepWall(tasks, 4);
    L1Controller::BoundaryWork bw = boundaryWork(quick ? 256 : 1024);
    double linesPerBoundary =
        bw.boundaries ? static_cast<double>(bw.linesVisited) /
                            static_cast<double>(bw.boundaries)
                      : 0;

    char buf[1024];
    std::snprintf(
        buf, sizeof(buf),
        "{\n"
        "  \"schema_version\": %d,\n"
        "  \"kernel_small_events_per_sec\": %.0f,\n"
        "  \"kernel_large_events_per_sec\": %.0f,\n"
        "  \"kernel_large_spilled_captures\": %llu,\n"
        "  \"sim_events_per_sec\": %.0f,\n"
        "  \"sims_per_sec\": %.2f,\n"
        "  \"sim_events_total\": %llu,\n"
        "  \"sim_pool_chunks\": %llu,\n"
        "  \"sim_spilled_captures\": %llu,\n"
        "  \"sim_inline_captures\": %llu,\n"
        "  \"sweep_fig08_serial_sec\": %.3f,\n"
        "  \"sweep_fig08_jobs4_sec\": %.3f,\n"
        "  \"ycsb_a_boundaries\": %llu,\n"
        "  \"ycsb_a_boundary_lines\": %llu,\n"
        "  \"ycsb_a_lines_per_boundary\": %.3f,\n"
        "  \"host_threads\": %u\n"
        "}\n",
        statsSchemaVersion, evSmall, evLarge,
        static_cast<unsigned long long>(largeSpills), simEv, simsPs,
        static_cast<unsigned long long>(simEvents),
        static_cast<unsigned long long>(ks.poolChunks),
        static_cast<unsigned long long>(ks.spilledEvents),
        static_cast<unsigned long long>(ks.inlineEvents), sweepSerial,
        sweepJobs4, static_cast<unsigned long long>(bw.boundaries),
        static_cast<unsigned long long>(bw.linesVisited),
        linesPerBoundary, defaultJobs());
    std::fputs(buf, stdout);
    if (!jsonFile.empty()) {
        std::ofstream out(jsonFile);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n", jsonFile.c_str());
            return 1;
        }
        out << buf;
    }
    return 0;
}
