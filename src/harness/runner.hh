/**
 * @file
 * One-shot experiment runner: builds a system, installs a workload,
 * runs it to completion and collects the metrics the paper reports.
 */

#ifndef TLR_HARNESS_RUNNER_HH
#define TLR_HARNESS_RUNNER_HH

#include <cstdint>
#include <memory>

#include "harness/scheme.hh"
#include "harness/system.hh"
#include "workloads/workload.hh"

namespace tlr
{

/** Metrics gathered from one simulation run. */
struct RunStats
{
    bool completed = false; ///< all cores halted before maxTicks
    bool valid = false;     ///< workload validation passed
    Tick cycles = 0;        ///< parallel execution time (paper y-axes)

    std::uint64_t commits = 0;
    std::uint64_t elisions = 0;
    std::uint64_t restarts = 0;
    std::uint64_t fallbacks = 0;
    std::uint64_t defers = 0;
    std::uint64_t relaxedDefers = 0;
    std::uint64_t busTransactions = 0;
    std::uint64_t markerMsgs = 0;
    std::uint64_t probeMsgs = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t writeBufferAborts = 0;

    /** @{ observability (populated when tracing/checking enabled) */
    std::uint64_t traceRecords = 0;        ///< events emitted by the sink
    std::uint64_t invariantViolations = 0; ///< checker hits (keep-going)
    /** Full metrics snapshot (latency histograms, lock contention,
     *  interconnect traffic); null unless MachineParams::collectMetrics
     *  was set. Shared so RunStats stays cheaply copyable in sweeps. */
    std::shared_ptr<const MetricsSnapshot> metrics;
    /** Causal-conflict report (explain subsystem); null unless
     *  MachineParams::explain was set. Shared for the same reason as
     *  metrics: RunStats must stay cheaply copyable in sweeps. */
    std::shared_ptr<const std::string> explainReport;
    /** Epoch-timeline digest (src/timeline/); null unless
     *  MachineParams::timelineEpoch was set. Shared for the same
     *  reason as metrics. */
    std::shared_ptr<const std::string> timelineReport;
    /** @} */

    /** Host-side: kernel events the run executed (events/sec metric;
     *  a function of the config only, so still deterministic). */
    std::uint64_t kernelEvents = 0;

    /** Per-cpu time integrals for the Figure 11 breakdown. */
    std::uint64_t lockCycles = 0;     ///< stalls on lock variables
    std::uint64_t dataStallCycles = 0;
    std::uint64_t busyCycles = 0;

    /** Fraction of aggregate cpu time spent on lock accesses. */
    double
    lockFraction(int num_cpus) const
    {
        double total = static_cast<double>(cycles) * num_cpus;
        return total > 0 ? static_cast<double>(lockCycles) / total : 0.0;
    }
};

/** Run @p wl on a machine configured by @p mp. */
RunStats runWorkload(const MachineParams &mp, const Workload &wl);

/** The versioned stats dump of a finished run on @p sys, with the
 *  "metrics" and "timeline" sections of whichever of those observers
 *  it armed (tlrsim --stats-json and every run bundle). */
std::string statsDocument(System &sys);

/** Convenience: configure the machine for @p scheme and run. */
RunStats runScheme(Scheme scheme, int num_cpus, const Workload &wl,
                   Tick max_ticks = 2'000'000'000ull);

/** Workload-scale multiplier from the TLR_SCALE environment variable
 *  (default 1): lets users regenerate paper-sized runs. */
std::uint64_t envScale();

/** True when the TLR_METRICS environment variable is set non-zero:
 *  runScheme() then attaches a MetricsCollector to every run so bench
 *  and figure binaries print latency/contention digests. */
bool envMetrics();

/** True when TLR_EXPLAIN is set non-zero: runScheme() then attaches
 *  the causal-conflict explainer and RunStats::explainReport carries
 *  the rendered top-K report (bench binaries print it). */
bool envExplain();

/** Epoch length from the TLR_TIMELINE environment variable (cycles;
 *  0 = off, the default): runScheme() then attaches an EpochTimeline
 *  and RunStats::timelineReport carries its digest. */
Tick envTimelineEpoch();

/** Ledger directory from the TLR_REPORT environment variable ("" =
 *  off, the default): runWorkload() then appends a run bundle (see
 *  src/report/bundle.hh) for every simulation it executes, so bench
 *  and experiment binaries produce tlrreport-renderable flight
 *  reports without new flags. */
std::string envReportDir();

} // namespace tlr

#endif // TLR_HARNESS_RUNNER_HH
