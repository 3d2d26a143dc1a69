/**
 * @file
 * perfbench: the repository benchmark program (see README.md).
 *
 * Runs one named workload through the simulator's public API for a
 * fixed host-time budget and prints one JSON document on stdout. The
 * default (untraced) mode measures the end-to-end metrics. The traced
 * mode (--trace 1) reports per-layer metrics: it drives the event
 * queue itself to attribute host time to each event priority class,
 * wraps every trace observer in a timing listener, and reads the
 * component counters. Every simulation is checked: it must complete,
 * pass its validator, report no invariant violation and reproduce the
 * counters of the other runs of the same configuration. run.py adds
 * the recorded reference digests and peak RSS.
 *
 *   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *             [--work-dir DIR] [--quick]
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "explain/explain.hh"
#include "explain/rawtrace.hh"
#include "harness/scheme.hh"
#include "harness/sweep.hh"
#include "harness/system.hh"
#include "metrics/collector.hh"
#include "sim/build_info.hh"
#include "timeline/timeline.hh"
#include "trace/checkers.hh"
#include "workloads/registry.hh"

using namespace tlr;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t
nanosBetween(Clock::time_point a, Clock::time_point b)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

// ---------------------------------------------------------------------
// Workloads

/** Per-cpu operations of the three ycsb-a workloads. */
constexpr std::uint64_t kYcsbOps = 2048;
constexpr std::uint64_t kYcsbQuickOps = 64;
/** Epoch length of the .observed workload's timeline, in cycles. */
constexpr Tick kTimelineEpoch = 1000;
/** Setup-only repetitions before the measured loop (setup_s). */
constexpr int kSetupReps = 20;

/** One simulated configuration. */
struct SimSpec
{
    std::string workload; ///< registry name
    Scheme scheme = Scheme::BaseSleTlr;
    Protocol protocol = Protocol::Broadcast;
    int cpus = 16;
    std::uint64_t ops = kYcsbOps;
    bool observed = false; ///< invariant checkers + every observer

    const char *
    schemeLabel() const
    {
        switch (scheme) {
          case Scheme::Base: return "base";
          case Scheme::Mcs: return "mcs";
          case Scheme::BaseSle: return "sle";
          case Scheme::BaseSleTlr: return "tlr";
          case Scheme::TlrStrictTs: return "tlr-strict";
        }
        return "?";
    }

    /** Names the configuration in digests and the reference file. */
    std::string
    key() const
    {
        return workload + "/" + schemeLabel() + "/" +
               (protocol == Protocol::Directory ? "dir" : "bcast") +
               "/p" + std::to_string(cpus) + "/ops" +
               std::to_string(ops) + (observed ? "/observed" : "");
    }
};

/** The Figure 8-11 sweep: microbenchmarks (ops = total) and the
 *  SPLASH-style kernels (ops = iterations per cpu) under the four
 *  evaluated schemes at a few machine sizes. */
std::vector<SimSpec>
paperGrid(bool quick)
{
    struct Item
    {
        const char *name;
        std::uint64_t ops;
    };
    const std::vector<Item> items =
        quick ? std::vector<Item>{{"single-counter", 64}, {"barnes", 4}}
              : std::vector<Item>{{"multiple-counter", 2048},
                                  {"single-counter", 2048},
                                  {"dlist", 1024},
                                  {"barnes", 96},
                                  {"mp3d", 96},
                                  {"radiosity", 96},
                                  {"raytrace", 96}};
    const std::vector<int> cpuCounts =
        quick ? std::vector<int>{4} : std::vector<int>{4, 8, 16};
    std::vector<SimSpec> grid;
    for (int cpus : cpuCounts)
        for (const Item &it : items)
            for (Scheme s : {Scheme::Base, Scheme::Mcs, Scheme::BaseSle,
                             Scheme::BaseSleTlr}) {
                SimSpec spec;
                spec.workload = it.name;
                spec.scheme = s;
                spec.cpus = cpus;
                spec.ops = it.ops;
                grid.push_back(spec);
            }
    // Largest machines first, so the sweep's tail is short tasks.
    std::reverse(grid.begin(), grid.end());
    return grid;
}

/** The simulations one run of @p name repeats (one, or the grid). */
std::vector<SimSpec>
specsFor(const std::string &name, bool quick)
{
    SimSpec ycsb;
    ycsb.workload = "ycsb-a";
    ycsb.ops = quick ? kYcsbQuickOps : kYcsbOps;
    if (name == "ycsb-a.tlr")
        return {ycsb};
    if (name == "ycsb-a.base.dir") {
        ycsb.scheme = Scheme::Base;
        ycsb.protocol = Protocol::Directory;
        return {ycsb};
    }
    if (name == "ycsb-a.tlr.observed") {
        ycsb.observed = true;
        return {ycsb};
    }
    if (name == "paper-grid")
        return paperGrid(quick);
    return {};
}

MachineParams
machineParams(const SimSpec &s, std::uint64_t seed, bool wireObservers)
{
    MachineParams mp;
    mp.numCpus = s.cpus;
    mp.protocol = s.protocol;
    mp.spec = schemeSpecConfig(s.scheme);
    mp.seed = seed;
    if (s.observed && wireObservers) {
        mp.trace.checkInvariants = true;
        mp.trace.keepGoingOnViolation = true;
        mp.collectMetrics = true;
        mp.explain = true;
        mp.timelineEpoch = kTimelineEpoch;
    }
    return mp;
}

Workload
buildWorkload(const SimSpec &s, std::uint64_t seed)
{
    WorkloadParams wp;
    wp.numCpus = s.cpus;
    wp.ops = s.ops;
    wp.seed = seed;
    wp.lockKind = schemeLockKind(s.scheme);
    wp.theta = 0.6;
    wp.keys = 256;
    return makeRegisteredWorkload(s.workload, wp);
}

// ---------------------------------------------------------------------
// Digests: the simulated machine's fixed point

/** Completion tick plus every counter except the parallel kernel's
 *  host-side pkernel.* group. */
struct Digest
{
    Tick cycles = 0;
    std::map<std::string, std::uint64_t> counters;

    bool
    operator==(const Digest &o) const
    {
        return cycles == o.cycles && counters == o.counters;
    }

    /** Sum of counter @p name over every group starting with
     *  @p groupPrefix (StatSet::sum over a digest). */
    std::uint64_t
    sum(const std::string &groupPrefix, const std::string &name) const
    {
        std::uint64_t total = 0;
        for (const auto &[key, v] : counters) {
            std::size_t dot = key.find('.');
            if (dot != std::string::npos &&
                key.compare(0, groupPrefix.size(), groupPrefix) == 0 &&
                key.compare(dot + 1, std::string::npos, name) == 0)
                total += v;
        }
        return total;
    }

    void
    add(const Digest &o)
    {
        cycles += o.cycles;
        for (const auto &[key, v] : o.counters)
            counters[key] += v;
    }
};

Digest
digestOf(System &sys)
{
    Digest d;
    d.cycles = sys.completionTick();
    for (const auto &[key, v] : sys.stats().all())
        if (key.rfind("pkernel.", 0) != 0)
            d.counters[key] = v;
    return d;
}

/** First difference between two digests, for failure messages. */
std::string
firstDifference(const Digest &want, const Digest &got)
{
    if (want.cycles != got.cycles)
        return "cycles " + std::to_string(want.cycles) + " != " +
               std::to_string(got.cycles);
    auto value = [](const Digest &d, const std::string &k) {
        auto it = d.counters.find(k);
        return it == d.counters.end() ? std::string("absent")
                                      : std::to_string(it->second);
    };
    std::set<std::string> keys;
    for (const auto &kv : want.counters)
        keys.insert(kv.first);
    for (const auto &kv : got.counters)
        keys.insert(kv.first);
    for (const std::string &k : keys)
        if (value(want, k) != value(got, k))
            return k + " " + value(want, k) + " != " + value(got, k);
    return "";
}

// ---------------------------------------------------------------------
// One untraced simulation

struct SimResult
{
    std::string problem; ///< empty when the correctness gate passed
    Digest digest;
    double workloadS = 0; ///< input generation
    double systemS = 0;   ///< System construction + installWorkload
    double runS = 0;      ///< System::run
    double reportS = 0;   ///< validation + observer reports
    std::uint64_t inst = 0;
    std::uint64_t events = 0;
    EventQueue::KernelStats kernel;
    /** @{ .observed only: online outputs the replay must reproduce */
    std::string timelineCsv;
    std::string explainText;
    std::uint64_t records = 0;
    /** @} */
    bool sinkArmed = false; ///< any trace consumer attached

    double setupS() const { return workloadS + systemS; }
};

/** The correctness gate shared by traced and untraced runs. */
std::string
checkOutcome(System &sys, const Workload &wl, bool completed)
{
    if (!completed)
        return "did not complete";
    if (wl.validate && !wl.validate(sys))
        return "validator failed";
    std::uint64_t v = sys.stats().get("trace", "violations");
    if (v != 0)
        return std::to_string(v) + " invariant violations";
    return "";
}

void
fillCounts(SimResult &r, System &sys)
{
    r.digest = digestOf(sys);
    r.inst = r.digest.sum("core", "instRetired");
    r.events = sys.eventQueue().executed();
    r.kernel = sys.eventQueue().kernelStats();
}

/** Run @p spec the way a user does: System::run, with the .observed
 *  workload's observers wired by MachineParams and a raw-trace writer
 *  recording to @p rawPath. */
SimResult
runUntraced(const SimSpec &spec, std::uint64_t seed,
            const std::string &rawPath)
{
    SimResult r;
    auto t0 = Clock::now();
    Workload wl = buildWorkload(spec, seed);
    auto t1 = Clock::now();
    System sys(machineParams(spec, seed, true));
    installWorkload(sys, wl);
    RawTraceWriter raw;
    if (spec.observed) {
        std::string err = raw.open(rawPath);
        if (!err.empty())
            throw std::runtime_error("raw trace: " + err);
        sys.addTraceListener(&raw);
    }
    auto t2 = Clock::now();
    bool completed = sys.run();
    auto t3 = Clock::now();
    r.problem = checkOutcome(sys, wl, completed);
    r.sinkArmed = sys.traceSink().armed();
    if (spec.observed) {
        r.records = raw.written();
        raw.close();
        r.timelineCsv = sys.timeline()->csv();
        r.explainText = sys.explainer()->report();
        // Rendered as tlrsim --metrics would; counted in wall_s.
        (void)sys.metrics()->snapshot().json();
    }
    r.reportS = secondsSince(t3);
    r.workloadS = std::chrono::duration<double>(t1 - t0).count();
    r.systemS = std::chrono::duration<double>(t2 - t1).count();
    r.runS = std::chrono::duration<double>(t3 - t2).count();
    fillCounts(r, sys);
    return r;
}

// ---------------------------------------------------------------------
// Offline replay of the raw trace

struct ReplayResult
{
    double seconds = 0;
    std::uint64_t records = 0;
    std::string timelineCsv;
    std::string explainText;
};

/** Read @p path back, feeding the explainer and/or the timeline (or
 *  neither: a pure read pass), and render their outputs. */
ReplayResult
replayTrace(const std::string &path, bool explain, bool timeline)
{
    ReplayResult r;
    auto t0 = Clock::now();
    RawTraceReader reader;
    std::string err = reader.open(path);
    if (!err.empty())
        throw std::runtime_error("replay: " + err);
    Explainer ex;
    EpochTimeline tl(kTimelineEpoch);
    reader.forEach([&](const TraceRecord &rec) {
        ++r.records;
        if (explain)
            ex.onRecord(rec);
        if (timeline)
            tl.onRecord(rec);
    });
    Tick last = reader.header().finalTick;
    if (explain) {
        ex.finish(last);
        r.explainText = ex.report();
    }
    if (timeline) {
        tl.finish(last);
        r.timelineCsv = tl.csv();
    }
    r.seconds = secondsSince(t0);
    return r;
}

// ---------------------------------------------------------------------
// One traced simulation

/** Event classes: EventPrio values 0-3, then everything else. */
constexpr std::array<const char *, 5> kClasses = {"bus", "snoop", "data",
                                                  "tick", "other"};
/** Observers of the .observed workload, in System attach order. */
constexpr std::array<const char *, 5> kObservers = {
    "checkers", "metrics", "explain", "timeline", "rawtrace"};
/** Record-emitting components, in TraceComp order. */
constexpr std::array<const char *, 5> kComps = {"spec", "l1", "bus", "dir",
                                                "net"};

/** Forwards records to one observer and accumulates its host time,
 *  both per observer and into a total the event loop subtracts from
 *  the event class being executed. */
class TimedListener : public TraceListener
{
  public:
    TimedListener(TraceListener &inner, std::uint64_t &total)
        : inner_(inner), total_(total)
    {
    }

    void
    onRecord(const TraceRecord &r) override
    {
        auto t0 = Clock::now();
        inner_.onRecord(r);
        charge(t0);
    }

    void
    finish(Tick now) override
    {
        auto t0 = Clock::now();
        inner_.finish(now);
        charge(t0);
    }

    std::uint64_t ns() const { return ns_; }

  private:
    void
    charge(Clock::time_point t0)
    {
        std::uint64_t d = nanosBetween(t0, Clock::now());
        ns_ += d;
        total_ += d;
    }

    TraceListener &inner_;
    std::uint64_t &total_;
    std::uint64_t ns_ = 0;
};

/** Counts records by emitting component. */
class RecordCounter : public TraceListener
{
  public:
    void
    onRecord(const TraceRecord &r) override
    {
        auto c = static_cast<std::size_t>(r.comp);
        if (c < byComp.size())
            ++byComp[c];
        ++total;
    }

    std::array<std::uint64_t, kComps.size()> byComp{};
    std::uint64_t total = 0;
};

struct TracedResult
{
    SimResult sim;
    double loopS = 0; ///< the stepped event loop, observers included
    std::array<std::uint64_t, kClasses.size()> classEvents{};
    std::array<std::uint64_t, kClasses.size()> classNs{}; ///< self time
    std::array<std::uint64_t, kObservers.size()> observerNs{};
    std::array<std::uint64_t, kComps.size()> records{};
    std::uint64_t recordsTotal = 0;
};

/** Run @p spec by stepping its event queue, timing each event by
 *  priority class. For the .observed workload the benchmark builds
 *  the same observers System would and wraps each one in a
 *  TimedListener. */
TracedResult
runTraced(const SimSpec &spec, std::uint64_t seed,
          const std::string &rawPath)
{
    TracedResult t;
    auto t0 = Clock::now();
    Workload wl = buildWorkload(spec, seed);
    auto t1 = Clock::now();
    MachineParams mp = machineParams(spec, seed, false);
    System sys(mp);
    installWorkload(sys, wl);

    std::uint64_t observerTotal = 0;
    RecordCounter counter;
    TraceParams tp;
    tp.checkInvariants = true;
    tp.keepGoingOnViolation = true;
    std::unique_ptr<InvariantRegistry> checkers;
    MetricsCollector metrics;
    Explainer explainer;
    EpochTimeline timeline(kTimelineEpoch);
    RawTraceWriter raw;
    std::vector<std::unique_ptr<TimedListener>> timed;
    if (spec.observed) {
        checkers = std::make_unique<InvariantRegistry>(
            sys.stats(), &sys.traceSink(), tp, mp.spec.deferUntimestamped,
            mp.l1.yieldTimeout);
        if (wl.lockClassifier)
            metrics.setLockClassifier(wl.lockClassifier);
        std::string err = raw.open(rawPath);
        if (!err.empty())
            throw std::runtime_error("raw trace: " + err);
        sys.addTraceListener(&counter);
        TraceListener *observers[] = {checkers.get(), &metrics, &explainer,
                                      &timeline, &raw};
        for (TraceListener *o : observers) {
            timed.push_back(
                std::make_unique<TimedListener>(*o, observerTotal));
            sys.addTraceListener(timed.back().get());
        }
    }
    auto t2 = Clock::now();

    for (int i = 0; i < sys.numCpus(); ++i)
        sys.core(i).start(0);
    EventQueue &eq = sys.eventQueue();
    Tick when = 0;
    int prio = 0;
    auto prev = Clock::now();
    auto start = prev;
    std::uint64_t observerPrev = 0;
    while (eq.peekNext(when, prio) && when <= mp.maxTicks) {
        eq.step();
        auto now = Clock::now();
        std::size_t c = std::min<std::size_t>(
            static_cast<std::size_t>(prio), kClasses.size() - 1);
        ++t.classEvents[c];
        t.classNs[c] +=
            nanosBetween(prev, now) - (observerTotal - observerPrev);
        prev = now;
        observerPrev = observerTotal;
    }
    sys.traceSink().finish(eq.now());
    t.loopS = secondsSince(start);
    auto t3 = Clock::now();

    SimResult &r = t.sim;
    r.problem = checkOutcome(sys, wl, sys.completionTick() != 0);
    r.workloadS = std::chrono::duration<double>(t1 - t0).count();
    r.systemS = std::chrono::duration<double>(t2 - t1).count();
    r.runS = std::chrono::duration<double>(t3 - t2).count();
    fillCounts(r, sys);
    for (std::size_t i = 0; i < timed.size(); ++i)
        t.observerNs[i] = timed[i]->ns();
    t.records = counter.byComp;
    t.recordsTotal = counter.total;
    return t;
}

// ---------------------------------------------------------------------
// Bookkeeping

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    auto lo = static_cast<std::size_t>(std::floor(pos));
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(const std::vector<double> &v) { return quantile(v, 0.5); }

double
ratio(double a, double b)
{
    return b > 0 ? a / b : 0;
}

/** Per-configuration correctness record across the run's repetitions. */
struct ConfigRecord
{
    Digest digest; ///< first repetition's
    std::uint64_t reps = 0;
    std::uint64_t failed = 0;
};

struct Report
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> problems;
    std::map<std::string, ConfigRecord> configs;

    /** Gate one simulation: its own outcome, then its digest against
     *  the configuration's first repetition. */
    void
    check(const std::string &key, const SimResult &r)
    {
        ++attempted;
        ConfigRecord &c = configs[key];
        std::string problem = r.problem;
        if (c.reps == 0)
            c.digest = r.digest;
        else if (problem.empty() && !(c.digest == r.digest))
            problem = "not reproducible: " +
                      firstDifference(c.digest, r.digest);
        ++c.reps;
        fail(key, problem);
    }

    void
    fail(const std::string &key, const std::string &problem)
    {
        if (problem.empty())
            return;
        ++failed;
        ++configs[key].failed;
        if (problems.size() < 20)
            problems.push_back(key + ": " + problem);
    }
};

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char ch : s) {
        if (ch == '"' || ch == '\\') {
            out += '\\';
            out += ch;
        } else if (static_cast<unsigned char>(ch) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", ch);
            out += buf;
        } else {
            out += ch;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    return buf;
}

std::string
metricsJson(const std::vector<Metric> &ms)
{
    std::string out = "{";
    for (std::size_t i = 0; i < ms.size(); ++i) {
        out += (i ? ", " : "") + jsonString(ms[i].name) +
               ": {\"value\": " + jsonNumber(ms[i].value) +
               ", \"unit\": " + jsonString(ms[i].unit) + "}";
    }
    return out + "}";
}

void
printDocument(const Report &rep, const std::vector<Metric> &metrics,
              const std::vector<Metric> &summary, unsigned nproc)
{
    std::string out = "{\"attempted\": " + std::to_string(rep.attempted) +
                      ", \"failed\": " + std::to_string(rep.failed);
    out += ", \"host\": {\"nproc\": " + std::to_string(nproc) +
           ", \"build_type\": " + jsonString(buildType()) +
           ", \"compiler\": " + jsonString(buildCompiler()) +
           ", \"git_sha\": " + jsonString(buildGitSha()) +
           ", \"flags\": " + jsonString(buildFlags()) + "}";
    out += ", \"problems\": [";
    for (std::size_t i = 0; i < rep.problems.size(); ++i)
        out += (i ? ", " : "") + jsonString(rep.problems[i]);
    out += "], \"configs\": {";
    bool first = true;
    for (const auto &[key, c] : rep.configs) {
        out += (first ? "" : ", ") + jsonString(key) +
               ": {\"reps\": " + std::to_string(c.reps) +
               ", \"failed\": " + std::to_string(c.failed) +
               ", \"cycles\": " + std::to_string(c.digest.cycles) +
               ", \"counters\": {";
        first = false;
        bool firstCounter = true;
        for (const auto &[name, v] : c.digest.counters) {
            out += (firstCounter ? "" : ", ") + jsonString(name) + ": " +
                   std::to_string(v);
            firstCounter = false;
        }
        out += "}}";
    }
    out += "}, \"summary\": " + metricsJson(summary) +
           ", \"metrics\": " + metricsJson(metrics) + "}\n";
    std::fwrite(out.data(), 1, out.size(), stdout);
}

// ---------------------------------------------------------------------
// Runs

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool quick = false;
    std::string workDir = ".";
};

/** Samples of the untraced measurements of one run. */
struct Samples
{
    std::vector<double> setup, workload, system, run, instRate, wall,
        replay, sweepWall, task, sweepEfficiency, sweepTail;
    Digest digest; ///< summed over the grid
    std::uint64_t inst = 0, events = 0;
    bool sinkArmed = false;
    EventQueue::KernelStats kernel;
};

void
addKernel(EventQueue::KernelStats &sum, const EventQueue::KernelStats &k)
{
    sum.farEvents += k.farEvents;
    sum.poolChunks += k.poolChunks;
    sum.spilledEvents += k.spilledEvents;
}

/** Measure one repetition of a single-simulation workload. */
SimResult
singleRep(const SimSpec &spec, const Options &o, Report &rep, Samples &s)
{
    std::string rawPath = o.workDir + "/trace.bin";
    SimResult r = runUntraced(spec, o.seed, rawPath);
    rep.check(spec.key(), r);
    double wall = r.setupS() + r.runS + r.reportS;
    if (spec.observed) {
        ReplayResult rp = replayTrace(rawPath, true, true);
        if (rp.records != r.records)
            rep.fail(spec.key(), "replay read " +
                                     std::to_string(rp.records) + " of " +
                                     std::to_string(r.records) +
                                     " records");
        else if (rp.timelineCsv != r.timelineCsv)
            rep.fail(spec.key(), "offline timeline differs from online");
        else if (rp.explainText != r.explainText)
            rep.fail(spec.key(), "offline explain differs from online");
        s.replay.push_back(rp.seconds);
        wall += rp.seconds;
        // A fresh file per repetition: truncating the previous one
        // would charge its deletion to the next setup.
        std::remove(rawPath.c_str());
    }
    s.setup.push_back(r.setupS());
    s.workload.push_back(r.workloadS);
    s.system.push_back(r.systemS);
    s.run.push_back(r.runS);
    s.instRate.push_back(ratio(static_cast<double>(r.inst), r.runS));
    s.wall.push_back(wall);
    s.sinkArmed = s.sinkArmed || r.sinkArmed;
    s.digest = r.digest;
    s.inst = r.inst;
    s.events = r.events;
    s.kernel = r.kernel;
    return r;
}

/** Measure one runSweep over the grid. */
void
gridRep(const std::vector<SimSpec> &grid, const Options &o, Report &rep,
        Samples &s)
{
    std::vector<SimResult> results(grid.size());
    std::vector<SweepTask> tasks;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        tasks.push_back({grid[i].key(), [&grid, &results, &o, i] {
                             results[i] = runUntraced(grid[i], o.seed, "");
                             RunStats rs;
                             rs.completed = results[i].problem.empty();
                             rs.valid = rs.completed;
                             rs.cycles = results[i].digest.cycles;
                             return rs;
                         }});
        results[i].problem = "task threw";
    }
    unsigned jobs = std::min(4u, defaultJobs());
    auto t0 = Clock::now();
    std::vector<SweepResult> sweep = runSweep(tasks, jobs);
    double wall = secondsSince(t0);

    double runSum = 0, taskSum = 0, taskMax = 0;
    Samples one;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const SimResult &r = results[i];
        rep.check(grid[i].key(), r);
        runSum += r.runS;
        s.setup.push_back(r.setupS());
        s.workload.push_back(r.workloadS);
        s.system.push_back(r.systemS);
        s.task.push_back(sweep[i].wallSeconds);
        s.sinkArmed = s.sinkArmed || r.sinkArmed;
        taskSum += sweep[i].wallSeconds;
        taskMax = std::max(taskMax, sweep[i].wallSeconds);
        one.digest.add(r.digest);
        one.inst += r.inst;
        one.events += r.events;
        addKernel(one.kernel, r.kernel);
    }
    s.run.push_back(runSum);
    s.instRate.push_back(ratio(static_cast<double>(one.inst), runSum));
    s.wall.push_back(wall);
    s.sweepWall.push_back(wall);
    s.sweepEfficiency.push_back(ratio(taskSum, jobs * wall));
    s.sweepTail.push_back(ratio(taskMax, wall));
    s.digest = one.digest;
    s.inst = one.inst;
    s.events = one.events;
    s.kernel = one.kernel;
}

/** Time setup alone: input generation, System, installWorkload. */
void
setupRep(const SimSpec &spec, const Options &o, Samples &s)
{
    auto t0 = Clock::now();
    Workload wl = buildWorkload(spec, o.seed);
    auto t1 = Clock::now();
    System sys(machineParams(spec, o.seed, true));
    installWorkload(sys, wl);
    auto t2 = Clock::now();
    double w = std::chrono::duration<double>(t1 - t0).count();
    double y = std::chrono::duration<double>(t2 - t1).count();
    s.setup.push_back(w + y);
    s.workload.push_back(w);
    s.system.push_back(y);
}

/** Untraced repetitions until the time budget is spent. */
Samples
measure(const std::vector<SimSpec> &specs, bool grid, const Options &o,
        Report &rep, int minReps)
{
    Samples s;
    auto t0 = Clock::now();
    if (!grid)
        for (int i = 0; i < (o.quick ? 1 : kSetupReps); ++i)
            setupRep(specs[0], o, s);
    for (int n = 0; n < minReps || secondsSince(t0) < o.seconds; ++n) {
        if (grid)
            gridRep(specs, o, rep, s);
        else
            singleRep(specs[0], o, rep, s);
        if (o.quick)
            break;
    }
    return s;
}

std::vector<Metric>
endToEnd(const Samples &s)
{
    return {
        {"run_s", median(s.run), "s"},
        {"sim_inst_per_s", median(s.instRate), "inst/s"},
        {"setup_s", median(s.setup), "s"},
        {"wall_s", median(s.wall), "s"},
        {"sim_cycles", static_cast<double>(s.digest.cycles), "cycles"},
    };
}

std::vector<Metric>
summaryOf(const Samples &s)
{
    return {
        {"samples.run", static_cast<double>(s.run.size()), "count"},
        {"run_s.p90", quantile(s.run, 0.9), "s"},
        {"samples.setup", static_cast<double>(s.setup.size()), "count"},
        {"setup_s.p90", quantile(s.setup, 0.9), "s"},
        {"wall_s.p90", quantile(s.wall, 0.9), "s"},
        {"replay_s", median(s.replay), "s"},
        {"sweep_wall_s", median(s.sweepWall), "s"},
        {"task_s.p50", quantile(s.task, 0.5), "s"},
        {"task_s.p90", quantile(s.task, 0.9), "s"},
        {"trace_sink_armed", s.sinkArmed ? 1.0 : 0.0, "bool"},
    };
}

/** Per-layer figures of one traced repetition; for paper-grid, summed
 *  over the grid. */
struct LayerSample
{
    double loopS = 0;     ///< traced event loop
    double untracedS = 0; ///< System::run of the untraced twin
    std::array<double, kClasses.size()> classNs{};
    std::array<std::uint64_t, kClasses.size()> classEvents{};
    std::array<double, kObservers.size()> observerNs{};
    std::array<std::uint64_t, kComps.size()> records{};
    std::uint64_t recordsTotal = 0;

    void
    add(const TracedResult &t, double untraced)
    {
        loopS += t.loopS;
        untracedS += untraced;
        for (std::size_t c = 0; c < kClasses.size(); ++c) {
            classNs[c] += static_cast<double>(t.classNs[c]);
            classEvents[c] += t.classEvents[c];
        }
        for (std::size_t i = 0; i < kObservers.size(); ++i)
            observerNs[i] += static_cast<double>(t.observerNs[i]);
        for (std::size_t c = 0; c < kComps.size(); ++c)
            records[c] += t.records[c];
        recordsTotal += t.recordsTotal;
    }
};

struct Layers
{
    std::vector<LayerSample> reps;
    std::vector<double> readS, explainS, timelineS;
};

/** One traced run of @p spec plus its untraced twin, added to
 *  @p into. The two must agree on every counter, and the traced loop
 *  time must be accounted for by event classes plus observers. */
void
tracedPair(const SimSpec &spec, const Options &o, Report &rep,
           Samples &s, Layers &L, LayerSample &into)
{
    std::string rawPath = o.workDir + "/trace.bin";
    SimResult u = singleRep(spec, o, rep, s);
    TracedResult t = runTraced(spec, o.seed, rawPath);
    std::string key = spec.key() + " (traced)";
    ++rep.attempted;
    if (!t.sim.problem.empty())
        rep.fail(key, t.sim.problem);
    else if (!(t.sim.digest == u.digest))
        rep.fail(key, "traced run differs: " +
                          firstDifference(u.digest, t.sim.digest));

    std::uint64_t timed = 0;
    for (std::uint64_t v : t.classNs)
        timed += v;
    for (std::uint64_t v : t.observerNs)
        timed += v;
    double accounted = ratio(static_cast<double>(timed) * 1e-9, t.loopS);
    if (accounted < 0.99 || accounted > 1.01)
        rep.fail(key, "event classes account for " + jsonNumber(accounted) +
                          " of the traced loop");
    into.add(t, u.runS);

    if (spec.observed) {
        L.readS.push_back(replayTrace(rawPath, false, false).seconds);
        L.explainS.push_back(replayTrace(rawPath, true, false).seconds);
        L.timelineS.push_back(replayTrace(rawPath, false, true).seconds);
        std::remove(rawPath.c_str());
    }
}

std::vector<Metric>
perLayer(const Samples &s, const Layers &L)
{
    auto med = [&L](auto field) {
        std::vector<double> v;
        for (const LayerSample &r : L.reps)
            v.push_back(field(r));
        return median(v);
    };
    auto count = [](std::uint64_t v) { return static_cast<double>(v); };
    const Digest &d = s.digest;
    const LayerSample &last = L.reps.back(); // counts repeat exactly
    double loopNs = med([](const LayerSample &r) { return r.loopS; }) * 1e9;
    double untracedS = med([](const LayerSample &r) { return r.untracedS; });
    std::vector<Metric> m = {
        {"sim.events", count(s.events), "count"},
        {"sim.events_per_inst", ratio(count(s.events), count(s.inst)),
         "events/inst"},
        {"sim.ns_per_event", ratio(untracedS * 1e9, count(s.events)), "ns"},
        {"sim.far_events", count(s.kernel.farEvents), "count"},
        {"sim.pool_chunks", count(s.kernel.poolChunks), "count"},
        {"sim.spilled_events", count(s.kernel.spilledEvents), "count"},
    };
    for (std::size_t c = 0; c < kClasses.size(); ++c) {
        std::string p = std::string("evq.") + kClasses[c];
        double ns = med([c](const LayerSample &r) { return r.classNs[c]; });
        m.push_back({p + ".events", count(last.classEvents[c]), "count"});
        m.push_back({p + ".ns", ns, "ns"});
        m.push_back({p + ".share", ratio(ns, loopNs), "ratio"});
    }
    std::uint64_t commits = d.sum("spec", "commits");
    std::uint64_t restarts = d.sum("spec", "restarts");
    std::vector<Metric> counters = {
        {"cpu.inst_retired", count(s.inst), "count"},
        {"cpu.busy_cycles", count(d.sum("core", "busyCycles")), "cycles"},
        {"cpu.data_stall_cycles", count(d.sum("core", "dataStallCycles")),
         "cycles"},
        {"cpu.lock_cycles", count(d.sum("core", "lockCycles")), "cycles"},
        {"spec.elisions", count(d.sum("spec", "elisions")), "count"},
        {"spec.commits", count(commits), "count"},
        {"spec.restarts", count(restarts), "count"},
        {"spec.fallbacks", count(d.sum("spec", "fallbacks")), "count"},
        {"spec.commit_yield",
         ratio(count(commits), count(commits + restarts)), "ratio"},
        {"l1.hits", count(d.sum("l1_", "hits")), "count"},
        {"l1.misses", count(d.sum("l1_", "misses")), "count"},
        {"l1.upgrades", count(d.sum("l1_", "upgrades")), "count"},
        {"l1.defers", count(d.sum("l1_", "defers")), "count"},
        {"l1.relaxed_defers", count(d.sum("l1_", "relaxedDefers")),
         "count"},
        {"bus.transactions", count(d.sum("bus", "transactions")), "count"},
        {"dir.forwarded_snoops", count(d.sum("dir", "forwardedSnoops")),
         "count"},
        {"dir.invalidations", count(d.sum("dir", "invalidations")),
         "count"},
        {"net.data_msgs", count(d.sum("net", "dataMsgs")), "count"},
        {"net.marker_msgs", count(d.sum("net", "markerMsgs")), "count"},
        {"net.probe_msgs", count(d.sum("net", "probeMsgs")), "count"},
        {"mem.l2_misses", count(d.sum("mem", "l2Misses")), "count"},
        {"trace.records", count(last.recordsTotal), "count"},
    };
    m.insert(m.end(), counters.begin(), counters.end());
    for (std::size_t c = 0; c < kComps.size(); ++c)
        m.push_back({std::string("trace.records.") + kComps[c],
                     count(last.records[c]), "count"});
    m.push_back({"trace.overhead", ratio(loopNs * 1e-9, untracedS), "ratio"});
    for (std::size_t i = 0; i < kObservers.size(); ++i) {
        std::string p = std::string("obs.") + kObservers[i];
        double ns = med([i](const LayerSample &r) { return r.observerNs[i]; });
        m.push_back({p + ".ns", ns, "ns"});
        m.push_back({p + ".ns_per_record",
                     ratio(ns, count(last.recordsTotal)), "ns/record"});
    }
    double read = median(L.readS);
    std::vector<Metric> rest = {
        {"reader.read_s", read, "s"},
        {"reader.records_per_s", ratio(count(last.recordsTotal), read),
         "records/s"},
        {"replay.explain_s", median(L.explainS), "s"},
        {"replay.timeline_s", median(L.timelineS), "s"},
        {"replay.total_s", median(s.replay), "s"},
        {"setup.workload_s", median(s.workload), "s"},
        {"setup.system_s", median(s.system), "s"},
        {"sweep.wall_s", median(s.sweepWall), "s"},
        {"sweep.task_s.p50", quantile(s.task, 0.5), "s"},
        {"sweep.task_s.p90", quantile(s.task, 0.9), "s"},
        {"sweep.efficiency", median(s.sweepEfficiency), "ratio"},
        {"sweep.tail", median(s.sweepTail), "ratio"},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    return m;
}

/** Traced mode: per-layer metrics. */
std::vector<Metric>
traced(const std::vector<SimSpec> &specs, bool grid, const Options &o,
       Report &rep)
{
    Samples s;
    Layers L;
    auto t0 = Clock::now();
    if (grid) {
        // Untraced sweeps for the harness figures, then every
        // configuration once untraced and once traced, summed. The
        // serial runs keep their own samples: s holds the sweep's.
        for (int i = 0; i < (o.quick ? 1 : 3); ++i)
            gridRep(specs, o, rep, s);
        Samples serial;
        L.reps.emplace_back();
        for (const SimSpec &spec : specs)
            tracedPair(spec, o, rep, serial, L, L.reps.back());
        return perLayer(s, L);
    }
    for (int n = 0; n < 1 || secondsSince(t0) < o.seconds; ++n) {
        setupRep(specs[0], o, s);
        L.reps.emplace_back();
        tracedPair(specs[0], o, rep, s, L, L.reps.back());
        if (o.quick)
            break;
    }
    return perLayer(s, L);
}

bool
refuseBuild()
{
    std::string type = buildType();
    std::string flags = buildFlags();
    if (type == "Debug" || type.empty() ||
        flags.find("-fsanitize") != std::string::npos ||
        flags.find("-O0") != std::string::npos) {
        std::fprintf(stderr,
                     "perfbench: refusing to time a '%s' build with "
                     "flags '%s'; use RelWithDebInfo or Release\n",
                     type.c_str(), flags.c_str());
        return true;
    }
    return false;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--work-dir DIR] "
                 "[--quick]\n"
                 "workloads: ycsb-a.tlr ycsb-a.base.dir "
                 "ycsb-a.tlr.observed paper-grid\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        bool hasValue = i + 1 < argc;
        if (a == "--quick")
            o.quick = true;
        else if (a == "--workload" && hasValue)
            o.workload = argv[++i];
        else if (a == "--seed" && hasValue)
            o.seed = std::strtoull(argv[++i], nullptr, 10);
        else if (a == "--seconds" && hasValue)
            o.seconds = std::atof(argv[++i]);
        else if (a == "--trace" && hasValue)
            o.trace = std::string(argv[++i]) == "1";
        else if (a == "--work-dir" && hasValue)
            o.workDir = argv[++i];
        else
            return usage();
    }
    std::vector<SimSpec> specs = specsFor(o.workload, o.quick);
    if (specs.empty())
        return usage();
    // Quick mode times nothing that counts, so it may run on any build
    // (sanitizer checks of this program).
    if (!o.quick && refuseBuild())
        return 2;
    bool grid = o.workload == "paper-grid";
    try {
        Report rep;
        std::vector<Metric> metrics, summary;
        if (o.trace) {
            metrics = traced(specs, grid, o, rep);
        } else {
            Samples s = measure(specs, grid, o, rep, 3);
            metrics = endToEnd(s);
            summary = summaryOf(s);
        }
        printDocument(rep, metrics, summary, defaultJobs());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    return 0;
}
