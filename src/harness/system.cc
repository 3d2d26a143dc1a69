#include "harness/system.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace tlr
{

namespace
{

std::unique_ptr<Interconnect>
makeInterconnect(Protocol p, EventQueue &eq, StatSet &stats,
                 InterconnectParams params)
{
    if (p == Protocol::Directory)
        return std::make_unique<DirectoryInterconnect>(eq, stats, params);
    return std::make_unique<BroadcastInterconnect>(eq, stats, params);
}

Tick
resolveLookahead(const MachineParams &p)
{
    Tick l = std::min(p.net.snoopLatency, p.net.dataLatency);
    if (p.lookahead > 0)
        l = std::min(l, p.lookahead);
    return l < 1 ? 1 : l;
}

std::unique_ptr<ParallelKernel>
makeKernel(const MachineParams &p, BackingStore &store, TraceSink &sink)
{
    if (p.threads == 0)
        return nullptr;
    ParallelKernel::Config cfg;
    cfg.numCpus = p.numCpus;
    cfg.threads = p.threads;
    cfg.lookahead = resolveLookahead(p);
    cfg.maxTicks = p.maxTicks;
    cfg.seed = p.seed;
    cfg.dataLatency = p.net.dataLatency;
    cfg.batchedGlobals = p.batchedGlobals;
    cfg.dynamicLookahead = p.dynamicLookahead;
    cfg.profilePhases = p.profilePhases;
    // Dynamic windows ignore the derived worst-case lookahead (the
    // promise machinery subsumes it); an explicit request BELOW it is
    // honored as a window cap — the lookahead=1 stress configuration
    // must still produce maximally small windows.
    Tick derived = std::min(p.net.snoopLatency, p.net.dataLatency);
    if (derived < 1)
        derived = 1;
    if (p.lookahead > 0 && p.lookahead < derived)
        cfg.lookaheadCap = p.lookahead;
    return std::make_unique<ParallelKernel>(cfg, store, sink);
}

} // namespace

System::System(const MachineParams &params)
    : params_(params), store_(params.l2Lines),
      kernel_(makeKernel(params, store_, trace_)),
      net_(makeInterconnect(params.protocol,
                            kernel_ ? kernel_->orderingQueue() : eq_,
                            kernel_ ? kernel_->shard(0) : stats_,
                            params.net)),
      mem_(kernel_ ? kernel_->queue(0) : eq_,
           kernel_ ? kernel_->shard(0) : stats_, *net_, store_, params.mem)
{
    if (kernel_) {
        net_->setRouter(kernel_.get());
        kernel_->setInterconnect(net_.get());
        mem_.setPort(&kernel_->port(0));
    }
    net_->setMemory(&mem_);
    trace_.configure(params.trace.ringCapacity, params.trace.echoText);
    if (params.trace.checkInvariants) {
        checkers_ = std::make_unique<InvariantRegistry>(
            stats_, &trace_, params.trace, params.spec.deferUntimestamped,
            params.l1.yieldTimeout);
        trace_.addListener(checkers_.get());
    }
    if (params.collectMetrics) {
        metrics_ = std::make_unique<MetricsCollector>();
        trace_.addListener(metrics_.get());
    }
    if (params.explain) {
        explain_ = std::make_unique<Explainer>(params.explainTopK);
        trace_.addListener(explain_.get());
    }
    if (params.timelineEpoch > 0) {
        timeline_ = std::make_unique<EpochTimeline>(params.timelineEpoch);
        trace_.addListener(timeline_.get());
    }
    net_->setTrace(kernel_ ? &kernel_->sink(0) : &trace_);
    Rng root(params.seed);
    for (int i = 0; i < params.numCpus; ++i) {
        // Partition i+1 owns CPU i's core, engine and L1; classic mode
        // puts everything on the one shared queue/stat set/sink.
        EventQueue &ceq = kernel_ ? kernel_->queue(i + 1) : eq_;
        StatSet &cstats = kernel_ ? kernel_->shard(i + 1) : stats_;
        TraceSink *csink = kernel_ ? &kernel_->sink(i + 1) : &trace_;
        engines_.push_back(std::make_unique<SpecEngine>(
            ceq, cstats, i, params.spec));
        l1s_.push_back(std::make_unique<L1Controller>(
            ceq, cstats, i, params.l1, *net_, mem_, *engines_.back()));
        cores_.push_back(std::make_unique<Core>(
            ceq, cstats, i, root.fork(static_cast<std::uint64_t>(i) + 1)));
        engines_.back()->setCore(cores_.back().get());
        engines_.back()->setL1(l1s_.back().get());
        engines_.back()->setTrace(csink);
        l1s_.back()->setTrace(csink);
        if (checkers_)
            l1s_.back()->setInvariantContext(&checkers_->context());
        if (kernel_) {
            l1s_.back()->setPort(&kernel_->port(i + 1));
            kernel_->addSnooper(l1s_.back().get());
        }
        cores_.back()->setPort(engines_.back().get());
        net_->addSnooper(l1s_.back().get());
        EventQueue *hq = &ceq;
        cores_.back()->setHaltHook([this, hq](CpuId) {
            // Runs on the halting core's partition; count is a plain
            // sum and the completion tick a max over halt ticks, both
            // independent of worker interleaving.
            Tick t = hq->now();
            Tick cur = completionTick_.load(std::memory_order_relaxed);
            while (t > cur &&
                   !completionTick_.compare_exchange_weak(
                       cur, t, std::memory_order_relaxed))
                ;
            haltedCount_.fetch_add(1, std::memory_order_relaxed);
        });
    }
}

void
System::setProgram(int cpu, ProgramPtr prog)
{
    core(cpu).setProgram(std::move(prog));
}

void
System::setLockClassifier(std::function<bool(Addr)> f)
{
    for (auto &c : cores_)
        c->setLockClassifier(f);
    if (metrics_)
        metrics_->setLockClassifier(f);
}

void
System::preemptCore(int cpu, Tick when, Tick duration)
{
    // Preemption only touches the target CPU's core and engine, so it
    // belongs on that CPU's partition queue in partitioned mode.
    EventQueue &q = kernel_ ? kernel_->queue(cpu + 1) : eq_;
    q.schedule(when, [this, cpu, duration] {
        if (core(cpu).halted())
            return;
        engine(cpu).descheduled();
        core(cpu).suspend(duration);
    });
}

bool
System::run()
{
    for (auto &c : cores_)
        c->start(0);
    bool drained;
    Tick endNow;
    if (kernel_) {
        if (trace_.armed())
            kernel_->enableCapture();
        drained = kernel_->run();
        kernel_->mergeStatsInto(stats_);
        endNow = kernel_->simNow();
    } else {
        drained = eq_.run(params_.maxTicks);
        endNow = eq_.now();
    }
    trace_.finish(endNow);
    int halted = haltedCount_.load(std::memory_order_relaxed);
    if (halted == params_.numCpus)
        return true;
    if (drained) {
        // The event queue emptied with live cores: a deadlock in the
        // protocol or workload. This must never happen; fail loudly
        // with a full controller dump.
        std::string dump;
        for (auto &l1 : l1s_)
            dump += l1->debugState();
        for (auto &c : cores_)
            dump += strfmt("  core %d pc=%d halted=%d\n", c->id(),
                           c->pc(), c->halted() ? 1 : 0);
        panic("system quiesced with %d/%d cores halted at tick %llu\n%s",
              halted, params_.numCpus,
              static_cast<unsigned long long>(endNow), dump.c_str());
    }
    return false; // watchdog expired (livelock experiments)
}

} // namespace tlr
