#include "replica.hh"

#include <chrono>
#include <fstream>
#include <stdexcept>

#include "wormsim/obs/export.hh"
#include "wormsim/rng/distributions.hh"
#include "wormsim/routing/registry.hh"

namespace perfbench
{

using namespace wormsim;

ReplicaRunner::ReplicaRunner(SimulationConfig config, Tracer *tracer_,
                             std::uint32_t point)
    : cfg(std::move(config)), tracer(tracer_), pointId(point),
      streams(cfg.seed)
{
    if (cfg.trace)
        throw std::invalid_argument(
            "the replica does not reproduce Chrome trace output");
    cfg.validate();
    topo = cfg.makeTopology();
    algo = makeRoutingAlgorithm(cfg.algorithm);
    traffic = makeTrafficPattern(cfg.traffic, *topo, cfg.trafficParams);
}

ReplicaRunner::~ReplicaRunner() = default;

void
ReplicaRunner::scheduleArrival(NodeId node)
{
    Cycle gap = 0;
    {
        ScopedSpan span(tracer, SpanName::ArrivalGap);
        Xoshiro256 &rng = streams.stream("arrival-" + std::to_string(node));
        gap = geometric(rng, lambda);
    }
    ScopedSpan span(tracer, SpanName::SimSchedule);
    sim.scheduleIn(gap, EventPriority::PreCycle, [this, node] {
        ScopedSpan arrival(tracer, SpanName::Arrival);
        onArrival(node);
        scheduleArrival(node);
    });
}

void
ReplicaRunner::onArrival(NodeId node)
{
    if (collecting)
        ++offeredInSample;
    NodeId dst = 0;
    {
        ScopedSpan span(tracer, SpanName::PickDest);
        dst = traffic->pickDest(node, streams.stream("destination"));
    }
    Message *m = nullptr;
    {
        ScopedSpan span(tracer, SpanName::Offer);
        m = net->offerMessage(node, dst, cfg.messageLength, sim.now());
    }
    ++tally.generated;
    if (m == nullptr)
        ++tally.generatedDropped;
    if (injector)
        injector->noteGenerated(m != nullptr);
    if (recovery)
        recovery->noteGenerated(m != nullptr);
    armTick();
}

void
ReplicaRunner::armTick()
{
    if (!net->busy())
        return;
    if (cfg.stepMode == StepMode::Skip) {
        if (tickAt <= sim.now())
            return;
        scheduleTickSkip(sim.now());
        return;
    }
    if (tickArmed)
        return;
    tickArmed = true;
    ++ticksScheduled;
    ScopedSpan span(tracer, SpanName::SimSchedule);
    sim.scheduleAt(sim.now(), EventPriority::Cycle, [this] {
        ++ticksPopped;
        ScopedSpan tickSpan(tracer, SpanName::Tick);
        tick();
    });
}

void
ReplicaRunner::step(Cycle now)
{
    {
        ScopedSpan span(tracer, SpanName::Step);
        net->step(now);
    }
    if (tracer) {
        ++tally.stepReads;
        tally.activeLinksSum += static_cast<double>(net->activeLinkCount());
        tally.inFlightSum += static_cast<double>(net->messagesInFlight());
        tally.awaitingRouteSum +=
            static_cast<double>(net->messagesAwaitingRoute());
    }
}

void
ReplicaRunner::tick()
{
    step(sim.now());
    if (net->busy()) {
        ++ticksScheduled;
        ScopedSpan span(tracer, SpanName::SimSchedule);
        sim.scheduleIn(1, EventPriority::Cycle, [this] {
            ++ticksPopped;
            ScopedSpan tickSpan(tracer, SpanName::Tick);
            tick();
        });
    } else {
        tickArmed = false;
    }
}

void
ReplicaRunner::scheduleTickSkip(Cycle when)
{
    tickAt = when;
    std::uint64_t gen = ++tickGen;
    ++ticksScheduled;
    ScopedSpan span(tracer, SpanName::SimSchedule);
    sim.scheduleAt(when, EventPriority::Cycle, [this, gen] {
        ++ticksPopped;
        if (gen != tickGen)
            return;
        tickAt = kNeverCycle;
        ScopedSpan tickSpan(tracer, SpanName::Tick);
        tickSkip();
    });
}

void
ReplicaRunner::tickSkip()
{
    for (;;) {
        Cycle now = sim.now();
        step(now);
        if (!net->busy())
            return;
        Cycle next = kNeverCycle;
        {
            ScopedSpan span(tracer, SpanName::NextWorkCycle);
            next = net->nextWorkCycle(now);
        }
        if (next == kNeverCycle)
            return;
        if (next < sim.eventQueue().nextCycle() && next <= sim.runBound()) {
            sim.advanceClock(next);
            continue;
        }
        scheduleTickSkip(next);
        return;
    }
}

void
ReplicaRunner::runUntil(Cycle t)
{
    {
        ScopedSpan span(tracer, SpanName::SimRun);
        sim.run(t);
    }
    if (sim.now() < t)
        sim.advanceClock(t);
}

void
ReplicaRunner::readCountersBeforeReset()
{
    tally.flitTransfers += net->flitsTransferred();
    tally.killed += net->counters().messagesKilled;
}

bool
ReplicaRunner::reoffer(bool victim, NodeId src, NodeId dst, int length_flits,
                       int attempt, Cycle now)
{
    ScopedSpan span(tracer, victim ? SpanName::DeadlockReoffer
                                   : SpanName::FaultReoffer);
    Message *m = net->offerRetry(src, dst, length_flits, attempt, now);
    armTick();
    bool admitted = m != nullptr;
    ++(victim ? tally.deadlockReoffers : tally.faultReoffers);
    if (admitted)
        ++(victim ? tally.deadlockReoffersAdmitted
                  : tally.faultReoffersAdmitted);
    return admitted;
}

SampleResult
ReplicaRunner::closeSample(Cycle start)
{
    Cycle period = sim.now() - start;
    NetworkCounters c = net->counters();

    SampleResult s;
    s.delivered = c.messagesDelivered;
    s.dropped = c.messagesDropped;
    s.meanLatency = latencies.mean();
    StratifiedEstimate est = strata->estimate();
    s.stratifiedLatency = est.mean;
    s.stratifiedError = est.errorBound;
    s.rawUtilization = static_cast<double>(c.flitTransfers) /
                       (static_cast<double>(topo->numChannels()) *
                        static_cast<double>(period));
    s.throughput = static_cast<double>(c.messagesDelivered) /
                   (static_cast<double>(topo->numNodes()) *
                    static_cast<double>(period));
    s.utilization = s.throughput * cfg.messageLength * meanMinDistance /
                    (2.0 * topo->numDims());
    s.meanHops = hops.mean();
    return s;
}

void
ReplicaRunner::finishCounts()
{
    readCountersBeforeReset();
    tally.inFlightAtEnd = net->messagesInFlight();
    tally.eventsDispatched = sim.eventsDispatched();
    tally.eventsScheduled = sim.eventQueue().totalScheduled();
    if (const RouteCache *cache = net->routeCache()) {
        tally.cacheHits = cache->hits();
        tally.cacheMisses = cache->misses();
        tally.cacheArenaEntries = cache->arenaEntries();
    }
    tally.detector = net->deadlockCounters();
    // Whatever is still queued besides one arrival per node, unpopped
    // ticks and future fault-timeline entries is a payload waiting out a
    // retry backoff.
    std::uint64_t other = static_cast<std::uint64_t>(topo->numNodes()) +
                          (ticksScheduled - ticksPopped);
    if (injector) {
        for (const FaultEvent &e : injector->schedule().events())
            if (e.cycle > sim.now())
                ++other;
    }
    std::uint64_t queued = sim.eventQueue().size();
    tally.retriesPendingAtEnd = queued > other ? queued - other : 0;
}

SimulationResult
ReplicaRunner::run()
{
    auto wall_start = std::chrono::steady_clock::now();
    if (tracer)
        tracer->beginPoint(pointId, cfg.algorithm + "/" + cfg.traffic);
    SimulationResult result;
    result.algorithm = algo->name();
    result.traffic = traffic->name();
    result.topology = topo->name();
    result.stepMode = stepModeName(cfg.stepMode);
    result.routeCache = cfg.routeCache ? "on" : "off";
    result.offeredLoad = cfg.offeredLoad;
    meanMinDistance = traffic->meanDistance();
    result.meanMinDistance = meanMinDistance;
    lambda = cfg.injectionRate(meanMinDistance, topo->numDims());
    result.injectionRate = lambda;

    strata = std::make_unique<StratifiedEstimator>(
        traffic->hopClassWeights());
    latencyHist = std::make_unique<Histogram>(
        0.0, 40.0 * (cfg.messageLength + topo->diameter()), 100);

    {
        ScopedSpan span(tracer, SpanName::NetworkBuild);
        net = std::make_unique<Network>(*topo, *algo, cfg.networkParams(),
                                        streams.stream("vc-select"));
    }
    net->setDeliveryHook([this](const Message &m, Cycle now) {
        ScopedSpan span(tracer, SpanName::Collect);
        ++tally.delivered;
        if (injector)
            injector->noteDelivery(m, now);
        if (recovery)
            recovery->noteDelivery(m, now);
        if (!collecting)
            return;
        auto latency = static_cast<double>(now - m.createdAt() + 1);
        latencies.add(latency);
        latencyHist->add(latency);
        hops.add(m.route().hopsTaken);
        int stratum = m.minDistance() - 1;
        strata->add(static_cast<std::size_t>(stratum), latency);
    });
    if (cfg.stepMode == StepMode::Skip)
        net->setWakeHook([this] { armTick(); });
    if (cfg.metricsInterval > 0) {
        obsMetrics = std::make_unique<MetricsRegistry>(
            topo->numNodes(), topo->numChannelSlots(), cfg.metricsInterval);
        net->setMetrics(obsMetrics.get());
    }

    if (cfg.faultsEnabled()) {
        injector = std::make_unique<FaultInjector>(
            FaultSchedule::build(cfg.faultSpec(), *topo, cfg.seed,
                                 cfg.maxCycles),
            cfg.retryPolicy(),
            40.0 * (cfg.messageLength + topo->diameter()));
        injector->arm(sim, *net,
                      [this](NodeId src, NodeId dst, int length_flits,
                             int attempt, Cycle now) {
                          return reoffer(false, src, dst, length_flits,
                                         attempt, now);
                      });
    }
    if (cfg.deadlockRecoveryEnabled()) {
        recovery = std::make_unique<RecoveryEngine>(cfg.retryPolicy());
        recovery->arm(sim, *net,
                      [this](NodeId src, NodeId dst, int length_flits,
                             int attempt, Cycle now) {
                          return reoffer(true, src, dst, length_flits,
                                         attempt, now);
                      });
    }
    if (injector || recovery) {
        // Count (and trace) every teardown, then hand it to the layers.
        Network::AbortHook inner = net->abortHook();
        net->setAbortHook([this, inner](const Message &m, Cycle now,
                                        AbortCause cause, ChannelId ch) {
            bool victim = cause == AbortCause::Deadlock;
            ScopedSpan span(tracer, victim ? SpanName::DeadlockAbort
                                           : SpanName::FaultAbort);
            ++(victim ? tally.deadlockAborts : tally.faultAborts);
            if (inner)
                inner(m, now, cause, ch);
        });
    }

    for (NodeId node = 0; node < topo->numNodes(); ++node)
        scheduleArrival(node);

    runUntil(cfg.warmupCycles);

    ConvergenceController ctl(cfg.convergence);
    StopReason reason = StopReason::NotDone;
    std::uint64_t totalDelivered = 0;
    std::uint64_t totalDropped = 0;
    std::uint64_t totalOffered = 0;
    std::uint64_t totalKilled = 0;
    Accumulator utilization;
    Accumulator rawUtilization;
    Accumulator throughput;
    Accumulator hopMeans;

    while (reason == StopReason::NotDone) {
        {
            ScopedSpan span(tracer, SpanName::ResetCounters);
            readCountersBeforeReset();
            net->resetCounters();
        }
        strata->reset();
        latencies.reset();
        hops.reset();
        offeredInSample = 0;

        collecting = true;
        Cycle start = sim.now();
        runUntil(start + cfg.samplePeriod);
        collecting = false;

        {
            ScopedSpan span(tracer, SpanName::CloseSample);
            SampleResult s = closeSample(start);
            StratifiedEstimate est = strata->estimate();
            totalDelivered += s.delivered;
            totalDropped += s.dropped;
            totalOffered += offeredInSample;
            totalKilled += net->counters().messagesKilled;
            utilization.add(s.utilization);
            rawUtilization.add(s.rawUtilization);
            throughput.add(s.throughput);
            if (s.delivered > 0)
                hopMeans.add(s.meanHops);
            result.vcClassLoadShare = net->vcClassLoadShare();
            result.channelLoadCv = net->channelLoadStats().cv;
            result.hopClassLatency.assign(strata->numStrata(), 0.0);
            for (std::size_t h = 0; h < strata->numStrata(); ++h)
                result.hopClassLatency[h] = strata->stratum(h).mean();
            result.samples.push_back(s);
            reason = ctl.addSample(est, s.meanLatency);
        }

        if (reason == StopReason::NotDone) {
            if (sim.now() + cfg.sampleGap + cfg.samplePeriod >
                cfg.maxCycles) {
                reason = StopReason::MaxSamples;
                break;
            }
            streams.advanceEpoch();
            runUntil(sim.now() + cfg.sampleGap);
        }
    }

    if (obsMetrics) {
        ScopedSpan span(tracer, SpanName::CatchUp);
        net->catchUpMetrics(sim.now());
    }

    result.stopReason = reason;
    result.numSamples = static_cast<int>(ctl.numSamples());
    result.cyclesSimulated = sim.now();
    result.fabricSteps = net->stepsExecuted();
    result.idleCycles = sim.now() + 1 >= net->activeCycles()
                            ? sim.now() + 1 - net->activeCycles()
                            : 0;
    result.avgLatency = ctl.grandMean();
    result.latencyErrorBound = ctl.recentRelativeError();
    result.achievedUtilization = utilization.mean();
    result.rawChannelUtilization = rawUtilization.mean();
    result.avgThroughput = throughput.mean();
    result.avgHops = hopMeans.mean();
    result.messagesDelivered = totalDelivered;
    result.messagesDropped = totalDropped;
    result.dropFraction =
        totalOffered > 0
            ? static_cast<double>(totalDropped) /
                  static_cast<double>(totalOffered)
            : 0.0;
    result.deadlockDetected = net->sawDeadlock();
    result.messagesKilled = totalKilled;
    if (latencyHist->total() > 0) {
        result.latencyP50 = latencyHist->quantile(0.50);
        result.latencyP95 = latencyHist->quantile(0.95);
        result.latencyP99 = latencyHist->quantile(0.99);
    }
    if (obsMetrics) {
        ScopedSpan span(tracer, SpanName::ObsExport);
        std::string path =
            derivedOutputPath(cfg.traceFile, ".timeseries.csv");
        std::ofstream csv(path);
        if (!csv)
            throw std::runtime_error("cannot open metrics file '" + path +
                                     "'");
        writeTimeSeriesCsv(csv, *obsMetrics);
        csv.close();
        result.stalls = obsMetrics->summary();
    }
    if (injector)
        result.resilience = injector->finish(sim.now());
    if (recovery)
        result.deadlock = recovery->finish(sim.now());
    finishCounts();
    if (tracer)
        tracer->endPoint();
    result.wallSeconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - wall_start)
                             .count();
    result.cyclesPerSecond =
        result.wallSeconds > 0.0
            ? static_cast<double>(result.cyclesSimulated) /
                  result.wallSeconds
            : 0.0;
    return result;
}

} // namespace perfbench
