/**
 * @file
 * ReplicaRunner: the benchmark's own copy of SimulationRunner::run().
 *
 * It repeats the runner's loop call for call through the library's public
 * API (Simulator/EventQueue, StreamSet + geometric, TrafficPattern,
 * Network, the stats collectors, FaultInjector/RecoveryEngine with
 * re-offer callbacks owned here), so with a Tracer attached every call
 * into a layer gets a span, and the counters the library exposes are read
 * at those same boundaries. Its SimulationResult must equal the runner's
 * bit for bit (see checks.hh), which proves the traced numbers describe
 * the program the untraced benchmark times.
 *
 * Only what the benchmark's workloads configure is replicated: a config
 * asking for a Chrome trace file is rejected.
 */

#ifndef PERFBENCH_REPLICA_HH
#define PERFBENCH_REPLICA_HH

#include <cstdint>
#include <memory>

#include "span_trace.hh"
#include "wormsim/deadlock/recovery.hh"
#include "wormsim/driver/config.hh"
#include "wormsim/driver/results.hh"
#include "wormsim/fault/fault_injector.hh"
#include "wormsim/network/network.hh"
#include "wormsim/obs/metrics.hh"
#include "wormsim/rng/stream_set.hh"
#include "wormsim/sim/simulator.hh"
#include "wormsim/stats/accumulator.hh"
#include "wormsim/stats/histogram.hh"
#include "wormsim/stats/strata.hh"
#include "wormsim/traffic/traffic_pattern.hh"

namespace perfbench
{

/** Whole-run counts the replica takes at its call boundaries. */
struct ReplicaCounts
{
    // arrival process and fabric admission
    std::uint64_t generated = 0;        ///< first-time offers
    std::uint64_t generatedDropped = 0; ///< refused by admission
    std::uint64_t delivered = 0;        ///< delivery-hook calls
    std::uint64_t killed = 0;           ///< deadlock kills (all samples)
    std::uint64_t flitTransfers = 0;    ///< flit moves (all samples)
    // teardown and re-offer (abort hook and re-offer callbacks)
    std::uint64_t faultAborts = 0;    ///< link fault, starved, fault knot
    std::uint64_t deadlockAborts = 0; ///< recovery victims
    std::uint64_t faultReoffers = 0;
    std::uint64_t faultReoffersAdmitted = 0;
    std::uint64_t deadlockReoffers = 0;
    std::uint64_t deadlockReoffersAdmitted = 0;
    // state at the end of the run
    std::uint64_t inFlightAtEnd = 0;
    std::uint64_t retriesPendingAtEnd = 0; ///< payloads in retry backoff
    std::uint64_t eventsDispatched = 0;
    std::uint64_t eventsScheduled = 0;
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t cacheArenaEntries = 0;
    wormsim::DeadlockDetectionCounters detector;
    // read after every Network::step() (traced runs only)
    std::uint64_t stepReads = 0;
    double activeLinksSum = 0.0;
    double inFlightSum = 0.0;
    double awaitingRouteSum = 0.0;
};

/** Runs one simulation point the way SimulationRunner does. */
class ReplicaRunner
{
  public:
    /**
     * @param config the point (copied; must not request a trace file)
     * @param tracer span sink, or nullptr for the untraced replica
     * @param point the point id every span of this run carries
     */
    ReplicaRunner(wormsim::SimulationConfig config, Tracer *tracer = nullptr,
                  std::uint32_t point = 0);
    ~ReplicaRunner();

    ReplicaRunner(const ReplicaRunner &) = delete;
    ReplicaRunner &operator=(const ReplicaRunner &) = delete;

    /** Execute the point; call once. */
    wormsim::SimulationResult run();

    /** Counts taken during run(). */
    const ReplicaCounts &counts() const { return tally; }

  private:
    void scheduleArrival(wormsim::NodeId node);
    void onArrival(wormsim::NodeId node);
    void armTick();
    void tick();
    void tickSkip();
    void scheduleTickSkip(wormsim::Cycle when);
    void step(wormsim::Cycle now);
    void runUntil(wormsim::Cycle t);
    void readCountersBeforeReset();
    bool reoffer(bool victim, wormsim::NodeId src, wormsim::NodeId dst,
                 int length_flits, int attempt, wormsim::Cycle now);
    wormsim::SampleResult closeSample(wormsim::Cycle start);
    void finishCounts();

    wormsim::SimulationConfig cfg;
    Tracer *tracer;
    std::uint32_t pointId;
    std::unique_ptr<wormsim::Topology> topo;
    std::unique_ptr<wormsim::RoutingAlgorithm> algo;
    std::unique_ptr<wormsim::TrafficPattern> traffic;
    wormsim::StreamSet streams;
    wormsim::Simulator sim;
    std::unique_ptr<wormsim::Network> net;
    std::unique_ptr<wormsim::FaultInjector> injector;
    std::unique_ptr<wormsim::RecoveryEngine> recovery;
    std::unique_ptr<wormsim::MetricsRegistry> obsMetrics;

    double lambda = 0.0;
    double meanMinDistance = 0.0;
    bool tickArmed = false;
    bool collecting = false;
    wormsim::Cycle tickAt = wormsim::kNeverCycle;
    std::uint64_t tickGen = 0;
    std::uint64_t ticksScheduled = 0;
    std::uint64_t ticksPopped = 0;

    std::unique_ptr<wormsim::StratifiedEstimator> strata;
    wormsim::Accumulator latencies;
    wormsim::Accumulator hops;
    std::unique_ptr<wormsim::Histogram> latencyHist;
    std::uint64_t offeredInSample = 0;

    ReplicaCounts tally;
};

} // namespace perfbench

#endif // PERFBENCH_REPLICA_HH
