/**
 * @file
 * perfbench_run: times one workload of full simulation points and checks
 * every simulated result (see README.md for the metrics).
 *
 *   perfbench_run --workload fig3_light --seed 1 --seconds 10 --trace 0
 *       [--out DIR] [--expected FILE]
 *   perfbench_run --emit-digests [--out DIR]
 *
 * --trace 0 times SimulationRunner::run() and prints the end-to-end
 * metrics; --trace 1 runs the replica driver with spans and prints the
 * per-layer metrics. The last stdout line is the result object
 * {"correct", "attempted", "failed", "metrics"}. --emit-digests prints
 * the expected_digests.json content for the default seed instead.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "checks.hh"
#include "fingerprint.hh"
#include "host_probe.hh"
#include "replica.hh"
#include "span_trace.hh"
#include "wormsim/common/logging.hh"
#include "wormsim/driver/runner.hh"
#include "wormsim/network/network.hh"
#include "wormsim/routing/registry.hh"
#include "wormsim/traffic/registry.hh"
#include "workloads.hh"

using namespace perfbench;
using wormsim::SimulationConfig;
using wormsim::SimulationResult;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** The @p q quantile of @p v (nearest rank). */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double
ratio(double num, double den, double if_empty = 0.0)
{
    return den > 0.0 ? num / den : if_empty;
}

struct Args
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    int trace = 0;
    std::string out = ".bench_build/perfbench/out";
    std::string expected = "perfbench/expected_digests.json";
    bool emitDigests = false;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--emit-digests") {
            a.emitDigests = true;
            continue;
        }
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + flag);
        std::string value = argv[++i];
        if (flag == "--workload") {
            a.workload = value;
            haveWorkload = true;
        } else if (flag == "--seed") {
            a.seed = std::stoull(value);
        } else if (flag == "--seconds") {
            a.seconds = std::stod(value);
            if (!(a.seconds > 0.0))
                throw std::invalid_argument("--seconds must be > 0");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                throw std::invalid_argument("--trace takes 0 or 1");
            a.trace = value == "1";
        } else if (flag == "--out") {
            a.out = value;
        } else if (flag == "--expected") {
            a.expected = value;
        } else {
            throw std::invalid_argument("unknown option " + flag);
        }
    }
    if (!haveWorkload && !a.emitDigests)
        throw std::invalid_argument("--workload is required");
    return a;
}

/** Named metrics in print order. */
class Metrics
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit)
    {
        entries.push_back({name, value, unit});
    }

    std::string
    json() const
    {
        std::string out = "{";
        char buf[64];
        for (std::size_t i = 0; i < entries.size(); ++i) {
            const Entry &e = entries[i];
            std::snprintf(buf, sizeof(buf), "%.17g",
                          std::isfinite(e.value) ? e.value : 0.0);
            out += (i ? ", " : "") + std::string("\"") + e.name +
                   "\": {\"value\": " + buf + ", \"unit\": \"" + e.unit +
                   "\"}";
        }
        return out + "}";
    }

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> entries;
};

/** Per-point correctness problems. */
class Ledger
{
  public:
    explicit Ledger(std::size_t points) : problems(points) {}

    void
    fail(std::size_t point, const std::string &label, const std::string &why)
    {
        std::cerr << "perfbench: point " << point << " (" << label
                  << "): " << why << "\n";
        problems[point].push_back(why);
    }

    std::size_t attempted() const { return problems.size(); }

    std::size_t
    failed() const
    {
        return static_cast<std::size_t>(
            std::count_if(problems.begin(), problems.end(),
                          [](const auto &p) { return !p.empty(); }));
    }

  private:
    std::vector<std::vector<std::string>> problems;
};

/**
 * Host seconds to build every point's topology, routing algorithm,
 * traffic pattern and Network (eager route tables and scratch
 * reservation included) through their public constructors, summed over
 * the points. Each point's objects are destroyed after its clock stops
 * and before the next point is built, so set-up never holds more than
 * one point, as a run does.
 */
double
setupOnce(const Workload &w)
{
    double total = 0.0;
    for (const SimulationConfig &cfg : w.points) {
        auto t0 = Clock::now();
        auto topo = cfg.makeTopology();
        auto algo = wormsim::makeRoutingAlgorithm(cfg.algorithm);
        auto traffic = wormsim::makeTrafficPattern(cfg.traffic, *topo,
                                                   cfg.trafficParams);
        wormsim::StreamSet streams(cfg.seed);
        wormsim::Network net(*topo, *algo, cfg.networkParams(),
                             streams.stream("vc-select"));
        total += secondsSince(t0);
    }
    return total;
}

/**
 * Median over 11 probed blocks of the rescaled seconds of one set-up
 * (each block builds the workload three times and is rescaled by the
 * probes around it; the first block pays for cold caches).
 */
Timed
measureSetup(const Workload &w, HostProbe &probe)
{
    std::vector<double> raw;
    std::vector<double> scaled;
    for (int block = 0; block < 11; ++block) {
        double built = 0.0;
        Timed t = probe.timeRescaled([&] {
            for (int r = 0; r < 3; ++r)
                built += setupOnce(w);
        });
        raw.push_back(built / 3.0);
        scaled.push_back(built / 3.0 * t.scaled / t.raw);
    }
    return {median(raw), median(scaled)};
}

/** Canary: every point, shrunk, at the default seed, vs committed. */
void
checkCanary(const Workload &w, const ExpectedDigests &exp,
            const std::string &out, Ledger &ledger)
{
    Workload canary = makeWorkload(w.name, kDefaultSeed, out);
    for (std::size_t i = 0; i < canary.points.size(); ++i) {
        shrinkWindows(canary.points[i]);
        wormsim::SimulationRunner runner(canary.points[i]);
        std::string got = digestHex(resultDigest(runner.run()));
        std::string want = i < exp.canary.size() ? exp.canary[i] : "";
        if (got != want)
            ledger.fail(i, pointLabel(w.points[i]),
                        "canary digest " + got + " != committed '" + want +
                            "' (a simulated statistic changed)");
    }
}

/**
 * The paper-accuracy anchor: |mean avgLatency - 23| / 23 over fig3_light's
 * six points (uniform traffic at rho 0.1), where 23 = m_l + d - 1 is the
 * paper's low-load latency on the 16x16 torus. fig3_light reports its own
 * timed points; the other workloads run the same points, untimed, at
 * their seed, so every workload reports the same accuracy figure.
 */
double
paperLatencyRelErr(const Workload &w, const std::vector<SimulationResult> &rs,
                   std::uint64_t seed, const std::string &out)
{
    Workload anchor = w;
    std::vector<SimulationResult> results = rs;
    if (w.name != "fig3_light") {
        anchor = makeWorkload("fig3_light", seed, out);
        results.clear();
        for (const SimulationConfig &cfg : anchor.points)
            results.push_back(wormsim::SimulationRunner(cfg).run());
    }
    double measured = 0.0;
    double model = 0.0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        measured += results[i].avgLatency;
        model += anchor.points[i].messageLength +
                 results[i].meanMinDistance - 1.0;
    }
    return ratio(std::fabs(measured - model), model);
}

/**
 * Peak resident memory of this process image, from VmHWM. getrusage()'s
 * ru_maxrss is no use here: Linux carries it across fork and exec, so it
 * starts at the launching Python process's own peak.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

/**
 * One SimulationRunner::run(), timed between two probes (unprobed, with
 * scaled = raw, when @p probe is null).
 */
SimulationResult
timeRunner(const SimulationConfig &cfg, HostProbe *probe, Timed &wall)
{
    wormsim::SimulationRunner runner(cfg);
    SimulationResult r;
    if (probe) {
        wall = probe->timeRescaled([&] { r = runner.run(); });
    } else {
        auto t0 = Clock::now();
        r = runner.run();
        wall.raw = wall.scaled = secondsSince(t0);
    }
    return r;
}

/** One timed ReplicaRunner::run(); counts copied out. */
SimulationResult
timeReplica(const SimulationConfig &cfg, Tracer *tracer, std::uint32_t point,
            double &wall, ReplicaCounts &counts)
{
    ReplicaRunner replica(cfg, tracer, point);
    auto t0 = Clock::now();
    SimulationResult r = replica.run();
    wall = secondsSince(t0);
    counts = replica.counts();
    return r;
}

/** Digest and invariant checks of one replica run against the runner. */
void
checkReplica(const Workload &w, std::size_t i, const SimulationResult &r,
             const ReplicaCounts &c, std::uint64_t runnerDigest,
             const char *which, Ledger &ledger)
{
    std::string label = pointLabel(w.points[i]);
    if (resultDigest(r) != runnerDigest)
        ledger.fail(i, label,
                    std::string(which) +
                        " digest differs from SimulationRunner's");
    for (const std::string &p : checkInvariants(w.points[i], r, c))
        ledger.fail(i, label, p);
}

/** Runner results of the first round, checked for determinism later. */
struct RunnerRounds
{
    std::vector<SimulationResult> first;
    std::vector<std::uint64_t> digests;
    std::vector<std::vector<double>> walls;    ///< rescaled seconds
    std::vector<std::vector<double>> rawWalls; ///< as measured

    explicit RunnerRounds(std::size_t n)
        : first(n), digests(n), walls(n), rawWalls(n)
    {
    }
};

void
recordRunner(const Workload &w, std::size_t i, SimulationResult r,
             Timed wall, RunnerRounds &rr, Ledger &ledger)
{
    std::uint64_t d = resultDigest(r);
    if (rr.walls[i].empty()) {
        rr.digests[i] = d;
        rr.first[i] = std::move(r);
    } else if (d != rr.digests[i]) {
        ledger.fail(i, pointLabel(w.points[i]),
                    "repeat run gave a different digest");
    }
    rr.walls[i].push_back(wall.scaled);
    rr.rawWalls[i].push_back(wall.raw);
}

void
checkGolden(const Workload &w, const Args &a, const ExpectedDigests &exp,
            const RunnerRounds &rr, Ledger &ledger)
{
    if (a.seed != kDefaultSeed)
        return;
    for (std::size_t i = 0; i < w.points.size(); ++i) {
        std::string got = digestHex(rr.digests[i]);
        std::string want = i < exp.full.size() ? exp.full[i] : "";
        if (got != want)
            ledger.fail(i, pointLabel(w.points[i]),
                        "digest " + got + " != committed '" + want +
                            "' (a simulated statistic changed)");
    }
}

/** --trace 0: time SimulationRunner::run() for the workload's points. */
void
runUntraced(const Workload &w, const Args &a, const ExpectedDigests &exp,
            Ledger &ledger, Metrics &m)
{
    std::size_t n = w.points.size();
    HostProbe probe;
    RunnerRounds rr(n);
    auto t0 = Clock::now();
    for (std::size_t k = 0;; ++k) {
        std::size_t i = k % n;
        Timed wall;
        SimulationResult r = timeRunner(w.points[i], &probe, wall);
        recordRunner(w, i, std::move(r), wall, rr, ledger);
        if (k + 1 >= n && secondsSince(t0) >= a.seconds)
            break;
    }
    checkGolden(w, a, exp, rr, ledger);
    for (std::size_t i = 0; i < n; ++i) {
        double wall = 0.0;
        ReplicaCounts c;
        SimulationResult r = timeReplica(w.points[i], nullptr,
                                         static_cast<std::uint32_t>(i), wall,
                                         c);
        checkReplica(w, i, r, c, rr.digests[i], "replica", ledger);
    }
    // Peak memory of the runs; set-up comes after, so it cannot set it.
    double peakRss = peakRssMb();
    Timed setup = measureSetup(w, probe);
    std::cout << "# peak_rss_mb of the runs " << peakRss
              << ", after set-up " << peakRssMb() << "\n";

    double cycles = 0.0;
    double wallSum = 0.0;
    double wallMax = 0.0;
    double rawSum = 0.0;
    double rawMax = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        cycles += static_cast<double>(rr.first[i].cyclesSimulated);
        wallSum += median(rr.walls[i]);
        wallMax = std::max(wallMax, median(rr.walls[i]));
        rawSum += median(rr.rawWalls[i]);
        rawMax = std::max(rawMax, median(rr.rawWalls[i]));
    }
    std::cout << "# unscaled host seconds: sim_cycles_per_s "
              << ratio(cycles, rawSum) << ", point_wall_s_max " << rawMax
              << ", setup_s " << setup.raw << "\n";
    m.add("sim_cycles_per_s", ratio(cycles, wallSum), "1/s");
    m.add("point_wall_s_max", wallMax, "s");
    m.add("setup_s", setup.scaled, "s");
    m.add("peak_rss_mb", peakRss, "MB");
    m.add("points_ok_ratio",
          1.0 - ratio(static_cast<double>(ledger.failed()),
                      static_cast<double>(ledger.attempted())),
          "ratio");
    m.add("paper_latency_rel_err",
          paperLatencyRelErr(w, rr.first, a.seed, a.out), "ratio");
}

/** Largest |replica wall / runner wall - 1| before a run is flagged. */
constexpr double kReplicaStrayBound = 0.10;

/** --trace 1: replica with spans; per-layer metrics. */
void
runTraced(const Workload &w, const Args &a, const ExpectedDigests &exp,
          Ledger &ledger, Metrics &m)
{
    std::size_t n = w.points.size();
    RunnerRounds rr(n);
    std::vector<std::vector<double>> replicaWalls(n);

    // Untraced replica against the runner (raw seconds, same host state),
    // alternating which goes first.
    auto t0 = Clock::now();
    for (std::size_t round = 0;; ++round) {
        for (std::size_t i = 0; i < n; ++i) {
            for (int side = 0; side < 2; ++side) {
                if ((side == 0) == (round % 2 == 0)) {
                    Timed wall;
                    SimulationResult r =
                        timeRunner(w.points[i], nullptr, wall);
                    recordRunner(w, i, std::move(r), wall, rr, ledger);
                } else {
                    double wall = 0.0;
                    ReplicaCounts c;
                    SimulationResult r = timeReplica(
                        w.points[i], nullptr, static_cast<std::uint32_t>(i),
                        wall, c);
                    replicaWalls[i].push_back(wall);
                    if (round == 0 && side == 1)
                        checkReplica(w, i, r, c, rr.digests[i], "replica",
                                     ledger);
                }
            }
        }
        if (secondsSince(t0) >= a.seconds)
            break;
    }
    checkGolden(w, a, exp, rr, ledger);

    // The traced replica: spans, per-layer counts.
    Tracer tracer(5000);
    std::vector<SimulationResult> results(n);
    std::vector<ReplicaCounts> counts(n);
    double tracedWall = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        double wall = 0.0;
        results[i] = timeReplica(w.points[i], &tracer,
                                 static_cast<std::uint32_t>(i), wall,
                                 counts[i]);
        tracedWall += wall;
        checkReplica(w, i, results[i], counts[i], rr.digests[i],
                     "traced replica", ledger);
    }

    // The same points with the metrics registry toggled, traced, for
    // obs.metrics_overhead_ratio (network.step self time attached /
    // detached).
    Tracer toggled(0);
    bool metricsOn = w.points.front().metricsInterval > 0;
    for (std::size_t i = 0; i < n; ++i) {
        SimulationConfig cfg = w.points[i];
        cfg.metricsInterval = metricsOn ? 0 : 1000;
        double wall = 0.0;
        ReplicaCounts c;
        timeReplica(cfg, &toggled, static_cast<std::uint32_t>(i), wall, c);
    }

    std::string path = a.out + "/trace_" + w.name + ".json";
    {
        std::ofstream os(path);
        if (!os)
            throw std::runtime_error("cannot write '" + path + "'");
        tracer.writeChromeTrace(
            os, "{\"workload\": \"" + w.name +
                    "\", \"seed\": " + std::to_string(a.seed) +
                    ", \"fingerprint\": " +
                    fingerprintJson(hostFingerprint()) + "}");
    }
    std::cout << "# trace written to " << path << "\n";

    ReplicaCounts sum;
    std::uint64_t largestKnot = 0;
    double idle = 0.0;
    double cyclesPlusOne = 0.0;
    std::uint64_t samples = 0;
    std::uint64_t blockCycles = 0;
    std::uint64_t linkEvents = 0;
    std::uint64_t retried = 0;
    std::uint64_t abandoned = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const ReplicaCounts &c = counts[i];
        const SimulationResult &r = results[i];
        sum.generated += c.generated;
        sum.generatedDropped += c.generatedDropped;
        sum.flitTransfers += c.flitTransfers;
        sum.faultAborts += c.faultAborts;
        sum.faultReoffers += c.faultReoffers;
        sum.faultReoffersAdmitted += c.faultReoffersAdmitted;
        sum.eventsDispatched += c.eventsDispatched;
        sum.eventsScheduled += c.eventsScheduled;
        sum.cacheHits += c.cacheHits;
        sum.cacheMisses += c.cacheMisses;
        sum.cacheArenaEntries += c.cacheArenaEntries;
        sum.detector.scans += c.detector.scans;
        sum.detector.detections += c.detector.detections;
        sum.detector.victims += c.detector.victims;
        sum.detector.timeoutFalsePositives +=
            c.detector.timeoutFalsePositives;
        largestKnot = std::max(largestKnot, c.detector.largestKnot);
        sum.stepReads += c.stepReads;
        sum.activeLinksSum += c.activeLinksSum;
        sum.inFlightSum += c.inFlightSum;
        sum.awaitingRouteSum += c.awaitingRouteSum;
        idle += static_cast<double>(r.idleCycles);
        cyclesPlusOne += static_cast<double>(r.cyclesSimulated + 1);
        samples += static_cast<std::uint64_t>(r.numSamples);
        blockCycles += r.stalls.totalBlockCycles;
        linkEvents += r.resilience.linkFailures + r.resilience.linkRepairs;
        retried += r.resilience.retriesInjected;
        abandoned += r.resilience.abandoned;
    }
    auto self = [&tracer](SpanName s) {
        return static_cast<double>(tracer.totals(s).selfNs) * 1e-9;
    };
    auto calls = [&tracer](SpanName s) {
        return static_cast<double>(tracer.totals(s).calls);
    };
    auto u = [](std::uint64_t v) { return static_cast<double>(v); };
    double steps = static_cast<double>(sum.stepReads);

    m.add("sim.events_dispatched", u(sum.eventsDispatched), "count");
    m.add("sim.events_scheduled", u(sum.eventsScheduled), "count");
    m.add("sim.dispatch_self_s", self(SpanName::SimRun), "s");
    m.add("sim.schedule_s", self(SpanName::SimSchedule), "s");
    m.add("rng.arrival_gap_calls", calls(SpanName::ArrivalGap), "count");
    m.add("rng.arrival_gap_s", self(SpanName::ArrivalGap), "s");
    m.add("traffic.pick_dest_calls", calls(SpanName::PickDest), "count");
    m.add("traffic.pick_dest_s", self(SpanName::PickDest), "s");
    m.add("network.build_s", self(SpanName::NetworkBuild), "s");
    m.add("network.offer_calls", calls(SpanName::Offer), "count");
    m.add("network.offer_s", self(SpanName::Offer), "s");
    m.add("network.offer_admitted_ratio",
          ratio(u(sum.generated - sum.generatedDropped), u(sum.generated)),
          "ratio");
    m.add("network.step_calls", calls(SpanName::Step), "count");
    m.add("network.step_s", self(SpanName::Step), "s");
    m.add("network.step_us_p50", quantile(tracer.stepDurationsUs(), 0.50),
          "us");
    m.add("network.step_us_p99", quantile(tracer.stepDurationsUs(), 0.99),
          "us");
    m.add("network.step_samples", u(tracer.stepDurationsUs().size()),
          "count");
    m.add("network.flit_transfers", u(sum.flitTransfers), "count");
    m.add("network.step_ns_per_flit",
          ratio(self(SpanName::Step) * 1e9, u(sum.flitTransfers)),
          "ns/flit");
    m.add("network.active_links_mean", ratio(sum.activeLinksSum, steps),
          "count");
    m.add("network.msgs_in_flight_mean", ratio(sum.inFlightSum, steps),
          "count");
    m.add("network.awaiting_route_mean", ratio(sum.awaitingRouteSum, steps),
          "count");
    m.add("network.idle_cycle_fraction", ratio(idle, cyclesPlusOne),
          "ratio");
    m.add("network.next_work_cycle_calls", calls(SpanName::NextWorkCycle),
          "count");
    m.add("network.next_work_cycle_s", self(SpanName::NextWorkCycle), "s");
    m.add("network.reset_counters_s", self(SpanName::ResetCounters), "s");
    m.add("routing.cache_hits", u(sum.cacheHits), "count");
    m.add("routing.cache_misses", u(sum.cacheMisses), "count");
    m.add("routing.cache_hit_ratio",
          ratio(u(sum.cacheHits), u(sum.cacheHits + sum.cacheMisses)),
          "ratio");
    m.add("routing.cache_arena_entries", u(sum.cacheArenaEntries), "count");
    double stepOn = self(SpanName::Step);
    double stepOff = static_cast<double>(
                         toggled.totals(SpanName::Step).selfNs) *
                     1e-9;
    if (!metricsOn)
        std::swap(stepOn, stepOff);
    m.add("obs.catch_up_calls", calls(SpanName::CatchUp), "count");
    m.add("obs.catch_up_s", self(SpanName::CatchUp), "s");
    m.add("obs.export_s", self(SpanName::ObsExport), "s");
    m.add("obs.block_cycles", u(blockCycles), "count");
    m.add("obs.metrics_overhead_ratio", ratio(stepOn, stepOff), "ratio");
    m.add("deadlock.scans", u(sum.detector.scans), "count");
    m.add("deadlock.detections", u(sum.detector.detections), "count");
    m.add("deadlock.victims", u(sum.detector.victims), "count");
    m.add("deadlock.largest_knot", u(largestKnot), "count");
    m.add("deadlock.timeout_false_positives",
          u(sum.detector.timeoutFalsePositives), "count");
    m.add("deadlock.reoffer_calls", calls(SpanName::DeadlockReoffer),
          "count");
    m.add("deadlock.reoffer_s", self(SpanName::DeadlockReoffer), "s");
    m.add("fault.link_events", u(linkEvents), "count");
    m.add("fault.aborted", u(sum.faultAborts), "count");
    m.add("fault.retried", u(retried), "count");
    m.add("fault.abandoned", u(abandoned), "count");
    m.add("fault.reoffer_calls", calls(SpanName::FaultReoffer), "count");
    m.add("fault.reoffer_s", self(SpanName::FaultReoffer), "s");
    m.add("fault.reoffer_admitted_ratio",
          ratio(u(sum.faultReoffersAdmitted), u(sum.faultReoffers), 1.0),
          "ratio");
    m.add("stats.collect_calls", calls(SpanName::Collect), "count");
    m.add("stats.collect_s", self(SpanName::Collect), "s");
    m.add("stats.close_sample_s", self(SpanName::CloseSample), "s");
    m.add("stats.samples", u(samples), "count");

    double runnerWall = 0.0;
    double replicaWall = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        runnerWall += median(rr.rawWalls[i]);
        replicaWall += median(replicaWalls[i]);
    }
    double replicaRatio = ratio(replicaWall, runnerWall);
    bool stray = std::fabs(replicaRatio - 1.0) > kReplicaStrayBound;
    if (stray)
        std::cerr << "perfbench: warning: replica wall / runner wall = "
                  << replicaRatio << " is outside 1 +- "
                  << kReplicaStrayBound
                  << "; the per-layer split may not describe the runner\n";
    m.add("driver.run_self_s",
          self(SpanName::Point) + self(SpanName::Arrival) +
              self(SpanName::Tick),
          "s");
    m.add("driver.replica_wall_ratio", replicaRatio, "ratio");
    m.add("driver.replica_stray", stray ? 1.0 : 0.0, "count");
    m.add("trace.overhead_ratio", ratio(tracedWall, replicaWall), "ratio");
}

/** Default-seed digests of every workload, as expected_digests.json. */
void
emitDigests(const std::string &out)
{
    std::cout << "{\n";
    const auto &names = workloadNames();
    for (std::size_t k = 0; k < names.size(); ++k) {
        Workload w = makeWorkload(names[k], kDefaultSeed, out);
        std::vector<std::string> full;
        std::vector<std::string> canary;
        for (SimulationConfig cfg : w.points) {
            full.push_back(digestHex(
                resultDigest(wormsim::SimulationRunner(cfg).run())));
            shrinkWindows(cfg);
            canary.push_back(digestHex(
                resultDigest(wormsim::SimulationRunner(cfg).run())));
        }
        auto list = [](const std::vector<std::string> &v) {
            std::string s = "[";
            for (std::size_t i = 0; i < v.size(); ++i)
                s += (i ? ", \"" : "\"") + v[i] + "\"";
            return s + "]";
        };
        std::cout << "  \"" << w.name << "\": {\n    \"full\": "
                  << list(full) << ",\n    \"canary\": " << list(canary)
                  << "\n  }" << (k + 1 < names.size() ? "," : "") << "\n";
    }
    std::cout << "}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        Args a = parseArgs(argc, argv);
        wormsim::setLoggingQuiet(true);
        Fingerprint fp = hostFingerprint();
        std::cout << "# fingerprint " << fingerprintJson(fp) << "\n";
        std::string refusal = timingRefusal(fp);
        if (!refusal.empty()) {
            std::cerr << "perfbench: " << refusal << "\n";
            return 2;
        }
        std::filesystem::create_directories(a.out);
        if (a.emitDigests) {
            emitDigests(a.out);
            return 0;
        }
        auto expectedAll = loadExpectedDigests(a.expected);
        Workload w = makeWorkload(a.workload, a.seed, a.out);
        auto it = expectedAll.find(w.name);
        if (it == expectedAll.end())
            throw std::runtime_error("no committed digests for workload '" +
                                     w.name + "'");
        std::cout << "# workload " << w.name << ", seed " << a.seed
                  << ", points";
        for (const SimulationConfig &cfg : w.points)
            std::cout << " " << pointLabel(cfg);
        std::cout << "\n";

        Ledger ledger(w.points.size());
        Metrics m;
        checkCanary(w, it->second, a.out, ledger);
        if (a.trace) {
            runTraced(w, a, it->second, ledger, m);
        } else {
            runUntraced(w, a, it->second, ledger, m);
        }

        std::cout << "{\"correct\": "
                  << (ledger.failed() == 0 ? "true" : "false")
                  << ", \"attempted\": " << ledger.attempted()
                  << ", \"failed\": " << ledger.failed()
                  << ", \"metrics\": " << m.json() << "}" << std::endl;
        return 0;
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
