#include "workloads.hh"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "wormsim/driver/parallel_sweep.hh"

namespace perfbench
{

using wormsim::DeadlockAction;
using wormsim::DeadlockDetectorKind;
using wormsim::SimulationConfig;

namespace
{

const std::vector<std::string> kPaperAlgorithms = {"ecube", "nlast", "2pn",
                                                   "phop",  "nhop",  "nbc"};

SimulationConfig
basePoint(const std::string &algorithm, const std::string &traffic,
          double load)
{
    SimulationConfig cfg;
    cfg.algorithm = algorithm;
    cfg.traffic = traffic;
    cfg.offeredLoad = load;
    return cfg;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "fig3_light", "fig4_hotspot_sat", "faults_recovery"};
    return names;
}

Workload
makeWorkload(const std::string &name, std::uint64_t seed,
             const std::string &out_dir)
{
    Workload w;
    w.name = name;
    if (name == "fig3_light") {
        // Below every algorithm's saturation: the fabric step is cheapest,
        // so arrivals, the event queue and statistics weigh most.
        for (const std::string &a : kPaperAlgorithms)
            w.points.push_back(basePoint(a, "uniform", 0.1));
    } else if (name == "fig4_hotspot_sat") {
        // ecube, nlast and 2pn saturate (they run to the sample cap); the
        // hop schemes do not. Stall attribution and the sampler are on.
        for (const std::string &a : kPaperAlgorithms) {
            SimulationConfig cfg = basePoint(a, "hotspot", 0.3);
            cfg.metricsInterval = 1000;
            w.points.push_back(cfg);
        }
    } else if (name == "faults_recovery") {
        // Transient link faults tear worms down and re-offer them.
        SimulationConfig faults = basePoint("nbc", "uniform", 0.3);
        faults.faultRate = 2e-6;
        faults.deadlockDetector = DeadlockDetectorKind::Exact;
        w.points.push_back(faults);
        // deadlock_recovery's operating point: complement traffic wedges
        // the 2-VC ffa router below saturation, so the exact detector
        // finds knots and recovery re-offers the victims.
        SimulationConfig ffa = basePoint("ffa", "complement", 0.28);
        ffa.radices = {8, 8};
        ffa.messageLength = 32;
        ffa.flitBufferDepth = 1;
        ffa.deadlockDetector = DeadlockDetectorKind::Exact;
        ffa.deadlockAction = DeadlockAction::Recover;
        ffa.watchdogInterval = 16;
        ffa.watchdogPatience = 512;
        ffa.faultRetries = 64;
        w.points.push_back(ffa);
        // Always run the full 15 samples: a seed then changes which faults
        // and knots occur, not how many cycles are simulated (ffa would
        // otherwise converge after anywhere from 5 to 15 samples).
        for (SimulationConfig &cfg : w.points)
            cfg.convergence.minSamples = cfg.convergence.maxSamples;
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    for (std::size_t i = 0; i < w.points.size(); ++i) {
        SimulationConfig &cfg = w.points[i];
        cfg.seed = wormsim::ParallelSweepRunner::pointSeed(seed, i, 0);
        cfg.traceFile = out_dir + "/" + name + "_" + std::to_string(i) +
                        ".json";
        cfg.validate();
    }
    return w;
}

void
shrinkWindows(SimulationConfig &cfg)
{
    cfg.warmupCycles = 600;
    cfg.samplePeriod = 500;
    cfg.sampleGap = 50;
    cfg.maxCycles = 2500;
    cfg.convergence.maxSamples = 3;
    cfg.convergence.minSamples =
        std::min<std::size_t>(cfg.convergence.minSamples, 3);
}

bool
isPaperAlgorithm(const std::string &algorithm)
{
    for (const std::string &a : kPaperAlgorithms)
        if (a == algorithm)
            return true;
    return false;
}

std::string
pointLabel(const SimulationConfig &cfg)
{
    char load[16];
    std::snprintf(load, sizeof(load), "%.2f", cfg.offeredLoad);
    return cfg.algorithm + "/" + cfg.traffic + "/" + load;
}

} // namespace perfbench
