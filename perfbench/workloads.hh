/**
 * @file
 * The benchmark's named workloads: lists of full simulation points.
 *
 * Every point keeps SimulationConfig's paper-scale measurement windows
 * (warmup 10000, 8000-cycle samples, 3-15 samples) and the library's
 * default step and route-cache engines, so a workload times the same
 * points a user's fig3/fig4 sweep runs. Why each workload exists is
 * recorded in BENCHMARK.json and README.md.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "wormsim/driver/config.hh"

namespace perfbench
{

/** The seed whose full-point digests are committed (expected_digests). */
constexpr std::uint64_t kDefaultSeed = 1;

/** One named workload: its points, in run order. */
struct Workload
{
    std::string name;
    std::vector<wormsim::SimulationConfig> points;
};

/** Every workload name, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/**
 * Build workload @p name with per-point seeds derived from @p seed.
 * Points that write metrics time series write them under @p out_dir.
 * Throws std::invalid_argument on an unknown name.
 */
Workload makeWorkload(const std::string &name, std::uint64_t seed,
                      const std::string &out_dir);

/**
 * Shrink @p cfg's measurement windows to a few thousand cycles: the
 * canary points every run checks against committed digests, and the
 * tiny configs of the benchmark's own tests.
 */
void shrinkWindows(wormsim::SimulationConfig &cfg);

/** True for the paper's six deadlock-free algorithms. */
bool isPaperAlgorithm(const std::string &algorithm);

/** Short label of a point, e.g. "nbc/uniform/0.30". */
std::string pointLabel(const wormsim::SimulationConfig &cfg);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
