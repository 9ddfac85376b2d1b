/**
 * @file
 * The benchmark's correctness check: result digests and run invariants.
 *
 * A perf change must leave every simulated statistic unchanged. The
 * digest hashes every deterministic SimulationResult field; like the
 * golden tests it leaves out the host- and engine-dependent ones
 * (wallSeconds, cyclesPerSecond, stepMode, routeCache, fabricSteps).
 */

#ifndef PERFBENCH_CHECKS_HH
#define PERFBENCH_CHECKS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "replica.hh"
#include "wormsim/driver/config.hh"
#include "wormsim/driver/results.hh"

namespace perfbench
{

/** 64-bit FNV-1a digest of every deterministic field of @p r. */
std::uint64_t resultDigest(const wormsim::SimulationResult &r);

/** @p digest as 16 lowercase hex digits. */
std::string digestHex(std::uint64_t digest);

/**
 * Invariants of one replica run of @p cfg; returns one line per
 * violation (empty when all hold):
 *  - payload conservation: generated = dropped + delivered + in flight +
 *    waiting in retry backoff + abandoned + killed;
 *  - the fault and recovery layers' own accounting matches the counts
 *    the replica took at its call boundaries;
 *  - zero deadlock detections for the paper's six algorithms on a
 *    fault-free point, and no recovery victims on any of their points;
 *  - stall causes sum to the total block cycles wherever metrics are on.
 */
std::vector<std::string> checkInvariants(const wormsim::SimulationConfig &cfg,
                                         const wormsim::SimulationResult &r,
                                         const ReplicaCounts &c);

/** Committed digests of one workload (expected_digests.json). */
struct ExpectedDigests
{
    std::vector<std::string> full;   ///< full points at kDefaultSeed
    std::vector<std::string> canary; ///< shrunk points at kDefaultSeed
};

/**
 * Load expected_digests.json: {"<workload>": {"full": [hex...],
 * "canary": [hex...]}, ...}. Throws std::runtime_error when the file is
 * missing or malformed.
 */
std::map<std::string, ExpectedDigests>
loadExpectedDigests(const std::string &path);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_HH
