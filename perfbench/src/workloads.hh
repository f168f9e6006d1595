/**
 * @file
 * The benchmark's three workloads. Each builds its testbed, engines
 * and traces (timed as set-up), runs its measured phase (timed as
 * wall time), and returns every attempted consumer request plus the
 * modeled layer counters it read back from the public stats of the
 * layers involved.
 */

#ifndef AQUA_PERFBENCH_WORKLOADS_HH
#define AQUA_PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "placer/placer.hh"
#include "probes.hh"
#include "workload/request.hh"

namespace aqua::perfbench {

/** The §6.1 balanced 8x2 instance the cluster workload places. */
constexpr std::uint64_t clusterInstanceSeed = 2;
/** Branch-and-bound node budget: the only limit on the placer. */
constexpr std::uint64_t clusterNodeBudget = 3000;

struct RunParams
{
    std::uint64_t seed = 1;
    /** Traced run: probes on (nullptr = bare run). */
    Tracer *tracer = nullptr;
    /** Stop after set-up, so set-up can be sampled more often than
     *  the measured phase. The cluster workload then serves
     *  @ref placement instead of placing. */
    bool setupOnly = false;
    const placer::Placement *placement = nullptr;
};

struct RunResult
{
    /** Every attempted consumer request, in key order. Unfinished
     *  requests have finish == 0. */
    std::vector<workload::RequestMetrics> requests;
    /** Consumer output tokens per simulated second. */
    double tokensPerSec = 0.0;
    double setupSec = 0.0;
    double wallSec = 0.0;
    /** Failed output checks, one line each. */
    std::vector<std::string> failures;
    /** Modeled per-layer counters, by metric name. */
    std::map<std::string, double> layer;
    /** Cluster: the placement that was served. */
    std::optional<placer::Placement> placement;
};

RunResult runCluster(const RunParams &p);
RunResult runChat(const RunParams &p);
RunResult runBursts(const RunParams &p);

/** FNV-1a digest of a run's modeled outputs: every request's
 *  timestamps and tokens, the modeled counters and the placement. */
std::uint64_t modeledDigest(const RunResult &r);

/** Check a placement against Algorithm 1's constraints. */
std::vector<std::string>
placementViolations(const placer::PlacementInput &input,
                    const placer::Placement &placement,
                    std::uint64_t nodeBudget);

} // namespace aqua::perfbench

#endif // AQUA_PERFBENCH_WORKLOADS_HH
