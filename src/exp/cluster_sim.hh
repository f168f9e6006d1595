/**
 * @file
 * Cluster-scale simulation model.
 *
 * ClusterSim models a scale-up cluster of NVLink domains serving an
 * open-loop LLM request stream: per-domain arrivals, GPU queueing
 * with analytic prefill/decode service times, a federated hot-prefix
 * layer (one cluster::PrefixRegistry per domain, consulted across
 * domains for remotely-homed chains), and live placement churn
 * (model arrival/departure/GPU failure: the domain-0 coordinator
 * re-places the live models with one AquaPlacer solve warm-started
 * from the current assignment, and broadcasts the result as a
 * versioned assignment view).
 *
 * The model is written against sim::DomainNet only: domain state is
 * private to its domain's events, randomness comes from structurally
 * keyed domainRandom() streams, and every cross-domain interaction —
 * request forwarding to the hosting domain, remote prefix
 * lookup/reply, completion notifications, view broadcasts — is a
 * timestamped send. A run reduces to per-domain event digests
 * (always), full per-domain trace logs (small runs) and canonical
 * end-state stats; tests/test_cluster_sim.cc pins them with a golden
 * run and checks that two runs of one seed are identical, and
 * bench/abl_cluster_sim.cc repeats that check on the 64-GPU headline.
 */

#ifndef AQUA_EXP_CLUSTER_SIM_HH
#define AQUA_EXP_CLUSTER_SIM_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/prefix_registry.hh"
#include "hw/link.hh"
#include "json/json.hh"
#include "placer/placer.hh"
#include "sim/domain_net.hh"
#include "trace/trace.hh"

namespace aqua::exp {

/** Tunables of the cluster model. */
struct ClusterSimConfig
{
    std::size_t numDomains = 8;
    std::size_t gpusPerDomain = 8;
    std::uint64_t seed = 1;

    /** Total requests across all domains. */
    std::uint64_t numRequests = 100000;
    /** Open-loop arrival rate per domain (requests/second). */
    double arrivalRatePerDomain = 2000.0;

    /** Initial models per domain ("balanced" split, placed by the
     *  full MILP before the clock starts). */
    std::size_t modelsPerDomain = 2;

    /** Probability a request opens with a hot shared prefix. */
    double prefixProb = 0.3;
    /** Distinct hot prefixes cluster-wide. */
    std::size_t prefixPool = 64;
    /** KV bytes of one hot prefix chain. */
    std::uint64_t prefixBytes = 64ull << 20;
    /** Prompt tokens a prefix hit skips. */
    std::uint32_t prefixTokens = 512;

    /** Placement churn events (arrival/departure/failure cycle). */
    std::size_t placementEvents = 12;
    /** Gap between churn events (simulated seconds). */
    double churnIntervalSec = 2.0;
    /**
     * Node budget of every placer solve, initial and churn.
     * Cluster-scale instances rarely prove optimality, so the budget
     * is mostly spent improving the incumbent; keep it small — a
     * churn solve runs inline in a simulation event.
     */
    std::uint64_t placerNodeBudget = 500;

    /** Inter-server fabric: peak bandwidth (bytes/s) and latency. */
    double interBandwidth = 50e9;
    double interLatencyUs = 2.0;
    /** Software floor on any cross-domain message; the net's
     *  lookahead is interLatencyUs + rpcFloorUs. */
    double rpcFloorUs = 25.0;

    /** Service model: per-token costs (microseconds). */
    double prefillUsPerToken = 0.4;
    double decodeUsPerToken = 12.0;

    /** Capture full per-domain TraceLogs (small runs only). */
    bool captureTrace = false;

    /** Cross-domain latency floor implied by the fabric. */
    aqua::sim::Tick
    lookahead() const
    {
        return aqua::sim::usToTicks(interLatencyUs + rpcFloorUs);
    }
};

/** Deterministic end-state counters of one domain. */
struct ClusterDomainStats
{
    std::uint64_t arrivals = 0;
    std::uint64_t servedLocal = 0;
    std::uint64_t servedForwarded = 0;
    std::uint64_t forwardsOut = 0;
    std::uint64_t reforwards = 0;
    std::uint64_t completed = 0;
    std::uint64_t sumRctTicks = 0;
    std::uint64_t prefixHitsLocal = 0;
    std::uint64_t prefixHitsRemote = 0;
    std::uint64_t prefixMisses = 0;
    std::uint64_t prefixBytesStreamed = 0;
    std::uint64_t viewUpdates = 0;
    std::uint64_t viewVersion = 0;
    /** FNV-1a digest over the domain's ordered event tuples — the
     *  compact form of "identical per-domain trace sequences". */
    std::uint64_t digest = 14695981039346656037ULL;
};

/** Coordinator-side (domain 0) placement churn counters. */
struct ClusterPlacerStats
{
    std::uint64_t churnEvents = 0;
    /** AquaPlacer solves, the initial one included. */
    std::uint64_t solves = 0;
    /** Churn solves that moved no previously placed model. */
    std::uint64_t kept = 0;
    /** Previously placed models moved to another server. */
    std::uint64_t modelsMoved = 0;
    /** Churn events with no feasible placement; nothing moved. */
    std::uint64_t infeasible = 0;
};

/**
 * The model proper. Construct over a DomainNet, setup(), run the
 * net's queue, then read stats.
 */
class ClusterSim
{
  public:
    ClusterSim(const ClusterSimConfig &config, sim::DomainNet &net);
    ~ClusterSim();

    ClusterSim(const ClusterSim &) = delete;
    ClusterSim &operator=(const ClusterSim &) = delete;

    /** Build initial placement, seed arrivals and churn events. */
    void setup();

    const ClusterDomainStats &stats(std::size_t domain) const;

    /** Full trace of one domain as JSONL ("" unless captureTrace). */
    std::string traceJsonl(std::size_t domain) const;

    /** Per-domain digests, in domain order. */
    std::vector<std::uint64_t> digests() const;

    /**
     * Canonical end-state document: everything that must be
     * identical between two runs of one seed (and nothing that may
     * not be — no wall-clock).
     */
    json::Object statsJson() const;

  private:
    struct View;
    struct Domain;
    struct ClusterRequest;

    void scheduleNextArrival(std::size_t d);
    void onArrival(std::size_t d, ClusterRequest req);
    void routeOrServe(std::size_t d, ClusterRequest req);
    bool handleLocalPrefix(std::size_t d, const ClusterRequest &req);
    void beginService(std::size_t d, ClusterRequest req,
                      aqua::sim::Tick extraDelay, bool prefixHit);
    void handleRemoteLookup(std::size_t home, std::size_t asker,
                            ClusterRequest req);
    void completeAtOrigin(std::size_t d, const ClusterRequest &req,
                          aqua::sim::Tick finish);
    void runChurn(std::size_t index);
    /** The live models compacted for the placer, with their stable
     *  indices and prior servers (-1 for an unplaced arrival). */
    placer::PlacementInput liveInput(std::vector<std::size_t> *stable,
                                     std::vector<int> *prior) const;
    /** One warm-started solve over the live models: models moved, or
     *  -1 (assignment unchanged) when nothing feasible exists. */
    int replace();
    void broadcastView();
    void applyView(std::size_t d, const View &view);
    void digestEvent(std::size_t d, aqua::sim::Tick t,
                     std::uint32_t code, std::uint64_t a,
                     std::uint64_t b);
    void trace(std::size_t d, aqua::sim::Tick t, const char *category,
               json::Object fields);

    ClusterSimConfig cfg;
    sim::DomainNet &net;
    hw::Link interLink;
    std::vector<std::unique_ptr<Domain>> domains;
    /** Every solve runs under cfg.placerNodeBudget nodes. */
    placer::AquaPlacer solver;
    /** Every model ever seen (arrivals append) and the lost GPUs. */
    placer::PlacementInput cluster;
    /** server[m], -1 once model m has departed. */
    std::vector<int> assignment;
    /** Coordinator churn stream (domain 0, stream 3), lazily built. */
    std::unique_ptr<sim::Random> churnRng;
    ClusterPlacerStats pstats;
    std::uint64_t viewVersion = 0;
};

/** One run of the model, reduced to comparable artifacts. */
struct ClusterRunResult
{
    json::Object stats;
    std::vector<std::uint64_t> digests;
    std::vector<std::string> traces;
    std::uint64_t eventsFired = 0;
    std::uint64_t crossMessages = 0;
    /** Wall-clock; excluded from any equivalence comparison. */
    double wallSeconds = 0.0;
};

/** Run the model to completion on one DomainNet. */
ClusterRunResult runClusterSim(const ClusterSimConfig &cfg);

/**
 * Run equivalence: identical per-domain digests, identical traces
 * (when captured) and identical canonical stats. @p why gets a
 * human-readable reason on mismatch.
 */
bool equivalentRuns(const ClusterRunResult &a,
                    const ClusterRunResult &b,
                    std::string *why = nullptr);

} // namespace aqua::exp

#endif // AQUA_EXP_CLUSTER_SIM_HH
