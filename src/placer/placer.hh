/**
 * @file
 * AQUA-PLACER (§4, Algorithm 1): optimal placement of ML models onto
 * the GPUs of a cluster so memory-bound (consumer) models sit on the
 * same fast inter-GPU network as memory-rich (producer) models.
 *
 * Two steps, as in the paper:
 *  1. assign models to servers by solving Algorithm 1's MILP —
 *     minimize max_s(mem_s) + G_mem * max_s(eq_s) subject to one GPU
 *     per model and at most G models per server — with our own
 *     branch-and-bound solver (the paper used Gurobi);
 *  2. within each server, pair producers with consumers via stable
 *     matching, one producer per consumer by design (sharing a
 *     producer would split its NVLink bandwidth).
 *
 * Identical models are grouped into types before encoding, which
 * collapses the permutation symmetry that would otherwise blow up the
 * search (the paper's clusters sample models with replacement, §6.1).
 * A greedy first-fit placement provides the incumbent bound and a
 * fallback when the node budget bites. The budget (MilpOptions::
 * maxNodes), not the host's speed, ends a search that does not prove
 * optimality, so a placement is the same on every host.
 * Re-placement after churn is the same solve, warm-started from the
 * previous placement, which only a strictly better one replaces.
 */

#ifndef AQUA_PLACER_PLACER_HH
#define AQUA_PLACER_PLACER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "opt/milp.hh"

namespace aqua::placer {

/** One model instance to place. */
struct ModelToPlace
{
    std::string name;
    /**
     * R_m: experimentally determined memory requirement in bytes —
     * positive for producers (memory to spare), negative for
     * consumers (deficit), as in Algorithm 1.
     */
    std::int64_t memBytes = 0;

    bool isProducer() const { return memBytes > 0; }
    bool isConsumer() const { return memBytes < 0; }
};

/** Placement problem instance. */
struct PlacementInput
{
    std::size_t numServers = 0;
    /** G: GPUs per server. */
    std::size_t gpusPerServer = 0;
    /** G_mem: HBM per GPU, used to weigh the eq_s term. */
    std::uint64_t gpuMemBytes = 0;
    std::vector<ModelToPlace> models;
    /** Failed GPUs per server; empty means none failed. */
    std::vector<std::size_t> lostGpus;

    /** Models server s can hold: G less its failed GPUs. */
    std::size_t capacity(std::size_t s) const;
};

/** A producer-consumer pairing within a server. */
struct Pairing
{
    int consumerModel = -1;
    int producerModel = -1;
    int server = -1;
};

/** Placement solution. */
struct Placement
{
    /** server[m] = server index hosting model m. */
    std::vector<int> server;
    /** Stable producer-consumer pairs per server. */
    std::vector<Pairing> pairs;
    /** Algorithm 1 objective value of this placement. */
    double objective = 0.0;
    /** Whether the MILP proved optimality. */
    bool optimal = false;
    std::uint64_t nodesExplored = 0;
    /** Simplex iterations over all branch-and-bound nodes. */
    std::uint64_t lpIterations = 0;

    bool
    valid() const
    {
        return !server.empty();
    }
};

/** Evaluate Algorithm 1's objective for a given assignment. */
double evaluateObjective(const PlacementInput &input,
                         const std::vector<int> &assignment);

/**
 * Greedy first-fit placement: pair the largest-deficit consumer with
 * the largest-surplus producer and co-locate each pair on a server;
 * spill the rest first-fit. Used as the MILP's incumbent seed and as
 * a baseline in the placement-quality ablation.
 */
Placement greedyPlace(const PlacementInput &input);

/** Algorithm 1 as a MILP over model types (what AquaPlacer solves). */
struct PlacementMilp
{
    /** Objective and memory terms in GB. */
    opt::LinearProgram lp;
    /** The y variables, which must be integral. */
    std::vector<int> integers;
    /** y[t][s]: the variable counting type-t models on server s. */
    std::vector<std::vector<int>> y;
    /** typeMembers[t]: indices of the models of type t. */
    std::vector<std::vector<int>> typeMembers;
};

/** Encode Algorithm 1 for @p input (exposed for solver tests). */
PlacementMilp encodePlacement(const PlacementInput &input);

/**
 * AQUA-PLACER: the Algorithm 1 MILP plus per-server stable matching.
 * The MILP options are used as given; the default budget is
 * MilpOptions::maxNodes nodes and no wall-clock limit.
 */
class AquaPlacer
{
  public:
    explicit AquaPlacer(opt::MilpOptions milpOptions = {});

    /**
     * Solve a placement instance. @p prior is empty for a cold solve;
     * otherwise prior[m] is model m's previous server, or -1 for a new
     * model. New models, and models a failed GPU pushed off a full
     * server, go to their cheapest server with room; that completion
     * is returned unless greedy or the search is strictly better.
     */
    Placement place(const PlacementInput &input,
                    const std::vector<int> &prior = {}) const;

  private:
    opt::MilpOptions milpOpt;
};

/**
 * Pair producers and consumers within each server via stable
 * matching (exposed for reuse and tests).
 */
std::vector<Pairing> matchWithinServers(const PlacementInput &input,
                                        const std::vector<int> &server);

} // namespace aqua::placer

#endif // AQUA_PLACER_PLACER_HH
