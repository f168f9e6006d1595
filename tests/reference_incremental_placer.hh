/**
 * @file
 * Reference incremental placer for differential tests (see
 * reference_incremental_placer.cc).
 *
 * This is the repair policy the cluster model used before churn
 * re-placed through one warm-started AquaPlacer solve. It keeps a live
 * placement and applies local deltas instead: a mutation moves at most
 * one model. An analytic lower bound on the optimal objective
 * (per-server averages of the mem and eq terms; never above what any
 * solver could reach) is recomputed after every repair; when the
 * repaired objective degrades past a configurable slack of that bound
 * — or after a budgeted number of repairs — the placer falls back to
 * one full, node-budgeted MILP solve of a uniform min-capacity
 * instance and re-bases.
 *
 * Determinism: repairs are pure functions of the placement state
 * with index-order tie-breaks, and the fallback MILP runs under a
 * node limit only, so a given mutation sequence always replays to the
 * identical placement.
 */

#ifndef AQUA_TESTS_REFERENCE_INCREMENTAL_PLACER_HH
#define AQUA_TESTS_REFERENCE_INCREMENTAL_PLACER_HH

#include <cstdint>
#include <vector>

#include "placer/placer.hh"

namespace aqua::placer::reference {

/** Tunables for the repair/re-solve tradeoff. */
struct RepairConfig
{
    /**
     * Allowed degradation before a full re-solve, as a fraction of
     * (|lower bound| + one GPU's HBM). The additive HBM term keeps
     * the test meaningful when objectives sit near (or below) zero.
     */
    double qualitySlack = 0.10;
    /** Full re-solve at the latest after this many repairs. */
    std::size_t maxRepairsBeforeSolve = 128;
    /** Node budget of the fallback MILP, its only limit. */
    std::uint64_t solveMaxNodes = 20000;
};

/** What one mutation did to the placement. */
struct RepairOutcome
{
    enum class Kind
    {
        /** Handled by a local delta. */
        Repair,
        /** Delta degraded quality past the slack: full MILP re-base. */
        FullSolve,
        /** No capacity left for the mutation; placement unchanged. */
        Infeasible,
    };

    Kind kind = Kind::Repair;
    /** Objective over live models after the mutation. */
    double objective = 0.0;
    /** Server the delta touched (destination for arrivals, host for
     *  departures/failures), -1 for full solves and infeasibles. */
    int server = -1;
};

/**
 * A placement kept consistent under arrivals, departures and GPU
 * failures. Model indices are stable for the placer's lifetime;
 * departed models keep their index with assignment() == -1.
 */
class IncrementalPlacer
{
  public:
    /**
     * @param initial Instance to place from scratch (one full solve).
     * @param config Repair tunables.
     */
    explicit IncrementalPlacer(PlacementInput initial,
                               RepairConfig config = {});

    /** A new model joins; placed on the cheapest feasible server. */
    RepairOutcome onArrival(const ModelToPlace &model);

    /** Model @p model leaves; its slot frees up. */
    RepairOutcome onDeparture(std::size_t model);

    /**
     * A GPU on @p server dies: capacity shrinks by one slot; if the
     * server is now over-subscribed the cheapest-to-move model is
     * displaced to another server.
     */
    RepairOutcome onGpuFailure(int server);

    /** server[m], or -1 when model m has departed. */
    const std::vector<int> &assignment() const { return serverOf; }

    /** Algorithm 1 objective over the live models. */
    double objective() const;

    /** All models ever seen (arrivals append; departures tombstone). */
    const std::vector<ModelToPlace> &models() const
    {
        return base.models;
    }

    /** Whether model m is live. */
    bool live(std::size_t m) const { return alive[m]; }

    /** Live model count. */
    std::size_t liveModels() const { return numLive; }

    /** Remaining GPU slots on a server (after failures). */
    std::size_t capacity(int server) const;

    /** Live instance compacted for from-scratch comparisons.
     *  @param liveIndex Optional out: compact index -> model index. */
    PlacementInput
    liveInput(std::vector<std::size_t> *liveIndex = nullptr) const;

    /** Local deltas applied since construction. */
    std::uint64_t repairs() const { return numRepairs; }

    /** Full MILP solves, including the initial one. */
    std::uint64_t fullSolves() const { return numSolves; }

  private:
    /** Cheapest feasible server for @p m, or -1. Index-order ties. */
    int bestServerFor(const ModelToPlace &m) const;

    /** Objective if model @p m (live or hypothetical) sat on @p s. */
    double objectiveWith(const ModelToPlace &m, int s) const;

    /**
     * Analytic lower bound on the optimal objective of the live
     * instance: max_s(mem_s) >= totalMem/S and
     * max_s(eq_s) >= ceil(totalEq/S) for any assignment.
     */
    double lowerBound() const;

    /** Degradation check; re-bases through a full solve if needed.
     *  @return true when a full solve replaced the placement. */
    bool maybeResolve();

    /** Full MILP solve over the live instance; re-bases state. */
    void fullSolve();

    PlacementInput base;
    RepairConfig cfg;
    std::vector<bool> alive;
    std::vector<int> serverOf;
    std::vector<std::size_t> load;
    std::vector<std::size_t> cap;
    std::size_t numLive = 0;
    std::uint64_t numRepairs = 0;
    std::uint64_t numSolves = 0;
    std::size_t repairsSinceSolve = 0;
};

} // namespace aqua::placer::reference

#endif // AQUA_TESTS_REFERENCE_INCREMENTAL_PLACER_HH
