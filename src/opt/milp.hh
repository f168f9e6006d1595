/**
 * @file
 * Mixed-integer linear programming via LP-based branch and bound —
 * the solver behind AQUA-PLACER (the paper used Gurobi, §4).
 *
 * Branches on the most fractional integer variable of the LP
 * relaxation, which one BoundedSimplex keeps warm across the search:
 *  - plunging: after branching, the child whose bound lies nearer the
 *    LP value is solved next, by the dual simplex from the parent's
 *    tableau. The sibling goes to the open list with the parent's
 *    compact basis (one status byte per column);
 *  - best bound: when a plunge ends, the open node with the lowest
 *    parent bound is re-factored from its stored basis (or solved cold
 *    if that basis is singular) and a new plunge starts there.
 * A node budget bounds the search, which makes it deterministic: the
 * same instance explores the same tree on any host.
 */

#ifndef AQUA_OPT_MILP_HH
#define AQUA_OPT_MILP_HH

#include <cstdint>
#include <vector>

#include "opt/lp.hh"

namespace aqua::opt {

/** MILP solve outcome. */
enum class MilpStatus
{
    /** Proven optimal integer solution. */
    Optimal,
    /** A feasible incumbent exists but limits cut the proof short. */
    Feasible,
    Infeasible,
    /** Limits hit with no incumbent found. */
    Unknown,
};

/** MILP solution and search statistics. */
struct MilpResult
{
    MilpStatus status = MilpStatus::Unknown;
    double objective = 0.0;
    std::vector<double> x;
    std::uint64_t nodesExplored = 0;
    std::uint64_t lpIterations = 0;
    /** Whether node/iteration limits cut the search short. */
    bool limitHit = false;

    bool hasSolution() const
    {
        return status == MilpStatus::Optimal ||
               status == MilpStatus::Feasible;
    }
};

/** Solver tunables. */
struct MilpOptions
{
    std::uint64_t maxNodes = 200000;
    /**
     * Host-side guard: wall-clock budget in seconds; 0, infinity or
     * any value beyond the clock's range means unlimited. A search cut
     * by it depends on host speed, so no path whose output lands in a
     * result sets it; they bound the search with maxNodes.
     */
    double maxSeconds = 0.0;
    double integerTolerance = 1e-6;
    /** Prune children whose bound is within this of the incumbent. */
    double objectiveGap = 1e-9;
    SimplexOptions lp;
};

/**
 * Branch-and-bound MILP solver.
 */
class MilpSolver
{
  public:
    /**
     * @param lp The problem (minimization).
     * @param integers Indices of variables that must be integral.
     */
    MilpSolver(LinearProgram lp, std::vector<int> integers,
               MilpOptions options = {});

    /**
     * Seed the search with a known feasible objective (e.g. from a
     * greedy heuristic) so pruning bites immediately.
     */
    void setIncumbentBound(double objective);

    /** Run the search. */
    MilpResult solve();

  private:
    LinearProgram base;
    std::vector<int> integerVars;
    MilpOptions opt;
    double incumbentObjective = inf;
    bool haveSeedBound = false;
};

} // namespace aqua::opt

#endif // AQUA_OPT_MILP_HH
