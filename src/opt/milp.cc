#include "opt/milp.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <queue>
#include <tuple>

#include "sim/logging.hh"

namespace aqua::opt {

namespace {

using Clock = std::chrono::steady_clock;

/** An open node: its branching bounds and its parent's basis. */
struct Node
{
    /** (var, lo, hi) bound overrides along this branch. */
    std::vector<std::tuple<int, double, double>> bounds;
    /** The parent's LP objective: a lower bound for the subtree. */
    double bound = -inf;
    /** Push order; among equal bounds the newest node goes first. */
    std::uint64_t seq = 0;
    /** The parent's optimal basis; empty at the root. */
    BoundedSimplex::Basis basis;
};

struct WorseNode
{
    bool
    operator()(const Node &a, const Node &b) const
    {
        if (a.bound != b.bound)
            return a.bound > b.bound;
        return a.seq < b.seq;
    }
};

/**
 * The time point @p seconds from now. Saturates: a budget that is not
 * positive, infinite, or beyond half the clock's remaining range
 * means no deadline, and then the clock is never read.
 */
Clock::time_point
deadlineAfter(double seconds)
{
    Clock::time_point never = Clock::time_point::max();
    if (!(seconds > 0.0))
        return never;
    Clock::time_point now = Clock::now();
    std::chrono::duration<double> room = never - now;
    if (!(seconds < 0.5 * room.count()))
        return never;
    return now + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(seconds));
}

} // anonymous namespace

MilpSolver::MilpSolver(LinearProgram lp, std::vector<int> integers,
                       MilpOptions options)
    : base(std::move(lp)), integerVars(std::move(integers)),
      opt(options)
{
}

void
MilpSolver::setIncumbentBound(double objective)
{
    // Nudge the bound up a hair so an equal-quality integer solution
    // is still discovered (we want the solution, not just its value).
    incumbentObjective = objective + 1e-7;
    haveSeedBound = true;
}

MilpResult
MilpSolver::solve()
{
    MilpResult result;
    std::vector<double> incumbent;
    double incObj = incumbentObjective;
    bool haveIncumbent = false;
    bool hitLimit = false;
    const Clock::time_point deadline = deadlineAfter(opt.maxSeconds);

    BoundedSimplex simplex(base, opt.lp);
    std::priority_queue<Node, std::vector<Node>, WorseNode> open;
    std::uint64_t pushed = 0;
    open.push(Node{{}, -inf, pushed++, {}});

    // The node whose bounds the simplex holds. While plunging, its
    // last bound is the branch the next solve applies to the parent's
    // tableau.
    Node current;
    bool plunging = false;
    while (plunging || !open.empty()) {
        if (result.nodesExplored >= opt.maxNodes ||
            (deadline != Clock::time_point::max() &&
             Clock::now() >= deadline)) {
            hitLimit = true;
            break;
        }
        bool consistent = true;
        if (plunging) {
            plunging = false;
            ++result.nodesExplored;
            const auto &[var, lo, hi] = current.bounds.back();
            consistent = lo <= hi;
            if (consistent)
                simplex.setBounds(var, lo, hi);
        } else {
            current = open.top();
            open.pop();
            if (current.bound >= incObj - opt.objectiveGap)
                continue; // pruned by a newer incumbent / seed bound
            ++result.nodesExplored;
            simplex.resetBounds();
            for (const auto &[var, lo, hi] : current.bounds) {
                double newLo = std::max(lo, simplex.lowerBound(var));
                double newHi = std::min(hi, simplex.upperBound(var));
                if (newLo > newHi) {
                    consistent = false;
                    break;
                }
                simplex.setBounds(var, newLo, newHi);
            }
            if (consistent &&
                (current.basis.empty() ||
                 !simplex.loadBasis(current.basis)))
                simplex.coldStart();
        }
        if (!consistent)
            continue;

        LpStatus status = simplex.solve(incObj - opt.objectiveGap);
        result.lpIterations += simplex.iterations();
        if (status == LpStatus::Infeasible || status == LpStatus::Cutoff)
            continue;
        if (status == LpStatus::Unbounded) {
            // Integer restrictions cannot save an unbounded
            // relaxation in our (bounded-variable) encodings.
            aqua::sim::panic("MilpSolver: unbounded relaxation");
        }
        if (status == LpStatus::IterLimit) {
            hitLimit = true;
            continue;
        }
        double objective = simplex.objective();
        if (objective >= incObj - opt.objectiveGap)
            continue;
        std::vector<double> x = simplex.solution();

        // Find the most fractional integer variable.
        int branchVar = -1;
        double worstFrac = opt.integerTolerance;
        for (int var : integerVars) {
            double frac = std::abs(x[var] - std::round(x[var]));
            if (frac > worstFrac) {
                worstFrac = frac;
                branchVar = var;
            }
        }
        if (branchVar < 0) {
            // Integral: new incumbent.
            incObj = objective;
            incumbent = std::move(x);
            haveIncumbent = true;
            continue;
        }

        // Plunge into the child whose bound is nearer the LP value;
        // the sibling waits with this node's basis.
        double v = x[branchVar];
        std::tuple<int, double, double> down{
            branchVar, simplex.lowerBound(branchVar), std::floor(v)};
        std::tuple<int, double, double> up{
            branchVar, std::ceil(v), simplex.upperBound(branchVar)};
        bool downFirst = v - std::floor(v) <= std::ceil(v) - v;
        Node sibling{current.bounds, objective, pushed++,
                     simplex.basis()};
        sibling.bounds.push_back(downFirst ? up : down);
        open.push(std::move(sibling));
        current.bounds.push_back(downFirst ? down : up);
        current.bound = objective;
        plunging = true;
    }

    result.limitHit = hitLimit;
    if (haveIncumbent) {
        result.status = hitLimit ? MilpStatus::Feasible
                                 : MilpStatus::Optimal;
        result.objective = incObj;
        result.x = std::move(incumbent);
    } else if (hitLimit || haveSeedBound) {
        // With a seed bound and no incumbent of our own, the seed
        // solution is (within tolerance) optimal but lives with the
        // caller; report Unknown so the caller keeps its own.
        result.status = MilpStatus::Unknown;
    } else {
        result.status = MilpStatus::Infeasible;
    }
    return result;
}

} // namespace aqua::opt
