/**
 * @file
 * Lockstep differential tests: opt::BoundedSimplex, whose tableau holds
 * the nonbasic columns only, against the full-tableau solver it
 * replaced (tests/reference_full_tableau.hh). Both are driven through
 * the same calls — cold solves, bound changes followed by warm solves
 * under a cutoff, bound resets, basis save and reload, cold starts —
 * and after every solve they must agree bit for bit: status, iteration
 * count, objective, solution and basis.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <queue>
#include <tuple>

#include "exp/experiments.hh"
#include "opt/lp.hh"
#include "opt/milp.hh"
#include "placer/placer.hh"
#include "tests/lp_generator.hh"
#include "tests/reference_full_tableau.hh"

using namespace aqua::opt;
using test::LpGenerator;

namespace {

bool
sameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) ==
                0);
}

/** Both solvers on one LP; every call goes to both. */
class Lockstep
{
  public:
    explicit Lockstep(const LinearProgram &lp, SimplexOptions options = {})
        : fast(lp, options), ref(lp, options)
    {
    }

    void
    setBounds(int var, double lo, double hi)
    {
        fast.setBounds(var, lo, hi);
        ref.setBounds(var, lo, hi);
    }

    void
    resetBounds()
    {
        fast.resetBounds();
        ref.resetBounds();
    }

    void
    coldStart()
    {
        fast.coldStart();
        ref.coldStart();
    }

    bool
    loadBasis(const BoundedSimplex::Basis &basis)
    {
        bool loaded = fast.loadBasis(basis);
        EXPECT_EQ(loaded, ref.loadBasis(basis));
        return loaded;
    }

    BoundedSimplex::Basis basis() const { return fast.basis(); }
    double lowerBound(int var) const { return fast.lowerBound(var); }
    double upperBound(int var) const { return fast.upperBound(var); }
    double objective() const { return fast.objective(); }
    std::vector<double> solution() const { return fast.solution(); }
    std::uint64_t iterations() const { return fast.iterations(); }

    /** Solve both; a failure unless they agree bit for bit. */
    LpStatus
    solve(double cutoff = inf)
    {
        LpStatus got = fast.solve(cutoff);
        LpStatus want = ref.solve(cutoff);
        EXPECT_EQ(got, want);
        EXPECT_EQ(fast.iterations(), ref.iterations());
        std::vector<double> obj{fast.objective()};
        EXPECT_TRUE(sameBits(obj, {ref.objective()}))
            << obj[0] << " vs " << ref.objective();
        EXPECT_TRUE(sameBits(fast.solution(), ref.solution()));
        EXPECT_TRUE(fast.basis() == ref.basis());
        ++solves;
        return got;
    }

    int solves = 0;

  private:
    BoundedSimplex fast;
    reference::FullTableauSimplex ref;
};

/**
 * A random call sequence on @p lp: after a cold solve, each step
 * tightens a bound and re-solves warm under a cutoff, resets the
 * bounds, reloads an earlier optimal basis, or starts cold.
 */
int
driveRandomCalls(const LinearProgram &lp, LpGenerator &gen, int steps)
{
    Lockstep both(lp);
    LpStatus status = both.solve();
    std::vector<BoundedSimplex::Basis> saved;
    for (int step = 0; step < steps && !testing::Test::HasFailure();
         ++step) {
        double cutoff = inf;
        if (status == LpStatus::Optimal) {
            saved.push_back(both.basis());
            if (gen.pick(0, 2) == 0)
                cutoff = both.objective() + (gen.pick(0, 1) ? 0.5 : -0.5);
        }
        switch (gen.pick(0, 5)) {
          case 0:
          case 1:
          case 2: {
            int var = gen.pick(0, lp.numVars() - 1);
            double lo = both.lowerBound(var);
            double hi = both.upperBound(var);
            double span = std::isfinite(hi) ? hi - lo : 6.0;
            double newLo = lo + gen.pick(0, int(span));
            double newHi = std::isfinite(hi) && gen.pick(0, 1)
                         ? hi : newLo + gen.pick(0, 3);
            if (std::isfinite(hi))
                newHi = std::min(newHi, hi);
            both.setBounds(var, std::min(newLo, newHi), newHi);
            break;
          }
          case 3:
            both.resetBounds();
            break;
          case 4:
            if (!saved.empty())
                both.loadBasis(saved[gen.pick(0, int(saved.size()) - 1)]);
            break;
          case 5:
            both.coldStart();
            break;
        }
        status = both.solve(cutoff);
    }
    return both.solves;
}

/** The search result fields the replay reproduces. */
struct SearchTotals
{
    std::uint64_t nodes = 0;
    std::uint64_t lpIterations = 0;
    double objective = inf;
    std::vector<double> x;
};

/**
 * MilpSolver::solve's plunging, best-bound search over @p lp, replayed
 * on both solvers: the same node order, bound changes, cutoffs, basis
 * reloads and cold starts, under a node budget and no clock.
 */
SearchTotals
replaySearch(const LinearProgram &lp, const std::vector<int> &integers,
             double seedBound, std::uint64_t maxNodes)
{
    struct Node
    {
        std::vector<std::tuple<int, double, double>> bounds;
        double bound = -inf;
        std::uint64_t seq = 0;
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
    const MilpOptions opt;
    SearchTotals totals;
    double incObj = seedBound + 1e-7;
    Lockstep both(lp);
    std::priority_queue<Node, std::vector<Node>, WorseNode> open;
    std::uint64_t pushed = 0;
    open.push(Node{{}, -inf, pushed++, {}});
    Node current;
    bool plunging = false;
    while ((plunging || !open.empty()) && totals.nodes < maxNodes &&
           !testing::Test::HasFailure()) {
        bool consistent = true;
        if (plunging) {
            plunging = false;
            ++totals.nodes;
            const auto &[var, lo, hi] = current.bounds.back();
            consistent = lo <= hi;
            if (consistent)
                both.setBounds(var, lo, hi);
        } else {
            current = open.top();
            open.pop();
            if (current.bound >= incObj - opt.objectiveGap)
                continue;
            ++totals.nodes;
            both.resetBounds();
            for (const auto &[var, lo, hi] : current.bounds) {
                double newLo = std::max(lo, both.lowerBound(var));
                double newHi = std::min(hi, both.upperBound(var));
                if (newLo > newHi) {
                    consistent = false;
                    break;
                }
                both.setBounds(var, newLo, newHi);
            }
            if (consistent &&
                (current.basis.empty() || !both.loadBasis(current.basis)))
                both.coldStart();
        }
        if (!consistent)
            continue;
        LpStatus status = both.solve(incObj - opt.objectiveGap);
        totals.lpIterations += both.iterations();
        if (status != LpStatus::Optimal)
            continue;
        double objective = both.objective();
        if (objective >= incObj - opt.objectiveGap)
            continue;
        std::vector<double> x = both.solution();
        int branchVar = -1;
        double worstFrac = opt.integerTolerance;
        for (int var : integers) {
            double frac = std::abs(x[var] - std::round(x[var]));
            if (frac > worstFrac) {
                worstFrac = frac;
                branchVar = var;
            }
        }
        if (branchVar < 0) {
            incObj = objective;
            totals.objective = objective;
            totals.x = std::move(x);
            continue;
        }
        double v = x[branchVar];
        std::tuple<int, double, double> down{
            branchVar, both.lowerBound(branchVar), std::floor(v)};
        std::tuple<int, double, double> up{
            branchVar, std::ceil(v), both.upperBound(branchVar)};
        bool downFirst = v - std::floor(v) <= std::ceil(v) - v;
        Node sibling{current.bounds, objective, pushed++, both.basis()};
        sibling.bounds.push_back(downFirst ? up : down);
        open.push(std::move(sibling));
        current.bounds.push_back(downFirst ? down : up);
        current.bound = objective;
        plunging = true;
    }
    return totals;
}

} // anonymous namespace

TEST(LpLockstep, RandomLpsAgreeBitForBit)
{
    LpGenerator gen(20261020);
    int solves = 0;
    for (int k = 0; k < 3000 && !HasFailure(); ++k) {
        SCOPED_TRACE(k);
        solves += driveRandomCalls(gen.make(), gen, 10);
    }
    EXPECT_GT(solves, 30000);
}

TEST(LpLockstep, BealeCyclingLpAgreesBitForBit)
{
    LpGenerator gen(3);
    for (int k = 0; k < 50 && !HasFailure(); ++k) {
        SCOPED_TRACE(k);
        driveRandomCalls(test::bealeLp(), gen, 10);
    }
}

TEST(LpLockstep, DegenerateDuplicateRowsAgreeBitForBit)
{
    LpGenerator gen(77);
    for (int k = 0; k < 300 && !HasFailure(); ++k) {
        SCOPED_TRACE(k);
        driveRandomCalls(gen.makeDuplicateRows(), gen, 10);
    }
}

TEST(LpLockstep, PlacerSearchAgreesBitForBit)
{
    // The benchmark's cluster instance under its 3,000-node budget,
    // seeded with the greedy placement as AquaPlacer seeds it.
    aqua::placer::PlacementInput input =
        aqua::exp::makeClusterInput(8, 2, "balanced", 2);
    aqua::placer::PlacementMilp milp = aqua::placer::encodePlacement(input);
    // The MILP's objective is in GB, Algorithm 1's in bytes.
    double seed = aqua::placer::evaluateObjective(
                      input, aqua::placer::greedyPlace(input).server) *
                  1e-9;
    SearchTotals replay =
        replaySearch(milp.lp, milp.integers, seed, 3000);
    ASSERT_FALSE(HasFailure());

    // The replay is MilpSolver's own search: same tree, same pivots.
    MilpOptions options;
    options.maxNodes = 3000;
    MilpSolver solver(milp.lp, milp.integers, options);
    solver.setIncumbentBound(seed);
    MilpResult want = solver.solve();
    EXPECT_EQ(replay.nodes, 3000u);
    EXPECT_EQ(replay.nodes, want.nodesExplored);
    EXPECT_EQ(replay.lpIterations, want.lpIterations);
    ASSERT_EQ(want.status, MilpStatus::Feasible);
    EXPECT_TRUE(sameBits({replay.objective}, {want.objective}));
    EXPECT_TRUE(sameBits(replay.x, want.x));
}
