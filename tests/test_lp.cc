/**
 * @file
 * Tests for the simplex LP solver: textbook instances, bound
 * handling, infeasibility, unboundedness and degeneracy, plus a
 * differential harness against the dense two-phase solver it replaced
 * (tests/reference_lp.hh), cold and after warm bound changes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>

#include "exp/experiments.hh"
#include "opt/lp.hh"
#include "placer/placer.hh"
#include "tests/lp_generator.hh"
#include "tests/reference_lp.hh"

using namespace aqua::opt;

TEST(Lp, TextbookMaximization)
{
    // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 => (2, 6).
    LinearProgram lp;
    int x = lp.addVar(0.0, inf, -3.0); // minimize -objective
    int y = lp.addVar(0.0, inf, -5.0);
    lp.addRow({{x, 1.0}}, Relation::LessEq, 4.0);
    lp.addRow({{y, 2.0}}, Relation::LessEq, 12.0);
    lp.addRow({{x, 3.0}, {y, 2.0}}, Relation::LessEq, 18.0);
    LpResult r = solveLp(lp);
    ASSERT_TRUE(r.optimal());
    EXPECT_NEAR(r.objective, -36.0, 1e-6);
    EXPECT_NEAR(r.x[x], 2.0, 1e-6);
    EXPECT_NEAR(r.x[y], 6.0, 1e-6);
}

TEST(Lp, EqualityConstraints)
{
    // min x + 2y s.t. x + y = 10, x - y = 2 => (6, 4).
    LinearProgram lp;
    int x = lp.addVar(0.0, inf, 1.0);
    int y = lp.addVar(0.0, inf, 2.0);
    lp.addRow({{x, 1.0}, {y, 1.0}}, Relation::Equal, 10.0);
    lp.addRow({{x, 1.0}, {y, -1.0}}, Relation::Equal, 2.0);
    LpResult r = solveLp(lp);
    ASSERT_TRUE(r.optimal());
    EXPECT_NEAR(r.x[x], 6.0, 1e-6);
    EXPECT_NEAR(r.x[y], 4.0, 1e-6);
    EXPECT_NEAR(r.objective, 14.0, 1e-6);
}

TEST(Lp, GreaterEqualNeedsPhaseOne)
{
    // min 2x + 3y s.t. x + y >= 10, x <= 6 => (6, 4), obj 24.
    LinearProgram lp;
    int x = lp.addVar(0.0, 6.0, 2.0);
    int y = lp.addVar(0.0, inf, 3.0);
    lp.addRow({{x, 1.0}, {y, 1.0}}, Relation::GreaterEq, 10.0);
    LpResult r = solveLp(lp);
    ASSERT_TRUE(r.optimal());
    EXPECT_NEAR(r.objective, 24.0, 1e-6);
}

TEST(Lp, InfeasibleDetected)
{
    LinearProgram lp;
    int x = lp.addVar(0.0, inf, 1.0);
    lp.addRow({{x, 1.0}}, Relation::LessEq, 1.0);
    lp.addRow({{x, 1.0}}, Relation::GreaterEq, 2.0);
    LpResult r = solveLp(lp);
    EXPECT_EQ(r.status, LpStatus::Infeasible);
}

TEST(Lp, UnboundedDetected)
{
    LinearProgram lp;
    int x = lp.addVar(0.0, inf, -1.0); // minimize -x, x free upward
    lp.addRow({{x, -1.0}}, Relation::LessEq, 0.0);
    LpResult r = solveLp(lp);
    EXPECT_EQ(r.status, LpStatus::Unbounded);
}

TEST(Lp, UpperBoundsActAsConstraints)
{
    LinearProgram lp;
    int x = lp.addVar(0.0, 3.0, -1.0);
    LpResult r = solveLp(lp);
    ASSERT_TRUE(r.optimal());
    EXPECT_NEAR(r.x[x], 3.0, 1e-6);
}

TEST(Lp, LowerBoundsShiftCorrectly)
{
    // min x + y with x >= 2, y >= 3, x + y >= 7.
    LinearProgram lp;
    int x = lp.addVar(2.0, inf, 1.0);
    int y = lp.addVar(3.0, inf, 1.0);
    lp.addRow({{x, 1.0}, {y, 1.0}}, Relation::GreaterEq, 7.0);
    LpResult r = solveLp(lp);
    ASSERT_TRUE(r.optimal());
    EXPECT_NEAR(r.objective, 7.0, 1e-6);
    EXPECT_GE(r.x[x], 2.0 - 1e-9);
    EXPECT_GE(r.x[y], 3.0 - 1e-9);
}

TEST(Lp, NegativeLowerBounds)
{
    // The placer's minimax variables can be negative.
    LinearProgram lp;
    int z = lp.addVar(-100.0, inf, 1.0);
    int x = lp.addVar(0.0, 1.0, 0.0);
    lp.addRow({{x, 1.0}, {z, -1.0}}, Relation::LessEq, 0.0);
    lp.addRow({{x, 1.0}}, Relation::GreaterEq, 0.0);
    LpResult r = solveLp(lp);
    ASSERT_TRUE(r.optimal());
    // z >= x and x may be 0 => z = 0 is optimal here... but x's own
    // lower bound lets x = 0, z = 0. Minimum of z subject to z >= x.
    EXPECT_NEAR(r.objective, 0.0, 1e-6);
}

TEST(Lp, FixedVariableViaEqualBounds)
{
    LinearProgram lp;
    int x = lp.addVar(5.0, 5.0, 1.0);
    int y = lp.addVar(0.0, inf, 1.0);
    lp.addRow({{x, 1.0}, {y, 1.0}}, Relation::GreaterEq, 8.0);
    LpResult r = solveLp(lp);
    ASSERT_TRUE(r.optimal());
    EXPECT_NEAR(r.x[x], 5.0, 1e-6);
    EXPECT_NEAR(r.x[y], 3.0, 1e-6);
}

TEST(Lp, DegenerateProblemTerminates)
{
    // Classic cycling-prone instance; Bland's rule must terminate.
    LinearProgram lp = test::bealeLp();
    LpResult r = solveLp(lp);
    ASSERT_TRUE(r.optimal());
    EXPECT_NEAR(r.objective, -0.05, 1e-6);
}

TEST(Lp, BadVariableIndexPanics)
{
    LinearProgram lp;
    lp.addVar();
    EXPECT_DEATH(lp.addRow({{5, 1.0}}, Relation::LessEq, 1.0),
                 "bad variable");
}

TEST(Lp, InvalidBoundsPanic)
{
    LinearProgram lp;
    EXPECT_DEATH(lp.addVar(3.0, 2.0), "upper bound");
    EXPECT_DEATH(lp.addVar(-inf, 0.0), "finite");
}

TEST(Lp, EmptyObjectiveFeasibility)
{
    // Pure feasibility check: any solution works.
    LinearProgram lp;
    int x = lp.addVar(0.0, 10.0, 0.0);
    lp.addRow({{x, 1.0}}, Relation::GreaterEq, 5.0);
    LpResult r = solveLp(lp);
    ASSERT_TRUE(r.optimal());
    EXPECT_GE(r.x[x], 5.0 - 1e-9);
}

namespace {

using test::LpGenerator;

double
objectiveTolerance(double obj)
{
    return 1e-7 * std::max(1.0, std::abs(obj));
}

/** The solution satisfies the LP and matches its objective. */
void
expectFeasible(const LinearProgram &lp, const LpResult &r)
{
    ASSERT_EQ(r.x.size(), std::size_t(lp.numVars()));
    double obj = 0.0;
    for (int j = 0; j < lp.numVars(); ++j) {
        EXPECT_GE(r.x[j], lp.lowerBound(j) - 1e-7);
        EXPECT_LE(r.x[j], lp.upperBound(j) + 1e-7);
        obj += lp.cost(j) * r.x[j];
    }
    EXPECT_NEAR(obj, r.objective, objectiveTolerance(obj));
    for (const LinearProgram::Row &row : lp.constraints()) {
        double a = 0.0;
        for (const auto &[var, coeff] : row.coeffs)
            a += coeff * r.x[var];
        if (row.rel != Relation::GreaterEq) {
            EXPECT_LE(a, row.rhs + 1e-7);
        }
        if (row.rel != Relation::LessEq) {
            EXPECT_GE(a, row.rhs - 1e-7);
        }
    }
}

/** Same status, objectives within 1e-7 relative, feasible solution. */
void
expectMatchesReference(const LinearProgram &lp, LpStatus status,
                       const LpResult &got)
{
    LpResult want = reference::solveLpDense(lp);
    ASSERT_NE(want.status, LpStatus::IterLimit);
    ASSERT_EQ(status, want.status);
    if (want.optimal()) {
        EXPECT_NEAR(got.objective, want.objective,
                    objectiveTolerance(want.objective));
        expectFeasible(lp, got);
    }
}

} // anonymous namespace

TEST(LpDifferential, RandomLpsMatchDenseReference)
{
    LpGenerator gen(20261017);
    int seen[4] = {0, 0, 0, 0};
    for (int k = 0; k < 5000; ++k) {
        LinearProgram lp = gen.make();
        LpResult got = solveLp(lp);
        SCOPED_TRACE(k);
        expectMatchesReference(lp, got.status, got);
        if (HasFatalFailure())
            return;
        ++seen[static_cast<int>(got.status)];
    }
    // The generator reaches every outcome the solvers can agree on.
    EXPECT_GT(seen[static_cast<int>(LpStatus::Optimal)], 1000);
    EXPECT_GT(seen[static_cast<int>(LpStatus::Infeasible)], 500);
    EXPECT_GT(seen[static_cast<int>(LpStatus::Unbounded)], 200);
}

TEST(LpDifferential, BealeCyclingLpMatchesReference)
{
    // Beale's LP cycles under the textbook largest-coefficient rule;
    // the degenerate-stall switch to Bland must still terminate.
    LinearProgram lp = test::bealeLp();
    LpResult got = solveLp(lp);
    expectMatchesReference(lp, got.status, got);
    EXPECT_NEAR(got.objective, -0.05, 1e-9);
}

TEST(LpDifferential, DegenerateDuplicateRowsMatchReference)
{
    // Every vertex of a box cut by repeated, redundant rows through
    // the origin is degenerate.
    LpGenerator gen(77);
    for (int k = 0; k < 300; ++k) {
        LinearProgram lp = gen.makeDuplicateRows();
        LpResult got = solveLp(lp);
        SCOPED_TRACE(k);
        expectMatchesReference(lp, got.status, got);
        if (HasFatalFailure())
            return;
    }
}

TEST(LpDifferential, WarmResolveAfterTighteningMatchesColdReference)
{
    // Branch and bound's two warm paths: re-solve the tableau in
    // memory after a bound change (a plunge), or go back to an earlier
    // optimal node, tighten a different bound, reset every bound and
    // reload that node's basis (a best-bound pop). A cutoff must never
    // prune an LP whose optimum lies below it.
    LpGenerator gen(4242);
    int plunges = 0;
    int reloads = 0;
    int cutoffs = 0;
    for (int k = 0; k < 2500; ++k) {
        LinearProgram lp = gen.make();
        BoundedSimplex simplex(lp);
        LpStatus status = simplex.solve();
        // Earlier optimal nodes: their bounds and bases.
        std::vector<std::pair<LinearProgram, BoundedSimplex::Basis>> seen;
        for (int step = 0; step < 8; ++step) {
            bool reload = status != LpStatus::Optimal ||
                          (!seen.empty() && gen.pick(0, 2) == 0);
            if (status == LpStatus::Optimal)
                seen.emplace_back(lp, simplex.basis());
            std::size_t from = 0;
            if (reload) {
                if (seen.empty())
                    break;
                from = gen.pick(0, int(seen.size()) - 1);
                lp = seen[from].first;
            }
            int var = gen.pick(0, lp.numVars() - 1);
            double lo = lp.lowerBound(var);
            double hi = lp.upperBound(var);
            double span = std::isfinite(hi) ? hi - lo : 6.0;
            double newLo = lo + gen.pick(0, int(span));
            double newHi = std::isfinite(hi) && gen.pick(0, 1)
                         ? hi : newLo + gen.pick(0, 3);
            if (std::isfinite(hi))
                newHi = std::min(newHi, hi);
            newLo = std::min(newLo, newHi);
            lp.setBounds(var, newLo, newHi);
            if (reload) {
                simplex.resetBounds();
                for (int j = 0; j < lp.numVars(); ++j)
                    simplex.setBounds(j, lp.lowerBound(j),
                                      lp.upperBound(j));
                ASSERT_TRUE(simplex.loadBasis(seen[from].second));
                ++reloads;
            } else {
                simplex.setBounds(var, newLo, newHi);
                ++plunges;
            }
            // Some solves run under a cutoff just above or below the
            // optimum, as branch and bound's incumbent imposes.
            LpResult want = reference::solveLpDense(lp);
            double cutoff = inf;
            if (want.optimal() && gen.pick(0, 2) == 0)
                cutoff = want.objective + (gen.pick(0, 1) ? 0.5 : -0.5);
            status = simplex.solve(cutoff);
            SCOPED_TRACE(testing::Message() << k << "/" << step);
            if (status == LpStatus::Cutoff) {
                // Only an optimum at or above the cutoff is pruned.
                EXPECT_GE(want.objective, cutoff);
                ++cutoffs;
                continue;
            }
            LpResult got;
            got.status = status;
            got.x = simplex.solution();
            got.objective = simplex.objective();
            expectMatchesReference(lp, status, got);
            if (HasFatalFailure())
                return;
        }
    }
    EXPECT_GT(plunges, 3000);
    EXPECT_GT(reloads, 2000);
    EXPECT_GT(cutoffs, 300);
}

TEST(LpDifferential, CutoffStopsOnlyAboveTheOptimum)
{
    LinearProgram lp;
    int x = lp.addVar(0.0, 10.0, 1.0);
    int y = lp.addVar(0.0, 10.0, 2.0);
    lp.addRow({{x, 1.0}, {y, 1.0}}, Relation::GreaterEq, 4.0);
    lp.addRow({{x, 1.0}, {y, -1.0}}, Relation::LessEq, 1.0);
    // Optimum x = 2.5, y = 1.5, objective 5.5.
    BoundedSimplex below(lp);
    EXPECT_EQ(below.solve(5.0), LpStatus::Cutoff);
    BoundedSimplex above(lp);
    ASSERT_EQ(above.solve(6.0), LpStatus::Optimal);
    EXPECT_NEAR(above.objective(), 5.5, 1e-9);
}

TEST(LpDifferential, MalformedOrSingularBasisIsRejected)
{
    LinearProgram lp;
    int x = lp.addVar(0.0, 5.0, -1.0);
    int y = lp.addVar(0.0, 5.0, -1.0);
    lp.addRow({{x, 1.0}, {y, 1.0}}, Relation::LessEq, 6.0);
    lp.addRow({{x, 2.0}, {y, 2.0}}, Relation::LessEq, 14.0);
    BoundedSimplex simplex(lp);
    using S = BoundedSimplex::Status;
    EXPECT_FALSE(simplex.loadBasis({S::Basic}));
    // Two basics for two rows, but x and y have parallel columns.
    EXPECT_FALSE(
        simplex.loadBasis({S::Basic, S::Basic, S::AtLower, S::AtLower}));
    simplex.coldStart();
    ASSERT_EQ(simplex.solve(), LpStatus::Optimal);
    EXPECT_NEAR(simplex.objective(), -6.0, 1e-9);
}

TEST(LpDifferential, PlacerNodeLpsMatchReference)
{
    // The placer's own LPs (§6.1 clusters, and the same clusters
    // after departures, like the incremental placer's fallback solve)
    // along random branching paths, warm against a cold reference.
    std::mt19937_64 rng(5);
    int solves = 0;
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
        for (std::size_t departed : {0, 3}) {
            aqua::placer::PlacementInput input =
                aqua::exp::makeClusterInput(8, 2, "balanced", seed);
            input.models.resize(input.models.size() - departed);
            aqua::placer::PlacementMilp milp =
                aqua::placer::encodePlacement(input);
            LinearProgram lp = milp.lp;
            BoundedSimplex simplex(lp);
            LpStatus status = simplex.solve();
            for (int depth = 0; depth < 12; ++depth) {
                LpResult got;
                got.status = status;
                got.x = simplex.solution();
                got.objective = simplex.objective();
                SCOPED_TRACE(testing::Message()
                             << "seed " << seed << " departed "
                             << departed
                             << " depth " << depth);
                expectMatchesReference(lp, status, got);
                if (HasFatalFailure() || status != LpStatus::Optimal)
                    break;
                ++solves;
                // Branch on a random y, down or up from its value.
                int var = milp.integers[std::uniform_int_distribution<
                    std::size_t>(0, milp.integers.size() - 1)(rng)];
                double v = got.x[var];
                double lo = lp.lowerBound(var);
                double hi = lp.upperBound(var);
                if (rng() % 2 && std::floor(v) >= lo)
                    hi = std::floor(v);
                else if (std::ceil(v) <= hi)
                    lo = std::ceil(v);
                if (lo == lp.lowerBound(var) && hi == lp.upperBound(var))
                    lo = hi; // fix an integral value instead
                lp.setBounds(var, lo, hi);
                simplex.setBounds(var, lo, hi);
                status = simplex.solve();
            }
        }
    }
    EXPECT_GT(solves, 60);
}

//
// Branches no placement LP takes: each test reaches one, and the
// coverage job gates src/opt/lp.cc at full reach.
//

TEST(LpBranches, NonbasicOnAnInfiniteBoundMovesToTheOtherBound)
{
    // A reset bound leaves x at an upper bound that is now infinite.
    LinearProgram lp;
    int x = lp.addVar(0.0, inf, -1.0);
    lp.addRow({{x, 1.0}}, Relation::LessEq, 4.0);
    BoundedSimplex simplex(lp);
    simplex.setBounds(x, 0.0, 2.0);
    simplex.coldStart();
    ASSERT_EQ(simplex.basis()[x], BoundedSimplex::Status::AtUpper);
    simplex.resetBounds();
    ASSERT_EQ(simplex.solve(), LpStatus::Optimal);
    EXPECT_EQ(simplex.objective(), -4.0);

    // A loaded basis puts a >= row's slack at its infinite lower bound.
    LinearProgram ge;
    int y = ge.addVar(0.0, 10.0, 1.0);
    ge.addRow({{y, 1.0}}, Relation::GreaterEq, 3.0);
    BoundedSimplex loaded(ge);
    using S = BoundedSimplex::Status;
    ASSERT_TRUE(loaded.loadBasis({S::Basic, S::AtLower}));
    ASSERT_EQ(loaded.solve(), LpStatus::Optimal);
    EXPECT_EQ(loaded.basis(), (BoundedSimplex::Basis{S::Basic, S::AtUpper}));
    EXPECT_EQ(loaded.solution()[y], 3.0);
}

TEST(LpBranches, IterationLimitStopsDualAndPrimal)
{
    SimplexOptions none;
    none.maxIterations = 0;
    // Nonnegative costs: the slack basis is dual feasible, so the
    // dual simplex has the violated >= row to repair.
    LinearProgram dual;
    int x = dual.addVar(0.0, inf, 1.0);
    int y = dual.addVar(0.0, inf, 1.0);
    dual.addRow({{x, 1.0}, {y, 1.0}}, Relation::GreaterEq, 10.0);
    EXPECT_EQ(solveLp(dual, none).status, LpStatus::IterLimit);
    EXPECT_EQ(solveLp(dual).status, LpStatus::Optimal);
    // A negative cost with no upper bound needs the primal simplex.
    LinearProgram primal;
    int z = primal.addVar(0.0, inf, -1.0);
    primal.addRow({{z, 1.0}}, Relation::LessEq, 4.0);
    EXPECT_EQ(solveLp(primal, none).status, LpStatus::IterLimit);
    EXPECT_EQ(solveLp(primal).status, LpStatus::Optimal);
}

TEST(LpBranches, DegenerateChainTurnsPrimalPricingToBland)
{
    // x_{j+1} <= x_j down a chain of 60, x_0 <= 1, maximize the last:
    // each of the first 59 pivots is degenerate, so pricing goes to
    // Bland's rule after 50 of them.
    constexpr int kChain = 60;
    LinearProgram lp;
    for (int j = 0; j < kChain; ++j)
        lp.addVar(0.0, inf, j == kChain - 1 ? -1.0 : 0.0);
    for (int j = 0; j + 1 < kChain; ++j)
        lp.addRow({{j + 1, 1.0}, {j, -1.0}}, Relation::LessEq, 0.0);
    lp.addRow({{0, 1.0}}, Relation::LessEq, 1.0);
    LpResult r = solveLp(lp);
    ASSERT_TRUE(r.optimal());
    EXPECT_EQ(r.objective, -1.0);
    EXPECT_EQ(r.iterations, std::uint64_t(kChain));
}

TEST(LpBranches, RefactorOfANearSingularBasisStartsCold)
{
    // With a pivot tolerance below the refactor's 1e-9, the simplex
    // pivots on a 1e-12 entry that the periodic rebuild then rejects.
    SimplexOptions fine;
    fine.eps = 1e-15;
    LinearProgram lp;
    int x = lp.addVar(0.0, inf, -1.0);
    lp.addRow({{x, 1e-12}}, Relation::LessEq, 1.0);
    BoundedSimplex simplex(lp, fine);
    ASSERT_EQ(simplex.solve(), LpStatus::Optimal);
    // Fixing x at 0 and freeing it again takes one pivot each way.
    constexpr int kCycles = 250;
    for (int cycle = 0; cycle < kCycles; ++cycle) {
        simplex.setBounds(x, 0.0, 0.0);
        ASSERT_EQ(simplex.solve(), LpStatus::Optimal);
        ASSERT_EQ(simplex.iterations(), 1u);
        simplex.resetBounds();
        ASSERT_EQ(simplex.solve(), LpStatus::Optimal);
        ASSERT_EQ(simplex.iterations(), 1u);
        ASSERT_EQ(simplex.basis()[x], BoundedSimplex::Status::Basic);
    }
    // 501 pivots since the last load: the rebuild fails and the solve
    // starts cold, where fixing x costs no pivot.
    simplex.setBounds(x, 0.0, 0.0);
    ASSERT_EQ(simplex.solve(), LpStatus::Optimal);
    EXPECT_EQ(simplex.iterations(), 0u);
    EXPECT_EQ(simplex.objective(), 0.0);
}

TEST(LpBranches, BoxedColumnOnTheWrongBoundFlipsFree)
{
    using S = BoundedSimplex::Status;
    // At its lower bound with a negative reduced cost.
    LinearProgram lp;
    int x = lp.addVar(0.0, inf, -1.0);
    lp.addRow({{x, 1.0}}, Relation::LessEq, 4.0);
    BoundedSimplex lower(lp);
    lower.setBounds(x, 0.0, 2.0);
    ASSERT_EQ(lower.solve(), LpStatus::Optimal);
    EXPECT_EQ(lower.iterations(), 0u);
    EXPECT_EQ(lower.basis()[x], S::AtUpper);
    EXPECT_EQ(lower.objective(), -2.0);
    // At its upper bound with a positive reduced cost.
    LinearProgram up;
    int y = up.addVar(0.0, 5.0, 1.0);
    up.addRow({{y, 1.0}}, Relation::LessEq, 4.0);
    BoundedSimplex upper(up);
    ASSERT_TRUE(upper.loadBasis({S::AtUpper, S::Basic}));
    ASSERT_EQ(upper.solve(), LpStatus::Optimal);
    EXPECT_EQ(upper.iterations(), 0u);
    EXPECT_EQ(upper.basis()[y], S::AtLower);
    EXPECT_EQ(upper.objective(), 0.0);
}
