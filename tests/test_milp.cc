/**
 * @file
 * Tests for the branch-and-bound MILP solver, including proofs of
 * optimality checked against brute-force integer enumeration.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <random>

#include "exp/experiments.hh"
#include "opt/milp.hh"
#include "placer/placer.hh"

using namespace aqua::opt;

TEST(Milp, KnapsackOptimal)
{
    // max 10a + 13b + 7c, weights 3a + 4b + 2c <= 6, binary.
    LinearProgram lp;
    int a = lp.addVar(0.0, 1.0, -10.0);
    int b = lp.addVar(0.0, 1.0, -13.0);
    int c = lp.addVar(0.0, 1.0, -7.0);
    lp.addRow({{a, 3.0}, {b, 4.0}, {c, 2.0}}, Relation::LessEq, 6.0);
    MilpSolver solver(lp, {a, b, c});
    MilpResult r = solver.solve();
    ASSERT_EQ(r.status, MilpStatus::Optimal);
    EXPECT_NEAR(r.objective, -20.0, 1e-6); // b + c
    EXPECT_NEAR(r.x[a], 0.0, 1e-6);
    EXPECT_NEAR(r.x[b], 1.0, 1e-6);
    EXPECT_NEAR(r.x[c], 1.0, 1e-6);
}

TEST(Milp, IntegralityGapVsLpRelaxation)
{
    // LP relaxation picks fractional b; the MILP must not.
    LinearProgram lp;
    int a = lp.addVar(0.0, 1.0, -5.0);
    int b = lp.addVar(0.0, 1.0, -8.0);
    lp.addRow({{a, 2.0}, {b, 3.0}}, Relation::LessEq, 4.0);
    LpResult relaxed = solveLp(lp);
    ASSERT_TRUE(relaxed.optimal());
    // Some variable is fractional in the relaxation (b = 1, a = 0.5).
    double fracA = std::abs(relaxed.x[a] - std::round(relaxed.x[a]));
    double fracB = std::abs(relaxed.x[b] - std::round(relaxed.x[b]));
    EXPECT_GT(fracA + fracB, 1e-3);
    MilpSolver solver(lp, {a, b});
    MilpResult r = solver.solve();
    ASSERT_EQ(r.status, MilpStatus::Optimal);
    EXPECT_NEAR(r.objective, -8.0, 1e-6); // b alone
}

TEST(Milp, GeneralIntegerVariables)
{
    // min x + y s.t. 2x + y >= 7, integers => (0..3 combos) obj 4.
    LinearProgram lp;
    int x = lp.addVar(0.0, 10.0, 1.0);
    int y = lp.addVar(0.0, 10.0, 1.0);
    lp.addRow({{x, 2.0}, {y, 1.0}}, Relation::GreaterEq, 7.0);
    MilpSolver solver(lp, {x, y});
    MilpResult r = solver.solve();
    ASSERT_EQ(r.status, MilpStatus::Optimal);
    EXPECT_NEAR(r.objective, 4.0, 1e-6); // e.g. x=3, y=1 or x=4... 4
}

TEST(Milp, AssignmentProblem)
{
    // 3x3 assignment with cost matrix; optimal is the diagonal-ish
    // permutation with cost 1 + 2 + 1 = 4? Matrix:
    //   [1 5 9]
    //   [6 2 8]
    //   [7 4 1]  => pick (0,0), (1,1), (2,2) = 4.
    const double cost[3][3] = {{1, 5, 9}, {6, 2, 8}, {7, 4, 1}};
    LinearProgram lp;
    int x[3][3];
    std::vector<int> ints;
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 3; ++j) {
            x[i][j] = lp.addVar(0.0, 1.0, cost[i][j]);
            ints.push_back(x[i][j]);
        }
    for (int i = 0; i < 3; ++i) {
        lp.addRow({{x[i][0], 1.0}, {x[i][1], 1.0}, {x[i][2], 1.0}},
                  Relation::Equal, 1.0);
        lp.addRow({{x[0][i], 1.0}, {x[1][i], 1.0}, {x[2][i], 1.0}},
                  Relation::Equal, 1.0);
    }
    MilpSolver solver(lp, ints);
    MilpResult r = solver.solve();
    ASSERT_EQ(r.status, MilpStatus::Optimal);
    EXPECT_NEAR(r.objective, 4.0, 1e-6);
}

TEST(Milp, InfeasibleInstance)
{
    LinearProgram lp;
    int x = lp.addVar(0.0, 1.0, 1.0);
    lp.addRow({{x, 1.0}}, Relation::GreaterEq, 2.0);
    MilpSolver solver(lp, {x});
    EXPECT_EQ(solver.solve().status, MilpStatus::Infeasible);
}

TEST(Milp, FractionalOnlyBetweenIntegerPoints)
{
    // x in [0, 1], need x >= 0.3 and x <= 0.7: LP feasible, integer
    // infeasible.
    LinearProgram lp;
    int x = lp.addVar(0.0, 1.0, 1.0);
    lp.addRow({{x, 1.0}}, Relation::GreaterEq, 0.3);
    lp.addRow({{x, 1.0}}, Relation::LessEq, 0.7);
    MilpSolver solver(lp, {x});
    EXPECT_EQ(solver.solve().status, MilpStatus::Infeasible);
}

TEST(Milp, SeedBoundPrunesButKeepsOptimum)
{
    LinearProgram lp;
    int a = lp.addVar(0.0, 1.0, -10.0);
    int b = lp.addVar(0.0, 1.0, -13.0);
    int c = lp.addVar(0.0, 1.0, -7.0);
    lp.addRow({{a, 3.0}, {b, 4.0}, {c, 2.0}}, Relation::LessEq, 6.0);
    MilpSolver solver(lp, {a, b, c});
    solver.setIncumbentBound(-20.0); // exactly the optimum
    MilpResult r = solver.solve();
    ASSERT_EQ(r.status, MilpStatus::Optimal);
    EXPECT_NEAR(r.objective, -20.0, 1e-6);
}

TEST(Milp, NodeLimitYieldsFeasibleOrUnknown)
{
    LinearProgram lp;
    std::vector<int> ints;
    // A 12-var knapsack; node limit 1 explores only the root.
    std::vector<std::pair<int, double>> row;
    for (int i = 0; i < 12; ++i) {
        int v = lp.addVar(0.0, 1.0, -(1.0 + i % 5));
        ints.push_back(v);
        row.emplace_back(v, 1.0 + (i * 7) % 3);
    }
    lp.addRow(row, Relation::LessEq, 9.0);
    MilpOptions opt;
    opt.maxNodes = 1;
    MilpSolver solver(lp, ints, opt);
    MilpResult r = solver.solve();
    EXPECT_TRUE(r.limitHit);
    EXPECT_TRUE(r.status == MilpStatus::Feasible ||
                r.status == MilpStatus::Unknown);
}

TEST(Milp, ContinuousVariablesStayContinuous)
{
    // Only x is integer; y may be fractional.
    LinearProgram lp;
    int x = lp.addVar(0.0, 10.0, -1.0);
    int y = lp.addVar(0.0, 10.0, -1.0);
    lp.addRow({{x, 1.0}, {y, 2.0}}, Relation::LessEq, 8.5);
    MilpSolver solver(lp, {x});
    MilpResult r = solver.solve();
    ASSERT_EQ(r.status, MilpStatus::Optimal);
    double frac = std::abs(r.x[x] - std::round(r.x[x]));
    EXPECT_LT(frac, 1e-6);
    // Optimal: x = 8 (integer), y = 0.25 => obj -8.25.
    EXPECT_NEAR(r.objective, -8.25, 1e-6);
}

TEST(Milp, CountsNodesAndIterations)
{
    LinearProgram lp;
    int a = lp.addVar(0.0, 1.0, -3.0);
    int b = lp.addVar(0.0, 1.0, -2.0);
    lp.addRow({{a, 1.0}, {b, 1.0}}, Relation::LessEq, 1.2);
    MilpSolver solver(lp, {a, b});
    MilpResult r = solver.solve();
    EXPECT_GE(r.nodesExplored, 1u);
    EXPECT_GE(r.lpIterations, 1u);
}

namespace {

LinearProgram
knapsack()
{
    LinearProgram lp;
    int a = lp.addVar(0.0, 1.0, -10.0);
    int b = lp.addVar(0.0, 1.0, -13.0);
    int c = lp.addVar(0.0, 1.0, -7.0);
    lp.addRow({{a, 3.0}, {b, 4.0}, {c, 2.0}}, Relation::LessEq, 6.0);
    return lp;
}

} // anonymous namespace

TEST(Milp, UnlimitedOrHugeWallBudgetMeansNoDeadline)
{
    // The deadline saturates instead of overflowing the clock's
    // nanosecond count (undefined behaviour before).
    for (double seconds : {inf, 1e12, 1e300}) {
        MilpOptions opt;
        opt.maxSeconds = seconds;
        MilpSolver solver(knapsack(), {0, 1, 2}, opt);
        MilpResult r = solver.solve();
        ASSERT_EQ(r.status, MilpStatus::Optimal) << seconds;
        EXPECT_FALSE(r.limitHit);
        EXPECT_NEAR(r.objective, -20.0, 1e-6);
    }
}

TEST(Milp, RandomIntegerProgramsMatchEnumeration)
{
    // Up to four integer variables in small boxes: enumerate every
    // lattice point for the true optimum.
    std::mt19937_64 rng(99);
    auto pick = [&](int lo, int hi) {
        return std::uniform_int_distribution<int>(lo, hi)(rng);
    };
    int optimal = 0;
    for (int k = 0; k < 300; ++k) {
        LinearProgram lp;
        int vars = pick(1, 4);
        std::vector<int> ints;
        for (int j = 0; j < vars; ++j)
            ints.push_back(lp.addVar(pick(-2, 0), pick(1, 3),
                                     pick(-6, 6)));
        int rows = pick(1, 4);
        for (int i = 0; i < rows; ++i) {
            std::vector<std::pair<int, double>> coeffs;
            for (int j = 0; j < vars; ++j)
                coeffs.emplace_back(j, pick(-3, 3) + 0.5 * pick(0, 1));
            int rel = pick(0, 3);
            lp.addRow(coeffs,
                      rel == 0 ? Relation::GreaterEq
                      : rel == 1 ? Relation::Equal
                                 : Relation::LessEq,
                      pick(-4, 6) + 0.5 * pick(0, 1));
        }

        double best = inf;
        std::vector<double> x(vars);
        std::function<void(int)> walk = [&](int j) {
            if (j == vars) {
                for (const LinearProgram::Row &row : lp.constraints()) {
                    double a = 0.0;
                    for (const auto &[var, coeff] : row.coeffs)
                        a += coeff * x[var];
                    if ((row.rel != Relation::GreaterEq &&
                         a > row.rhs + 1e-9) ||
                        (row.rel != Relation::LessEq &&
                         a < row.rhs - 1e-9))
                        return;
                }
                double obj = 0.0;
                for (int v = 0; v < vars; ++v)
                    obj += lp.cost(v) * x[v];
                best = std::min(best, obj);
                return;
            }
            for (double v = lp.lowerBound(j); v <= lp.upperBound(j);
                 v += 1.0) {
                x[j] = v;
                walk(j + 1);
            }
        };
        walk(0);

        MilpResult r = MilpSolver(lp, ints).solve();
        SCOPED_TRACE(k);
        if (!std::isfinite(best)) {
            EXPECT_EQ(r.status, MilpStatus::Infeasible);
            continue;
        }
        ASSERT_EQ(r.status, MilpStatus::Optimal);
        EXPECT_NEAR(r.objective, best, 1e-7);
        ++optimal;
    }
    EXPECT_GT(optimal, 100);
}

TEST(Milp, SmallPlacerInstancesProveTheEnumeratedOptimum)
{
    // Every assignment of models to servers within the GPU count.
    for (const char *split : {"balanced", "llm-heavy"}) {
        for (std::size_t servers : {3, 4}) {
            for (std::uint64_t seed = 0; seed < 4; ++seed) {
                aqua::placer::PlacementInput input =
                    aqua::exp::makeClusterInput(servers, 2, split, seed);
                std::size_t models = input.models.size();
                std::vector<int> assign(models, 0);
                std::vector<std::size_t> load(servers, 0);
                double best = inf;
                std::function<void(std::size_t)> walk =
                    [&](std::size_t m) {
                        if (m == models) {
                            best = std::min(
                                best, aqua::placer::evaluateObjective(
                                          input, assign));
                            return;
                        }
                        for (std::size_t s = 0; s < servers; ++s) {
                            if (load[s] == input.gpusPerServer)
                                continue;
                            ++load[s];
                            assign[m] = static_cast<int>(s);
                            walk(m + 1);
                            --load[s];
                        }
                    };
                walk(0);

                aqua::placer::Placement p =
                    aqua::placer::AquaPlacer().place(input);
                SCOPED_TRACE(testing::Message()
                             << split << " " << servers << "x2 seed "
                             << seed);
                EXPECT_TRUE(p.optimal);
                EXPECT_NEAR(p.objective, best, 1e-6 * std::abs(best));
            }
        }
    }
}
