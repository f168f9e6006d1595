/**
 * @file
 * LP instances shared by the LP differential and lockstep tests:
 * random small-integer LPs, Beale's cycling LP, and boxes cut by
 * duplicated rows through the origin.
 */

#ifndef AQUA_TESTS_LP_GENERATOR_HH
#define AQUA_TESTS_LP_GENERATOR_HH

#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include "opt/lp.hh"

namespace aqua::opt::test {

/** Random small-integer LPs: bounded, free-above and fixed columns,
 *  all three relations, zero and negative right-hand sides. */
class LpGenerator
{
  public:
    explicit LpGenerator(std::uint64_t seed) : rng(seed) {}

    int
    pick(int lo, int hi)
    {
        return std::uniform_int_distribution<int>(lo, hi)(rng);
    }

    LinearProgram
    make()
    {
        LinearProgram lp;
        int vars = pick(1, 7);
        int rows = pick(0, 6);
        for (int j = 0; j < vars; ++j) {
            double lo = pick(0, 2) == 0 ? pick(-4, 3) : 0.0;
            double hi = pick(0, 3) == 0 ? inf : lo + pick(0, 6);
            lp.addVar(lo, hi, pick(-5, 5));
        }
        for (int i = 0; i < rows; ++i) {
            std::vector<std::pair<int, double>> coeffs;
            for (int j = 0; j < vars; ++j) {
                if (pick(0, 9) < 6)
                    coeffs.emplace_back(j, pick(-4, 4));
            }
            int rel = pick(0, 4);
            // Zero right-hand sides make degenerate vertices common.
            double rhs = pick(0, 2) == 0 ? 0.0 : pick(-10, 12);
            lp.addRow(std::move(coeffs),
                      rel < 2   ? Relation::LessEq
                      : rel < 4 ? Relation::GreaterEq
                                : Relation::Equal,
                      rhs);
        }
        return lp;
    }

    /**
     * A box cut by repeated, redundant rows through the origin: every
     * vertex is degenerate.
     */
    LinearProgram
    makeDuplicateRows()
    {
        LinearProgram lp;
        int vars = pick(2, 6);
        for (int j = 0; j < vars; ++j)
            lp.addVar(0.0, pick(0, 1) ? inf : 3.0, pick(-3, 3));
        std::vector<std::pair<int, double>> coeffs;
        for (int j = 0; j < vars; ++j)
            coeffs.emplace_back(j, pick(-2, 2));
        for (int copy = 0; copy < 3; ++copy)
            lp.addRow(coeffs, Relation::LessEq, 0.0);
        lp.addRow(coeffs, Relation::Equal, 0.0);
        std::vector<std::pair<int, double>> sum;
        for (int j = 0; j < vars; ++j)
            sum.emplace_back(j, 1.0);
        lp.addRow(sum, Relation::LessEq, pick(0, 4));
        return lp;
    }

  private:
    std::mt19937_64 rng;
};

/**
 * Beale's LP, which cycles under the textbook largest-coefficient
 * rule. Optimum -0.05.
 */
inline LinearProgram
bealeLp()
{
    LinearProgram lp;
    int x1 = lp.addVar(0.0, inf, -0.75);
    int x2 = lp.addVar(0.0, inf, 150.0);
    int x3 = lp.addVar(0.0, inf, -0.02);
    int x4 = lp.addVar(0.0, inf, 6.0);
    lp.addRow({{x1, 0.25}, {x2, -60.0}, {x3, -0.04}, {x4, 9.0}},
              Relation::LessEq, 0.0);
    lp.addRow({{x1, 0.5}, {x2, -90.0}, {x3, -0.02}, {x4, 3.0}},
              Relation::LessEq, 0.0);
    lp.addRow({{x3, 1.0}}, Relation::LessEq, 1.0);
    return lp;
}

} // namespace aqua::opt::test

#endif // AQUA_TESTS_LP_GENERATOR_HH
