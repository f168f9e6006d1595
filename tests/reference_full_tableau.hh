/**
 * @file
 * The placer's full-tableau bounded simplex, kept as the reference for
 * the lockstep differential tests (see reference_full_tableau.cc).
 */

#ifndef AQUA_TESTS_REFERENCE_FULL_TABLEAU_HH
#define AQUA_TESTS_REFERENCE_FULL_TABLEAU_HH

#include <cmath>
#include <cstdint>
#include <vector>

#include "opt/lp.hh"

namespace aqua::opt::reference {

/**
 * Bounded-variable primal/dual simplex over the full tableau
 * B^-1 [A | I | b]: every column, basic ones included, is stored and
 * updated on each pivot. Pricing, ratio tests, tolerances and refactor
 * cadence are those of opt::BoundedSimplex, which stores only the
 * nonbasic columns; the two take the same pivots and produce the same
 * iterates bit for bit.
 */
class FullTableauSimplex
{
  public:
    /** The same basis types as BoundedSimplex, so bases compare. */
    using Status = BoundedSimplex::Status;
    using Basis = BoundedSimplex::Basis;

    explicit FullTableauSimplex(const LinearProgram &lp,
                                SimplexOptions options = {});

    /** Set a variable's bounds; the next solve() starts warm. */
    void setBounds(int var, double lo, double hi);

    /** Restore every variable's bounds to the LP's. */
    void resetBounds();

    double lowerBound(int var) const { return lo.at(var); }
    double upperBound(int var) const { return hi.at(var); }

    /**
     * Start over from the slack basis: each variable nonbasic at its
     * lower bound, or at a finite upper bound if its cost is negative.
     */
    void coldStart();

    /** The current basis. */
    Basis basis() const;

    /**
     * Rebuild the tableau for @p basis from the LP's rows.
     *
     * @return false, leaving the tableau unusable until the next
     *         coldStart() or loadBasis(), if @p basis is malformed or
     *         singular.
     */
    bool loadBasis(const Basis &basis);

    /**
     * Solve from the current basis.
     *
     * @param cutoff Stop with LpStatus::Cutoff once the dual simplex
     *        proves the optimum is at least this.
     */
    LpStatus solve(double cutoff = inf);

    /** Objective of the current basic solution. */
    double objective() const;

    /** Variable values of the current basic solution. */
    std::vector<double> solution() const;

    /** Pivots and bound flips taken by the last solve(). */
    std::uint64_t iterations() const { return iters; }

  private:
    double *row(int i) { return &tab[std::size_t(i) * width]; }
    const double *row(int i) const
    {
        return &tab[std::size_t(i) * width];
    }
    bool fixed(int j) const { return lo[j] == hi[j]; }
    /** Column @p j lies outside a bound by more than the tolerance. */
    bool belowLower(int j) const
    {
        return x[j] < lo[j] - opt.eps * (1.0 + std::abs(lo[j]));
    }
    bool aboveUpper(int j) const
    {
        return x[j] > hi[j] + opt.eps * (1.0 + std::abs(hi[j]));
    }

    void computePrimal();
    void computeDuals();
    bool dualFeasible() const;
    void pivot(int r, int q);
    /** Move nonbasic @p q by @p delta; basic values follow. */
    void shift(int q, double delta);
    void noteStep(double step);
    LpStatus dual(double cutoff);
    LpStatus primal();

    SimplexOptions opt;
    /** Variables, rows, columns, tableau row stride (columns + rhs). */
    int n = 0;
    int m = 0;
    int cols = 0;
    int width = 0;
    /** [A | I | b] as built from the LP, for cold starts and loads. */
    std::vector<double> initial;
    /** B^-1 [A | I | b]. */
    std::vector<double> tab;
    /** Column bounds now, and the LP's own. */
    std::vector<double> lo;
    std::vector<double> hi;
    std::vector<double> baseLo;
    std::vector<double> baseHi;
    std::vector<double> cost;
    /** Column values (basic values are current after each step). */
    std::vector<double> x;
    /** Reduced costs. */
    std::vector<double> d;
    std::vector<Status> status;
    /** basic[i]: the column basic in row i. */
    std::vector<int> basic;
    std::vector<int> nonzero;
    std::uint64_t iters = 0;
    std::uint64_t pivotsSinceLoad = 0;
    int degenerateRun = 0;
    bool bland = false;
};

} // namespace aqua::opt::reference

#endif // AQUA_TESTS_REFERENCE_FULL_TABLEAU_HH
