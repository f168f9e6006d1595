/**
 * @file
 * Linear-programming solver: a bounded-variable primal/dual simplex
 * on a dense tableau of the nonbasic columns.
 *
 * The substrate beneath AQUA-PLACER: the paper encodes Algorithm 1 in
 * Gurobi; we solve the same MILP with our own simplex + branch and
 * bound (opt/milp.hh). Problems are small (placement LPs have a few
 * hundred columns and a few dozen rows), so the tableau stays dense.
 * Variable bounds are implicit: a nonbasic column sits at one of its
 * bounds instead of occupying a row, so each row of the tableau is a
 * real constraint. Basic columns are unit vectors and are not stored:
 * each row holds one entry per nonbasic column plus the right-hand
 * side, every entry equal bit for bit to the full tableau's. The
 * tableau persists between solves, which lets branch and bound tighten
 * a bound and re-solve warm with the dual simplex instead of starting
 * over.
 */

#ifndef AQUA_OPT_LP_HH
#define AQUA_OPT_LP_HH

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace aqua::opt {

/** Positive infinity for bounds. */
constexpr double inf = std::numeric_limits<double>::infinity();

/** Constraint relation. */
enum class Relation { LessEq, Equal, GreaterEq };

/**
 * A linear program in minimization form:
 *   minimize c^T x  subject to  rows,  lower <= x <= upper.
 *
 * Lower bounds must be finite (they are shifted out before solving);
 * upper bounds may be +inf.
 */
class LinearProgram
{
  public:
    /** One constraint row: sparse coefficients, relation, rhs. */
    struct Row
    {
        std::vector<std::pair<int, double>> coeffs;
        Relation rel = Relation::LessEq;
        double rhs = 0.0;
    };

    /**
     * Add a variable.
     *
     * @param lo Finite lower bound.
     * @param hi Upper bound (may be opt::inf).
     * @param cost Objective coefficient.
     * @return Variable index.
     */
    int addVar(double lo = 0.0, double hi = inf, double cost = 0.0);

    /** Add a constraint. */
    void addRow(std::vector<std::pair<int, double>> coeffs,
                Relation rel, double rhs);

    /** Tighten a variable's bounds (used by branch and bound). */
    void setBounds(int var, double lo, double hi);

    int numVars() const { return static_cast<int>(lower.size()); }
    int numRows() const { return static_cast<int>(rows.size()); }

    const std::vector<Row> &constraints() const { return rows; }
    double lowerBound(int var) const { return lower.at(var); }
    double upperBound(int var) const { return upper.at(var); }
    double cost(int var) const { return costs.at(var); }

  private:
    std::vector<Row> rows;
    std::vector<double> lower;
    std::vector<double> upper;
    std::vector<double> costs;
};

/** LP solve outcome. */
enum class LpStatus
{
    Optimal,
    Infeasible,
    Unbounded,
    IterLimit,
    /**
     * The dual simplex proved the optimum is at least the caller's
     * cutoff before reaching it (BoundedSimplex::solve only).
     */
    Cutoff,
};

/** LP solution. */
struct LpResult
{
    LpStatus status = LpStatus::Infeasible;
    double objective = 0.0;
    std::vector<double> x;
    std::uint64_t iterations = 0;

    bool optimal() const { return status == LpStatus::Optimal; }
};

/** Solver tunables. */
struct SimplexOptions
{
    std::uint64_t maxIterations = 200000;
    double eps = 1e-9;
};

/**
 * Bounded-variable simplex over a tableau that persists between
 * solves.
 *
 * Columns are the LP's variables followed by one slack per row
 * (a_i x + s_i = b_i; the slack's bounds encode the relation). Every
 * nonbasic column sits at a finite bound. solve() picks its method
 * from the current basis:
 *  - dual feasible: dual simplex, which keeps dual feasibility and
 *    restores primal feasibility. After a bound change this is the
 *    warm start, and the placer's slack basis is dual feasible too,
 *    so its root needs no phase 1;
 *  - otherwise: composite primal simplex, which first minimizes the
 *    sum of bound violations (phase 1) and then the objective.
 * Both price with Dantzig's rule (most violated row, largest reduced
 * cost) and switch to Bland's smallest-index rule after a run of
 * degenerate pivots, until a pivot makes progress again. After a few
 * hundred updates the tableau is rebuilt from the LP's rows for the
 * current basis, which sheds accumulated round-off.
 *
 * The tableau stores B^-1 [N | b] only: slot k of a row holds nonbasic
 * column slotCol[k], and the last slot the right-hand side. A pivot
 * hands the entering column's slot to the leaving one, whose entries
 * (1/a_rq in the pivot row, -a_iq/a_rq elsewhere) are exactly what a
 * full-tableau update writes into it; every other entry gets that
 * update's value too, so the pivots, iterates and round-off equal
 * those of a solver that keeps all n + m columns.
 */
class BoundedSimplex
{
  public:
    /** Where a column sits in a basis. */
    enum class Status : std::uint8_t { Basic, AtLower, AtUpper };
    /** Compact basis: one status per column (variables, then rows). */
    using Basis = std::vector<Status>;

    explicit BoundedSimplex(const LinearProgram &lp,
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

    /** The slack basis's tableau [A | b] and slot maps. */
    void loadSlackBasis();
    void computePrimal();
    void computeDuals();
    bool dualFeasible() const;
    void pivot(int r, int q);
    /** Keep movable sorted after @p q entered and @p p left. */
    void swapMovable(int q, int p);
    /** Move nonbasic @p q by @p delta; basic values follow. */
    void shift(int q, double delta);
    void noteStep(double step);
    LpStatus dual(double cutoff);
    LpStatus primal();

    SimplexOptions opt;
    /** Variables, rows, columns, tableau row stride (nonbasics + rhs). */
    int n = 0;
    int m = 0;
    int cols = 0;
    int width = 0;
    /** [A | b] as built from the LP, for cold starts and loads. */
    std::vector<double> initial;
    /** B^-1 [N | b], one slot per nonbasic column. */
    std::vector<double> tab;
    /** slotCol[k]: the column in slot k; colSlot[j]: -1 if basic. */
    std::vector<int> slotCol;
    std::vector<int> colSlot;
    /** Column bounds now, and the LP's own. */
    std::vector<double> lo;
    std::vector<double> hi;
    std::vector<double> baseLo;
    std::vector<double> baseHi;
    std::vector<double> cost;
    /** Column values (basic values are current after each step). */
    std::vector<double> x;
    /** Reduced costs, by slot. */
    std::vector<double> d;
    /** Phase-1 prices, by slot. */
    std::vector<double> w;
    std::vector<Status> status;
    /** basic[i]: the column basic in row i. */
    std::vector<int> basic;
    /** Nonbasic, non-fixed columns in increasing order: the pricing
     *  and ratio-test candidates, so ties break by column index. */
    std::vector<int> movable;
    /** (slot, value) of nonbasic columns off zero, in column order. */
    std::vector<std::pair<int, double>> nonzero;
    std::uint64_t iters = 0;
    std::uint64_t pivotsSinceLoad = 0;
    int degenerateRun = 0;
    bool bland = false;
};

/** Solve cold with the bounded-variable simplex. */
LpResult solveLp(const LinearProgram &lp, SimplexOptions options = {});

} // namespace aqua::opt

#endif // AQUA_OPT_LP_HH
