/**
 * @file
 * The bounded simplex the placer ran before its tableau dropped the
 * basic columns, kept in the test tree as the lockstep reference: the
 * same Dantzig/Bland pricing, dual and composite primal methods and
 * refactor cadence as opt::BoundedSimplex, over B^-1 [A | I | b] with
 * a gather list of each pivot row's nonzeros. Nothing under src/ links
 * it.
 */

#include "tests/reference_full_tableau.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace aqua::opt::reference {

using aqua::sim::panic;

namespace {

/** Consecutive degenerate pivots before pricing turns to Bland. */
constexpr int kStallPivots = 50;
/** Tableau updates between rebuilds from the LP's rows. */
constexpr std::uint64_t kRefactorPivots = 500;
/** Steps at most this long make no progress. */
constexpr double kDegenerateStep = 1e-12;

/** -1 if ratio @p a is clearly below @p b, 1 if clearly above, 0 on
 *  a tie. */
int
compareRatio(double a, double b)
{
    if (!std::isfinite(b))
        return a < b ? -1 : 0;
    double tol = 1e-12 * (1.0 + std::abs(b));
    return a < b - tol ? -1 : a > b + tol ? 1 : 0;
}

} // anonymous namespace

FullTableauSimplex::FullTableauSimplex(const LinearProgram &lp,
                                       SimplexOptions options)
    : opt(options), n(lp.numVars()), m(lp.numRows()), cols(n + m),
      width(cols + 1)
{
    initial.assign(std::size_t(m) * width, 0.0);
    lo.resize(cols);
    hi.resize(cols);
    cost.assign(cols, 0.0);
    for (int j = 0; j < n; ++j) {
        lo[j] = lp.lowerBound(j);
        hi[j] = lp.upperBound(j);
        cost[j] = lp.cost(j);
    }
    for (int i = 0; i < m; ++i) {
        const LinearProgram::Row &r = lp.constraints()[i];
        double *dst = &initial[std::size_t(i) * width];
        for (const auto &[var, coeff] : r.coeffs)
            dst[var] += coeff;
        dst[n + i] = 1.0;
        dst[cols] = r.rhs;
        // a_i x + s_i = b_i: the slack's sign encodes the relation.
        switch (r.rel) {
          case Relation::LessEq:
            lo[n + i] = 0.0;
            hi[n + i] = inf;
            break;
          case Relation::GreaterEq:
            lo[n + i] = -inf;
            hi[n + i] = 0.0;
            break;
          case Relation::Equal:
            lo[n + i] = 0.0;
            hi[n + i] = 0.0;
            break;
        }
    }
    baseLo.assign(lo.begin(), lo.begin() + n);
    baseHi.assign(hi.begin(), hi.begin() + n);
    x.assign(cols, 0.0);
    d.assign(cols, 0.0);
    status.assign(cols, Status::AtLower);
    basic.assign(m, -1);
    coldStart();
}

void
FullTableauSimplex::setBounds(int var, double newLo, double newHi)
{
    if (var < 0 || var >= n)
        panic("FullTableauSimplex::setBounds: bad variable index %d", var);
    if (!std::isfinite(newLo) || newHi < newLo)
        panic("FullTableauSimplex::setBounds: bad bounds");
    lo[var] = newLo;
    hi[var] = newHi;
}

void
FullTableauSimplex::resetBounds()
{
    std::copy(baseLo.begin(), baseLo.end(), lo.begin());
    std::copy(baseHi.begin(), baseHi.end(), hi.begin());
}

void
FullTableauSimplex::coldStart()
{
    tab = initial;
    for (int i = 0; i < m; ++i) {
        basic[i] = n + i;
        status[n + i] = Status::Basic;
    }
    for (int j = 0; j < n; ++j) {
        status[j] = cost[j] < 0.0 && std::isfinite(hi[j])
                  ? Status::AtUpper : Status::AtLower;
    }
    pivotsSinceLoad = 0;
}

FullTableauSimplex::Basis
FullTableauSimplex::basis() const
{
    return status;
}

bool
FullTableauSimplex::loadBasis(const Basis &target)
{
    if (static_cast<int>(target.size()) != cols ||
        std::count(target.begin(), target.end(), Status::Basic) != m)
        return false;
    tab = initial;
    for (int i = 0; i < m; ++i)
        basic[i] = n + i;
    // Gauss-Jordan: bring each basic variable in on the row, among
    // those still held by a departing slack, with the largest entry.
    for (int j = 0; j < n; ++j) {
        if (target[j] != Status::Basic)
            continue;
        int r = -1;
        double best = 1e-9;
        for (int i = 0; i < m; ++i) {
            if (basic[i] < n || target[basic[i]] == Status::Basic)
                continue;
            double a = std::abs(row(i)[j]);
            if (a > best) {
                best = a;
                r = i;
            }
        }
        if (r < 0)
            return false;
        pivot(r, j);
    }
    status = target;
    pivotsSinceLoad = 0;
    return true;
}

void
FullTableauSimplex::computePrimal()
{
    nonzero.clear();
    for (int j = 0; j < cols; ++j) {
        if (status[j] == Status::Basic)
            continue;
        if (status[j] == Status::AtLower && !std::isfinite(lo[j]))
            status[j] = Status::AtUpper;
        else if (status[j] == Status::AtUpper && !std::isfinite(hi[j]))
            status[j] = Status::AtLower;
        x[j] = status[j] == Status::AtLower ? lo[j] : hi[j];
        if (x[j] != 0.0)
            nonzero.push_back(j);
    }
    for (int i = 0; i < m; ++i) {
        const double *r = row(i);
        double v = r[cols];
        for (int j : nonzero)
            v -= r[j] * x[j];
        x[basic[i]] = v;
    }
}

void
FullTableauSimplex::computeDuals()
{
    std::copy(cost.begin(), cost.end(), d.begin());
    for (int i = 0; i < m; ++i) {
        double c = cost[basic[i]];
        if (c == 0.0)
            continue;
        const double *r = row(i);
        for (int j = 0; j < cols; ++j)
            d[j] -= c * r[j];
    }
    for (int i = 0; i < m; ++i)
        d[basic[i]] = 0.0;
}

bool
FullTableauSimplex::dualFeasible() const
{
    for (int j = 0; j < cols; ++j) {
        if (status[j] == Status::Basic || fixed(j))
            continue;
        if (status[j] == Status::AtLower ? d[j] < -opt.eps
                                         : d[j] > opt.eps)
            return false;
    }
    return true;
}

void
FullTableauSimplex::pivot(int r, int q)
{
    double *pr = row(r);
    double inv = 1.0 / pr[q];
    nonzero.clear();
    for (int j = 0; j < width; ++j) {
        if (pr[j] != 0.0) {
            pr[j] *= inv;
            nonzero.push_back(j);
        }
    }
    pr[q] = 1.0;
    for (int i = 0; i < m; ++i) {
        double *pi = row(i);
        double f = pi[q];
        if (i == r || f == 0.0)
            continue;
        for (int j : nonzero)
            pi[j] -= f * pr[j];
        pi[q] = 0.0;
    }
    double f = d[q];
    if (f != 0.0) {
        for (int j : nonzero) {
            if (j < cols)
                d[j] -= f * pr[j];
        }
        d[q] = 0.0;
    }
    basic[r] = q;
    ++pivotsSinceLoad;
}

void
FullTableauSimplex::shift(int q, double delta)
{
    x[q] += delta;
    for (int i = 0; i < m; ++i)
        x[basic[i]] -= row(i)[q] * delta;
}

void
FullTableauSimplex::noteStep(double step)
{
    ++iters;
    if (step > kDegenerateStep) {
        degenerateRun = 0;
        bland = false;
    } else if (++degenerateRun >= kStallPivots) {
        bland = true;
    }
}

LpStatus
FullTableauSimplex::dual(double cutoff)
{
    for (;;) {
        if (objective() >= cutoff)
            return LpStatus::Cutoff;
        // Leaving row: the basic variable furthest outside its bounds.
        int r = -1;
        double worst = 0.0;
        for (int i = 0; i < m; ++i) {
            int p = basic[i];
            bool low = belowLower(p);
            if (!low && !aboveUpper(p))
                continue;
            double viol = low ? lo[p] - x[p] : x[p] - hi[p];
            if (bland ? r < 0 || p < basic[r] : viol > worst) {
                worst = viol;
                r = i;
            }
        }
        if (r < 0)
            return LpStatus::Optimal;
        if (iters >= opt.maxIterations)
            return LpStatus::IterLimit;

        // Entering column: the smallest dual ratio among columns whose
        // move pushes the leaving variable toward its bound.
        int p = basic[r];
        bool up = belowLower(p);
        const double *rr = row(r);
        int q = -1;
        double best = inf;
        for (int j = 0; j < cols; ++j) {
            if (status[j] == Status::Basic || fixed(j))
                continue;
            double a = rr[j];
            if (std::abs(a) <= opt.eps)
                continue;
            bool atLower = status[j] == Status::AtLower;
            double rate = atLower ? -a : a;
            if (up ? rate <= 0.0 : rate >= 0.0)
                continue;
            double dj = std::max(0.0, atLower ? d[j] : -d[j]);
            double ratio = dj / std::abs(a);
            int c = q < 0 ? -1 : compareRatio(ratio, best);
            // On a tie the larger pivot is the stabler one; Bland
            // keeps the smaller index.
            if (c < 0 ||
                (c == 0 && !bland && std::abs(a) > std::abs(rr[q]))) {
                best = ratio;
                q = j;
            }
        }
        if (q < 0)
            return LpStatus::Infeasible;

        double target = up ? lo[p] : hi[p];
        shift(q, (x[p] - target) / rr[q]);
        pivot(r, q);
        status[q] = Status::Basic;
        status[p] = up ? Status::AtLower : Status::AtUpper;
        x[p] = target;
        noteStep(best);
    }
}

LpStatus
FullTableauSimplex::primal()
{
    std::vector<double> w(cols);
    for (;;) {
        // Phase 1 prices the sum of bound violations; once there are
        // none, phase 2 prices the objective.
        bool infeasible = false;
        std::fill(w.begin(), w.end(), 0.0);
        for (int i = 0; i < m; ++i) {
            int p = basic[i];
            double c = belowLower(p) ? -1.0 : aboveUpper(p) ? 1.0 : 0.0;
            if (c == 0.0)
                continue;
            infeasible = true;
            const double *r = row(i);
            for (int j = 0; j < cols; ++j)
                w[j] -= c * r[j];
        }
        const std::vector<double> &price = infeasible ? w : d;

        int q = -1;
        double best = 0.0;
        for (int j = 0; j < cols; ++j) {
            if (status[j] == Status::Basic || fixed(j))
                continue;
            double g = status[j] == Status::AtLower ? -price[j]
                                                    : price[j];
            if (g <= opt.eps)
                continue;
            if (bland) {
                q = j;
                break;
            }
            if (g > best) {
                best = g;
                q = j;
            }
        }
        if (q < 0)
            return infeasible ? LpStatus::Infeasible : LpStatus::Optimal;
        if (iters >= opt.maxIterations)
            return LpStatus::IterLimit;

        // Ratio test: the entering column moves in direction dir until
        // it reaches its other bound or a basic variable reaches one.
        // In phase 1 a violated basic stops where it turns feasible.
        double dir = status[q] == Status::AtLower ? 1.0 : -1.0;
        double step = hi[q] - lo[q];
        int r = -1;
        bool toUpper = false;
        for (int i = 0; i < m; ++i) {
            double a = row(i)[q];
            if (std::abs(a) <= opt.eps)
                continue;
            double g = -a * dir;
            int p = basic[i];
            bool below = infeasible && belowLower(p);
            bool above = infeasible && aboveUpper(p);
            double lim;
            bool upper;
            if (g > 0.0) {
                if (below) {
                    lim = (lo[p] - x[p]) / g;
                    upper = false;
                } else if (std::isfinite(hi[p]) && !above) {
                    lim = std::max(0.0, hi[p] - x[p]) / g;
                    upper = true;
                } else {
                    continue;
                }
            } else {
                if (above) {
                    lim = (hi[p] - x[p]) / g;
                    upper = true;
                } else if (std::isfinite(lo[p]) && !below) {
                    lim = std::max(0.0, x[p] - lo[p]) / -g;
                    upper = false;
                } else {
                    continue;
                }
            }
            // On a tie a bound flip beats a pivot, then Bland takes the
            // smaller basic index and Dantzig the larger pivot.
            int c = compareRatio(lim, step);
            if (c < 0 ||
                (c == 0 && r >= 0 &&
                 (bland ? p < basic[r]
                        : std::abs(a) > std::abs(row(r)[q])))) {
                step = lim;
                r = i;
                toUpper = upper;
            }
        }
        if (!std::isfinite(step)) {
            // Phase 1 always has a violated row to stop at; only the
            // objective can fall without bound.
            return infeasible ? LpStatus::Infeasible
                              : LpStatus::Unbounded;
        }

        shift(q, dir * step);
        if (r < 0) {
            status[q] = dir > 0.0 ? Status::AtUpper : Status::AtLower;
            x[q] = dir > 0.0 ? hi[q] : lo[q];
        } else {
            int p = basic[r];
            pivot(r, q);
            status[q] = Status::Basic;
            status[p] = toUpper ? Status::AtUpper : Status::AtLower;
            x[p] = toUpper ? hi[p] : lo[p];
        }
        noteStep(step);
    }
}

LpStatus
FullTableauSimplex::solve(double cutoff)
{
    iters = 0;
    degenerateRun = 0;
    bland = false;
    if (pivotsSinceLoad > kRefactorPivots && !loadBasis(basis()))
        coldStart();
    computePrimal();
    computeDuals();
    // A boxed column on the wrong bound for its reduced cost moves to
    // the other bound, which costs no pivot.
    bool flipped = false;
    for (int j = 0; j < cols; ++j) {
        if (status[j] == Status::Basic || fixed(j))
            continue;
        if (status[j] == Status::AtLower && d[j] < -opt.eps &&
            std::isfinite(hi[j])) {
            status[j] = Status::AtUpper;
            flipped = true;
        } else if (status[j] == Status::AtUpper && d[j] > opt.eps &&
                   std::isfinite(lo[j])) {
            status[j] = Status::AtLower;
            flipped = true;
        }
    }
    if (flipped)
        computePrimal();
    if (dualFeasible()) {
        LpStatus s = dual(cutoff);
        // Round-off can cost dual feasibility on the way; the primal
        // simplex then finishes from the primal-feasible basis.
        if (s != LpStatus::Optimal || dualFeasible())
            return s;
    }
    return primal();
}

double
FullTableauSimplex::objective() const
{
    double obj = 0.0;
    for (int j = 0; j < n; ++j)
        obj += cost[j] * x[j];
    return obj;
}

std::vector<double>
FullTableauSimplex::solution() const
{
    return std::vector<double>(x.begin(), x.begin() + n);
}

} // namespace aqua::opt::reference
