#include "opt/lp.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace aqua::opt {

using aqua::sim::panic;

int
LinearProgram::addVar(double lo, double hi, double cost)
{
    if (!std::isfinite(lo))
        panic("LinearProgram: lower bounds must be finite");
    if (hi < lo)
        panic("LinearProgram: upper bound below lower bound");
    lower.push_back(lo);
    upper.push_back(hi);
    costs.push_back(cost);
    return static_cast<int>(lower.size()) - 1;
}

void
LinearProgram::addRow(std::vector<std::pair<int, double>> coeffs,
                      Relation rel, double rhs)
{
    for (const auto &[var, coeff] : coeffs) {
        if (var < 0 || var >= numVars())
            panic("LinearProgram::addRow: bad variable index %d", var);
        (void)coeff;
    }
    rows.push_back(Row{std::move(coeffs), rel, rhs});
}

void
LinearProgram::setBounds(int var, double lo, double hi)
{
    if (!std::isfinite(lo) || hi < lo)
        panic("LinearProgram::setBounds: bad bounds");
    lower.at(var) = lo;
    upper.at(var) = hi;
}

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

BoundedSimplex::BoundedSimplex(const LinearProgram &lp,
                               SimplexOptions options)
    : opt(options), n(lp.numVars()), m(lp.numRows()), cols(n + m),
      width(n + 1)
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
        dst[n] = r.rhs;
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
    d.assign(n, 0.0);
    w.assign(n, 0.0);
    status.assign(cols, Status::AtLower);
    basic.assign(m, -1);
    slotCol.assign(n, -1);
    colSlot.assign(cols, -1);
    coldStart();
}

void
BoundedSimplex::setBounds(int var, double newLo, double newHi)
{
    if (var < 0 || var >= n)
        panic("BoundedSimplex::setBounds: bad variable index %d", var);
    if (!std::isfinite(newLo) || newHi < newLo)
        panic("BoundedSimplex::setBounds: bad bounds");
    lo[var] = newLo;
    hi[var] = newHi;
}

void
BoundedSimplex::resetBounds()
{
    std::copy(baseLo.begin(), baseLo.end(), lo.begin());
    std::copy(baseHi.begin(), baseHi.end(), hi.begin());
}

void
BoundedSimplex::loadSlackBasis()
{
    tab = initial;
    for (int j = 0; j < n; ++j) {
        slotCol[j] = j;
        colSlot[j] = j;
    }
    for (int i = 0; i < m; ++i) {
        basic[i] = n + i;
        colSlot[n + i] = -1;
    }
}

void
BoundedSimplex::coldStart()
{
    loadSlackBasis();
    for (int i = 0; i < m; ++i)
        status[n + i] = Status::Basic;
    for (int j = 0; j < n; ++j) {
        status[j] = cost[j] < 0.0 && std::isfinite(hi[j])
                  ? Status::AtUpper : Status::AtLower;
    }
    pivotsSinceLoad = 0;
}

BoundedSimplex::Basis
BoundedSimplex::basis() const
{
    return status;
}

bool
BoundedSimplex::loadBasis(const Basis &target)
{
    if (static_cast<int>(target.size()) != cols ||
        std::count(target.begin(), target.end(), Status::Basic) != m)
        return false;
    loadSlackBasis();
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
            double a = std::abs(row(i)[colSlot[j]]);
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
BoundedSimplex::computePrimal()
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
            nonzero.emplace_back(colSlot[j], x[j]);
    }
    for (int i = 0; i < m; ++i) {
        const double *r = row(i);
        double v = r[n];
        for (const auto &[k, xj] : nonzero)
            v -= r[k] * xj;
        x[basic[i]] = v;
    }
}

void
BoundedSimplex::computeDuals()
{
    for (int k = 0; k < n; ++k)
        d[k] = cost[slotCol[k]];
    for (int i = 0; i < m; ++i) {
        double c = cost[basic[i]];
        if (c == 0.0)
            continue;
        const double *r = row(i);
        for (int k = 0; k < n; ++k)
            d[k] -= c * r[k];
    }
}

bool
BoundedSimplex::dualFeasible() const
{
    for (int j : movable) {
        double dj = d[colSlot[j]];
        if (status[j] == Status::AtLower ? dj < -opt.eps : dj > opt.eps)
            return false;
    }
    return true;
}

void
BoundedSimplex::pivot(int r, int q)
{
    int k = colSlot[q];
    int p = basic[r];
    double *pr = row(r);
    double inv = 1.0 / pr[k];
    // Slot k passes from q to p, whose unit entry divides to inv. A
    // zero keeps its sign, as in the full tableau, which skips zeros.
    pr[k] = 1.0;
    for (int j = 0; j < width; ++j) {
        double v = pr[j] * inv;
        pr[j] = pr[j] != 0.0 ? v : pr[j];
    }
    for (int i = 0; i < m; ++i) {
        double *pi = row(i);
        double f = pi[k];
        if (i == r || f == 0.0)
            continue;
        pi[k] = 0.0;
        for (int j = 0; j < width; ++j)
            pi[j] -= f * pr[j];
    }
    double f = d[k];
    if (f != 0.0) {
        d[k] = 0.0;
        for (int j = 0; j < n; ++j)
            d[j] -= f * pr[j];
    }
    slotCol[k] = p;
    colSlot[p] = k;
    colSlot[q] = -1;
    basic[r] = q;
    ++pivotsSinceLoad;
}

void
BoundedSimplex::swapMovable(int q, int p)
{
    movable.erase(std::lower_bound(movable.begin(), movable.end(), q));
    if (!fixed(p))
        movable.insert(
            std::lower_bound(movable.begin(), movable.end(), p), p);
}

void
BoundedSimplex::shift(int q, double delta)
{
    int k = colSlot[q];
    x[q] += delta;
    for (int i = 0; i < m; ++i)
        x[basic[i]] -= row(i)[k] * delta;
}

void
BoundedSimplex::noteStep(double step)
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
BoundedSimplex::dual(double cutoff)
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
        double pivotAbs = 0.0;
        for (int j : movable) {
            int k = colSlot[j];
            double a = rr[k];
            if (std::abs(a) <= opt.eps)
                continue;
            bool atLower = status[j] == Status::AtLower;
            double rate = atLower ? -a : a;
            if (up ? rate <= 0.0 : rate >= 0.0)
                continue;
            double dj = std::max(0.0, atLower ? d[k] : -d[k]);
            double ratio = dj / std::abs(a);
            int c = q < 0 ? -1 : compareRatio(ratio, best);
            // On a tie the larger pivot is the stabler one; Bland
            // keeps the smaller index.
            if (c < 0 || (c == 0 && !bland && std::abs(a) > pivotAbs)) {
                best = ratio;
                q = j;
                pivotAbs = std::abs(a);
            }
        }
        if (q < 0)
            return LpStatus::Infeasible;

        double target = up ? lo[p] : hi[p];
        shift(q, (x[p] - target) / rr[colSlot[q]]);
        pivot(r, q);
        swapMovable(q, p);
        status[q] = Status::Basic;
        status[p] = up ? Status::AtLower : Status::AtUpper;
        x[p] = target;
        noteStep(best);
    }
}

LpStatus
BoundedSimplex::primal()
{
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
            for (int k = 0; k < n; ++k)
                w[k] -= c * r[k];
        }
        const std::vector<double> &price = infeasible ? w : d;

        int q = -1;
        double best = 0.0;
        for (int j : movable) {
            double g = status[j] == Status::AtLower ? -price[colSlot[j]]
                                                    : price[colSlot[j]];
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
        int k = colSlot[q];
        double dir = status[q] == Status::AtLower ? 1.0 : -1.0;
        double step = hi[q] - lo[q];
        int r = -1;
        bool toUpper = false;
        for (int i = 0; i < m; ++i) {
            double a = row(i)[k];
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
                        : std::abs(a) > std::abs(row(r)[k])))) {
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
            swapMovable(q, p);
            status[q] = Status::Basic;
            status[p] = toUpper ? Status::AtUpper : Status::AtLower;
            x[p] = toUpper ? hi[p] : lo[p];
        }
        noteStep(step);
    }
}

LpStatus
BoundedSimplex::solve(double cutoff)
{
    iters = 0;
    degenerateRun = 0;
    bland = false;
    if (pivotsSinceLoad > kRefactorPivots && !loadBasis(basis()))
        coldStart();
    // Bounds, hence fixedness, change only between solves.
    movable.clear();
    for (int j = 0; j < cols; ++j) {
        if (status[j] != Status::Basic && !fixed(j))
            movable.push_back(j);
    }
    computePrimal();
    computeDuals();
    // A boxed column on the wrong bound for its reduced cost moves to
    // the other bound, which costs no pivot.
    bool flipped = false;
    for (int j : movable) {
        double dj = d[colSlot[j]];
        if (status[j] == Status::AtLower && dj < -opt.eps &&
            std::isfinite(hi[j])) {
            status[j] = Status::AtUpper;
            flipped = true;
        } else if (status[j] == Status::AtUpper && dj > opt.eps &&
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
BoundedSimplex::objective() const
{
    double obj = 0.0;
    for (int j = 0; j < n; ++j)
        obj += cost[j] * x[j];
    return obj;
}

std::vector<double>
BoundedSimplex::solution() const
{
    return std::vector<double>(x.begin(), x.begin() + n);
}

LpResult
solveLp(const LinearProgram &lp, SimplexOptions options)
{
    BoundedSimplex simplex(lp, options);
    LpResult result;
    result.status = simplex.solve();
    result.iterations = simplex.iterations();
    if (result.optimal()) {
        result.x = simplex.solution();
        result.objective = simplex.objective();
    }
    return result;
}

} // namespace aqua::opt
