"""Bounded-variable revised primal simplex with an explicit basis inverse.

Two-phase method: phase 1 starts from a crash basis and minimizes the
total infeasibility, phase 2 optimizes the true costs.  The crash
covers each row with one basic variable that absorbs the row's residual
at the starting nonbasic point: its slack when the residual lies inside
the slack's bounds, otherwise a column singleton (one nonzero, in that
row) moved up from its finite lower bound when the move stays inside
its bounds (Bixby 1992).  A covered row's artificial is locked at 0;
artificials are basic only for the remaining rows, so a start that the
crash makes feasible skips phase 1 altogether.
The system is equilibrated first (iterative geometric row/column
scaling), which the big-M rows of this package's models make
essential: raw coefficients span eight orders of magnitude.

The structural matrix is kept as its nonzeros (numpy arrays, column
by column), and the slack (±e_i) and artificial columns stay implicit.
Each basic slack or artificial covers its own row, so only the block K
of the k structural basics on the remaining rows is inverted,
explicitly: refreshed periodically from an LU factorization and
updated in O(k²) per pivot in between (product form, Dantzig &
Orchard-Hays 1954, and bordering or its reverse when a structural
column replaces a unit column or the other way round).  A pivot costs
O(nnz + m + n + k²) and memory is O(nnz + m + n + k²).  Dantzig
pricing with a lowest-index tie-break is the default; the solver falls
back to Bland's rule automatically once a degeneracy counter trips.  Every
optimum is verified against the constraint system before it is
returned; numerical distress (singular or near-singular basis, failed
verification) restarts the solve with more frequent refreshes, ending
in per-pivot mode.  All tie-breaking is deterministic.

An optimum carries its basis (``LpSolution.basis``), and a later solve
on the same engine may start from it after a change of bounds: the
nonbasic variables go to their new bounds, the basic values are
recomputed, and the composite phase restores feasibility before phase 2.
If that fails, the solve falls back to the crash start.
"""

from __future__ import annotations

import warnings
from typing import NamedTuple

import numpy as np
import scipy.linalg as sla

INF = np.inf

AT_LB, AT_UB, NB_FREE, BASIC = 0, 1, 2, 3
# the direction in which pricing may move a variable, by status
_PRICE_SIGN = np.array([1.0, -1.0, 0.0, 0.0])

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITER_LIMIT = "iteration-limit"


class SimplexFailure(RuntimeError):
    """Numerical failure that survived every restart."""


class _NumericalDistress(Exception):
    """Singular/near-singular basis or failed verification; restart."""


class BasisRecord(NamedTuple):
    """An optimal basis: the variable at each basis position, every
    variable's status (structurals, slacks, artificials) and the signs of
    the artificial columns."""
    basic: np.ndarray
    status: np.ndarray
    art_sign: np.ndarray


class LpSolution:
    __slots__ = ("status", "x", "obj", "duals", "reduced_costs", "iterations", "basis")

    def __init__(self, status, x=None, obj=None, duals=None, reduced_costs=None, iterations=0,
                 basis=None):
        self.status = status
        self.x = x
        self.obj = obj
        self.duals = duals
        self.reduced_costs = reduced_costs
        self.iterations = iterations
        self.basis = basis  # a BasisRecord at an optimum


class _Sparse:
    """A matrix as its nonzeros, column by column; products run over
    the nonzeros only (np.bincount sums each row or column in order)."""

    def __init__(self, A):
        if hasattr(A, "tocoo"):  # scipy sparse
            A = A.tocoo()
            A.sum_duplicates()
            rows, cols, vals = A.row, A.col, A.data.astype(float)
        else:
            A = np.asarray(A, dtype=float)
            rows, cols = np.nonzero(A)
            vals = A[rows, cols]
        self.m, self.n = A.shape
        keep = np.flatnonzero(vals != 0.0)
        order = keep[np.lexsort((rows[keep], cols[keep]))]
        self.rows = rows[order].astype(np.intp)
        self.cols = cols[order].astype(np.intp)
        self.vals = vals[order]
        self.colptr = np.concatenate([[0], np.cumsum(np.bincount(self.cols, minlength=self.n))])
        self.rowptr = np.concatenate([[0], np.cumsum(np.bincount(self.rows, minlength=self.m))])
        self.by_row = np.lexsort((self.cols, self.rows))

    def times(self, x):
        """A @ x"""
        return np.bincount(self.rows, self.vals * x[self.cols], self.m)

    def priced(self, y):
        """y @ A"""
        return np.bincount(self.cols, self.vals * y[self.rows], self.n)

    def column(self, j):
        a = np.zeros(self.m)
        at = slice(self.colptr[j], self.colptr[j + 1])
        a[self.rows[at]] = self.vals[at]
        return a

    def row(self, i):
        a = np.zeros(self.n)
        at = self.by_row[self.rowptr[i]:self.rowptr[i + 1]]
        a[self.cols[at]] = self.vals[at]
        return a

    def block(self, rows, cols):
        """Dense A[rows][:, cols]."""
        ri = np.full(self.m, -1)
        ri[rows] = np.arange(len(rows))
        ci = np.full(self.n, -1)
        ci[cols] = np.arange(len(cols))
        at = np.flatnonzero((ri[self.rows] >= 0) & (ci[self.cols] >= 0))
        K = np.zeros((len(rows), len(cols)))
        K[ri[self.rows[at]], ci[self.cols[at]]] = self.vals[at]
        return K

    def equilibrate(self, rounds=2):
        """Iterative geometric-mean scaling, applied in place; returns
        (row_scale, col_scale)."""
        rows, cols = self.rows, self.cols
        r = np.ones(self.m)
        c = np.ones(self.n)
        row_cnt = np.diff(self.rowptr)
        col_cnt = np.diff(self.colptr)
        absA = np.abs(self.vals)
        for _ in range(rounds):
            has = row_cnt > 0
            sums = np.bincount(rows, np.log2(absA * r[rows] * c[cols]), self.m)
            r[has] *= np.exp2(-np.round(sums[has] / row_cnt[has]))
            has = col_cnt > 0
            sums = np.bincount(cols, np.log2(absA * r[rows] * c[cols]), self.n)
            c[has] *= np.exp2(-np.round(sums[has] / col_cnt[has]))
        self.vals = self.vals * r[rows] * c[cols]
        return r, c


def _restoring_ratio(delta, xb, lob, hib, tol_r, piv_tol=1e-11):
    """Ratio test of the composite phase: (step, position, leaves to upper).

    A basic variable outside its bounds by more than tol_r stops at the
    bound it violates (moving further out is the objective's business),
    an in-bounds one at the bound it moves towards.  The smallest step
    wins; ties within 1e-12 go to the largest |delta|, then to the lowest
    position.  Nothing blocks: (INF, -1, False).
    """
    below = xb < lob - tol_r
    above = xb > hib + tol_r
    rise = delta > piv_tol
    fall = delta < -piv_tol
    to_ub = np.where(above, True, np.where(below, False, rise))
    with np.errstate(divide="ignore", invalid="ignore"):
        steps = np.maximum((np.where(to_ub, hib, lob) - xb) / delta, 0.0)
    steps = np.where((rise & ~above) | (fall & ~below), steps, INF)
    step = float(steps.min())
    if step == INF:
        return INF, -1, False
    p = int(np.argmax(np.where(steps <= step + 1e-12, np.abs(delta), -1.0)))
    return float(steps[p]), p, bool(to_ub[p])


def _rank_one(a, x, y):
    """a - outer(x, y): in place (BLAS dger, no k × k temporary) when a
    is C-contiguous; x and y must not share a's memory."""
    return sla.blas.dger(-1.0, y, x, a=a.T, overwrite_a=True).T


class _Basis:
    """The basis as [[K, 0], [L, D]] up to permutation: unit columns D =
    diag(±1) on the rows they cover, K = A[rows_t, cols_t] on the rest,
    with cols_t the structural basics.  K⁻¹ is kept explicitly; covered
    rows are substituted."""

    def __init__(self, A, art_sign):
        self.A = A  # a _Sparse
        self.m, self.n = A.m, A.n
        self.art_sign = art_sign

    def refresh(self, basis, crash=False):
        n, m = self.n, self.m
        unit = basis >= n
        rows = (basis - n) % m
        pos = np.flatnonzero(unit)
        # per position, the row its unit column covers; per row, the
        # position and sign of the unit column covering it (sign 0: none)
        self.row_of_pos = np.where(unit, rows, 0)
        self.pos_of_row = np.zeros(m, dtype=np.intp)
        self.pos_of_row[rows[pos]] = pos
        self.sign_row = np.zeros(m)
        self.sign_row[rows[pos]] = np.where(basis[pos] < n + m, 1.0, self.art_sign[rows[pos]])
        if np.count_nonzero(self.sign_row) < pos.size:
            raise _NumericalDistress("two unit columns cover one row")
        self.pos_t = np.flatnonzero(~unit)
        self.cols_t = basis[self.pos_t]
        self.rows_t = np.flatnonzero(self.sign_row == 0.0)
        k = self.pos_t.size
        self.slot = np.full(m, -1)  # position -> index in pos_t
        self.slot[self.pos_t] = np.arange(k)
        self.tslot = np.full(m, -1)  # row -> index in rows_t
        self.tslot[self.rows_t] = np.arange(k)
        K = self.A.block(self.rows_t, self.cols_t)
        if crash:  # the crash covers row i with position i: K is diagonal
            self.inv = np.diag(1.0 / np.diag(K))
            return
        self.inv = np.zeros((0, 0))
        if k == 0:
            return
        with warnings.catch_warnings():
            # an exactly zero pivot fails the test below
            warnings.simplefilter("ignore", sla.LinAlgWarning)
            lu, piv = sla.lu_factor(K, check_finite=False)
        diag = np.abs(np.diag(lu))
        if diag.min() < 1e-12 * max(1.0, diag.max()):
            raise _NumericalDistress("near-singular basis factor")
        self.inv = sla.lu_solve((lu, piv), np.eye(k), check_finite=False)

    def ftran(self, v):
        u = self.inv @ v[self.rows_t]
        x = np.zeros(self.n)
        x[self.cols_t] = u
        w = ((v - self.A.times(x)) * self.sign_row)[self.row_of_pos]
        w[self.pos_t] = u
        return w

    def btran(self, cb):
        y = cb[self.pos_of_row] * self.sign_row
        r = cb[self.pos_t]
        if y.any():
            r = r - self.A.priced(y)[self.cols_t]
        y[self.rows_t] = r @ self.inv
        return y

    def update(self, p, q, w):
        """Variable q enters at basis position p; w is its ftran."""
        n, m, inv = self.n, self.m, self.inv
        j = self.slot[p]
        if q < n:
            u = w[self.pos_t]
            if j >= 0:  # product form
                row = inv[j] / u[j]
                self.inv = inv = _rank_one(inv, u, row)
                inv[j] = row
                self.cols_t[j] = q
                return
            # K gains row r, which the leaving unit column covered, and column q
            r, k = self.row_of_pos[p], u.size
            sigma = w[p] * self.sign_row[r]
            v = self.A.row(r)[self.cols_t] @ inv / sigma
            grown = np.zeros((k + 1, k + 1))
            grown[:k, :k] = inv
            # [[inv + u v, -u/sigma], [-v, 1/sigma]]
            self.inv = _rank_one(grown, np.append(-u, 1.0), np.append(v, -1.0 / sigma))
            self.pos_t = np.append(self.pos_t, p)
            self.cols_t = np.append(self.cols_t, q)
            self.rows_t = np.append(self.rows_t, r)
            self.slot[p], self.tslot[r], self.sign_row[r] = k, k, 0.0
            return
        r = (q - n) % m
        i = self.tslot[r]
        if j >= 0:  # K loses row r and column j; the last ones take their places
            inv = _rank_one(inv, inv[:, i].copy(), inv[j] / inv[j, i])
            k = inv.shape[0] - 1
            inv[j] = inv[k]
            inv[:, i] = inv[:, k]
            self.inv = inv[:k, :k]
            for a, at in ((self.pos_t, j), (self.cols_t, j), (self.rows_t, i)):
                a[at] = a[k]
            self.pos_t, self.cols_t, self.rows_t = self.pos_t[:k], self.cols_t[:k], self.rows_t[:k]
            self.slot[self.pos_t[j:j + 1]] = j
            self.tslot[self.rows_t[i:i + 1]] = i
            self.slot[p] = self.tslot[r] = -1
        elif i >= 0:  # K's row r becomes the row the leaving unit column covered
            r_old = self.row_of_pos[p]
            col = inv[:, i].copy()
            g = self.A.row(r_old)[self.cols_t] @ inv
            g[i] -= 1.0
            self.inv = _rank_one(inv, col, g / (g[i] + 1.0))
            self.rows_t[i], self.tslot[r_old], self.tslot[r] = r_old, i, -1
            self.sign_row[r_old] = 0.0
        self.row_of_pos[p], self.pos_of_row[r] = r, p
        self.sign_row[r] = 1.0 if q < n + m else self.art_sign[r]


class BoundedSimplex:
    """min c'x  s.t.  A x (<=,==,>=) b,  lb <= x <= ub (infinities allowed).

    A is a dense array or a scipy sparse matrix.
    """

    def __init__(self, A, b, senses, feas_tol=1e-7, refactor_every=80,
                 max_iterations=None):
        self._A = _Sparse(A)
        self.m, self.n = self._A.m, self._A.n
        self.b_orig = np.asarray(b, dtype=float)
        self.senses = list(senses)
        self.feas_tol = feas_tol
        self.refactor_every = refactor_every
        self.max_iterations = max_iterations

        self.row_scale, self.col_scale = self._A.equilibrate()
        self.b_scaled = self.row_scale * self.b_orig
        self._b_ref = 1.0 + np.abs(self.b_scaled).max(initial=0.0)

        # column singletons of the scaled matrix, by ascending column:
        # the crash basis may use them to cover their row
        A = self._A
        self._single_col = np.flatnonzero(np.diff(A.colptr) == 1)
        self._single_row = A.rows[A.colptr[self._single_col]]
        self._single_coef = A.vals[A.colptr[self._single_col]]

        bad = set(self.senses) - {"<=", ">=", "=="}
        if bad:
            raise ValueError(f"bad sense {bad.pop()!r}")
        senses = np.array(self.senses, dtype=str)
        self.slack_lb = np.where(senses == ">=", -INF, 0.0)
        self.slack_ub = np.where(senses == "<=", INF, 0.0)

    def solve(self, c, lb, ub, start=None):
        """Minimize c'x within [lb, ub].

        ``start`` is the ``basis`` of an earlier optimum of this engine.
        The solve then begins there, with the nonbasic variables at their
        bounds under the new lb/ub; if the composite phase cannot make
        that basis feasible, the crash start below takes over.  Only the
        crash start declares an LP infeasible.
        """
        c = np.asarray(c, dtype=float)
        lb = np.asarray(lb, dtype=float)
        ub = np.asarray(ub, dtype=float)
        if np.any(lb > ub + 1e-15):
            return LpSolution(INFEASIBLE)
        if self.m == 0:
            return self._solve_unconstrained(c, lb, ub)
        spent = 0  # pivots of abandoned attempts; the limit is per attempt
        if start is not None:
            self._refactor_every = self.refactor_every
            try:
                sol = self._warm(c, lb, ub, start)
            except _NumericalDistress:
                sol = None
            if sol is not None:
                return sol
            spent = self._iters
        schedule = [self.refactor_every, 16, 4, 1]
        for attempt, every in enumerate(schedule):
            self._refactor_every = every
            try:
                sol = self._attempt(c, lb, ub)
            except _NumericalDistress:
                spent += self._iters
                if attempt == len(schedule) - 1:
                    raise SimplexFailure(
                        "numerical distress survived per-pivot refactorization")
                continue
            sol.iterations += spent
            return sol
        raise AssertionError("unreachable")

    def _bounds(self, lb, ub):
        """Scaled bounds of the structurals (x~ = x / col_scale) and slacks."""
        cs = self.col_scale
        with np.errstate(invalid="ignore"):
            return (np.concatenate([lb / cs, self.slack_lb]),
                    np.concatenate([ub / cs, self.slack_ub]))

    def _begin(self, lo, hi, x, status, basis, art_sign):
        """Install a starting point; the basis factor is left to the caller."""
        self._lo, self._hi = lo, hi
        self._x, self._status, self._basis = x, status, basis
        self._art_sign = art_sign
        self._fact = _Basis(self._A, art_sign)
        self._total = self.n + 2 * self.m
        self._iters = 0
        self._limit = self.max_iterations or max(20000, 60 * (self.m + self.n))

    def _attempt(self, c, lb, ub):
        m, n = self.m, self.n
        lo, hi = self._bounds(lb, ub)
        lo_fin = np.isfinite(lo)
        hi_fin = np.isfinite(hi)
        x = np.where(lo_fin, lo, np.where(hi_fin, hi, 0.0))
        status = np.where(lo_fin, AT_LB, np.where(hi_fin, AT_UB, NB_FREE)).astype(np.int8)

        # every slack sits at 0 here, so a row's slack can take the whole
        # residual as its basic value exactly when that stays in its bounds
        resid = self.b_scaled - self._A.times(x[:n])
        slack_basic = (self.slack_lb <= resid) & (resid <= self.slack_ub)
        # a row its slack cannot cover takes the first column singleton
        # that absorbs the residual by moving up from its finite lower
        # bound without passing its upper bound
        cols, rows_s = self._single_col, self._single_row
        move = resid[rows_s] / self._single_coef
        fits = (~slack_basic[rows_s] & lo_fin[cols] & (move > 0.0)
                & (lo[cols] + move <= hi[cols]))
        single_rows, first = np.unique(rows_s[fits], return_index=True)
        single_cols = cols[fits][first]
        x[single_cols] += move[fits][first]
        resid[single_rows] = 0.0
        covered = slack_basic.copy()
        covered[single_rows] = True

        # slack i is column e_i and artificial i is art_sign[i]·e_i; both
        # stay implicit: column n + i and n + m + i touch row i only
        lo = np.concatenate([lo, np.zeros(m)])
        hi = np.concatenate([hi, np.where(covered, 0.0, INF)])
        x = np.concatenate([x[:n], np.where(slack_basic, resid, 0.0),
                            np.where(covered, 0.0, np.abs(resid))])
        rows = np.arange(m)
        basis = np.where(slack_basic, n + rows, n + m + rows)
        basis[single_rows] = single_cols
        status = np.concatenate([status, np.full(m, AT_LB, dtype=np.int8)])
        status[basis] = BASIC
        self._begin(lo, hi, x, status, basis, np.where(resid >= 0.0, 1.0, -1.0))
        # the crash basis covers row i with position i: its structural
        # block is the diagonal of the singletons' coefficients
        self._fact.refresh(basis, crash=True)

        c1 = np.zeros(self._total)
        c1[n + m:] = 1.0
        st = self._optimize(c1, phase=1)
        if st == ITER_LIMIT:
            return LpSolution(ITER_LIMIT, iterations=self._iters)
        self._recompute_basics()
        artificial_mass = float(np.abs(self._x[n + m:]).sum())
        if artificial_mass > self.feas_tol * self._b_ref:
            # double-check against the true residual before declaring infeasible
            if self._infeasibility() > self.feas_tol * self._b_ref:
                return LpSolution(INFEASIBLE, iterations=self._iters)
        self._hi[n + m:] = 0.0
        self._x[n + m:][self._status[n + m:] != BASIC] = 0.0
        return self._finish(c)

    def _warm(self, c, lb, ub, start):
        """Start from a recorded basis; None if it cannot be made feasible."""
        m = self.m
        lo, hi = self._bounds(lb, ub)
        lo = np.concatenate([lo, np.zeros(m)])  # artificials stay locked at 0
        hi = np.concatenate([hi, np.zeros(m)])
        lo_fin = np.isfinite(lo)
        hi_fin = np.isfinite(hi)
        status = start.status.copy()
        # a nonbasic variable keeps its side where that bound is finite
        nonbasic = status != BASIC
        to_ub = hi_fin & ((status == AT_UB) | ~lo_fin)
        status[nonbasic] = np.where(to_ub, AT_UB, np.where(lo_fin, AT_LB, NB_FREE))[nonbasic]
        x = np.where(status == AT_UB, hi, np.where(status == AT_LB, lo, 0.0))
        self._begin(lo, hi, x, status, start.basic.copy(), start.art_sign)
        self._refresh()
        if not self._restore_feasibility():
            return None
        return self._finish(c)

    def _finish(self, c):
        """Phase 2 from a feasible basis, then verification; the result."""
        n = self.n
        cs = self.col_scale
        c_s = c * cs
        c2 = np.zeros(self._total)
        c2[:n] = c_s
        for cleanup_round in range(3):
            st = self._optimize(c2, phase=2)
            if st == ITER_LIMIT:
                return LpSolution(ITER_LIMIT, iterations=self._iters)
            if st == UNBOUNDED:
                return LpSolution(UNBOUNDED, iterations=self._iters)
            self._recompute_basics()
            if self._infeasibility() <= 50 * self.feas_tol * self._b_ref:
                break
            # tiny ratio-test damage accumulated into real violations:
            # drive the basic variables back inside their bounds, then
            # re-optimize from the repaired basis
            if not self._restore_feasibility():
                raise _NumericalDistress("feasibility restoration failed")
        else:
            raise _NumericalDistress("optimum failed feasibility verification")

        xs = self._x[:n] * cs
        obj = float(c @ xs)
        y_scaled = self._fact.btran(c2[self._basis])
        duals = y_scaled * self.row_scale
        rc = (c_s - self._A.priced(y_scaled)) / cs
        basis = BasisRecord(self._basis.copy(), self._status.copy(), self._art_sign)
        return LpSolution(OPTIMAL, x=xs, obj=obj, duals=duals, reduced_costs=rc,
                          iterations=self._iters, basis=basis)

    def _infeasibility(self):
        """Max violation of rows and bounds at the current scaled point."""
        n, m = self.n, self.m
        x = self._x
        resid = self.b_scaled - self._A.times(x[:n]) - x[n:n + m]
        art = x[n + m:]
        worst = np.abs(resid).max(initial=0.0) + np.abs(art).max(initial=0.0)
        lo_viol = np.maximum(self._lo[:n + m] - x[:n + m], 0.0)
        hi_viol = np.maximum(x[:n + m] - self._hi[:n + m], 0.0)
        viol = max(np.max(lo_viol, initial=0.0), np.max(hi_viol, initial=0.0))
        return worst + viol

    # -- core loop -----------------------------------------------------

    def _optimize(self, c, phase):
        lo, hi = self._lo, self._hi
        x, basis = self._x, self._basis
        fact = self._fact
        dual_tol = 1e-9 * (1.0 + np.abs(c).max(initial=0.0))
        piv_tol = 1e-11
        damage_budget = 1e-9
        bland = False
        degen_run = 0
        movable = lo < hi
        pivots_since_refactor = 0

        while True:
            if self._iters >= self._limit:
                return ITER_LIMIT
            self._iters += 1

            d = self._reduced_costs(c, fact.btran(c[basis]))
            viol = self._pricing(d, movable)
            q = int(viol.argmin())
            if viol[q] >= -dual_tol:
                return OPTIMAL
            if bland:
                q = int(np.argmax(viol < -dual_tol))

            direction = 1.0 if (d[q] < 0) else -1.0
            w = fact.ftran(self._column(q))

            # two-pass (Harris-style) ratio test: pass 1 caps the step so no
            # basic variable overshoots its bound by more than the budget,
            # pass 2 picks the numerically largest admissible pivot
            delta = -direction * w
            xb = x[basis]
            lob = lo[basis]
            hib = hi[basis]
            room = np.where(delta > piv_tol, hib - xb,
                            np.where(delta < -piv_tol, xb - lob, INF))
            blocked = room < INF
            room = np.maximum(room, 0.0)

            flip_theta = hi[q] - lo[q]  # INF unless both bounds are finite
            if not blocked.any():
                if np.isfinite(flip_theta):
                    self._flip(q, direction, w)
                    continue
                if phase == 1:
                    raise _NumericalDistress("phase-1 objective unbounded")
                return UNBOUNDED

            # an unblocked row has room INF, so its ratios are INF too
            absdelta = np.abs(delta)
            ratios = room / absdelta
            capped = (room + damage_budget) / absdelta
            theta_max = min(float(capped.min()), flip_theta)
            cand = ratios <= theta_max + 1e-15
            if not cand.any():
                # only the relaxed caps block; take the tightest exact ratio
                cand = ratios <= float(ratios.min()) + 1e-15
            if bland:
                order = np.nonzero(cand)[0]
                leave_pos = int(order[np.argmin(basis[order])])
            else:
                masked = np.where(cand, absdelta, -1.0)
                leave_pos = int(masked.argmax())
            theta = float(ratios[leave_pos])

            if flip_theta <= theta:
                self._flip(q, direction, w)
                continue

            if theta <= 1e-12:
                degen_run += 1
                if degen_run > 200 and not bland:
                    bland = True
            else:
                degen_run = 0

            self._pivot(q, leave_pos, direction, theta, w, bool(delta[leave_pos] > 0))
            pivots_since_refactor += 1
            if pivots_since_refactor >= self._refactor_every:
                self._refresh()
                pivots_since_refactor = 0

    def _restore_feasibility(self, max_pivots=2000):
        """Composite phase: pivot basic bound violations back to zero.

        Standard phase-1-from-an-arbitrary-basis: the working cost is -1
        for basic variables below their lower bound and +1 above their
        upper bound; violated variables block the ratio test at the bound
        they violate (arriving there makes them feasible), in-bounds
        variables block as usual.
        """
        lo, hi = self._lo, self._hi
        x, basis = self._x, self._basis
        fact = self._fact
        tol_r = 1e-9
        movable = lo < hi
        pivots_since_refactor = 0

        for _ in range(max_pivots):
            xb, lob, hib = x[basis], lo[basis], hi[basis]
            below = xb < lob - tol_r
            above = xb > hib + tol_r
            if not (below.any() or above.any()):
                self._refresh()
                return True
            self._iters += 1
            y = fact.btran(np.where(below, -1.0, np.where(above, 1.0, 0.0)))
            d = self._reduced_costs(np.zeros(self._total), y)
            viol = self._pricing(d, movable)
            q = int(np.argmin(viol))
            if viol[q] >= -1e-10:
                return False  # no entering column can reduce the violation
            direction = 1.0 if d[q] < 0 else -1.0
            w = fact.ftran(self._column(q))
            best_t, best_pos, leave_to_ub = _restoring_ratio(-direction * w, xb, lob, hib, tol_r)
            flip_theta = hi[q] - lo[q]
            if flip_theta < INF and flip_theta <= best_t:
                self._flip(q, direction, w)
                continue
            if best_pos < 0:
                return False
            self._pivot(q, best_pos, direction, best_t, w, leave_to_ub)
            pivots_since_refactor += 1
            if pivots_since_refactor >= 20:
                self._refresh()
                pivots_since_refactor = 0
        return False

    # -- pivot bookkeeping -----------------------------------------------

    def _pricing(self, d, movable):
        """Per-variable pricing violation of reduced costs d (<= 0): a
        variable may rise from its lower bound, fall from its upper bound,
        or move either way when free; basic and fixed variables (a locked
        artificial is fixed at 0) may not move."""
        status = self._status
        viol = np.minimum(_PRICE_SIGN[status] * movable * d, 0.0)
        free = status == NB_FREE
        if free.any():
            viol[free] = -np.abs(d[free])
        return viol

    def _flip(self, q, direction, w):
        """Move nonbasic q to its other bound; the basic variables follow."""
        lo, hi, x, status = self._lo, self._hi, self._x, self._status
        x[self._basis] -= direction * (hi[q] - lo[q]) * w
        to_ub = status[q] == AT_LB
        x[q] = hi[q] if to_ub else lo[q]
        status[q] = AT_UB if to_ub else AT_LB

    def _pivot(self, q, p, direction, theta, w, leave_to_ub):
        """q enters at basis position p after a step theta; the leaving
        variable goes to its upper bound if leave_to_ub, else its lower."""
        lo, hi, x, status, basis = self._lo, self._hi, self._x, self._status, self._basis
        x[basis] -= direction * theta * w
        x[q] = x[q] + direction * theta
        leaving = basis[p]
        x[leaving] = hi[leaving] if leave_to_ub else lo[leaving]
        status[leaving] = AT_UB if leave_to_ub else AT_LB
        status[q] = BASIC
        basis[p] = q
        self._fact.update(p, q, w)

    def _refresh(self):
        """Invert the basis afresh and recompute the basic values."""
        self._fact.refresh(self._basis)
        self._recompute_basics()

    def _reduced_costs(self, c, y):
        """c minus the row prices y of every column, slacks and artificials
        included."""
        return c - np.concatenate([self._A.priced(y), y, self._art_sign * y])

    def _column(self, q):
        """Column q of the working matrix, as a dense vector."""
        if q < self.n:
            return self._A.column(q)
        i = (q - self.n) % self.m
        a_q = np.zeros(self.m)
        a_q[i] = 1.0 if q < self.n + self.m else self._art_sign[i]
        return a_q

    def _recompute_basics(self):
        n, m = self.n, self.m
        x_nb = np.where(self._status != BASIC, self._x, 0.0)
        rhs = (self.b_scaled - self._A.times(x_nb[:n]) - x_nb[n:n + m]
               - self._art_sign * x_nb[n + m:])
        self._x[self._basis] = self._fact.ftran(rhs)

    def _solve_unconstrained(self, c, lb, ub):
        start = np.where(np.isfinite(lb), lb, np.where(np.isfinite(ub), ub, 0.0))
        x = np.where(c > 0, lb, np.where(c < 0, ub, start))
        if not np.isfinite(x).all():
            return LpSolution(UNBOUNDED)
        return LpSolution(OPTIMAL, x=x, obj=float(c @ x), duals=np.zeros(0),
                          reduced_costs=c.copy(), iterations=0)
