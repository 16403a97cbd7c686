"""Bounded-variable revised simplex with an explicit basis inverse:
primal from the crash start, dual from a warm start.

Two phases in one pivot loop.  Phase 1 is composite: each pass costs
the basic variables outside their bounds, -1 below the lower bound and
+1 above the upper, and a violated basic variable blocks the ratio test
only at the bound it violates, so no artificial column is needed
(Maros 2003, ch. 9).  Phase 2 optimizes the true costs.  The crash
start covers each row with one basic variable that absorbs the row's
residual at the starting nonbasic point: a column singleton (one
nonzero, in that row) moved up from its finite lower bound when the
residual lies outside the slack's bounds and the move stays inside the
singleton's, otherwise the row's slack, at the residual even when that
lies outside the slack's bounds.  A start that the crash makes feasible
skips phase 1 altogether.
The system is equilibrated first (iterative geometric row/column
scaling), which the big-M rows of this package's models make
essential: raw coefficients span eight orders of magnitude.

The structural matrix is kept as its nonzeros (numpy arrays, column
by column), and the slack columns (e_i) stay implicit.  Each basic
slack covers its own row, so only the block K of the k structural
basics on the remaining rows is inverted, explicitly: refreshed
periodically from an LU factorization and updated in O(k²) per pivot
in between (product form, Dantzig & Orchard-Hays 1954, and bordering
or its reverse when a structural column replaces a slack or the other
way round).  A pivot costs O(nnz + m + n + k²) and memory is
O(nnz + m + n + k²).  Dantzig pricing with a lowest-index tie-break is
the default; the solver falls back to Bland's rule automatically once a
degeneracy counter trips.  Every optimum is verified against the
constraint system before it is returned; an optimum that ratio-test
damage left outside its bounds goes back through phase 1 and phase 2,
and numerical distress (singular or near-singular basis, failed
verification) restarts the solve with more frequent refreshes, ending
in per-pivot mode.  All tie-breaking is deterministic.

An optimum carries its basis (``LpSolution.basis``), and a later solve
on the same engine may start from it after a change of bounds: the
nonbasic variables go to their new bounds and the basic values are
recomputed.  A change of bounds leaves the basis dual feasible, so a
bounded dual simplex (Koberstein 2005, ch. 3) takes it back to
primal feasibility: the basic variable with the largest bound
violation leaves, its row of B⁻¹A comes from one btran, and a two-pass
(Harris) ratio test on the reduced costs picks the entering column.
Phase 2 then confirms the optimum and the verification runs as for any
other start.  A start that is not dual feasible, or a dual that finds
no entering column, falls back to the crash start, which is the only
path that declares an LP infeasible.
"""

from __future__ import annotations

import warnings
from typing import NamedTuple

import numpy as np
import scipy.linalg as sla

INF = np.inf
# primal feasibility tolerance, relative to 1 + the largest scaled |b_i|
FEAS_TOL = 1e-7

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
    """An optimal basis: the variable at each basis position and every
    variable's status (structurals, then slacks)."""
    basic: np.ndarray
    status: np.ndarray


class LpSolution:
    __slots__ = ("status", "x", "obj", "duals", "iterations", "basis")

    def __init__(self, status, x=None, obj=None, duals=None, iterations=0, basis=None):
        self.status = status
        self.x = x
        self.obj = obj
        self.duals = duals
        self.iterations = iterations
        self.basis = basis  # a BasisRecord at an optimum


class _Sparse:
    """A matrix as its nonzeros, column by column; products run over
    the nonzeros only (np.bincount sums each row or column in order).

    Takes a scipy CSC matrix in canonical form (no duplicates, rows
    sorted within each column) and drops its explicit zeros.
    """

    def __init__(self, A):
        self.m, self.n = A.shape
        keep = A.data != 0.0
        self.rows = A.indices[keep].astype(np.intp)
        self.cols = np.repeat(np.arange(self.n), np.diff(A.indptr))[keep]
        self.vals = A.data[keep].astype(float)
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

    def equilibrate(self):
        """Two rounds of geometric-mean scaling, applied in place; returns
        (row_scale, col_scale)."""
        rows, cols = self.rows, self.cols
        r = np.ones(self.m)
        c = np.ones(self.n)
        row_cnt = np.diff(self.rowptr)
        col_cnt = np.diff(self.colptr)
        absA = np.abs(self.vals)
        for _ in range(2):
            has = row_cnt > 0
            sums = np.bincount(rows, np.log2(absA * r[rows] * c[cols]), self.m)
            r[has] *= np.exp2(-np.round(sums[has] / row_cnt[has]))
            has = col_cnt > 0
            sums = np.bincount(cols, np.log2(absA * r[rows] * c[cols]), self.n)
            c[has] *= np.exp2(-np.round(sums[has] / col_cnt[has]))
        self.vals = self.vals * r[rows] * c[cols]
        return r, c


def _rank_one(a, x, y):
    """a - outer(x, y): in place (BLAS dger, no k × k temporary) when a
    is C-contiguous; x and y must not share a's memory."""
    return sla.blas.dger(-1.0, y, x, a=a.T, overwrite_a=True).T


class _Basis:
    """The basis as [[K, 0], [L, I]] up to permutation: basic slacks on
    the rows they cover, K = A[rows_t, cols_t] on the rest, with cols_t
    the structural basics.  K⁻¹ is kept explicitly; covered rows are
    substituted."""

    def __init__(self, A):
        self.A = A  # a _Sparse
        self.m, self.n = A.m, A.n

    def refresh(self, basis, crash=False):
        n, m = self.n, self.m
        pos = np.flatnonzero(basis >= n)
        rows = basis[pos] - n
        # per position, the row its slack covers; per row, the position
        # of its slack, if basic
        self.row_of_pos = np.zeros(m, dtype=np.intp)
        self.row_of_pos[pos] = rows
        self.pos_of_row = np.zeros(m, dtype=np.intp)
        self.pos_of_row[rows] = pos
        self.covered = np.zeros(m, dtype=bool)
        self.covered[rows] = True
        self.pos_t = np.flatnonzero(basis < n)
        self.cols_t = basis[self.pos_t]
        self.rows_t = np.flatnonzero(~self.covered)
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
        w = (v - self.A.times(x))[self.row_of_pos]
        w[self.pos_t] = u
        return w

    def btran(self, cb):
        y = np.where(self.covered, cb[self.pos_of_row], 0.0)
        r = cb[self.pos_t]
        if y.any():
            r = r - self.A.priced(y)[self.cols_t]
        y[self.rows_t] = r @ self.inv
        return y

    def update(self, p, q, w):
        """Variable q enters at basis position p; w is its ftran."""
        n, inv = self.n, self.inv
        j = self.slot[p]
        if q < n:
            u = w[self.pos_t]
            if j >= 0:  # product form
                row = inv[j] / u[j]
                self.inv = inv = _rank_one(inv, u, row)
                inv[j] = row
                self.cols_t[j] = q
                return
            # K gains row r, which the leaving slack covered, and column q
            r, k = self.row_of_pos[p], u.size
            sigma = w[p]
            v = self.A.row(r)[self.cols_t] @ inv / sigma
            grown = np.zeros((k + 1, k + 1))
            grown[:k, :k] = inv
            # [[inv + u v, -u/sigma], [-v, 1/sigma]]
            self.inv = _rank_one(grown, np.append(-u, 1.0), np.append(v, -1.0 / sigma))
            self.pos_t = np.append(self.pos_t, p)
            self.cols_t = np.append(self.cols_t, q)
            self.rows_t = np.append(self.rows_t, r)
            self.slot[p], self.tslot[r], self.covered[r] = k, k, False
            return
        # slack q enters: its row r was uncovered, so it is K's row i
        r = q - n
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
        else:  # K's row r becomes the row the leaving slack covered
            r_old = self.row_of_pos[p]
            col = inv[:, i].copy()
            g = self.A.row(r_old)[self.cols_t] @ inv
            g[i] -= 1.0
            self.inv = _rank_one(inv, col, g / (g[i] + 1.0))
            self.rows_t[i], self.tslot[r_old], self.tslot[r] = r_old, i, -1
            self.covered[r_old] = False
        self.row_of_pos[p], self.pos_of_row[r] = r, p
        self.covered[r] = True


class BoundedSimplex:
    """min c'x  s.t.  A x (<=,==,>=) b,  lb <= x <= ub (infinities allowed).

    A is a scipy CSC matrix in canonical form (see ``_Sparse``).
    """

    def __init__(self, A, b, senses, refactor_every=80):
        self._A = _Sparse(A)
        self.m, self.n = self._A.m, self._A.n
        self.b_orig = np.asarray(b, dtype=float)
        self.senses = list(senses)
        self.refactor_every = refactor_every

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
        bounds under the new lb/ub, and the dual simplex restores
        feasibility; if it cannot, the crash start below takes over.  Only
        the crash start declares an LP infeasible.
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

    def _begin(self, lb, ub, status):
        """Install the scaled bounds (x~ = x / col_scale, then the slacks)
        and put each nonbasic variable at a bound: the upper one when its
        status is AT_UB or only that bound is finite, else the lower one;
        a free variable at 0.  Returns the point; the caller installs the
        basis."""
        cs = self.col_scale
        with np.errstate(invalid="ignore"):
            lo = np.concatenate([lb / cs, self.slack_lb])
            hi = np.concatenate([ub / cs, self.slack_ub])
        lo_fin = np.isfinite(lo)
        hi_fin = np.isfinite(hi)
        nonbasic = status != BASIC
        to_ub = hi_fin & ((status == AT_UB) | ~lo_fin)
        status[nonbasic] = np.where(to_ub, AT_UB, np.where(lo_fin, AT_LB, NB_FREE))[nonbasic]
        x = np.where(status == AT_UB, hi, np.where(status == AT_LB, lo, 0.0))
        self._lo, self._hi, self._x, self._status = lo, hi, x, status
        self._fact = _Basis(self._A)
        self._iters = 0
        self._limit = max(20000, 60 * (self.m + self.n))
        return x

    def _attempt(self, c, lb, ub):
        m, n = self.m, self.n
        x = self._begin(lb, ub, np.full(n + m, AT_LB, dtype=np.int8))
        lo, hi = self._lo, self._hi

        # every slack sits at 0 here, so a row's slack can take the whole
        # residual as its basic value exactly when that stays in its bounds
        resid = self.b_scaled - self._A.times(x[:n])
        slack_fits = (self.slack_lb <= resid) & (resid <= self.slack_ub)
        # a row its slack cannot cover takes the first column singleton
        # that absorbs the residual by moving up from its finite lower
        # bound without passing its upper bound
        cols, rows_s = self._single_col, self._single_row
        move = resid[rows_s] / self._single_coef
        fits = (~slack_fits[rows_s] & np.isfinite(lo[cols]) & (move > 0.0)
                & (lo[cols] + move <= hi[cols]))
        single_rows, first = np.unique(rows_s[fits], return_index=True)
        single_cols = cols[fits][first]
        x[single_cols] += move[fits][first]
        resid[single_rows] = 0.0
        # every other row keeps its slack basic at the residual, outside
        # the slack's bounds where the row is violated: phase 1's work
        x[n:] = resid
        basis = n + np.arange(m)
        basis[single_rows] = single_cols
        self._basis = basis
        self._status[basis] = BASIC
        # the crash basis covers row i with position i: its structural
        # block is the diagonal of the singletons' coefficients
        self._fact.refresh(basis, crash=True)

        st = self._optimize()
        if st == ITER_LIMIT:
            return LpSolution(ITER_LIMIT, iterations=self._iters)
        if st == INFEASIBLE:
            # double-check against the true residual before declaring infeasible
            self._recompute_basics()
            if self._infeasibility() > FEAS_TOL * self._b_ref:
                return LpSolution(INFEASIBLE, iterations=self._iters)
        return self._finish(c)

    def _warm(self, c, lb, ub, start):
        """Start from a recorded basis; None if the dual simplex cannot
        take it to a feasible basis."""
        self._begin(lb, ub, start.status.copy())
        self._basis = start.basic.copy()
        self._refresh()
        if self._dual(self._scaled_costs(c)) != OPTIMAL:
            return None
        return self._finish(c)

    def _scaled_costs(self, c):
        """The costs of the scaled structurals, then 0 for the slacks."""
        return np.concatenate([c * self.col_scale, np.zeros(self.m)])

    def _dual(self, c):
        """Bounded dual simplex: from a dual feasible basis, pivot until
        every basic variable is inside its bounds.

        The leaving variable is the basic one with the largest bound
        violation; it leaves at the bound it violates.  Its row of B⁻¹A
        is one btran and one product with A.  The entering column comes
        from a two-pass (Harris) ratio test on the reduced costs, which
        are updated along that row and recomputed at every refresh.
        Returns OPTIMAL once the basis is primal feasible, else INFEASIBLE
        (the start is not dual feasible, or no column can enter) or
        ITER_LIMIT; the caller then uses the crash start.
        """
        lo, hi, x, basis, status = self._lo, self._hi, self._x, self._basis, self._status
        fact = self._fact
        dual_tol = 1e-9 * (1.0 + np.abs(c).max(initial=0.0))
        piv_tol = 1e-9
        movable = lo < hi
        d = self._reduced_costs(c, fact.btran(c[basis]))
        if self._pricing(d, movable).min(initial=0.0) < -dual_tol:
            return INFEASIBLE
        e_p = np.zeros(self.m)
        pivots_since_refactor = 0
        while True:
            xb = x[basis]
            gap = np.maximum(lo[basis] - xb, xb - hi[basis])
            p = int(gap.argmax())
            if gap[p] <= 1e-9:
                return OPTIMAL
            if self._iters >= self._limit:
                return ITER_LIMIT
            self._iters += 1
            below = xb[p] < lo[basis[p]]

            e_p[p] = 1.0
            rho = fact.btran(e_p)
            e_p[p] = 0.0
            # row p of B⁻¹A, signed so that a column at its lower bound
            # may enter where it is negative, one at its upper where positive
            row = np.concatenate([self._A.priced(rho), rho])
            alpha = row if below else -row
            # per column, how fast the dual step uses up its reduced cost
            # (r), and how much of it there is (room; below 0 where it
            # already lies outside its bound, within the tolerance)
            sign = _PRICE_SIGN[status]
            r = -sign * alpha
            room = sign * d
            free = status == NB_FREE
            if free.any():
                r[free] = np.abs(alpha[free])
                room[free] = np.abs(d[free])
            cand = np.flatnonzero(movable & (r > piv_tol))
            if cand.size == 0:
                return INFEASIBLE
            # pass 1 caps the step so that no reduced cost passes its
            # bound by more than the tolerance, pass 2 takes the largest
            # pivot within the cap
            r, room = r[cand], room[cand]
            theta_max = max(float(((room + dual_tol) / r).min()), 0.0)
            room = np.maximum(room, 0.0)
            within = np.flatnonzero(room / r <= theta_max)
            at = within[r[within].argmax()]
            q, step = int(cand[at]), room[at] / r[at]

            w = fact.ftran(self._column(q))
            if abs(w[p] - row[q]) > 1e-7 * (1.0 + abs(row[q])):
                raise _NumericalDistress("the pivot's row and column disagree")
            move = (xb[p] - (lo if below else hi)[basis[p]]) / w[p]
            d += step * alpha
            self._pivot(q, p, 1.0 if move > 0 else -1.0, abs(move), w, not below)
            d[basis] = 0.0
            pivots_since_refactor += 1
            if pivots_since_refactor >= self._refactor_every:
                self._refresh()
                d = self._reduced_costs(c, fact.btran(c[basis]))
                pivots_since_refactor = 0

    def _finish(self, c):
        """Phase 2 from a feasible basis, then verification; the result."""
        n = self.n
        cs = self.col_scale
        c2 = self._scaled_costs(c)
        for cleanup_round in range(3):
            st = self._optimize(c2)
            if st == ITER_LIMIT:
                return LpSolution(ITER_LIMIT, iterations=self._iters)
            if st == UNBOUNDED:
                return LpSolution(UNBOUNDED, iterations=self._iters)
            self._recompute_basics()
            if self._infeasibility() <= 50 * FEAS_TOL * self._b_ref:
                break
            # tiny ratio-test damage accumulated into real violations:
            # phase 1 drives the basic variables back inside their
            # bounds, then phase 2 re-optimizes from the repaired basis
            st = self._optimize()
            if st == ITER_LIMIT:
                return LpSolution(ITER_LIMIT, iterations=self._iters)
            if st != OPTIMAL:
                raise _NumericalDistress("feasibility restoration failed")
        else:
            raise _NumericalDistress("optimum failed feasibility verification")

        xs = self._x[:n] * cs
        obj = float(c @ xs)
        y_scaled = self._fact.btran(c2[self._basis])
        duals = y_scaled * self.row_scale
        basis = BasisRecord(self._basis.copy(), self._status.copy())
        return LpSolution(OPTIMAL, x=xs, obj=obj, duals=duals, iterations=self._iters,
                          basis=basis)

    def _infeasibility(self):
        """Max violation of rows and bounds at the current scaled point."""
        n = self.n
        x = self._x
        resid = self.b_scaled - self._A.times(x[:n]) - x[n:]
        viol = np.maximum(self._lo - x, x - self._hi).max(initial=0.0)
        return np.abs(resid).max(initial=0.0) + viol

    # -- core loop -----------------------------------------------------

    def _optimize(self, c=None):
        """Pivot to an optimum of the costs c (phase 2) or, with c None,
        to a feasible basis (phase 1).

        Each phase-1 pass costs the basic variables outside their bounds
        by more than 1e-9: -1 below the lower bound, +1 above the upper,
        0 on every other variable.  A violated basic variable blocks the
        ratio test only at the bound it violates, and leaves the basis
        there.  Phase 1 returns OPTIMAL as soon as no basic variable is
        violated, before pricing, and INFEASIBLE when no entering column
        reduces the violation.
        """
        lo, hi = self._lo, self._hi
        x, basis = self._x, self._basis
        fact = self._fact
        phase1 = c is None
        if phase1:
            c = np.zeros(lo.size)  # no nonbasic variable has a phase-1 cost
        dual_tol = 2e-9 if phase1 else 1e-9 * (1.0 + np.abs(c).max(initial=0.0))
        piv_tol = 1e-11
        damage_budget = 1e-9
        bland = False
        degen_run = 0
        movable = lo < hi
        pivots_since_refactor = 0
        below = above = np.zeros(self.m, dtype=bool)

        while True:
            xb = x[basis]
            lob = lo[basis]
            hib = hi[basis]
            if phase1:
                below = xb < lob - 1e-9
                above = xb > hib + 1e-9
                if not (below.any() or above.any()):
                    return OPTIMAL
            if self._iters >= self._limit:
                return ITER_LIMIT
            self._iters += 1

            cb = np.where(below, -1.0, np.where(above, 1.0, 0.0)) if phase1 else c[basis]
            d = self._reduced_costs(c, fact.btran(cb))
            viol = self._pricing(d, movable)
            q = int(viol.argmin())
            if viol[q] >= -dual_tol:
                return INFEASIBLE if phase1 else OPTIMAL
            if bland:
                q = int(np.argmax(viol < -dual_tol))

            direction = 1.0 if (d[q] < 0) else -1.0
            w = fact.ftran(self._column(q))

            # two-pass (Harris-style) ratio test: pass 1 caps the step so no
            # basic variable overshoots its bound by more than the budget,
            # pass 2 picks the numerically largest admissible pivot
            delta = -direction * w
            rise = delta > piv_tol
            fall = delta < -piv_tol
            room = np.where(rise & ~above, np.where(below, lob, hib) - xb,
                            np.where(fall & ~below, xb - np.where(above, hib, lob), INF))
            blocked = room < INF
            room = np.maximum(room, 0.0)

            flip_theta = hi[q] - lo[q]  # INF unless both bounds are finite
            if not blocked.any():
                if np.isfinite(flip_theta):
                    self._flip(q, direction, w)
                    continue
                if phase1:
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

            # a violated variable leaves at the bound it violates
            violated = below[leave_pos] or above[leave_pos]
            leave_to_ub = bool(above[leave_pos] if violated else delta[leave_pos] > 0)
            self._pivot(q, leave_pos, direction, theta, w, leave_to_ub)
            pivots_since_refactor += 1
            if pivots_since_refactor >= self._refactor_every:
                self._refresh()
                pivots_since_refactor = 0

    # -- pivot bookkeeping -----------------------------------------------

    def _pricing(self, d, movable):
        """Per-variable pricing violation of reduced costs d (<= 0): a
        variable may rise from its lower bound, fall from its upper bound,
        or move either way when free; basic and fixed variables may not
        move."""
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
        """c minus the row prices y of every column, slacks included."""
        return c - np.concatenate([self._A.priced(y), y])

    def _column(self, q):
        """Column q of the working matrix, as a dense vector."""
        if q < self.n:
            return self._A.column(q)
        a_q = np.zeros(self.m)
        a_q[q - self.n] = 1.0
        return a_q

    def _recompute_basics(self):
        n = self.n
        x_nb = np.where(self._status != BASIC, self._x, 0.0)
        rhs = self.b_scaled - self._A.times(x_nb[:n]) - x_nb[n:]
        self._x[self._basis] = self._fact.ftran(rhs)

    def _solve_unconstrained(self, c, lb, ub):
        start = np.where(np.isfinite(lb), lb, np.where(np.isfinite(ub), ub, 0.0))
        x = np.where(c > 0, lb, np.where(c < 0, ub, start))
        if not np.isfinite(x).all():
            return LpSolution(UNBOUNDED)
        return LpSolution(OPTIMAL, x=x, obj=float(c @ x), duals=np.zeros(0))
