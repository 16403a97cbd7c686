"""Bounded-variable revised primal simplex on sparse matrices.

Two-phase method: phase 1 starts from a crash basis and minimizes the
total infeasibility, phase 2 optimizes the true costs.  The crash
covers each row with one basic variable that absorbs the row's residual
at the starting nonbasic point: its slack when the residual lies inside
the slack's bounds, otherwise a column singleton (one nonzero, in that
row) moved up from its finite lower bound when the move stays inside
its bounds (Bixby 1992).  A covered row's artificial is locked at 0;
artificials are basic only for the remaining rows, so a start that the
crash makes feasible skips phase 1 altogether.  The crash basis is a
permuted diagonal, so its factor is trivially nonsingular.
The system is equilibrated first (iterative geometric row/column
scaling), which the big-M rows of this package's models make
essential: raw coefficients span eight orders of magnitude.

The basis is kept as a SuperLU factorization refreshed periodically,
with product-form eta updates in between.  Dantzig pricing with a
lowest-index tie-break is the default; the solver falls back to
Bland's rule automatically once a degeneracy counter trips.  Every
optimum is verified against the constraint system before it is
returned; numerical distress (singular or near-singular basis, failed
verification) restarts the solve with more frequent refactorization,
ending in per-pivot mode.  All tie-breaking is deterministic.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

INF = np.inf

AT_LB, AT_UB, NB_FREE, BASIC = 0, 1, 2, 3

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITER_LIMIT = "iteration-limit"


class SimplexFailure(RuntimeError):
    """Numerical failure that survived every restart."""


class _NumericalDistress(Exception):
    """Singular/near-singular basis or failed verification; restart."""


class LpSolution:
    __slots__ = ("status", "x", "obj", "duals", "reduced_costs", "iterations")

    def __init__(self, status, x=None, obj=None, duals=None, reduced_costs=None, iterations=0):
        self.status = status
        self.x = x
        self.obj = obj
        self.duals = duals
        self.reduced_costs = reduced_costs
        self.iterations = iterations


def _equilibrate(A, rounds=2):
    """Iterative geometric-mean scaling; returns (row_scale, col_scale)."""
    m, n = A.shape
    r = np.ones(m)
    c = np.ones(n)
    if A.nnz == 0:
        return r, c
    work = A.tocoo()
    for _ in range(rounds):
        scaled = np.abs(work.data) * r[work.row] * c[work.col]
        with np.errstate(divide="ignore"):
            logs = np.log2(scaled, where=scaled > 0, out=np.zeros_like(scaled))
        row_sum = np.zeros(m)
        row_cnt = np.zeros(m)
        np.add.at(row_sum, work.row, logs)
        np.add.at(row_cnt, work.row, 1.0)
        nz = row_cnt > 0
        r[nz] *= np.exp2(-np.round(row_sum[nz] / row_cnt[nz]))
        scaled = np.abs(work.data) * r[work.row] * c[work.col]
        with np.errstate(divide="ignore"):
            logs = np.log2(scaled, where=scaled > 0, out=np.zeros_like(scaled))
        col_sum = np.zeros(n)
        col_cnt = np.zeros(n)
        np.add.at(col_sum, work.col, logs)
        np.add.at(col_cnt, work.col, 1.0)
        nz = col_cnt > 0
        c[nz] *= np.exp2(-np.round(col_sum[nz] / col_cnt[nz]))
    return r, c


class _Basis:
    """LU factorization of the basis plus an eta file of pivot updates."""

    def __init__(self, A_csc, basis_cols):
        self.A = A_csc
        self.refactor(basis_cols)

    def refactor(self, basis_cols):
        B = self.A[:, basis_cols].tocsc()
        try:
            self.lu = spla.splu(B, permc_spec="COLAMD",
                                options={"SymmetricMode": False})
        except RuntimeError as exc:
            raise _NumericalDistress(str(exc)) from exc
        diag = np.abs(self.lu.U.diagonal())
        if diag.size and diag.min() < 1e-12 * max(1.0, diag.max()):
            raise _NumericalDistress("near-singular basis factor")
        self.etas = []

    def ftran(self, v):
        x = self.lu.solve(v)
        for p, w in self.etas:
            xp = x[p] / w[p]
            if xp != 0.0:
                x -= w * xp
            x[p] = xp
        return x

    def btran(self, v):
        y = v.copy()
        for p, w in reversed(self.etas):
            s = w @ y
            y[p] = (y[p] - (s - w[p] * y[p])) / w[p]
        return self.lu.solve(y, trans="T")

    def update(self, p, w):
        self.etas.append((p, w.copy()))


class BoundedSimplex:
    """min c'x  s.t.  A x (<=,==,>=) b,  lb <= x <= ub (infinities allowed)."""

    def __init__(self, A, b, senses, feas_tol=1e-7, refactor_every=80,
                 max_iterations=None):
        A = sp.csc_matrix(A)
        self.m, self.n = A.shape
        self.b_orig = np.asarray(b, dtype=float)
        self.senses = list(senses)
        self.feas_tol = feas_tol
        self.refactor_every = refactor_every
        self.max_iterations = max_iterations

        self.row_scale, self.col_scale = _equilibrate(A)
        entry_col = np.repeat(np.arange(self.n), np.diff(A.indptr))
        self.A_scaled = sp.csc_matrix(
            (A.data * self.row_scale[A.indices] * self.col_scale[entry_col],
             A.indices, A.indptr), shape=A.shape)
        self.b_scaled = self.row_scale * self.b_orig

        # column singletons of the scaled matrix, by ascending column:
        # the crash basis may use them to cover their row
        A_s = self.A_scaled
        nonzero = A_s.data != 0.0
        count = np.bincount(entry_col[nonzero], minlength=self.n)
        single = nonzero & (count[entry_col] == 1)
        self._single_col = entry_col[single]
        self._single_row = A_s.indices[single]
        self._single_coef = A_s.data[single]

        self.slack_lb = np.zeros(self.m)
        self.slack_ub = np.zeros(self.m)
        for i, sense in enumerate(self.senses):
            if sense == "<=":
                self.slack_lb[i], self.slack_ub[i] = 0.0, INF
            elif sense == ">=":
                self.slack_lb[i], self.slack_ub[i] = -INF, 0.0
            elif sense == "==":
                self.slack_lb[i], self.slack_ub[i] = 0.0, 0.0
            else:
                raise ValueError(f"bad sense {sense!r}")

    def solve(self, c, lb, ub):
        c = np.asarray(c, dtype=float)
        lb = np.asarray(lb, dtype=float)
        ub = np.asarray(ub, dtype=float)
        if np.any(lb > ub + 1e-15):
            return LpSolution(INFEASIBLE)
        if self.m == 0:
            return self._solve_unconstrained(c, lb, ub)
        schedule = [self.refactor_every, 16, 4, 1]
        for attempt, every in enumerate(schedule):
            self._refactor_every = every
            try:
                return self._attempt(c, lb, ub)
            except _NumericalDistress:
                if attempt == len(schedule) - 1:
                    raise SimplexFailure(
                        "numerical distress survived per-pivot refactorization")
        raise AssertionError("unreachable")

    def _attempt(self, c, lb, ub):
        m, n = self.m, self.n
        cs = self.col_scale
        # scaled variables: x~ = x / col_scale
        c_s = c * cs
        with np.errstate(invalid="ignore"):
            lb_s = lb / cs
            ub_s = ub / cs

        lo = np.concatenate([lb_s, self.slack_lb])
        hi = np.concatenate([ub_s, self.slack_ub])

        lo_fin = np.isfinite(lo)
        hi_fin = np.isfinite(hi)
        x = np.where(lo_fin, lo, np.where(hi_fin, hi, 0.0))
        status = np.where(lo_fin, AT_LB, np.where(hi_fin, AT_UB, NB_FREE)).astype(np.int8)

        # every slack sits at 0 here, so a row's slack can take the whole
        # residual as its basic value exactly when that stays in its bounds
        resid = self.b_scaled - self.A_scaled @ x[:n]
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

        art_sign = np.where(resid >= 0.0, 1.0, -1.0)
        A_all = sp.hstack([self.A_scaled, sp.identity(m, format="csc"),
                           sp.diags(art_sign, format="csc")], format="csc")
        lo = np.concatenate([lo, np.zeros(m)])
        hi = np.concatenate([hi, np.where(covered, 0.0, INF)])
        x = np.concatenate([x[:n], np.where(slack_basic, resid, 0.0),
                            np.where(covered, 0.0, np.abs(resid))])
        rows = np.arange(m)
        basis = np.where(slack_basic, n + rows, n + m + rows)
        basis[single_rows] = single_cols
        status = np.concatenate([status, np.full(m, AT_LB, dtype=np.int8)])
        status[basis] = BASIC

        self._A = A_all
        self._AT = A_all.T.tocsr()
        self._lo, self._hi = lo, hi
        self._x, self._status, self._basis = x, status, basis
        self._fact = _Basis(A_all, basis)
        self._total = n + m + m
        self._iters = 0
        self._limit = self.max_iterations or max(20000, 60 * (m + n))

        b_ref = 1.0 + np.abs(self.b_scaled).max(initial=0.0)

        c1 = np.zeros(self._total)
        c1[n + m:] = 1.0
        st = self._optimize(c1, phase=1)
        if st == ITER_LIMIT:
            return LpSolution(ITER_LIMIT, iterations=self._iters)
        self._recompute_basics()
        artificial_mass = float(np.abs(self._x[n + m:]).sum())
        if artificial_mass > self.feas_tol * b_ref:
            # double-check against the true residual before declaring infeasible
            if self._infeasibility() > self.feas_tol * b_ref:
                return LpSolution(INFEASIBLE, iterations=self._iters)
        self._hi[n + m:] = 0.0
        self._x[n + m:][self._status[n + m:] != BASIC] = 0.0

        c2 = np.zeros(self._total)
        c2[:n] = c_s
        for cleanup_round in range(3):
            st = self._optimize(c2, phase=2)
            if st == ITER_LIMIT:
                return LpSolution(ITER_LIMIT, iterations=self._iters)
            if st == UNBOUNDED:
                return LpSolution(UNBOUNDED, iterations=self._iters)
            self._recompute_basics()
            if self._infeasibility() <= 50 * self.feas_tol * b_ref:
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
        cB = c2[self._basis]
        y_scaled = self._fact.btran(cB)
        rc_scaled = c2 - (self._AT @ y_scaled)
        duals = (y_scaled[:m].copy() * self.row_scale) if m else np.zeros(0)
        rc = rc_scaled[:n] / cs
        return LpSolution(OPTIMAL, x=xs, obj=obj, duals=duals,
                          reduced_costs=rc, iterations=self._iters)

    def _infeasibility(self):
        """Max violation of rows and bounds at the current scaled point."""
        n, m = self.n, self.m
        x = self._x
        resid = self.b_scaled - self.A_scaled @ x[:n] - x[n:n + m]
        art = x[n + m:]
        worst = np.abs(resid).max(initial=0.0) + np.abs(art).max(initial=0.0)
        lo_viol = np.maximum(self._lo[:n + m] - x[:n + m], 0.0)
        hi_viol = np.maximum(x[:n + m] - self._hi[:n + m], 0.0)
        viol = max(np.max(lo_viol, initial=0.0), np.max(hi_viol, initial=0.0))
        return worst + viol

    # -- core loop -----------------------------------------------------

    def _optimize(self, c, phase):
        AT = self._AT
        lo, hi = self._lo, self._hi
        x, status, basis = self._x, self._status, self._basis
        fact = self._fact
        m = self.m
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

            cB = c[basis]
            y = fact.btran(cB)
            d = c - (AT @ y)

            viol = self._pricing(d, movable)
            candidates = np.nonzero(viol < -dual_tol)[0]
            if candidates.size == 0:
                return OPTIMAL

            if bland:
                q = int(candidates[0])
            else:
                q = int(candidates[np.argmin(viol[candidates])])

            direction = 1.0 if (d[q] < 0) else -1.0
            w = fact.ftran(self._column(q))

            # two-pass (Harris-style) ratio test: pass 1 caps the step so no
            # basic variable overshoots its bound by more than the budget,
            # pass 2 picks the numerically largest admissible pivot
            delta = -direction * w
            xb = x[basis]
            lob = lo[basis]
            hib = hi[basis]
            pos = delta > piv_tol
            neg = delta < -piv_tol
            room = np.full(m, INF)
            room[pos] = hib[pos] - xb[pos]
            room[neg] = xb[neg] - lob[neg]
            blocked = (pos | neg) & np.isfinite(room)
            room = np.maximum(room, 0.0)

            flip_theta = INF
            if np.isfinite(lo[q]) and np.isfinite(hi[q]):
                flip_theta = hi[q] - lo[q]

            if not blocked.any():
                if np.isfinite(flip_theta):
                    x[basis] -= direction * flip_theta * w
                    x[q] = hi[q] if status[q] == AT_LB else lo[q]
                    status[q] = AT_UB if status[q] == AT_LB else AT_LB
                    continue
                if phase == 1:
                    raise _NumericalDistress("phase-1 objective unbounded")
                return UNBOUNDED

            absdelta = np.abs(delta)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(blocked, room / absdelta, INF)
                capped = np.where(blocked, (room + damage_budget) / absdelta, INF)
            theta_max = min(float(capped.min()), flip_theta)
            cand = blocked & (ratios <= theta_max + 1e-15)
            if not cand.any():
                # only the relaxed caps block; take the tightest exact ratio
                cand = blocked & (ratios <= float(ratios.min()) + 1e-15)
            if bland:
                order = np.nonzero(cand)[0]
                leave_pos = int(order[np.argmin(basis[order])])
            else:
                masked = np.where(cand, absdelta, -1.0)
                leave_pos = int(np.argmax(masked))
            theta = float(ratios[leave_pos])
            leave_to_ub = bool(delta[leave_pos] > 0)

            if flip_theta <= theta:
                x[basis] -= direction * flip_theta * w
                x[q] = hi[q] if status[q] == AT_LB else lo[q]
                status[q] = AT_UB if status[q] == AT_LB else AT_LB
                continue

            if theta <= 1e-12:
                degen_run += 1
                if degen_run > 200 and not bland:
                    bland = True
            else:
                degen_run = 0

            x[basis] -= direction * theta * w
            x[q] = x[q] + direction * theta
            leaving = basis[leave_pos]
            x[leaving] = hi[leaving] if leave_to_ub else lo[leaving]
            status[leaving] = AT_UB if leave_to_ub else AT_LB
            status[q] = BASIC
            basis[leave_pos] = q

            fact.update(leave_pos, w)
            pivots_since_refactor += 1
            if pivots_since_refactor >= self._refactor_every:
                fact.refactor(basis)
                pivots_since_refactor = 0
                self._recompute_basics()

    def _restore_feasibility(self, max_pivots=2000):
        """Composite phase: pivot basic bound violations back to zero.

        Standard phase-1-from-an-arbitrary-basis: the working cost is -1
        for basic variables below their lower bound and +1 above their
        upper bound; violated variables block the ratio test at the bound
        they violate (arriving there makes them feasible), in-bounds
        variables block as usual.
        """
        AT = self._AT
        lo, hi = self._lo, self._hi
        x, status, basis = self._x, self._status, self._basis
        fact = self._fact
        m = self.m
        tol_r = 1e-9
        piv_tol = 1e-11
        movable = lo < hi

        for _ in range(max_pivots):
            self._iters += 1
            xb = x[basis]
            below = xb < lo[basis] - tol_r
            above = xb > hi[basis] + tol_r
            if not (below.any() or above.any()):
                fact.refactor(basis)
                self._recompute_basics()
                return True
            cB = np.where(below, -1.0, np.where(above, 1.0, 0.0))
            y = fact.btran(cB)
            d = -(AT @ y)
            viol = self._pricing(d, movable)
            candidates = np.nonzero(viol < -1e-10)[0]
            if candidates.size == 0:
                return False  # no entering column can reduce the violation
            q = int(candidates[np.argmin(viol[candidates])])
            direction = 1.0 if d[q] < 0 else -1.0
            w = fact.ftran(self._column(q))
            delta = -direction * w

            best_t, best_pos, best_to_ub, best_mag = INF, -1, False, 0.0
            for i in range(m):
                di = delta[i]
                if abs(di) <= piv_tol:
                    continue
                bi = basis[i]
                xi = x[bi]
                if xi < lo[bi] - tol_r:
                    if di <= 0:
                        continue  # moving further below: objective handles it
                    t = (lo[bi] - xi) / di
                    to_ub = False
                elif xi > hi[bi] + tol_r:
                    if di >= 0:
                        continue
                    t = (xi - hi[bi]) / (-di)
                    to_ub = True
                elif di > 0:
                    if np.isinf(hi[bi]):
                        continue
                    t = max(hi[bi] - xi, 0.0) / di
                    to_ub = True
                else:
                    if np.isinf(lo[bi]):
                        continue
                    t = max(xi - lo[bi], 0.0) / (-di)
                    to_ub = False
                if t < best_t - 1e-12 or (t <= best_t + 1e-12 and abs(di) > best_mag):
                    best_t, best_pos, best_to_ub, best_mag = t, i, to_ub, abs(di)
            flip_theta = INF
            if np.isfinite(lo[q]) and np.isfinite(hi[q]):
                flip_theta = hi[q] - lo[q]
            if flip_theta <= best_t:
                x[basis] -= direction * flip_theta * w
                x[q] = hi[q] if status[q] == AT_LB else lo[q]
                status[q] = AT_UB if status[q] == AT_LB else AT_LB
                continue
            if best_pos == -1:
                return False
            theta = best_t
            x[basis] -= direction * theta * w
            x[q] = x[q] + direction * theta
            leaving = basis[best_pos]
            x[leaving] = hi[leaving] if best_to_ub else lo[leaving]
            status[leaving] = AT_UB if best_to_ub else AT_LB
            status[q] = BASIC
            basis[best_pos] = q
            fact.update(best_pos, w)
            if len(fact.etas) >= 20:
                fact.refactor(basis)
                self._recompute_basics()
        return False

    def _pricing(self, d, movable):
        """Per-variable pricing violation of reduced costs d (<= 0).

        Basic and fixed variables (a locked artificial is fixed at 0)
        get 0: moving a fixed variable is a bound flip of length zero.
        """
        status = self._status
        viol = np.zeros(self._total)
        at_lb = status == AT_LB
        at_ub = status == AT_UB
        free = status == NB_FREE
        viol[at_lb] = np.minimum(d[at_lb], 0.0)
        viol[at_ub] = -np.maximum(d[at_ub], 0.0)
        viol[free] = -np.abs(d[free])
        viol[~movable] = 0.0
        return viol

    def _column(self, q):
        """Dense copy of column q of the working matrix."""
        A = self._A
        start, stop = A.indptr[q], A.indptr[q + 1]
        a_q = np.zeros(self.m)
        a_q[A.indices[start:stop]] = A.data[start:stop]
        return a_q

    def _recompute_basics(self):
        nb_mask = self._status != BASIC
        x_nb = np.where(nb_mask, self._x, 0.0)
        rhs = self.b_scaled - self._A @ x_nb
        xB = self._fact.ftran(rhs)
        self._x[self._basis] = xB

    def _solve_unconstrained(self, c, lb, ub):
        x = np.zeros(self.n)
        for j in range(self.n):
            if c[j] > 0:
                if not np.isfinite(lb[j]):
                    return LpSolution(UNBOUNDED)
                x[j] = lb[j]
            elif c[j] < 0:
                if not np.isfinite(ub[j]):
                    return LpSolution(UNBOUNDED)
                x[j] = ub[j]
            else:
                x[j] = lb[j] if np.isfinite(lb[j]) else (ub[j] if np.isfinite(ub[j]) else 0.0)
        return LpSolution(OPTIMAL, x=x, obj=float(c @ x), duals=np.zeros(0),
                          reduced_costs=c.copy(), iterations=0)
