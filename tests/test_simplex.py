"""The built-in simplex's refresh, restart and phase-1 paths, and its
basis updates.

The property tests' LPs have at most five rows and never reach a
refresh of the basis inverse.  These tests use one base-preset
fixed-placement LP (I=12, J=8, 146 rows, over 100 pivots), which
does, and check each kind of basis update against a dense solve.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from scipy.sparse import csc_matrix, random_array

from conftest import assert_dual_certificate
from edgeprice import follower, simplex
from edgeprice.instance import GenConfig, generate
from edgeprice.simplex import OPTIMAL, BoundedSimplex
from edgeprice.solve import STATUS_OPTIMAL, _ModelCore, get_backend, polish_binaries


def base_case():
    """Service 3 of base seed 0 at the lowest prices, every node active."""
    inst = generate(GenConfig(seed=0, I=12, J=8, K=4))
    leader = follower.LeaderDecision.from_prices(
        inst, p=[grid[0] for grid in inst.p_grid], ps=[grid[0] for grid in inst.ps_grid],
        z=[1] * inst.J)
    return inst, 3, leader


@pytest.fixture(scope="module")
def base_lp():
    """The follower LP of ``base_case`` placed nowhere: a 146-row LP that
    takes over 100 pivots."""
    model, h = follower.build_follower_milp(*base_case())
    core = _ModelCore(model)
    lb, ub = core.lb.copy(), core.ub.copy()
    lb[h["t"]] = ub[h["t"]] = 0.0
    highs = polish_binaries(model, {i: 0.0 for i in h["t"]}, get_backend("highs").solve_lp)
    assert highs.status == STATUS_OPTIMAL and core.sense_mult == 1.0
    return core, lb, ub, highs


def solve(core, lb, ub, **kwargs):
    return BoundedSimplex(core.A, core.b, core.senses, **kwargs).solve(core.c, lb, ub)


@pytest.mark.parametrize("every", [80, 16, 4, 1])
def test_refreshes_keep_the_optimum_and_its_certificate(base_lp, every):
    core, lb, ub, highs = base_lp
    sol = solve(core, lb, ub, refactor_every=every)
    assert sol.status == OPTIMAL
    assert sol.iterations > 80
    objective = sol.obj + core.offset
    assert abs(objective - highs.objective) <= 1e-9 * abs(highs.objective)
    assert_dual_certificate(SimpleNamespace(duals=sol.duals, objective=sol.obj),
                            core.A, core.b, core.senses, core.c, lb, ub, 1.0)


def test_abandoned_attempt_pivots_are_counted(base_lp, monkeypatch):
    """The first refresh raises, so the solve restarts refreshing every
    16 pivots; its iterations are those of both attempts."""
    core, lb, ub, _ = base_lp
    clean = solve(core, lb, ub, refactor_every=16)
    real = BoundedSimplex._refresh
    abandoned = []

    def first_refresh_fails(self):
        if not abandoned:
            abandoned.append(self._iters)
            raise simplex._NumericalDistress("injected")
        real(self)

    monkeypatch.setattr(BoundedSimplex, "_refresh", first_refresh_fails)
    sol = solve(core, lb, ub, refactor_every=80)
    assert abandoned and abandoned[0] >= 80
    assert sol.status == OPTIMAL
    assert sol.obj == pytest.approx(clean.obj, rel=1e-12)
    assert sol.iterations == clean.iterations + abandoned[0]


def test_restore_feasibility_repairs_a_pushed_basic_variable(base_lp):
    """Tighten a basic variable's upper bound below its value, as ratio
    test damage would leave it; phase 1 pivots it back."""
    core, lb, ub, _ = base_lp
    eng = BoundedSimplex(core.A, core.b, core.senses)
    assert eng.solve(core.c, lb, ub).status == OPTIMAL
    x, lo, hi = eng._x, eng._lo, eng._hi
    inside = [j for j in eng._basis if j < eng.n and x[j] > lo[j] + 1e-3]
    j = inside[0]
    hi[j] = lo[j] + 0.5 * (x[j] - lo[j])
    assert eng._infeasibility() > 1e-4
    assert eng._optimize() == OPTIMAL
    assert eng._infeasibility() <= 1e-9
    assert np.all(eng._x >= lo - 1e-9) and np.all(eng._x <= hi + 1e-9)


def test_phase_one_stopped_by_the_limit_reports_it(monkeypatch):
    """x + q == 3 with x <= 1 and q <= 2: the crash leaves row 0's slack
    basic at 3, and phase 1 needs two pivots; a limit of one stops it."""
    real = BoundedSimplex._begin

    def one_pass(self, *args):
        x = real(self, *args)
        self._limit = 1
        return x

    monkeypatch.setattr(BoundedSimplex, "_begin", one_pass)
    phases = []
    real_optimize = BoundedSimplex._optimize
    monkeypatch.setattr(BoundedSimplex, "_optimize",
                        lambda self, c=None: phases.append(c is None) or real_optimize(self, c))
    eng = BoundedSimplex(csc_matrix([[1.0, 1.0], [1.0, 0.0]]), [3.0, 1.0], ["==", "<="])
    sol = eng.solve(np.array([1.0, 2.0]), np.zeros(2), np.array([np.inf, 2.0]))
    assert sol.status == simplex.ITER_LIMIT and sol.iterations == 1
    assert phases == [True]


def test_a_start_at_its_own_optimum_prices_once(base_lp):
    core, lb, ub, _ = base_lp
    eng = BoundedSimplex(core.A, core.b, core.senses)
    sol = eng.solve(core.c, lb, ub)
    again = eng.solve(core.c, lb, ub, start=sol.basis)
    assert again.status == OPTIMAL and again.iterations <= 1
    assert again.obj == pytest.approx(sol.obj, rel=1e-12)


@pytest.mark.parametrize("t", [[0] * 8, [1] * 8, [j % 2 for j in range(8)],
                               [int(j < 3) for j in range(8)]],
                         ids=["none", "all", "alternate", "first3"])
def test_a_start_after_a_bound_change_reaches_the_cold_optimum(base_lp, t, monkeypatch):
    """From the relaxation's optimum, fix the placement by its bounds:
    the warm solve, with no crash start, ends at the cold optimum in
    fewer iterations."""
    core, _, _, _ = base_lp
    eng = BoundedSimplex(core.A, core.b, core.senses)
    root = eng.solve(core.c, core.lb, core.ub)
    lb, ub = core.lb.copy(), core.ub.copy()
    lb[core.binaries] = ub[core.binaries] = t
    cold = BoundedSimplex(core.A, core.b, core.senses).solve(core.c, lb, ub)

    def no_crash_start(self, c, lb, ub):
        raise AssertionError("the warm start fell back to the crash start")

    monkeypatch.setattr(BoundedSimplex, "_attempt", no_crash_start)
    warm = eng.solve(core.c, lb, ub, start=root.basis)
    assert warm.status == cold.status == OPTIMAL
    assert abs(warm.obj - cold.obj) <= 1e-9 * abs(cold.obj)
    assert warm.iterations < cold.iterations
    assert_dual_certificate(SimpleNamespace(duals=warm.duals, objective=warm.obj),
                            core.A, core.b, core.senses, core.c, lb, ub, 1.0)


def crash_starts(monkeypatch):
    """Record each crash start that BoundedSimplex.solve makes."""
    calls = []
    real = BoundedSimplex._attempt
    monkeypatch.setattr(BoundedSimplex, "_attempt",
                        lambda self, *args: calls.append(True) or real(self, *args))
    return calls


def test_a_start_that_is_not_dual_feasible_falls_back_to_the_crash_start(base_lp, monkeypatch):
    """A basis optimal for other costs (dropping demand made cheap) is
    feasible but not optimal for the true costs, hence not dual feasible:
    the solve ends as the crash start alone would, bit for bit."""
    core, lb, ub, _ = base_lp
    eng = BoundedSimplex(core.A, core.b, core.senses)
    other = core.c.copy()
    other[other > 0] = 1e-6
    wrong = eng.solve(other, lb, ub)
    cold = eng.solve(core.c, lb, ub)
    assert wrong.status == cold.status == OPTIMAL
    assert core.c @ wrong.x > cold.obj + 1e-6 * abs(cold.obj)
    calls = crash_starts(monkeypatch)
    sol = eng.solve(core.c, lb, ub, start=wrong.basis)
    assert calls == [True]
    assert sol.status == OPTIMAL and sol.obj == cold.obj
    assert np.array_equal(sol.x, cold.x) and np.array_equal(sol.duals, cold.duals)


def test_an_infeasible_bound_change_is_declared_by_the_crash_start(base_lp, monkeypatch):
    """With nothing placed, no cloud and no dropped demand, the flow rows
    cannot hold: the dual simplex finds no entering column, and the
    crash start declares the LP infeasible."""
    core, _, _, _ = base_lp
    model, h = follower.build_follower_milp(*base_case())
    eng = BoundedSimplex(core.A, core.b, core.senses)
    root = eng.solve(core.c, core.lb, core.ub)
    lb, ub = core.lb.copy(), core.ub.copy()
    lb[h["t"]] = ub[h["t"]] = 0.0
    ub[h["q"] + h["x0"]] = 0.0
    calls = crash_starts(monkeypatch)
    sol = eng.solve(core.c, lb, ub, start=root.basis)
    assert calls == [True]
    assert sol.status == simplex.INFEASIBLE


def dense_basis(A, basis):
    """The basis matrix with slack i as e_i."""
    m, n = A.shape
    B = np.zeros((m, m))
    for p, var in enumerate(basis):
        if var < n:
            B[:, p] = A[:, var]
        else:
            B[var - n, p] = 1.0
    return B


def test_basis_updates_match_a_dense_solve():
    """Random pivots through every kind of column swap (structural or slack
    for structural or slack); ftran and btran stay exact solves."""
    rng = np.random.default_rng(1)
    m, n = 6, 5
    kinds = set()
    for _ in range(20):
        A = rng.normal(size=(m, n)) * (rng.random((m, n)) < 0.6)
        basis = n + np.arange(m)
        fact = simplex._Basis(simplex._Sparse(csc_matrix(A)))
        fact.refresh(basis)
        for _ in range(30):
            q = int(rng.choice(np.setdiff1d(np.arange(n + m), basis)))
            col = dense_basis(A, [q])[:, 0]
            w = fact.ftran(col)
            p = int(np.argmax(np.abs(w)))
            if abs(w[p]) < 1e-3:
                continue
            kinds.add((q < n, basis[p] < n))
            fact.update(p, q, w)
            basis[p] = q
            B = dense_basis(A, basis)
            v = rng.normal(size=m)
            assert np.allclose(fact.ftran(v), np.linalg.solve(B, v), atol=1e-8)
            assert np.allclose(fact.btran(v), np.linalg.solve(B.T, v), atol=1e-8)
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}


def test_sparse_products_match_dense_ones():
    """_Sparse reads a canonical CSC as it is; an explicit zero is dropped
    and every product agrees with the dense matrix."""
    rng = np.random.default_rng(3)
    stored_zeros = 0
    for trial in range(12):
        m, n = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        A = csc_matrix(random_array((m, n), density=0.4, format="csc", rng=rng))
        if trial % 2 and A.nnz:
            A.data[int(rng.integers(A.nnz))] = 0.0  # stored, but zero
            stored_zeros += 1
        dense = A.toarray()
        S = simplex._Sparse(A)
        assert S.vals.size == np.count_nonzero(dense)
        x, y = rng.normal(size=n), rng.normal(size=m)
        assert np.allclose(S.times(x), dense @ x, rtol=0, atol=1e-12)
        assert np.allclose(S.priced(y), y @ dense, rtol=0, atol=1e-12)
        for j in range(n):
            assert np.array_equal(S.column(j), dense[:, j])
        for i in range(m):
            assert np.array_equal(S.row(i), dense[i])
        rows = rng.permutation(m)[:int(rng.integers(1, m + 1))]
        cols = rng.permutation(n)[:int(rng.integers(1, n + 1))]
        assert np.array_equal(S.block(rows, cols), dense[np.ix_(rows, cols)])
    assert stored_zeros
