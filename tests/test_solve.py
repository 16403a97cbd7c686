import itertools
import warnings

import numpy as np
import pytest
import scipy.optimize
from scipy.optimize import OptimizeWarning

from edgeprice import solve
from edgeprice.bilevel import run_algorithm1, solve_bruteforce, solve_hpp, solve_sp2
from edgeprice.follower import LeaderDecision, solve_kkt_follower, solve_sp1
from edgeprice.instance import GenConfig, generate
from edgeprice.model import MilpModel, ModelError
from edgeprice.solve import (STATUS_GAP_LIMIT, STATUS_INFEASIBLE, STATUS_OPTIMAL,
                             STATUS_TIME_LIMIT, STATUS_UNBOUNDED, SolveResult,
                             SolverConfig, backend_solve, backend_solve_polished, get_backend,
                             polish_binaries, solve_lp, solve_milp, solve_milp_certified)


def random_lp(rng, n=None, m=None):
    n = n or int(rng.integers(2, 8))
    m = m or int(rng.integers(1, 7))
    mdl = MilpModel("rand", "min")
    for i in range(n):
        mdl.add_var(f"x{i}")
    A = rng.normal(size=(m, n))
    b = rng.normal(size=m) + 2.0
    senses = rng.choice(["<=", ">=", "=="], size=m, p=[0.6, 0.3, 0.1])
    for r in range(m):
        mdl.add_constraint({i: A[r, i] for i in range(n)}, str(senses[r]), b[r])
    c = rng.normal(size=n)
    mdl.set_objective({i: c[i] for i in range(n)})
    return mdl.finalize(), A, b, list(senses), c


def explicit_dual(A, b, senses, c):
    """The classical dual of min c'x, Ax {<=,>=,==} b, x >= 0, built fresh."""
    m, n = A.shape
    dual = MilpModel("dual", "max")
    ys = []
    for r in range(m):
        if senses[r] == "<=":
            ys.append(dual.add_var(f"y{r}", lb=-np.inf, ub=0.0))
        elif senses[r] == ">=":
            ys.append(dual.add_var(f"y{r}", lb=0.0))
        else:
            ys.append(dual.add_var(f"y{r}", lb=-np.inf))
    for j in range(n):
        dual.add_constraint({ys[r]: A[r, j] for r in range(m)}, "<=", c[j])
    dual.set_objective({ys[r]: b[r] for r in range(m)})
    return dual.finalize()


class TestSolveLp:
    def test_cap_dual(self):
        m = MilpModel("t", "max")
        x = m.add_var("x")
        m.add_constraint({x: 1.0}, "<=", 3.0)
        m.set_objective({x: 1.0})
        res = solve_lp(m.finalize())
        assert res.status == STATUS_OPTIMAL
        assert res.objective == pytest.approx(3.0, abs=1e-9)
        assert res.duals[0] == pytest.approx(1.0, abs=1e-9)

    def test_feasible_start_skips_phase_one(self):
        m = MilpModel("t", "min")
        x = m.add_var("x")
        m.add_constraint({x: 1.0}, "<=", 5.0)
        m.set_objective({x: 1.0})
        res = solve_lp(m.finalize())
        assert res.status == STATUS_OPTIMAL
        assert res.objective == 0.0
        # x = 0 satisfies the row, so its slack starts basic inside its
        # bounds: phase 1 has nothing to repair and phase 2 prices once
        assert res.stats["iterations"] == 1

    @pytest.mark.parametrize("q_sign, q_ub, iterations, objective", [
        (1.0, np.inf, 2, 5.0),   # x + q == 3: q = 3 covers the row
        (-1.0, np.inf, 1, 6.0),  # x - q == -3: q = 3 covers it, already optimal
        (1.0, 2.0, 4, 5.0),      # q <= 2 cannot hold 3: the slack stays, violated
    ])
    def test_singleton_crash_skips_phase_one(self, q_sign, q_ub, iterations, objective):
        m = MilpModel("t", "min")
        x = m.add_var("x")
        q = m.add_var("q", ub=q_ub)
        m.add_constraint({x: 1.0, q: q_sign}, "==", 3.0 * q_sign)
        m.add_constraint({x: 1.0}, "<=", 1.0)
        m.set_objective({x: 1.0, q: 2.0})
        m.finalize()
        res = solve_lp(m)
        assert res.status == STATUS_OPTIMAL
        assert res.objective == pytest.approx(objective, abs=1e-9)
        assert np.allclose(res.duals, get_backend("highs").solve_lp(m).duals, atol=1e-9)
        # q has its only nonzero in row 0, the row its slack (fixed at 0)
        # cannot cover; when q can absorb the residual it starts basic
        # and the start is feasible, so phase 1 has no pass
        assert res.stats["iterations"] == iterations

    def test_infeasible_pair(self):
        m = MilpModel("t", "max")
        x = m.add_var("x")
        m.add_constraint({x: 1.0}, "<=", -1.0)
        m.set_objective({x: 1.0})
        assert solve_lp(m.finalize()).status == STATUS_INFEASIBLE

    def test_unbounded(self):
        m = MilpModel("t", "max")
        x = m.add_var("x")
        m.add_constraint({x: 1.0}, ">=", 1.0)
        m.set_objective({x: 1.0})
        assert solve_lp(m.finalize()).status == STATUS_UNBOUNDED

    def test_strong_duality_against_explicit_dual(self):
        rng = np.random.default_rng(17)
        solved = 0
        for _ in range(40):
            primal, A, b, senses, c = random_lp(rng)
            p = solve_lp(primal)
            d = solve_lp(explicit_dual(A, b, senses, c))
            if p.status == STATUS_OPTIMAL:
                assert d.status == STATUS_OPTIMAL
                assert abs(p.objective - d.objective) <= 1e-7 * (1 + abs(p.objective))
                solved += 1
            elif p.status == STATUS_INFEASIBLE:
                assert d.status in (STATUS_UNBOUNDED, STATUS_INFEASIBLE)
            elif p.status == STATUS_UNBOUNDED:
                assert d.status == STATUS_INFEASIBLE
        assert solved >= 10  # the sampler must exercise the optimal path

    def test_duals_match_highs(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            mdl, *_ = random_lp(rng)
            ref = solve_lp(mdl)
            hig = get_backend("highs").solve_lp(mdl)
            assert ref.status == hig.status
            if ref.status == STATUS_OPTIMAL:
                assert np.allclose(ref.duals, hig.duals, atol=1e-6)


class TestSolveMilp:
    def test_knapsack(self):
        m = MilpModel("k", "max")
        a = m.add_var("a", "binary")
        b = m.add_var("b", "binary")
        m.add_constraint({a: 1.0, b: 1.0}, "<=", 1.0)
        m.set_objective({a: 3.0, b: 2.0})
        res = solve_milp(m.finalize())
        assert res.status == STATUS_OPTIMAL
        assert res.objective == pytest.approx(3.0)
        assert res.values[0] == pytest.approx(1.0)

    def test_pure_lp_identical(self):
        m = MilpModel("l", "min")
        x = m.add_var("x", lb=1.0, ub=5.0)
        m.set_objective({x: 2.0})
        m.finalize()
        assert solve_milp(m).objective == pytest.approx(solve_lp(m).objective)

    def test_against_binary_enumeration(self):
        rng = np.random.default_rng(23)
        for trial in range(12):
            n_cont, n_bin, m_rows = 3, int(rng.integers(2, 6)), 4
            mdl = MilpModel(f"e{trial}", "max")
            xs = [mdl.add_var(f"x{i}", ub=4.0) for i in range(n_cont)]
            bs = [mdl.add_var(f"b{i}", "binary") for i in range(n_bin)]
            A = rng.normal(size=(m_rows, n_cont + n_bin))
            rhs = rng.normal(size=m_rows) * 2 + 3
            for r in range(m_rows):
                mdl.add_constraint({i: A[r, i] for i in range(n_cont + n_bin)}, "<=", rhs[r])
            c = rng.normal(size=n_cont + n_bin)
            mdl.set_objective({i: c[i] for i in range(n_cont + n_bin)})
            mdl.finalize()
            res = solve_milp(mdl)

            # oracle: enumerate every binary assignment, LP for each
            best = None
            for bits in itertools.product((0, 1), repeat=n_bin):
                fixed = mdl.clone()
                for b, val in zip(bs, bits):
                    fixed.variables[b].lb = fixed.variables[b].ub = float(val)
                sub = solve_lp(fixed.finalize())
                if sub.status == STATUS_OPTIMAL and (best is None or sub.objective > best):
                    best = sub.objective
            if best is None:
                assert res.status == STATUS_INFEASIBLE
            else:
                assert res.status == STATUS_OPTIMAL
                assert abs(res.objective - best) <= 1e-7 * (1 + abs(best))

    def test_determinism(self):
        rng = np.random.default_rng(9)
        mdl, *_ = random_lp(rng, n=5, m=4)
        work = mdl.clone()
        b1 = work.add_var("b1", "binary")
        b2 = work.add_var("b2", "binary")
        work.add_constraint({0: 1.0, b1: 3.0, b2: -2.0}, "<=", 2.5)
        work.set_objective({0: 1.0, b1: 1.0, b2: 1.0}, "max")
        work.finalize()
        r1 = solve_milp(work)
        r2 = solve_milp(work)
        assert r1.status == r2.status
        assert r1.objective == r2.objective
        assert np.array_equal(r1.values, r2.values)


class TestBackends:
    def test_reference_identity(self):
        m = MilpModel("t", "max")
        a = m.add_var("a", "binary")
        m.add_constraint({a: 1.0}, "<=", 1.0)
        m.set_objective({a: 2.0})
        m.finalize()
        assert backend_solve("reference", m).objective == solve_milp(m).objective

    def test_cross_backend_agreement(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            mdl, *_ = random_lp(rng, n=5, m=4)
            work = mdl.clone()
            b = work.add_var("bb", "binary")
            work.add_constraint({0: 1.0, b: 1.0}, "<=", 2.0)
            work.set_objective(dict(work.objective), "min")
            work.finalize()
            ref = backend_solve("reference", work)
            hig = backend_solve("highs", work)
            assert ref.status == hig.status
            if ref.status == STATUS_OPTIMAL:
                assert abs(ref.objective - hig.objective) <= 1e-6 * (1 + abs(hig.objective))

    def test_unknown_backend(self):
        m = MilpModel("t").finalize()
        with pytest.raises(ModelError, match="unknown backend"):
            backend_solve("no-such-engine", m)

    def test_polished_solutions_are_exactly_integral(self):
        for m, expected in ((pattern_model(), 100.5), (leak_model(), 0.0)):
            for name in ("reference", "highs"):
                res = backend_solve_polished(name, m)
                assert res.status == STATUS_OPTIMAL
                for b in m.binary_indices():
                    assert float(res.values[b]) in (0.0, 1.0)
                assert res.objective == pytest.approx(expected, abs=1e-9)


def pattern_model():
    m = MilpModel("p", "max")
    bs = [m.add_var(f"b{i}", "binary") for i in range(4)]
    u = m.add_var("u", ub=100.0)
    m.add_constraint({u: 1.0, bs[0]: -100.0}, "<=", 0.0)
    m.add_constraint({b: 1.0 for b in bs}, "<=", 2.0)
    m.set_objective({u: 1.0, bs[1]: 0.5})
    return m.finalize()


def leak_model():
    """max u - 100b, u <= 1e8*b, u <= 10: the optimum is 0 at b = 0.

    Its LP relaxation takes b = 1e-7, inside every engine's integrality
    tolerance, and claims 10 - 1e-5 through the big-M row.
    """
    m = MilpModel("leak", "max")
    b = m.add_var("b", "binary")
    u = m.add_var("u", ub=10.0)
    m.add_constraint({u: 1.0, b: -1e8}, "<=", 0.0)
    m.set_objective({u: 1.0, b: -100.0})
    return m.finalize()


LEAKY_CLAIM = SolveResult(STATUS_OPTIMAL, objective=10.0 - 1e-5, values=np.array([1e-7, 10.0]))


class ScriptedAdapter:
    """Answers MILP solves from a script (its last answer repeats); LPs exactly."""

    def __init__(self, *answers):
        self.answers = list(answers)
        self.milp_calls = 0

    def solve_lp(self, model):
        return solve_lp(model)

    def solve_milp(self, model, config=None):
        self.milp_calls += 1
        return self.answers.pop(0) if len(self.answers) > 1 else self.answers[0]


class TestCertifyOrExclude:
    def test_certified_optimum_survives_a_worse_claim(self):
        # round 1 claims the leaky point, whose pattern b = 0 certifies at 0;
        # round 2 claims b = 1 exactly at -90, which the kept certificate meets
        adapter = ScriptedAdapter(
            LEAKY_CLAIM, SolveResult(STATUS_OPTIMAL, objective=-90.0, values=np.array([1.0, 10.0])))
        res = solve_milp_certified(adapter, leak_model())
        assert adapter.milp_calls == 2
        assert res.status == STATUS_OPTIMAL
        assert res.objective == pytest.approx(0.0, abs=1e-12)
        assert res.values[0] == 0.0

    def test_limit_without_values_after_an_exclusion(self):
        adapter = ScriptedAdapter(LEAKY_CLAIM, SolveResult(STATUS_TIME_LIMIT))
        res = solve_milp_certified(adapter, leak_model())
        assert res.status == STATUS_TIME_LIMIT
        assert res.objective == pytest.approx(0.0, abs=1e-12)
        assert res.values[0] == 0.0

    def test_exhausted_exclusions_claim_no_optimality(self):
        adapter = ScriptedAdapter(LEAKY_CLAIM)
        res = solve_milp_certified(adapter, leak_model())
        assert res.status == STATUS_GAP_LIMIT
        assert adapter.milp_calls == solve.MAX_EXCLUSIONS + 1
        assert res.objective == pytest.approx(0.0, abs=1e-12)


def knapsack():
    m = MilpModel("k", "max")
    bs = [m.add_var(f"b{i}", "binary") for i in range(4)]
    m.add_constraint({b: w for b, w in zip(bs, (3.0, 4.0, 5.0, 6.0))}, "<=", 10.0)
    m.set_objective({b: v for b, v in zip(bs, (4.0, 5.0, 7.0, 8.0))})
    return m.finalize()


@pytest.fixture
def milp_options(monkeypatch):
    """The options of every scipy milp call the test makes, in call order."""
    seen = []
    real_milp = scipy.optimize.milp

    def spy(*args, options=None, **kwargs):
        seen.append(options)
        return real_milp(*args, options=options, **kwargs)

    monkeypatch.setattr(scipy.optimize, "milp", spy)
    return seen


def follower_case():
    inst = generate(GenConfig(I=2, J=2, K=1, graph_size=20, seed=5))
    leader = LeaderDecision.from_prices(inst, p=[g[0] for g in inst.p_grid],
                                        ps=[g[0] for g in inst.ps_grid], z=[1] * inst.J)
    return inst, leader


class TestHighsOptions:
    @pytest.mark.parametrize("follower_profile", [False, True])
    def test_options_reach_highs_without_warnings(self, follower_profile):
        with warnings.catch_warnings():
            # fails if HiGHS no longer knows an option name (OptimizeWarning)
            # or if milp's "passed verbatim" RuntimeWarning escapes the adapter
            warnings.simplefilter("error")
            res = get_backend("highs").solve_milp(
                knapsack(), SolverConfig(follower_profile=follower_profile))
        assert res.status == STATUS_OPTIMAL and res.objective == pytest.approx(13.0)

    def test_follower_milps_get_the_follower_profile(self, milp_options):
        """SP1, SP2 and the KKT follower run with root reduced cost on and
        feasibility jump off; a master keeps feasibility jump and has RINS,
        RENS and root reduced cost off."""
        def heuristics_of(solve_it):
            milp_options.clear()
            solve_it()
            seen = [{name: options[f"mip_heuristic_run_{name}"]
                     for name in ("rins", "rens", "root_reduced_cost", "feasibility_jump")}
                    for options in milp_options]
            assert seen
            return seen[0] if all(s == seen[0] for s in seen) else seen

        inst, leader = follower_case()
        follower_runs = {
            "sp1": lambda: solve_sp1(inst, 0, leader, backend="highs"),
            "sp2": lambda: solve_sp2(inst, leader, [solve_sp1(inst, 0, leader)[1]],
                                     backend="highs"),
            "kkt": lambda: solve_kkt_follower(inst, 0, leader, backend="highs"),
        }
        for name, run in follower_runs.items():
            assert heuristics_of(run) == {"rins": False, "rens": False, "root_reduced_cost": True,
                                          "feasibility_jump": False}, name
        master = {"rins": False, "rens": False, "root_reduced_cost": False,
                  "feasibility_jump": True}
        assert heuristics_of(lambda: solve_hpp(inst, backend="highs")) == master
        assert heuristics_of(lambda: backend_solve_polished("highs", knapsack())) == master

    def test_only_the_enumeration_master_gets_a_time_limit(self, milp_options):
        """solve_bruteforce's time limit reaches HiGHS; the masters of
        run_algorithm1 (feasibility jump on) run without one."""
        inst, _ = follower_case()
        solve_bruteforce(inst, backend="highs", time_limit=50.0)
        assert milp_options and all(o["time_limit"] == 50.0 for o in milp_options)
        milp_options.clear()
        run_algorithm1(inst, epsilon=1e-8, backend="highs")
        masters = [o for o in milp_options if o["mip_heuristic_run_feasibility_jump"]]
        assert masters and all("time_limit" not in o for o in masters)

    def test_unknown_option_name_is_loud(self, monkeypatch):
        monkeypatch.setitem(solve.HIGHS_MILP_OPTIONS, "mip_heuristic_run_rinz", False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OptimizeWarning, match="mip_heuristic_run_rinz"):
                get_backend("highs").solve_milp(knapsack())


class TestPolish:
    def test_caller_model_is_not_modified(self):
        m = MilpModel("p", "max")
        bs = [m.add_var(f"b{i}", "binary") for i in range(3)]
        u = m.add_var("u", ub=20.0)
        m.add_constraint({u: 1.0, bs[0]: -10.0, bs[2]: -5.0}, "<=", 0.0)
        m.add_constraint({b: 1.0 for b in bs}, "<=", 2.0)
        m.set_objective({u: 1.0, bs[1]: 0.5})
        m.finalize()
        before = m.dump_lp()

        def lp_solver(model):
            # the LP sees the binaries fixed, the caller's model never does
            assert [(m.variables[b].lb, m.variables[b].ub) for b in bs] == [(0.0, 1.0)] * 3
            assert [(model.variables[b].lb, model.variables[b].ub) for b in bs] == \
                [(1.0, 1.0), (0.0, 0.0), (1.0, 1.0)]
            return solve_lp(model)

        res = polish_binaries(m, np.array([1.0 - 1e-7, 1e-7, 1.0, 15.0]), lp_solver)
        assert res.objective == pytest.approx(15.0)
        assert list(res.values[:3]) == [1.0, 0.0, 1.0]
        assert m.dump_lp() == before


class TestTimeLimit:
    def test_time_limit_status(self):
        rng = np.random.default_rng(13)
        mdl = MilpModel("big", "max")
        bs = [mdl.add_var(f"b{i}", "binary") for i in range(26)]
        w1 = rng.uniform(1, 9, 26)
        w2 = rng.uniform(1, 9, 26)
        v = w1 + w2 + rng.uniform(0, 0.01, 26)  # correlated: hard for B&B
        mdl.add_constraint({b: w1[i] for i, b in enumerate(bs)}, "<=", w1.sum() / 2)
        mdl.add_constraint({b: w2[i] for i, b in enumerate(bs)}, "<=", w2.sum() / 2)
        mdl.set_objective({b: v[i] for i, b in enumerate(bs)})
        mdl.finalize()
        res = solve_milp(mdl, SolverConfig(time_limit=0.05))
        assert res.status in (STATUS_TIME_LIMIT, STATUS_OPTIMAL)


class TestConfigValidation:
    def test_bad_tolerances(self):
        with pytest.raises(ModelError):
            SolverConfig(int_tol=0.0).validate()
