"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Heavy batches are computed once per session and shared.  The bilevel
batches run on the certified HiGHS adapter (every returned pattern is
re-certified by an exact LP with the binaries fixed); the built-in
reference engine is exercised end-to-end on the tiny companion
instances inside criterion 1 and throughout the follower-level
criteria.
"""

import itertools
import math
import os

import numpy as np
import pytest

from edgeprice.bilevel import run_algorithm1, solve_bruteforce, solve_hpp
from edgeprice.follower import (LeaderDecision, assemble_solution,
                                solve_fixed_t_lp, solve_kkt_follower, solve_sp1)
from edgeprice.instance import GenConfig, generate
from edgeprice.strategies import audit_sizes, solve_scheme

from conftest import make_manual_instance

BACKEND = os.environ.get("EDGEPRICE_ACCEPT_BACKEND", "highs")
QUICK = os.environ.get("EDGEPRICE_ACCEPT_QUICK") == "1"  # smoke mode, not the gate

REL_TOL = 1e-6
EPSILON = 1e-8          # run tolerance; criterion 4 checks against 1e-4
ITER_EXPECTATION = 10   # reported convergence expectation, warning only


def _announce(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} — {detail}")


# -- shared batches ----------------------------------------------------


@pytest.fixture(scope="session")
def batch_oracle():
    """Criterion 1/4/8 workload: Algorithm 1 vs full enumeration."""
    n = 4 if QUICK else 20
    runs = []
    for i in range(n):
        seed = 100 + i
        K = 2 + (i % 3)
        inst = generate(GenConfig(I=6, J=4, K=K, graph_size=60, seed=seed))
        state = run_algorithm1(inst, epsilon=EPSILON, backend=BACKEND)
        bf, bf_status = solve_bruteforce(inst, backend=BACKEND)
        runs.append({"seed": seed, "K": K, "instance": inst, "state": state,
                     "bf": bf, "bf_status": bf_status})
    return runs


@pytest.fixture(scope="session")
def batch_follower():
    """Criterion 2/3 workload: SP1 vs enumeration vs KKT, with duals."""
    n = 5 if QUICK else 20
    out = []
    rng = np.random.default_rng(2024)
    for i in range(n):
        seed = 200 + i
        J = 2 + (i % 5)               # J cycles 2..6
        I = 3 + (i % 4)
        inst = generate(GenConfig(I=I, J=J, K=1, graph_size=40, seed=seed))
        z = [int(v) for v in rng.integers(0, 2, J)]
        if sum(z) == 0:
            z[int(rng.integers(0, J))] = 1
        leader = LeaderDecision.from_prices(
            inst,
            p=[inst.p_grid[j][int(rng.integers(0, inst.V))] for j in range(J)],
            ps=[inst.ps_grid[j][int(rng.integers(0, inst.H))] for j in range(J)],
            z=z)
        _, phi = solve_sp1(inst, 0, leader, backend="reference")
        duality_worst = 0.0
        enum_best = None
        for bits in itertools.product((0, 1), repeat=J):
            res = solve_fixed_t_lp(inst, 0, leader, list(bits), backend="reference")
            if res.status != "optimal":
                continue
            dual_obj = res.dual.objective(inst, 0, leader, list(bits))
            duality_worst = max(duality_worst,
                                abs(dual_obj - res.lp_value) / (1 + abs(res.lp_value)))
            if enum_best is None or res.objective < enum_best:
                enum_best = res.objective
        kkt_obj, residuals, _ = solve_kkt_follower(inst, 0, leader, backend=BACKEND)
        out.append({"seed": seed, "phi": phi, "enum": enum_best, "kkt": kkt_obj,
                    "duality_worst": duality_worst,
                    "compl_worst": max(residuals.values())})
    return out


@pytest.fixture(scope="session")
def batch_schemes():
    """Criterion 6 workload: dyn/flat/avg on the same instances."""
    n = 3 if QUICK else 10
    out = []
    for i in range(n):
        seed = 600 + i
        inst = generate(GenConfig(I=6, J=4, K=3, graph_size=60, seed=seed))
        entry = {"seed": seed}
        for kind in ("dyn", "flat", "avg"):
            entry[kind] = solve_scheme(inst, kind, epsilon=EPSILON,
                                       backend=BACKEND)
        out.append(entry)
    return out


# -- criteria ----------------------------------------------------------


class TestCriterion1OracleEquivalence:
    def test_algorithm_matches_bruteforce(self, batch_oracle):
        worst = 0.0
        for run in batch_oracle:
            assert run["bf_status"] == "optimal"
            assert run["state"].status in ("gap-closed", "duplicate-t"), \
                f"seed {run['seed']}: {run['state'].status}"
            lb, ref = run["state"].LB, run["bf"].theta
            rel = abs(lb - ref) / max(1.0, abs(ref))
            worst = max(worst, rel)
            assert rel <= REL_TOL, f"seed {run['seed']}: LB={lb} bf={ref}"
        _announce(1, True,
                  f"{len(batch_oracle)} instances (I=6, J=4, K in 2..4): worst relative "
                  f"difference {worst:.2e} <= {REL_TOL:.0e} [{BACKEND} backend]")

    def test_reference_engine_companion(self):
        # the built-in engine, end to end, on hand-written tiny instances
        worst = 0.0
        for variant in range(3):
            inst = make_manual_instance(
                I=2, J=2, K=1,
                p_grid=[[0.02, 0.05] for _ in range(2)],
                ps_grid=[[0.01] for _ in range(2)],
                C=[25.0, 30.0], f=[0.3, 0.4 + 0.1 * variant], c=[0.1, 0.2],
                d=[[4.0, 8.0], [7.0, 3.0 + variant]], w=[5e-4],
            )
            state = run_algorithm1(inst, epsilon=EPSILON, backend="reference")
            bf, status = solve_bruteforce(inst, backend="reference")
            assert status == "optimal"
            rel = abs(state.LB - bf.theta) / max(1.0, abs(bf.theta))
            worst = max(worst, rel)
            assert rel <= REL_TOL
        _announce(1, True, f"reference-engine companion (3 tiny instances): "
                           f"worst relative difference {worst:.2e}")


class TestCriterion2ThreeWayFollowerAgreement:
    def test_three_way(self, batch_follower):
        worst = 0.0
        for rec in batch_follower:
            for other in ("enum", "kkt"):
                rel = abs(rec["phi"] - rec[other]) / max(1.0, abs(rec["phi"]))
                worst = max(worst, rel)
                assert rel <= REL_TOL, f"seed {rec['seed']}: phi={rec['phi']} {other}={rec[other]}"
        _announce(2, True, f"{len(batch_follower)} instances (J <= 6): "
                           f"worst relative spread {worst:.2e} <= {REL_TOL:.0e}")


class TestCriterion3StrongDuality:
    def test_every_fixed_placement_lp(self, batch_follower):
        worst = max(rec["duality_worst"] for rec in batch_follower)
        assert worst <= 1e-7
        _announce(3, True, f"every fixed-placement LP: worst |primal-dual| "
                           f"residual {worst:.2e} <= 1e-07")


class TestCriterion4BoundsAndTermination:
    def test_monotone_bounds_gap_and_iterations(self, batch_oracle, batch_schemes):
        states = [run["state"] for run in batch_oracle]
        for entry in batch_schemes:
            states += [entry[kind].state for kind in ("dyn", "flat", "avg")]
        max_iters = 0
        for state in states:
            ubs = [row["UB"] for row in state.trace]
            lbs = [row["LB"] for row in state.trace]
            for i in range(len(ubs) - 1):
                assert ubs[i + 1] <= ubs[i] + 1e-9 * (1 + abs(ubs[i]))
            for i in range(len(lbs) - 1):
                assert lbs[i + 1] >= lbs[i] - 1e-12
            assert state.gap <= 1e-4
            assert state.iteration <= 2 ** 4 + 1
            max_iters = max(max_iters, state.iteration)
        note = f"{len(states)} runs: bounds monotone, final gap <= 1e-4, " \
               f"max iterations {max_iters} (cap {2 ** 4 + 1})"
        if max_iters > ITER_EXPECTATION:
            note += f" [warning: exceeded the {ITER_EXPECTATION}-iteration expectation]"
        _announce(4, True, note)


class TestCriterion5UniversalFeasibility:
    def test_all_drop_and_finite_relaxation(self):
        n_inst = 6 if QUICK else 25
        rng = np.random.default_rng(555)
        pairs = 0
        hpp_values = {}
        bilevel_checked = 0
        for i in range(n_inst):
            seed = 500 + i
            inst = generate(GenConfig(I=3 + (i % 2), J=2 + (i % 2), K=1 + (i % 2),
                                      graph_size=30, seed=seed))
            hpp = solve_hpp(inst, backend=BACKEND)
            assert math.isfinite(hpp.theta)
            hpp_values[seed] = (inst, hpp.theta)
            for _ in range(4):
                z = [int(v) for v in rng.integers(0, 2, inst.J)]
                leader = LeaderDecision.from_prices(
                    inst,
                    p=[inst.p_grid[j][int(rng.integers(0, inst.V))] for j in range(inst.J)],
                    ps=[inst.ps_grid[j][int(rng.integers(0, inst.H))] for j in range(inst.J)],
                    z=z)
                for k in range(inst.K):
                    drop = assemble_solution(
                        inst, k, leader,
                        x=[[0.0] * inst.J for _ in range(inst.I)],
                        x0=[0.0] * inst.I,
                        q=[inst.R[i2][k] for i2 in range(inst.I)],
                        y=[0.0] * inst.J, y0=0.0, t=[0] * inst.J)
                    assert drop.max_violation(inst, k, leader) <= 1e-12
                pairs += 1
        for seed, (inst, hpp_val) in list(hpp_values.items())[:8]:
            state = run_algorithm1(inst, epsilon=EPSILON, backend=BACKEND)
            assert hpp_val >= state.LB - 1e-9 * (1 + abs(hpp_val))
            bilevel_checked += 1
        _announce(5, True, f"{pairs} (instance, leader) pairs: all-drop point feasible; "
                           f"relaxation finite on {n_inst} instances and >= the bilevel "
                           f"optimum on {bilevel_checked}")


class TestCriterion6SchemeDominance:
    def test_nested_feasible_sets_order_profits(self, batch_schemes):
        worst_gap = 0.0
        for entry in batch_schemes:
            dyn, flat, avg = (entry[k] for k in ("dyn", "flat", "avg"))
            for res in (dyn, flat, avg):
                assert res.status in ("gap-closed", "duplicate-t")
            tol = REL_TOL * (1 + abs(dyn.profit))
            assert dyn.profit >= flat.profit - tol, entry["seed"]
            assert flat.profit >= avg.profit - tol, entry["seed"]
            worst_gap = max(worst_gap, flat.profit - dyn.profit, avg.profit - flat.profit)
        _announce(6, True, f"{len(batch_schemes)} instances (I=6, J=4, K=3): "
                           f"profit(dyn) >= profit(flat) >= profit(avg); worst ordering "
                           f"violation {max(worst_gap, 0.0):.2e}")


class TestCriterion7SizeAudit:
    @pytest.mark.parametrize("dims", [(12, 8, 4, 5, 3, 1),
                                      (6, 4, 3, 5, 3, 0),
                                      (9, 6, 4, 5, 3, 2)])
    def test_closed_forms_exact(self, dims):
        report = audit_sizes(*dims)
        assert report["ok"], report
        if dims == (9, 6, 4, 5, 3, 2):
            _announce(7, True, "built MP/SP1/SP2 counts equal the closed forms exactly "
                               "for (12,8,4,5,3,1), (6,4,3,5,3,0), (9,6,4,5,3,2)")


class TestCriterion8LinearizationExactness:
    def test_products_exact_and_bigm_clean(self, batch_oracle, batch_schemes):
        worst = 0.0
        flags = []
        for run in batch_oracle:
            worst = max(worst, run["state"].linearization_worst)
            flags += run["state"].bigm_flags
        for entry in batch_schemes:
            for kind in ("dyn", "flat", "avg"):
                worst = max(worst, entry[kind].state.linearization_worst)
                flags += entry[kind].state.bigm_flags
        assert worst <= 1e-6
        assert flags == []
        _announce(8, True, f"all linked products within {worst:.2e} of their defining "
                           f"products; no dual variable reached 0.99*M")


class TestCriterion9ExclusionsDocumented:
    def test_out_of_scope_items_are_substituted(self):
        # absolute profit/price levels and wall-clock targets depend on random
        # draws and solver hardware that cannot be pinned down; criteria 1-8
        # plus the shape-level sweep reports stand in for them
        _announce(9, True, "excluded by design: absolute experiment values and "
                           "wall-clock parity; substituted by criteria 1-8 and sweeps")
