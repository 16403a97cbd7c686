import copy
import itertools
import sys
import threading

import numpy as np
import pytest

from edgeprice import follower
from edgeprice.follower import (FollowerError, LeaderDecision, ModelVariant,
                                cost_breakdown, derived_dual_bound, enumerate_placements,
                                follower_cost, solve_fixed_t_lp, solve_kkt_follower,
                                solve_sp1)
from edgeprice.instance import GenConfig, generate
from conftest import make_manual_instance, rel_close


def mid_leader(inst, z=None):
    z = z if z is not None else [1] * inst.J
    return LeaderDecision.from_prices(
        inst,
        p=[inst.p_grid[j][len(inst.p_grid[j]) // 2] for j in range(inst.J)],
        ps=[inst.ps_grid[j][0] for j in range(inst.J)],
        z=z)


def random_leader(inst, rng):
    z = [int(v) for v in rng.integers(0, 2, inst.J)]
    if sum(z) == 0:
        z[int(rng.integers(0, inst.J))] = 1
    return LeaderDecision.from_prices(
        inst,
        p=[inst.p_grid[j][int(rng.integers(0, inst.V))] for j in range(inst.J)],
        ps=[inst.ps_grid[j][int(rng.integers(0, inst.H))] for j in range(inst.J)],
        z=z)


class TestLeaderDecision:
    def test_from_prices_stores_the_grid_level(self, small_instance):
        # a price within grid_level's tolerance of a level is stored as that level
        inst = small_instance
        levels = [inst.p_grid[j][j] for j in range(inst.J)]
        ld = LeaderDecision.from_prices(inst, p=[g + 1e-10 for g in levels],
                                        ps=[inst.ps_grid[j][0] for j in range(inst.J)],
                                        z=[1] * inst.J)
        assert ld.p == levels
        assert ld.validate(inst) is ld

    def test_off_grid_price_rejected(self, small_instance):
        with pytest.raises(FollowerError, match="not a member"):
            LeaderDecision.from_prices(small_instance,
                                       p=[0.123] * small_instance.J,
                                       ps=[0.005] * small_instance.J,
                                       z=[1] * small_instance.J)

    def test_price_moved_off_the_grid_rejected(self, small_instance):
        ld = mid_leader(small_instance)
        ld.validate(small_instance)
        ld.ps[1] += 1e-3
        with pytest.raises(FollowerError, match=r"ps\[1\].*not a member"):
            ld.validate(small_instance)


class TestAllDrop:
    def test_inactive_network_with_costly_cloud(self):
        # psi below the cloud serving cost p0 + w*d0 = 0.02 + 1e-3*60 = 0.08,
        # so with every node off the service prefers dropping to the cloud
        inst = make_manual_instance(w=[1e-3], psi=[[0.05], [0.05]])
        leader = mid_leader(inst, z=[0, 0])
        sol, phi = solve_sp1(inst, 0, leader)
        assert rel_close(phi, inst.all_drop_cost(0))
        assert sol.t == [0, 0] and sol.y0 == pytest.approx(0.0, abs=1e-9)
        assert sum(sol.q) == pytest.approx(sum(r[0] for r in inst.R), abs=1e-7)

    def test_zero_budget_forces_drop(self):
        inst = make_manual_instance(B=[0.0])
        leader = mid_leader(inst)
        sol, phi = solve_sp1(inst, 0, leader)
        assert rel_close(phi, inst.all_drop_cost(0))
        assert sol.y0 == pytest.approx(0.0, abs=1e-9)
        assert sol.t == [0, 0]

    def test_phi_never_exceeds_all_drop(self, small_instance):
        rng = np.random.default_rng(2)
        for _ in range(4):
            leader = random_leader(small_instance, rng)
            for k in range(small_instance.K):
                _, phi = solve_sp1(small_instance, k, leader)
                assert phi <= small_instance.all_drop_cost(k) + 1e-9


class TestEnumerationOracle:
    def test_milp_equals_placement_enumeration(self):
        inst = generate(GenConfig(I=3, J=2, K=2, graph_size=25, seed=21))
        rng = np.random.default_rng(4)
        for trial in range(3):
            leader = random_leader(inst, rng)
            for k in range(inst.K):
                _, phi = solve_sp1(inst, k, leader)
                best = enumerate_placements(inst, k, leader)
                assert rel_close(phi, best.objective)

    def test_solution_invariants(self, small_instance):
        leader = mid_leader(small_instance)
        sol, phi = solve_sp1(small_instance, 0, leader)
        assert sol.max_violation(small_instance, 0, leader) <= 1e-6
        assert rel_close(sol.costs.total, phi)


class TestFixedPlacementLp:
    @pytest.mark.parametrize("placement", [True, False], ids=["placement", "no_placement"])
    @pytest.mark.parametrize("backend", ["reference", "highs"])
    def test_strong_duality(self, small_instance, backend, placement):
        variant = ModelVariant(placement_in_follower=placement)
        leader = mid_leader(small_instance)
        for t in itertools.product((0, 1), repeat=small_instance.J):
            res = solve_fixed_t_lp(small_instance, 0, leader, list(t), variant, backend=backend)
            assert res.status == "optimal"
            dual_obj = res.dual.objective(small_instance, 0, leader, list(t), variant)
            assert abs(dual_obj - res.lp_value) <= 1e-7 * (1 + abs(res.lp_value))
            assert res.dual.max_infeasibility(small_instance, 0, leader) <= 1e-7

    def test_all_drop_duals_respect_eta_cap(self):
        inst = make_manual_instance(w=[1e-3], psi=[[0.05], [0.05]])
        leader = mid_leader(inst, z=[0, 0])
        res = solve_fixed_t_lp(inst, 0, leader, [0, 0])
        assert res.status == "optimal"
        assert rel_close(res.objective, inst.all_drop_cost(0))
        for i in range(inst.I):
            assert res.dual.eta[i] <= inst.psi[i][0] + 1e-9

    def test_t_exceeding_z_is_infeasible(self, small_instance):
        leader = mid_leader(small_instance, z=[0] * small_instance.J)
        res = solve_fixed_t_lp(small_instance, 0, leader, [1, 0])
        assert res.status == "infeasible"

    def test_placement_cost_over_budget_infeasible(self):
        inst = make_manual_instance(B=[0.1])
        leader = mid_leader(inst)
        res = solve_fixed_t_lp(inst, 0, leader, [1, 1])
        assert res.status == "infeasible"
        assert "budget" in res.reason


def deck_case(seed, I, J, p, ps):
    """An instance and leader of the follower bench's recipe (K=1, every node active)."""
    inst = generate(GenConfig(seed=seed, I=I, J=J, K=1, graph_size=40))
    leader = LeaderDecision.from_prices(
        inst, p=[inst.p_grid[j][v] for j, v in enumerate(p)],
        ps=[inst.ps_grid[j][h] for j, h in enumerate(ps)], z=[1] * J)
    return inst, leader


def solve_all(inst, leader, order, forget=False):
    """Every placement's LP, in the given order of placements."""
    out = {}
    for bits in order:
        if forget:
            vars(follower._last_family).clear()
        out[bits] = solve_fixed_t_lp(inst, 0, leader, list(bits))
    return out


def same_answers(a, b):
    assert a.keys() == b.keys()
    for bits in a:
        assert (a[bits].status, a[bits].objective) == (b[bits].status, b[bits].objective)
        assert a[bits].dual == b[bits].dual and a[bits].solution == b[bits].solution


class TestPlacementFamily:
    """The fixed-placement LPs of one (instance, service, leader) share a
    model and a root basis; an answer must not depend on the calls made
    before it."""

    CASES = [(203, 6, 5, [4, 0, 2, 1, 3], [2, 0, 1, 1, 0]),
             (204, 3, 6, [0, 3, 1, 4, 2, 2], [1, 2, 0, 0, 1, 2])]

    @pytest.mark.parametrize("case", CASES, ids=["seed203", "seed204"])
    def test_answers_do_not_depend_on_call_order(self, case):
        inst, leader = deck_case(*case)
        order = list(itertools.product((0, 1), repeat=inst.J))
        forward = solve_all(inst, leader, order)
        assert sum(r.status == "optimal" for r in forward.values()) > 1
        same_answers(forward, solve_all(inst, leader, order[::-1]))
        same_answers(forward, solve_all(inst, leader, order, forget=True))

    def test_a_changed_instance_or_leader_is_solved_afresh(self):
        inst, leader = deck_case(*self.CASES[0])
        inst = copy.deepcopy(inst)
        t = [1, 0, 1, 0, 0]
        before = solve_fixed_t_lp(inst, 0, leader, t)
        costs = before.solution.costs
        # the same object, its budget now binding
        inst.B[0] = costs.placement + 0.5 * (costs.cloud + costs.edge)
        cheaper = LeaderDecision.from_prices(
            inst, p=[grid[0] for grid in inst.p_grid], ps=[grid[-1] for grid in inst.ps_grid],
            z=[1] * inst.J)
        for ld in (leader, cheaper):
            res = solve_fixed_t_lp(inst, 0, ld, t)
            ref = solve_fixed_t_lp(inst, 0, ld, t, backend="highs")
            assert res.status == ref.status == "optimal"
            assert abs(res.objective - ref.objective) <= 1e-9 * abs(ref.objective)
            assert res.objective != before.objective

    def test_threads_share_no_state(self):
        cases = [deck_case(*case) for case in self.CASES]
        orders = [list(itertools.product((0, 1), repeat=inst.J)) for inst, _ in cases]
        serial = [solve_all(inst, leader, order) for (inst, leader), order in zip(cases, orders)]
        threaded = [None, None]

        def work(slot):
            (inst, leader), order = cases[slot], orders[slot]
            threaded[slot] = solve_all(inst, leader, order)

        workers = [threading.Thread(target=work, args=(slot,)) for slot in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the two threads' solves finely
        try:
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=120)
                assert not w.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(serial, threaded):
            same_answers(a, b)


class TestDerivedDualBound:
    def test_price_floor_skips_a_zero_level(self):
        # grid [0, 0.01] with p0 = 0.02: the money term divides by 0.01, the
        # smallest positive price, not by p0
        inst = make_manual_instance(K=1, p_grid=[[0.0, 0.01]] * 2, psi=[[1.0], [1.0]])
        money = (1.0 + inst.p0 + inst.w[0] * 60.0) / 0.01
        assert derived_dual_bound(inst) == pytest.approx(10.0 * (money + 1.0))
        shifted = make_manual_instance(K=1, p_grid=[[0.01, 0.03]] * 2, psi=[[1.0], [1.0]])
        assert derived_dual_bound(inst) == derived_dual_bound(shifted)


class TestKktOracle:
    def test_three_way_agreement(self):
        rng = np.random.default_rng(6)
        for trial in range(4):
            inst = generate(GenConfig(I=int(rng.integers(2, 4)), J=int(rng.integers(2, 4)),
                                      K=1, graph_size=25, seed=300 + trial))
            leader = random_leader(inst, rng)
            _, phi = solve_sp1(inst, 0, leader)
            enum = enumerate_placements(inst, 0, leader)
            kkt_obj, residuals, _ = solve_kkt_follower(inst, 0, leader, backend="highs")
            assert rel_close(phi, enum.objective)
            assert rel_close(phi, kkt_obj)
            assert max(residuals.values()) <= 1e-6

    def test_reference_backend_small(self):
        inst = generate(GenConfig(I=2, J=2, K=1, graph_size=20, seed=5))
        leader = mid_leader(inst)
        _, phi = solve_sp1(inst, 0, leader)
        kkt_obj, residuals, _ = solve_kkt_follower(inst, 0, leader, backend="reference")
        assert rel_close(phi, kkt_obj)
        assert max(residuals.values()) <= 1e-6

    def test_zero_demand_gives_zero(self):
        inst = make_manual_instance(R=[[0.0], [0.0]])
        leader = mid_leader(inst)
        kkt_obj, residuals, _ = solve_kkt_follower(inst, 0, leader, backend="highs")
        assert abs(kkt_obj) <= 1e-9
        assert max(residuals.values()) <= 1e-6


class TestCostBreakdown:
    def test_all_drop_components(self):
        inst = make_manual_instance(w=[1e-3], psi=[[0.05], [0.05]])
        leader = mid_leader(inst, z=[0, 0])
        sol, _ = solve_sp1(inst, 0, leader)
        cb = cost_breakdown(inst, 0, leader, sol)
        assert cb.cloud == pytest.approx(0.0, abs=1e-9)
        assert cb.edge == pytest.approx(0.0, abs=1e-9)
        assert cb.placement == pytest.approx(0.0, abs=1e-9)
        assert cb.delay == pytest.approx(0.0, abs=1e-9)
        assert cb.unmet == pytest.approx(inst.all_drop_cost(0), rel=1e-9)

    def test_cloud_component_rate(self, small_instance):
        leader = mid_leader(small_instance)
        sol, _ = solve_sp1(small_instance, 0, leader)
        sol.y0 = 10.0
        sol.x0 = [min(10.0, small_instance.R[i][0]) for i in range(small_instance.I)]
        # direct recomputation of the cloud charge at p0 = 0.02
        from edgeprice.follower import assemble_solution
        fresh = assemble_solution(small_instance, 0, leader, sol.x, sol.x0, sol.q,
                                  sol.y, sol.y0, sol.t)
        assert fresh.costs.cloud == pytest.approx(0.02 * 10.0)

    def test_total_matches_term_by_term(self, small_instance):
        rng = np.random.default_rng(8)
        leader = random_leader(small_instance, rng)
        sol, phi = solve_sp1(small_instance, 0, leader)
        cb = cost_breakdown(small_instance, 0, leader, sol)
        inst = small_instance
        w = inst.w[0]
        manual = (inst.p0 * sol.y0
                  + sum(leader.p[j] * sol.y[j] for j in range(inst.J))
                  + sum(leader.placement_price(inst, 0, j) * sol.t[j] for j in range(inst.J))
                  + w * (sum(sol.x0[i] * inst.d0[i] for i in range(inst.I))
                         + sum(sol.x[i][j] * inst.d[i][j]
                               for i in range(inst.I) for j in range(inst.J)))
                  + sum(inst.psi[i][0] * sol.q[i] for i in range(inst.I)))
        assert cb.total == pytest.approx(manual, rel=1e-12)
        assert rel_close(cb.total, phi)

    def test_invalid_solution_rejected(self, small_instance):
        leader = mid_leader(small_instance)
        sol, _ = solve_sp1(small_instance, 0, leader)
        sol.q[0] = -5.0
        with pytest.raises(FollowerError):
            cost_breakdown(small_instance, 0, leader, sol)


class TestMonotonicity:
    def test_raising_one_price_never_helps(self):
        inst = generate(GenConfig(I=3, J=3, K=1, graph_size=25, seed=31))
        base = LeaderDecision.from_prices(
            inst, p=[inst.p_grid[j][0] for j in range(inst.J)],
            ps=[inst.ps_grid[j][0] for j in range(inst.J)], z=[1] * inst.J)
        _, phi0 = solve_sp1(inst, 0, base)
        for j in range(inst.J):
            for v in range(1, inst.V):
                p = list(base.p)
                p[j] = inst.p_grid[j][v]
                bumped = LeaderDecision.from_prices(inst, p, base.ps, base.z)
                _, phi = solve_sp1(inst, 0, bumped)
                assert phi >= phi0 - 1e-9


class TestZeroPriceDegeneracy:
    def test_matches_unbudgeted_penalty_lp(self):
        # all prices zero: optimal cost is pure penalty minimization; the
        # oracle drops the budget row entirely (it cannot bind at zero prices)
        inst = make_manual_instance(
            p_grid=[[0.0, 0.01] for _ in range(2)],
            ps_grid=[[0.0, 0.01] for _ in range(2)],
            p0=0.0)
        leader = LeaderDecision.from_prices(inst, [0.0, 0.0], [0.0, 0.0], [1, 1])
        # placement still costs phi, so give the follower free installs too
        inst2 = inst.copy()
        inst2.phi = [[0.0], [0.0]]
        inst2.validate()
        _, phi = solve_sp1(inst2, 0, leader)

        from edgeprice.model import Expr, MilpModel
        from edgeprice.solve import solve_lp
        I, J = inst2.I, inst2.J
        m = MilpModel("transport", "min")
        x = [[m.add_var(f"x[{i},{j}]") for j in range(J)] for i in range(I)]
        x0 = [m.add_var(f"x0[{i}]") for i in range(I)]
        q = [m.add_var(f"q[{i}]") for i in range(I)]
        w = inst2.w[0]
        obj = Expr()
        for i in range(I):
            obj.add(q[i], inst2.psi[i][0])
            obj.add(x0[i], w * inst2.d0[i])
            for j in range(J):
                obj.add(x[i][j], w * inst2.d[i][j])
        m.set_objective(obj)
        for i in range(I):
            flow = Expr({x0[i]: 1.0, q[i]: 1.0})
            for j in range(J):
                flow.add(x[i][j], 1.0)
            m.add_constraint(flow, "==", inst2.R[i][0])
            delay = Expr({x0[i]: inst2.d0[i]})
            for j in range(J):
                delay.add(x[i][j], inst2.d[i][j])
            m.add_constraint(delay, "<=", inst2.Dmax[0] * inst2.R[i][0])
        for j in range(J):
            cap = Expr({x[i][j]: 1.0 for i in range(I)})
            m.add_constraint(cap, "<=", inst2.C[j])
        oracle = solve_lp(m.finalize())
        assert rel_close(phi, oracle.objective)


class TestNoPlacementVariant:
    def test_budget_excludes_placement(self):
        inst = make_manual_instance(B=[0.1])  # cannot afford any placement fee
        leader = mid_leader(inst)
        variant = ModelVariant(placement_in_follower=False)
        sol, phi = solve_sp1(inst, 0, leader, variant=variant)
        # with placement free the service can still install and serve a bit
        base_sol, base_phi = solve_sp1(inst, 0, leader)
        assert phi <= base_phi + 1e-9
        assert follower_cost(inst, 0, leader, sol, variant) == pytest.approx(phi, rel=1e-9)
