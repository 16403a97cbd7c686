import itertools

import numpy as np
import pytest

from edgeprice.bilevel import (BilevelError, Cut, Sp2Infeasible, build_master,
                               extract_master_solution, linearization_audit, mp_size,
                               platform_profit, repair_dual_blocks, run_algorithm1,
                               solve_bruteforce, solve_hpp, solve_sp2, verify_bilevel_solution)
from edgeprice import follower
from edgeprice.follower import (LeaderDecision, budget_cannot_bind, derived_dual_bound,
                                solve_fixed_t_lp, solve_sp1)
from edgeprice.instance import GenConfig, generate
from edgeprice.model import Expr, MilpModel
from edgeprice.solve import STATUS_OPTIMAL, SolveResult, backend_solve_polished, solve_lp
from edgeprice.strategies import solve_scheme

from conftest import make_manual_instance, rel_close, zero_demand_instance


def tiny_gen(seed, I=4, J=3, K=2):
    return generate(GenConfig(I=I, J=J, K=K, graph_size=30, seed=seed))


def manual_bilevel_enumeration(inst):
    """Exhaustive oracle for single-service instances.

    Enumerates every (z, p, ps) combination; for each, enumerates all
    placements to find the follower optimum, then maximizes platform
    profit over the follower-optimal tie-break polytope with a plain LP.
    Uses none of the master/cut machinery.
    """
    assert inst.K == 1
    J, I = inst.J, inst.I
    best = -np.inf
    for z in itertools.product((0, 1), repeat=J):
        for p_combo in itertools.product(*[inst.p_grid[j] for j in range(J)]):
            for ps_combo in itertools.product(*[inst.ps_grid[j] for j in range(J)]):
                leader = LeaderDecision.from_prices(inst, list(p_combo),
                                                    list(ps_combo), list(z))
                results = {}
                for t in itertools.product((0, 1), repeat=J):
                    res = solve_fixed_t_lp(inst, 0, leader, list(t))
                    if res.status == "optimal":
                        results[t] = res.objective
                phi = min(results.values())
                profit = -np.inf
                for t, val in results.items():
                    if val > phi + 1e-9 * (1 + abs(phi)):
                        continue
                    profit = max(profit, _tie_break_profit(inst, leader, t, phi))
                best = max(best, profit)
    return best


def _tie_break_profit(inst, leader, t, phi):
    """Max platform profit over follower solutions at fixed t with cost <= phi."""
    I, J = inst.I, inst.J
    m = MilpModel("tie", "max")
    x = [[m.add_var(f"x[{i},{j}]") for j in range(J)] for i in range(I)]
    x0 = [m.add_var(f"x0[{i}]") for i in range(I)]
    q = [m.add_var(f"q[{i}]") for i in range(I)]
    y = [m.add_var(f"y[{j}]") for j in range(J)]
    y0 = m.add_var("y0")
    w = inst.w[0]
    placement = sum(leader.placement_price(inst, 0, j) * t[j] for j in range(J))
    cost = Expr(constant=placement)
    cost.add(y0, inst.p0)
    for j in range(J):
        cost.add(y[j], leader.p[j])
    for i in range(I):
        cost.add(q[i], inst.psi[i][0])
        cost.add(x0[i], w * inst.d0[i])
        for j in range(J):
            cost.add(x[i][j], w * inst.d[i][j])
    m.add_constraint(cost, "<=", phi + 1e-9 * (1 + abs(phi)))
    budget = Expr(constant=placement, coeffs={y0: inst.p0})
    for j in range(J):
        budget.add(y[j], leader.p[j])
    m.add_constraint(budget, "<=", inst.B[0])
    m.add_constraint(Expr({x0[i]: 1.0 for i in range(I)}).add(y0, -1.0), "<=", 0.0)
    for j in range(J):
        m.add_constraint(Expr({x[i][j]: 1.0 for i in range(I)}).add(y[j], -1.0), "<=", 0.0)
        m.add_constraint({y[j]: 1.0}, "<=", inst.C[j] * t[j])
    for i in range(I):
        flow = Expr({x0[i]: 1.0, q[i]: 1.0})
        for j in range(J):
            flow.add(x[i][j], 1.0)
        m.add_constraint(flow, "==", inst.R[i][0])
        delay = Expr({x0[i]: inst.d0[i]})
        for j in range(J):
            delay.add(x[i][j], inst.d[i][j])
        m.add_constraint(delay, "<=", inst.Dmax[0] * inst.R[i][0])
        for j in range(J):
            m.add_constraint({x[i][j]: 1.0}, "<=", inst.a[i][j][0] * inst.R[i][0])
    obj = Expr(constant=sum(leader.placement_price(inst, 0, j) * t[j] for j in range(J))
               - sum(inst.f[j] * leader.z[j] for j in range(J)))
    for j in range(J):
        obj.add(y[j], leader.p[j] - inst.c[j] / inst.C[j])
    m.set_objective(obj)
    res = solve_lp(m.finalize())
    assert res.status == "optimal"
    return res.objective


class TestManualEnumerationOracle:
    def test_tiny_instance_three_way(self):
        inst = make_manual_instance(
            I=2, J=2, K=1,
            p_grid=[[0.02, 0.05] for _ in range(2)],
            ps_grid=[[0.005, 0.015] for _ in range(2)],
            C=[25.0, 25.0], f=[0.3, 0.4], c=[0.1, 0.2],
            d=[[4.0, 8.0], [7.0, 3.0]], w=[5e-4],
        )
        oracle = manual_bilevel_enumeration(inst)
        state = run_algorithm1(inst, epsilon=1e-8, backend="highs")
        bf, status = solve_bruteforce(inst, backend="highs")
        assert status == "optimal"
        assert rel_close(state.LB, oracle)
        assert rel_close(bf.theta, oracle)

    def test_reference_backend_tiny(self):
        inst = make_manual_instance(
            I=2, J=2, K=1,
            p_grid=[[0.02, 0.05] for _ in range(2)],
            ps_grid=[[0.01] for _ in range(2)],
            C=[25.0, 25.0], f=[0.3, 0.4], c=[0.1, 0.2],
            d=[[4.0, 8.0], [7.0, 3.0]], w=[5e-4],
        )
        state = run_algorithm1(inst, epsilon=1e-8, backend="reference")
        bf, status = solve_bruteforce(inst, backend="reference")
        assert status == "optimal"
        assert rel_close(state.LB, bf.theta)
        assert rel_close(state.LB, manual_bilevel_enumeration(inst))

    def test_avg_scheme_matches_enumeration_at_the_pinned_prices(self):
        # seed 6 (I=4, J=3, K=1) has a positive avg optimum, at node 1 alone
        inst = tiny_gen(6, J=3, K=1)
        pinned = inst.copy()
        pinned.p_grid = [[0.03] for _ in range(inst.J)]
        pinned.ps_grid = [[0.01] for _ in range(inst.J)]
        pinned.validate()
        oracle = manual_bilevel_enumeration(pinned)
        assert oracle > 0.5
        res = solve_scheme(inst, "avg", epsilon=1e-8, backend="highs")
        assert res.status in ("gap-closed", "duplicate-t")
        assert rel_close(res.profit, oracle)


class TestBudgetDual:
    """The master drops mu1 only where a service's budget cannot bind."""

    @pytest.mark.parametrize("B,psi,expected", [(1.8, 0.6, 0.69625), (1.5, 0.5, 0.115)])
    def test_binding_budget_matches_manual_enumeration(self, B, psi, expected):
        inst = make_manual_instance(B=[B], psi=[[psi], [psi]])
        assert not budget_cannot_bind(inst, 0)
        oracle = manual_bilevel_enumeration(inst)
        assert rel_close(oracle, expected)
        state = run_algorithm1(inst, epsilon=1e-8, backend="highs")
        bf, status = solve_bruteforce(inst, backend="highs")
        assert status == "optimal"
        assert rel_close(state.LB, oracle)
        assert rel_close(bf.theta, oracle)

    def test_binding_budget_has_positive_dual(self):
        inst = make_manual_instance(B=[1.5], psi=[[0.5], [0.5]])
        leader = LeaderDecision.from_prices(inst, p=[0.03, 0.03], ps=[0.005, 0.005], z=[1, 1])
        res = solve_fixed_t_lp(inst, 0, leader, [0, 1])
        assert res.dual.mu1 == pytest.approx(14.8537, rel=1e-4)

    def test_fix_only_in_slack_service(self):
        inst = make_manual_instance(K=2, B=[25.0, 1.5], psi=[[0.1, 0.5], [0.1, 0.5]])
        assert [budget_cannot_bind(inst, k) for k in range(2)] == [True, False]
        cuts = [Cut(t_vectors=((0, 1), (0, 1))), Cut(t_vectors=((1, 1), (1, 0)))]
        bundle = build_master(inst, cuts)
        for (k, _), blk in bundle.idx["blocks"].items():
            if k == 0:
                assert blk["mu1"] is None and not blk["pi"] and not blk["kappa"]
            else:
                assert bundle.model.variables[blk["mu1"]].ub == derived_dual_bound(inst)
        state = run_algorithm1(inst, epsilon=1e-8, backend="highs")
        bf, status = solve_bruteforce(inst, backend="highs")
        assert status == "optimal"
        assert rel_close(state.LB, bf.theta)
        assert rel_close(bf.theta, 1.38287793)
        assert not state.bigm_flags
        assert state.linearization_worst <= 1e-6

    # full-enumeration optima of the master that still carried mu1, pi and
    # kappa (fixed at 0) in every block
    ENUM_OPTIMA = {42: 0.6945001628085093, 46: 0.6706667273184755}

    @pytest.mark.parametrize("seed", [42, 46])
    def test_fixed_dual_keeps_the_optimum(self, seed):
        inst = tiny_gen(seed)
        assert all(budget_cannot_bind(inst, k) for k in range(inst.K))
        cuts = [Cut(t_vectors=tuple(tuple(bits) for _ in range(inst.K)))
                for bits in itertools.product((0, 1), repeat=inst.J)]
        bundle = build_master(inst, cuts)
        assert all(blk["mu1"] is None for blk in bundle.idx["blocks"].values())
        a = backend_solve_polished("highs", bundle.model).objective
        assert a > 0.5
        assert abs(a - self.ENUM_OPTIMA[seed]) <= 1e-9 * max(1.0, abs(a))


class TestDualBlocks:
    """One block per distinct (service, placement), over the nodes it uses."""

    @staticmethod
    def two_service_instance():
        # node 0 is eligible for no area, so the leader closes it; service 1
        # cannot afford node 1's installation fee, so its budget can bind
        return make_manual_instance(K=2, B=[25.0, 0.5], a=[[[0, 0], [1, 1]]] * 2,
                                    phi=[[0.2, 0.2], [0.2, 1.0]])

    def test_repeated_pair_adds_nothing(self):
        inst = self.two_service_instance()
        once = [Cut(t_vectors=((0, 1), (0, 1))), Cut(t_vectors=((1, 0), (1, 1)))]
        twice = once + [Cut(t_vectors=((1, 0), (0, 1))), Cut(t_vectors=((0, 1), (1, 1)))]
        a, b = build_master(inst, once), build_master(inst, twice)
        assert a.model.stats() == b.model.stats()
        assert list(a.idx["blocks"]) == list(b.idx["blocks"]) == \
            [(0, (0, 1)), (1, (0, 1)), (0, (1, 0)), (1, (1, 1))]
        for (k, t), blk in b.idx["blocks"].items():
            on = {j for j, bit in enumerate(t) if bit}
            assert set(blk["Gamma"]) == set(blk["sigma"]) == on
            assert all(set(row) == on for row in blk["tau"])
            assert set(blk["pi"]) == set(blk["kappa"]) == (set() if blk["mu1"] is None else on)
            # the handles cover the block's whole variable range
            handles = [blk["mu1"], blk["mu2"], *blk["Gamma"].values(), *blk["sigma"].values(),
                       *blk["xi"], *blk["eta"], *(v for row in blk["tau"] for v in row.values()),
                       *(v for group in (*blk["pi"].values(), *blk["kappa"].values())
                         for v in group)]
            assert sorted(h for h in handles if h is not None) == \
                list(range(blk["vars"].start, blk["vars"].stop))
        stats = b.model.stats()
        I, J, K, V, H = inst.I, inst.J, inst.K, inst.V, inst.H
        blocks = [(sum(t), not budget_cannot_bind(inst, k)) for k, t in b.idx["blocks"]]
        assert stats.as_tuple() == mp_size(I, J, K, V, H, blocks).as_tuple()

    def test_repair_takes_every_branch(self):
        inst = self.two_service_instance()
        cuts = [Cut(t_vectors=((0, 1), (0, 1))), Cut(t_vectors=((1, 0), (1, 0)))]
        bundle = build_master(inst, cuts)
        res = backend_solve_polished("reference", bundle.model)
        assert res.status == STATUS_OPTIMAL
        repair_dual_blocks(inst, bundle, res)
        leader = extract_master_solution(inst, bundle, res).leader
        assert leader.z == [0, 1]
        vals, blocks = res.values, bundle.idx["blocks"]
        # exact dual: service 0 on the open node
        exact = solve_fixed_t_lp(inst, 0, leader, [0, 1]).dual
        blk = blocks[(0, (0, 1))]
        assert vals[blk["mu2"]] == pytest.approx(exact.mu2, abs=1e-12)
        assert vals[blk["Gamma"][1]] == pytest.approx(exact.Gamma[1], abs=1e-12)
        # mu1 ray: service 1 cannot pay node 1's fee
        assert solve_fixed_t_lp(inst, 1, leader, [0, 1]).status == "infeasible"
        ray = blocks[(1, (0, 1))]
        assert 0 < vals[ray["mu1"]] < bundle.idx["M"]
        assert vals[ray["mu2"]] == 0.0
        row = bundle.model.constraints[ray["row"]]
        assert bundle.model.constraint_activity(row, vals) <= row.rhs
        # closed node: both services' blocks on node 0 stay at zero
        for k in range(2):
            assert not np.any(vals[blocks[(k, (1, 0))]["vars"]])
        assert linearization_audit(bundle, res) <= 1e-9

    def test_repair_solves_no_closed_node_placement(self, monkeypatch):
        """Blocks on the closed node 0 ask for no placement LP.  Their LP
        would be infeasible at once, so they stay at zero as before, and
        the blocks on open nodes keep their exact duals."""
        inst = self.two_service_instance()
        cuts = [Cut(t_vectors=((0, 1), (0, 1))), Cut(t_vectors=((1, 0), (1, 0))),
                Cut(t_vectors=((1, 1), (0, 0)))]
        bundle = build_master(inst, cuts)
        res = backend_solve_polished("reference", bundle.model)
        assert res.status == STATUS_OPTIMAL
        leader = extract_master_solution(inst, bundle, res).leader
        assert leader.z == [0, 1]
        real = follower.solve_fixed_t_lp
        calls = []

        def counted(instance, k, leader, t, *args):
            calls.append((k, tuple(t)))
            return real(instance, k, leader, t, *args)

        monkeypatch.setattr(follower, "solve_fixed_t_lp", counted)
        repair_dual_blocks(inst, bundle, res)
        blocks = bundle.idx["blocks"]
        assert sorted(calls) == sorted(kt for kt in blocks if not kt[1][0])
        assert len(calls) == 3 and len(blocks) == 6
        for (k, t), blk in blocks.items():
            if t[0]:
                assert real(inst, k, leader, t).status != STATUS_OPTIMAL
                assert not np.any(res.values[blk["vars"]])
        exact = real(inst, 0, leader, [0, 1]).dual
        assert res.values[blocks[(0, (0, 1))]["mu2"]] == exact.mu2
        assert linearization_audit(bundle, res) <= 1e-9

    def test_undersized_closed_node_slack_raises(self, monkeypatch):
        # the duplicated follower's cost less node 0's placement charge is
        # about 2.2; a closed-node constant of 1 cannot cover it
        inst = make_manual_instance(a=[[[0], [1]]] * 2)
        monkeypatch.setattr("edgeprice.bilevel.derived_dual_bound", lambda _: 1.0)
        bundle = build_master(inst, [Cut(t_vectors=((0, 1),)), Cut(t_vectors=((1, 0),))])
        res = backend_solve_polished("highs", bundle.model)
        assert res.status == STATUS_OPTIMAL
        assert extract_master_solution(inst, bundle, res).leader.z == [0, 1]
        with pytest.raises(BilevelError, match="closed-node slack"):
            repair_dual_blocks(inst, bundle, res)


class TestHpp:
    def test_zero_demand_profit_zero(self):
        inst = zero_demand_instance()
        hpp = solve_hpp(inst, backend="highs")
        assert hpp.theta == pytest.approx(0.0, abs=1e-9)
        assert all(zj == 0 for zj in hpp.leader.z)

    def test_hpp_upper_bounds_algorithm(self):
        for seed in (1, 2):
            inst = tiny_gen(seed)
            hpp = solve_hpp(inst, backend="highs")
            state = run_algorithm1(inst, epsilon=1e-6, backend="highs")
            assert hpp.theta >= state.LB - 1e-9 * (1 + abs(hpp.theta))

    def test_all_drop_point_feasible_in_relaxation(self):
        # the all-drop completion satisfies every follower block row
        inst = tiny_gen(3)
        rng = np.random.default_rng(0)
        for _ in range(5):
            z = [int(v) for v in rng.integers(0, 2, inst.J)]
            leader = LeaderDecision.from_prices(
                inst,
                p=[inst.p_grid[j][int(rng.integers(0, inst.V))] for j in range(inst.J)],
                ps=[inst.ps_grid[j][int(rng.integers(0, inst.H))] for j in range(inst.J)],
                z=z)
            from edgeprice.follower import assemble_solution
            for k in range(inst.K):
                drop = assemble_solution(
                    inst, k, leader,
                    x=[[0.0] * inst.J for _ in range(inst.I)],
                    x0=[0.0] * inst.I,
                    q=[inst.R[i][k] for i in range(inst.I)],
                    y=[0.0] * inst.J, y0=0.0, t=[0] * inst.J)
                assert drop.max_violation(inst, k, leader) <= 1e-12


class TestMasterRelaxationChain:
    def test_cut_weakly_tightens(self):
        inst = tiny_gen(4)
        hpp_bundle = build_master(inst, [])
        hpp_val = backend_solve_polished("highs", hpp_bundle.model).objective
        cut = Cut(t_vectors=tuple(tuple(0 for _ in range(inst.J)) for _ in range(inst.K)))
        one_bundle = build_master(inst, [cut])
        one_val = backend_solve_polished("highs", one_bundle.model).objective
        assert one_val <= hpp_val + 1e-9 * (1 + abs(hpp_val))

    def test_sizes_match_closed_forms(self):
        # all budgets slack in the first instance; service 1's can bind in the second
        for inst, L in itertools.product(
                (tiny_gen(5), make_manual_instance(K=2, B=[25.0, 1.5],
                                                   psi=[[0.1, 0.5], [0.1, 0.5]])), (0, 1, 3)):
            I, J, K, V, H = inst.I, inst.J, inst.K, inst.V, inst.H
            cuts = [Cut(t_vectors=tuple(tuple((l + j) % 2 for j in range(J)) for _ in range(K)))
                    for l in range(L)]
            bundle = build_master(inst, cuts)
            blocks = [(sum(t), not budget_cannot_bind(inst, k)) for k, t in bundle.idx["blocks"]]
            assert len(blocks) == K * min(L, 2)
            assert bundle.model.stats().as_tuple() == mp_size(I, J, K, V, H, blocks).as_tuple()

    @pytest.mark.parametrize("dims,three_row_count", [
        ((12, 8, 4, 5, 3, 1), 2844), ((6, 4, 3, 5, 3, 0), 483), ((9, 6, 4, 5, 3, 2), 2960)])
    def test_three_row_layout_difference(self, dims, three_row_count):
        # row counts of the master built with L cuts of K blocks over every
        # node, varrho = nu*z in three rows, and three McCormick rows per
        # product; mp_size's docstring gives the per-block difference
        I, J, K, V, H, L = dims
        full_blocks = [(J, True)] * (K * L)
        assert mp_size(I, J, K, V, H, full_blocks).n_constraints + 3 * J * K * L \
            + 2 * K * J * (V + H - 1) * (L + 1) == three_row_count

    def test_audit_sees_every_product_family(self):
        inst = make_manual_instance(K=2, B=[25.0, 1.5], psi=[[0.1, 0.5], [0.1, 0.5]])
        bundle = build_master(inst, [Cut(t_vectors=((0, 1), (1, 1)))])
        links = bundle.registry.links
        assert len(links) == inst.K * inst.J * (inst.V + inst.H) + 2 * (inst.V + inst.H)
        res = backend_solve_polished("highs", bundle.model)
        repair_dual_blocks(inst, bundle, res)
        assert linearization_audit(bundle, res) <= 1e-6
        names = [bundle.model.variables[U].name for U, _, _ in links]
        for family in ("rho[", "zeta[", "kappa[", "pi["):
            U = links[next(n for n, name in enumerate(names) if name.startswith(family))][0]
            res.values[U] += 0.5
            assert linearization_audit(bundle, res) >= 0.5 - 1e-9, family
            res.values[U] -= 0.5


class TestSp2:
    def test_unique_optimum_pinned(self):
        inst = tiny_gen(6, K=1)
        leader = LeaderDecision.from_prices(
            inst, [inst.p_grid[j][1] for j in range(inst.J)],
            [inst.ps_grid[j][0] for j in range(inst.J)], [1] * inst.J)
        sol, phi = solve_sp1(inst, 0, leader)
        sols, theta = solve_sp2(inst, leader, [phi])
        from edgeprice.follower import follower_cost
        assert follower_cost(inst, 0, leader, sols[0]) <= phi + 1e-6 * (1 + abs(phi))

    def test_tie_break_favors_platform(self):
        # two nodes indistinguishable to the follower, different operating
        # cost for the platform: the tie-break must route to the cheap one
        # edge serving strictly beats the cloud (0.03 + 3ms*1e-3 < 0.02 + 60ms*1e-3)
        inst = make_manual_instance(
            I=1, J=2, K=1,
            d=[[3.0, 3.0]],
            C=[40.0, 40.0], S=[2000.0] * 2,
            f=[0.5, 0.5], c=[4.0, 0.4],
            R=[[30.0]], psi=[[0.2]], w=[1e-3], B=[30.0],
            Dmax=[50.0],
        )
        leader = LeaderDecision.from_prices(inst, [0.03, 0.03], [0.005, 0.005], [1, 1])
        r0 = solve_fixed_t_lp(inst, 0, leader, [1, 0])
        r1 = solve_fixed_t_lp(inst, 0, leader, [0, 1])
        assert rel_close(r0.objective, r1.objective)  # genuine follower tie
        _, phi = solve_sp1(inst, 0, leader)
        sols, theta = solve_sp2(inst, leader, [phi])
        assert sols[0].t == [0, 1]
        assert sols[0].y[1] == pytest.approx(30.0, rel=1e-6)
        # enumerate both placements: the chosen one must earn weakly more
        p0_profit = platform_profit(inst, leader, [_force(inst, leader, [1, 0])])
        p1_profit = platform_profit(inst, leader, [_force(inst, leader, [0, 1])])
        assert theta == pytest.approx(max(p0_profit, p1_profit), rel=1e-6)
        assert p1_profit > p0_profit

    def test_oversubscription_detected(self):
        # both services individually saturate the only node; no joint
        # selection fits, so the tie-break must report infeasibility
        inst = make_manual_instance(
            I=1, J=1, K=2,
            d=[[2.0]],
            C=[10.0], S=[3000.0],
            f=[0.1], c=[0.05],
            R=[[10.0, 10.0]], psi=[[0.5, 0.5]], w=[8e-4, 8e-4],
            B=[20.0, 20.0], s=[400.0, 400.0],
            Dmax=[30.0, 30.0],
            p_grid=[[0.01, 0.02]], ps_grid=[[0.005]],
            phi=[[0.2, 0.2]],
        )
        leader = LeaderDecision.from_prices(inst, [0.01], [0.005], [1])
        phis = [solve_sp1(inst, k, leader)[1] for k in range(2)]
        with pytest.raises(Sp2Infeasible):
            solve_sp2(inst, leader, phis)


def _force(inst, leader, t):
    res = solve_fixed_t_lp(inst, 0, leader, t)
    return res.solution


class TestAlgorithmBruteForceAgreement:
    @pytest.mark.parametrize("seed", [42, 43, 46])
    def test_small_instances(self, seed):
        inst = tiny_gen(seed)
        state = run_algorithm1(inst, epsilon=1e-8, backend="highs")
        bf, status = solve_bruteforce(inst, backend="highs")
        assert status == "optimal"
        assert rel_close(state.LB, bf.theta)
        assert state.iteration <= 2 ** inst.J + 1
        ubs = [row["UB"] for row in state.trace]
        lbs = [row["LB"] for row in state.trace]
        assert all(ubs[i + 1] <= ubs[i] + 1e-9 * (1 + abs(ubs[i])) for i in range(len(ubs) - 1))
        assert all(lbs[i + 1] >= lbs[i] - 1e-12 for i in range(len(lbs) - 1))
        assert not state.bigm_flags
        assert state.linearization_worst <= 1e-6

    def test_zero_demand_terminates_immediately(self):
        inst = zero_demand_instance()
        state = run_algorithm1(inst, epsilon=1e-6, backend="highs")
        assert state.status in ("gap-closed", "duplicate-t")
        assert state.iteration == 1
        assert state.LB == pytest.approx(0.0, abs=1e-9)
        assert all(zj == 0 for zj in state.incumbent_leader.z)
        bf, _ = solve_bruteforce(inst, backend="highs")
        assert bf.theta == pytest.approx(0.0, abs=1e-9)

    def test_epsilon_validation(self):
        for bad in ({"epsilon": 0.0}, {"max_iterations": -3}):
            with pytest.raises(BilevelError):
                run_algorithm1(tiny_gen(1), **bad)

    def test_time_limit_status(self):
        inst = tiny_gen(7)
        state = run_algorithm1(inst, epsilon=1e-8, backend="highs", time_limit=0.0)
        assert state.status == "limit"


class TestIncumbentSeed:
    def test_base_preset_without_sp2_incumbent(self):
        # base seed 0: SP2 is infeasible at both iterations, so the only
        # incumbent is the all-off seed
        inst = generate(GenConfig(I=12, J=8, K=4, seed=0))
        state = run_algorithm1(inst, backend="highs", max_iterations=2)
        assert state.status == "limit"
        assert state.LB == 0.0
        assert all(cut.source == "sp1-fallback" for cut in state.cuts)
        report = verify_bilevel_solution(inst, state.incumbent_leader,
                                         state.incumbent_solutions, backend="highs")
        assert report["ok"]
        assert report["profit"] == 0.0

    def test_seed_keeps_fixed_prices(self):
        inst = tiny_gen(45)
        res = solve_scheme(inst, "avg", backend="highs", max_iterations=0)
        assert res.status == "limit" and res.profit == 0.0
        assert res.leader.z == [0] * inst.J
        assert res.leader.p == pytest.approx([0.03] * inst.J)
        assert res.leader.ps == pytest.approx([0.01] * inst.J)
        report = verify_bilevel_solution(inst, res.leader, res.solutions, backend="highs")
        assert report["ok"] and report["profit"] == 0.0


class TestClosedNodePrices:
    @staticmethod
    def leader_from(inst, z, build_kwargs, level):
        """The leader extracted from a master point with every selector at ``level``."""
        bundle = build_master(inst, cuts=[], **build_kwargs)
        vals = np.zeros(bundle.model.n_vars)
        for j in range(inst.J):
            vals[bundle.idx["z"][j]] = z[j]
            vals[bundle.idx["r"][j][level]] = 1.0
            vals[bundle.idx["rs"][j][level % inst.H]] = 1.0
        res = SolveResult(STATUS_OPTIMAL, objective=0.0, values=vals)
        return extract_master_solution(inst, bundle, res).leader

    def test_closed_nodes_report_the_first_level(self):
        inst = tiny_gen(45)
        top = inst.V - 1
        leader = self.leader_from(inst, [1, 0, 0], {}, top)
        assert leader.p == [inst.p_grid[0][top], inst.p_grid[1][0], inst.p_grid[2][0]]
        assert leader.ps == [inst.ps_grid[0][top % inst.H], inst.ps_grid[1][0],
                             inst.ps_grid[2][0]]

    def test_flat_prices_are_kept(self):
        inst = tiny_gen(45)
        top = inst.V - 1
        # flat pricing ties a closed node to the open one; all closed, none is tied
        flat = self.leader_from(inst, [1, 0, 0], {"flat": True}, top)
        assert flat.p == [inst.p_grid[j][top] for j in range(inst.J)]
        flat_off = self.leader_from(inst, [0, 0, 0], {"flat": True}, top)
        assert flat_off.p == [inst.p_grid[j][0] for j in range(inst.J)]


class TestBruteForceGuard:
    def test_cut_budget_refusal(self):
        inst = tiny_gen(8)
        result, status = solve_bruteforce(inst, max_cuts=3)
        assert result is None and status == "NA"


class TestVerification:
    def test_incumbent_passes(self):
        inst = tiny_gen(44)
        state = run_algorithm1(inst, epsilon=1e-8, backend="highs")
        report = verify_bilevel_solution(inst, state.incumbent_leader,
                                         state.incumbent_solutions, backend="highs")
        assert report["ok"]
        assert report["profit"] == pytest.approx(state.LB, rel=1e-6, abs=1e-8)

    def test_perturbed_placement_flagged(self):
        inst = make_manual_instance(
            I=2, J=2, K=1,
            p_grid=[[0.02, 0.05] for _ in range(2)],
            ps_grid=[[0.005, 0.015] for _ in range(2)],
            C=[25.0, 25.0], f=[0.3, 0.4], c=[0.1, 0.2],
            d=[[4.0, 8.0], [7.0, 3.0]], w=[5e-4],
        )
        state = run_algorithm1(inst, epsilon=1e-8, backend="highs")
        leader = state.incumbent_leader
        sols = state.incumbent_solutions
        # flipping any active placement must break follower optimality
        flipped = None
        for j in range(inst.J):
            if sols[0].t[j] == 1 and sols[0].y[j] > 1e-6:
                flipped = j
                break
        assert flipped is not None
        from edgeprice.follower import assemble_solution
        bad_t = list(sols[0].t)
        bad_t[flipped] = 0
        served_elsewhere = solve_fixed_t_lp(inst, 0, leader, bad_t)
        assert served_elsewhere.status == "optimal"
        report = verify_bilevel_solution(inst, leader, [served_elsewhere.solution],
                                         backend="highs")
        assert not report["ok"]
        assert report["followers"][0]["optimality_gap"] > 1e-6

    def test_hpp_solutions_fail_follower_optimality_sometimes(self):
        failures = 0
        for seed in (1, 2, 4, 9):
            inst = tiny_gen(seed)
            hpp = solve_hpp(inst, backend="highs")
            report = verify_bilevel_solution(inst, hpp.leader, hpp.solutions,
                                             backend="highs")
            if not report["ok"]:
                failures += 1
        # feasibility-only points are rarely follower-optimal
        assert failures >= 1
