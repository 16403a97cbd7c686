import json
import math

import pytest

from edgeprice.instance import (GenConfig, InstanceError, ScaleFactors,
                                apply_scale, from_dict, generate,
                                generate_with_topology, load, save, to_dict)

from conftest import make_manual_instance


def floyd_warshall(n, edges):
    """Independent all-pairs shortest-path oracle (dense, O(n^3))."""
    dist = [[math.inf] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = 0.0
    for u, v, w in edges:
        if w < dist[u][v]:
            dist[u][v] = dist[v][u] = w
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == math.inf:
                continue
            row = dist[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < row[j]:
                    row[j] = alt
    return dist


class TestGenerate:
    def test_base_defaults(self):
        inst = generate(GenConfig(seed=7))
        assert (inst.I, inst.J, inst.K) == (12, 8, 4)
        assert inst.p0 == 0.02
        assert inst.p_grid[0] == [0.01, 0.02, 0.03, 0.04, 0.05]
        assert inst.ps_grid[0] == [0.005, 0.01, 0.015]
        assert all(d0 == 60.0 for d0 in inst.d0)
        assert all(20.0 <= inst.R[i][k] <= 35.0 for i in range(12) for k in range(4))
        assert all(30.0 <= dk <= 100.0 for dk in inst.Dmax)
        assert all(inst.phi[j][k] == 0.2 for j in range(8) for k in range(4))

    def test_seed_determinism(self):
        a = generate(GenConfig(seed=123))
        b = generate(GenConfig(seed=123))
        assert json.dumps(to_dict(a), sort_keys=True) == json.dumps(to_dict(b), sort_keys=True)
        c = generate(GenConfig(seed=124))
        assert json.dumps(to_dict(a), sort_keys=True) != json.dumps(to_dict(c), sort_keys=True)

    def test_delays_match_floyd_warshall(self):
        inst, topo = generate_with_topology(GenConfig(I=6, J=4, K=2, graph_size=40, seed=3))
        dist = floyd_warshall(topo.n_nodes, topo.edges)
        for i, ai in enumerate(topo.area_nodes):
            for j, ej in enumerate(topo.en_nodes):
                assert inst.d[i][j] == pytest.approx(dist[ai][ej], abs=1e-9)

    def test_triangle_consistency(self):
        # shortest-path metric: d[i][j] <= d[i][j'] + d(j', j)
        inst, topo = generate_with_topology(GenConfig(I=5, J=4, K=1, graph_size=30, seed=9))
        dist = floyd_warshall(topo.n_nodes, topo.edges)
        for i in range(inst.I):
            for j in range(inst.J):
                for jp in range(inst.J):
                    hop = dist[topo.en_nodes[jp]][topo.en_nodes[j]]
                    assert inst.d[i][j] <= inst.d[i][jp] + hop + 1e-9

    def test_config_validation(self):
        with pytest.raises(InstanceError):
            GenConfig(I=0).validate()
        with pytest.raises(InstanceError):
            GenConfig(I=80, J=30, graph_size=100).validate()
        with pytest.raises(InstanceError):
            GenConfig(demand_range=(5.0, 1.0)).validate()
        with pytest.raises(InstanceError):
            GenConfig(eligibility_rule="sometimes").validate()

    def test_delay_eligibility_rule(self):
        inst = generate(GenConfig(I=6, J=4, K=2, graph_size=40, seed=3,
                                  eligibility_rule="delay"))
        for i in range(inst.I):
            for j in range(inst.J):
                for k in range(inst.K):
                    expected = 1 if inst.d[i][j] <= inst.Dmax[k] else 0
                    assert inst.a[i][j][k] == expected


class TestScale:
    def test_identity(self):
        inst = generate(GenConfig(I=4, J=3, K=2, graph_size=30, seed=1))
        same = apply_scale(inst, ScaleFactors())
        assert json.dumps(to_dict(same), sort_keys=True) == json.dumps(to_dict(inst), sort_keys=True)

    def test_half_demand(self):
        inst = make_manual_instance(R=[[30.0], [30.0]])
        scaled = apply_scale(inst, ScaleFactors(delta=0.5))
        assert scaled.R[0][0] == pytest.approx(15.0)
        assert scaled.C == inst.C

    def test_inverse_composition(self):
        inst = generate(GenConfig(I=4, J=3, K=2, graph_size=30, seed=2))
        back = apply_scale(apply_scale(inst, ScaleFactors(delta=2.0, gamma0=0.5)),
                           ScaleFactors(delta=0.5, gamma0=2.0))
        for i in range(inst.I):
            for k in range(inst.K):
                assert back.R[i][k] == pytest.approx(inst.R[i][k], rel=1e-12)
        for j in range(inst.J):
            assert back.C[j] == pytest.approx(inst.C[j], rel=1e-12)

    def test_positive_factors_required(self):
        with pytest.raises(InstanceError):
            ScaleFactors(delta=0.0).validate()

    def test_commutes_with_save_load(self, tmp_path):
        inst = generate(GenConfig(I=4, J=3, K=2, graph_size=30, seed=4))
        factors = ScaleFactors(delta=1.5, Lambda=0.5)
        p1 = tmp_path / "a.json"
        save(apply_scale(inst, factors), p1)
        route_a = to_dict(load(p1))
        p2 = tmp_path / "b.json"
        save(inst, p2)
        route_b = to_dict(apply_scale(load(p2), factors))
        assert json.dumps(route_a, sort_keys=True) == json.dumps(route_b, sort_keys=True)


class TestPersistence:
    def test_roundtrip_identity(self, tmp_path):
        inst = generate(GenConfig(seed=7))
        path = tmp_path / "inst.json"
        save(inst, path)
        again = load(path)
        assert json.dumps(to_dict(again), sort_keys=True) == \
            json.dumps(to_dict(inst), sort_keys=True)

    def test_negative_delay_rejected_with_path(self):
        doc = to_dict(generate(GenConfig(I=3, J=2, K=1, graph_size=20, seed=0)))
        doc["d"][0][0] = -1.0
        with pytest.raises(InstanceError, match=r"d\[0\]\[0\]"):
            from_dict(doc)

    def test_grid_monotonicity_rejected(self):
        doc = to_dict(generate(GenConfig(I=3, J=2, K=1, graph_size=20, seed=0)))
        doc["p_grid"][0] = [0.05, 0.01, 0.02, 0.03, 0.04]
        with pytest.raises(InstanceError, match="increasing"):
            from_dict(doc)

    def test_schema_version_mismatch(self):
        doc = to_dict(generate(GenConfig(I=3, J=2, K=1, graph_size=20, seed=0)))
        doc["schema_version"] = 99
        with pytest.raises(InstanceError, match="schema version"):
            from_dict(doc)

    def test_missing_fields_named(self):
        doc = to_dict(generate(GenConfig(I=3, J=2, K=1, graph_size=20, seed=0)))
        del doc["psi"], doc["Dmax"]
        with pytest.raises(InstanceError, match="lacks psi, Dmax"):
            from_dict(doc)

    def test_manual_minimal_instance_loads(self, tmp_path):
        inst = make_manual_instance(I=2, J=1, K=1,
                                    d=[[4.0], [6.0]],
                                    C=[50.0], S=[1500.0], f=[0.4], c=[0.1],
                                    p_grid=[[0.02, 0.04]], ps_grid=[[0.01]],
                                    phi=[[0.2]])
        path = tmp_path / "mini.json"
        save(inst, path)
        again = load(path)
        assert again.I == 2 and again.J == 1 and again.K == 1
        assert again.d == [[4.0], [6.0]]

    def test_eligibility_domain_checked(self):
        with pytest.raises(InstanceError, match=r"a\[0\]\[1\]\[0\]"):
            make_manual_instance(a=[[[1], [2]], [[1], [1]]])

    def test_zero_capacity_rejected_with_path(self):
        # a node with no capacity has no big-M for its procurement products
        with pytest.raises(InstanceError, match=r"C\[0\]"):
            make_manual_instance(C=[0.0, 40.0])
