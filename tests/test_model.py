import itertools
import math

import pytest

from edgeprice.model import BigMRegistry, MilpModel, ModelError, link_one_hot
from edgeprice.solve import solve_lp


def feasible_range(model, target, fixes):
    """Min and max of one variable over the model's LP feasible set,
    with some variables pinned; the brute-force oracle for link_*."""
    lo_model = model.clone()
    for idx, val in fixes.items():
        lo_model.variables[idx].lb = lo_model.variables[idx].ub = val
    lo_model.set_objective({target: 1.0}, "min")
    lo = solve_lp(lo_model.finalize())
    hi_model = model.clone()
    for idx, val in fixes.items():
        hi_model.variables[idx].lb = hi_model.variables[idx].ub = val
    hi_model.set_objective({target: 1.0}, "max")
    hi = solve_lp(hi_model.finalize())
    return lo, hi


def one_hot_model(M=6.0, three_rows=False):
    """u in [0, M], a 3-level group b with sum(b) = 1, products U = u*b
    linked by link_one_hot (or three big-M rows per level) and their sum S."""
    m = MilpModel()
    u = m.add_var("u", ub=M)
    bs = [m.add_var(f"b{v}", "binary") for v in range(3)]
    m.add_constraint({b: 1.0 for b in bs}, "==", 1.0)
    Us = [m.add_var(f"U{v}") for v in range(3)]
    if three_rows:
        for U, b in zip(Us, bs):
            m.add_constraint({U: 1.0, b: -M}, "<=", 0.0)
            m.add_constraint({U: 1.0, u: -1.0}, "<=", 0.0)
            m.add_constraint({U: 1.0, u: -1.0, b: -M}, ">=", -M)
    else:
        link_one_hot(m, Us, u, bs)
    S = m.add_var("S")
    m.add_constraint({S: 1.0, **{U: -1.0 for U in Us}}, "==", 0.0)
    return m, u, bs, Us, S


class TestLinkOneHot:
    def test_exact_at_every_integer_point(self):
        M = 6.0
        m, u, bs, Us, _ = one_hot_model(M)
        for w, u_val in itertools.product(range(3), (0.0, M / 2, M)):
            fixes = {u: u_val, **{b: float(v == w) for v, b in enumerate(bs)}}
            for v, U in enumerate(Us):
                lo, hi = feasible_range(m, U, fixes)
                assert lo.objective == pytest.approx(u_val * (v == w), abs=1e-9)
                assert hi.objective == pytest.approx(u_val * (v == w), abs=1e-9)

    def test_relaxation_is_tight(self):
        # with b held at (0.5, 0.5, 0) the sum row keeps sum(U) = u; three
        # big-M rows per level let it fall to max(0, 2u - M) (0 at u = M/2)
        M = 6.0
        for three_rows, u_val, want in ((False, M / 2, M / 2), (False, M, M),
                                        (True, M / 2, 0.0)):
            m, u, bs, _, S = one_hot_model(M, three_rows)
            for b, val in zip(bs, (0.5, 0.5, 0.0)):
                m.add_constraint({b: 1.0}, "==", val)
            lo, _ = feasible_range(m, S, {u: u_val})
            assert lo.objective == pytest.approx(want, abs=1e-9)

    def test_rejects_non_binary_bad_M_and_loose_bound(self):
        def build(u_lb=0.0, u_ub=4.0, b_kind="binary", U_lb=0.0):
            m = MilpModel()
            u = m.add_var("u", lb=u_lb, ub=u_ub)
            bs = [m.add_var("b0", "binary"), m.add_var("b1", b_kind, ub=1.0)]
            Us = [m.add_var("U0", lb=U_lb), m.add_var("U1")]
            link_one_hot(m, Us, u, bs)

        build()
        for bad in (dict(b_kind="continuous"), dict(u_ub=math.inf), dict(u_ub=0.0),
                    dict(u_lb=-1.0), dict(U_lb=-1.0)):
            with pytest.raises(ModelError):
                build(**bad)


class TestModelStats:
    def test_empty(self):
        m = MilpModel()
        assert m.finalize().stats().as_tuple() == (0, 0, 0)

    def test_counts_by_kind(self):
        m = MilpModel()
        m.add_var("a", "binary")
        x = m.add_var("x")
        m.add_constraint({x: 1.0}, "<=", 1.0)
        m.add_constraint({x: 1.0}, ">=", 0.0)
        st = m.finalize().stats()
        assert st.as_tuple() == (2, 1, 1)


class TestModelBasics:
    def test_duplicate_names_and_tags_rejected(self):
        m = MilpModel()
        m.add_var("x")
        with pytest.raises(ModelError):
            m.add_var("x")

    def test_undeclared_variable_rejected(self):
        m = MilpModel()
        m.add_var("x")
        with pytest.raises(ModelError):
            m.add_constraint({5: 1.0}, "<=", 1.0)

    def test_bad_bounds_rejected(self):
        m = MilpModel()
        with pytest.raises(ModelError):
            m.add_var("x", lb=2.0, ub=1.0)

    def test_finalize_freezes(self):
        m = MilpModel()
        m.add_var("x")
        m.finalize()
        with pytest.raises(ModelError):
            m.add_var("y")

    def test_dump_lp_is_deterministic(self):
        def build():
            m = MilpModel("demo", "max")
            x = m.add_var("x", ub=3.0)
            b = m.add_var("b", "binary")
            m.add_constraint({x: 1.0, b: 2.0}, "<=", 4.0, name="cap")
            m.set_objective({x: 1.0, b: 1.5})
            return m.finalize().dump_lp()

        text = build()
        assert text == build()
        assert "Binaries" in text and "cap:" in text


class TestBigMRegistry:
    def test_register_get_validate(self):
        reg = BigMRegistry()
        reg.register("fam", 10.0, watch=[0])
        assert reg.get("fam") == 10.0
        flags = reg.validate([9.95])
        assert flags["fam"]["flagged"]
        flags = reg.validate([5.0])
        assert not flags["fam"]["flagged"]
        assert reg.flagged_families() == []

    def test_conflicting_M_rejected(self):
        reg = BigMRegistry()
        reg.register("fam", 10.0)
        with pytest.raises(ModelError):
            reg.register("fam", 11.0)

    def test_missing_family(self):
        reg = BigMRegistry()
        with pytest.raises(ModelError):
            reg.get("absent")
