import itertools
import math

import pytest

from edgeprice.model import BigMRegistry, MilpModel, ModelError, link_bin_cont, link_one_hot
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


def product_model(u_ub=4.0):
    """u in [0, u_ub], binary b and a declared product U, linked."""
    m = MilpModel()
    u = m.add_var("u", ub=u_ub)
    b = m.add_var("b", "binary")
    U = m.add_var("U")
    return m, u, b, link_bin_cont(m, U, u, b)


class TestLinkBinCont:
    def test_b_zero_forces_zero(self):
        m, u, b, U = product_model()
        lo, hi = feasible_range(m, U, {u: 2.5, b: 0})
        assert lo.objective == pytest.approx(0.0, abs=1e-9)
        assert hi.objective == pytest.approx(0.0, abs=1e-9)

    def test_b_one_collapses_to_u(self):
        m, u, b, U = product_model()
        lo, hi = feasible_range(m, U, {u: 2.5, b: 1})
        assert lo.objective == pytest.approx(2.5, abs=1e-9)
        assert hi.objective == pytest.approx(2.5, abs=1e-9)

    def test_grid_feasibility_iff_product(self):
        # brute-force check over u in {0, M/2, M} x b in {0,1}
        M = 6.0
        for u_val, b_val in itertools.product((0.0, M / 2, M), (0, 1)):
            m, u, b, U = product_model(M)
            lo, hi = feasible_range(m, U, {u: u_val, b: b_val})
            assert lo.objective == pytest.approx(u_val * b_val, abs=1e-9)
            assert hi.objective == pytest.approx(u_val * b_val, abs=1e-9)

    def test_relaxation_is_tight(self):
        # the second row is U <= u: with u = 1, M = 4 and b = 0.5 the
        # relaxation caps U at 1, where U <= u + M(1-b) left it M*b = 2
        m, u, b, U = product_model(4.0)
        m.add_constraint({b: 1.0}, "==", 0.5)
        _, hi = feasible_range(m, U, {u: 1.0})
        assert hi.objective == pytest.approx(1.0, abs=1e-9)

    def test_rejects_bad_M_and_loose_bound(self):
        # M is u's upper bound: it must be finite and positive, u >= 0,
        # and the declared product must start at 0
        for lb, ub in ((0.0, math.inf), (0.0, 0.0), (-1.0, 4.0)):
            m = MilpModel()
            u = m.add_var("u", lb=lb, ub=ub)
            b = m.add_var("b", "binary")
            U = m.add_var("U")
            with pytest.raises(ModelError):
                link_bin_cont(m, U, u, b)
        m = MilpModel()
        u = m.add_var("u", ub=4.0)
        b = m.add_var("b", "binary")
        U = m.add_var("U", lb=-1.0)
        with pytest.raises(ModelError):
            link_bin_cont(m, U, u, b)


def one_hot_model(M=6.0, link=None):
    """u in [0, M], a 3-level group b with sum(b) = 1, products U = u*b
    linked by ``link`` (default link_one_hot) and their sum S."""
    m = MilpModel()
    u = m.add_var("u", ub=M)
    bs = [m.add_var(f"b{v}", "binary") for v in range(3)]
    m.add_constraint({b: 1.0 for b in bs}, "==", 1.0)
    Us = [m.add_var(f"U{v}") for v in range(3)]
    if link is None:
        link_one_hot(m, Us, u, bs)
    else:
        for U, b in zip(Us, bs):
            link(m, U, u, b)
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
        # link_bin_cont rows let it fall to max(0, 2u - M) (0 at u = M/2)
        M = 6.0
        for link, u_val, want in ((None, M / 2, M / 2), (None, M, M),
                                  (link_bin_cont, M / 2, 0.0)):
            m, u, bs, _, S = one_hot_model(M, link)
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
        m.add_var("x", tag="T")
        with pytest.raises(ModelError):
            m.add_var("x")
        with pytest.raises(ModelError):
            m.add_var("y", tag="T")

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
