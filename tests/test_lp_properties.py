"""Property test: the reference simplex agrees with HiGHS on random
bounded LPs.

Data are small integers, so equilibration (powers of two) keeps every
starting residual exact and the three kinds of start are what they
claim to be: every row satisfied at the lower bounds (the slack crash
basis covers all rows and phase 1 has nothing to do), a feasible LP
built around a point inside the box (its start usually violates some
rows), and an arbitrary right-hand side that may be infeasible.  Up to
two column singletons (one nonzero, some without an upper bound) are
appended, so the crash basis often covers a violated row with a
singleton, and sometimes finds one whose upper bound stops it.
Integer data are often degenerate, where optimal duals are not unique;
every reference dual vector is therefore checked as a certificate
(sign conditions and zero duality gap), and compared with HiGHS's
entry by entry when the reference optimum is nondegenerate and the
dual is unique.
"""

import numpy as np
import pytest

from conftest import TOL, assert_dual_certificate
from edgeprice.model import MilpModel
from edgeprice.solve import STATUS_OPTIMAL, get_backend, solve_lp

given = pytest.importorskip("hypothesis").given
st = pytest.importorskip("hypothesis.strategies")


@st.composite
def bounded_lps(draw):
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 5))
    A = np.array(draw(st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                               min_size=m, max_size=m)), dtype=float)
    lb = np.array(draw(st.lists(st.integers(-3, 1), min_size=n, max_size=n)), dtype=float)
    ub = lb + np.array(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
    # column singletons: one nonzero in one row, some without an upper bound
    for _ in range(draw(st.integers(0, 2))):
        col = np.zeros((m, 1))
        col[draw(st.integers(0, m - 1)), 0] = draw(st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4]))
        A = np.hstack([A, col])
        low = float(draw(st.integers(-3, 1)))
        lb = np.append(lb, low)
        ub = np.append(ub, low + draw(st.one_of(st.just(np.inf), st.integers(0, 4))))
        n += 1
    senses = draw(st.lists(st.sampled_from(["<=", ">=", "=="]), min_size=m, max_size=m))
    start = draw(st.sampled_from(["slack-feasible", "feasible", "arbitrary"]))
    if start == "arbitrary":
        b = np.array(draw(st.lists(st.integers(-6, 6), min_size=m, max_size=m)), dtype=float)
    else:
        anchor = lb.copy()
        if start == "feasible":
            anchor += np.array(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
            anchor = np.minimum(anchor, ub)
        gap = np.array(draw(st.lists(st.integers(0, 3), min_size=m, max_size=m)), dtype=float)
        side = np.array([{"<=": 1.0, ">=": -1.0, "==": 0.0}[s] for s in senses])
        b = A @ anchor + side * gap
    c = np.array(draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n)), dtype=float)
    sense = draw(st.sampled_from(["min", "max"]))

    mdl = MilpModel("prop", sense)
    for j in range(n):
        mdl.add_var(f"x{j}", lb=lb[j], ub=ub[j])
    for r in range(m):
        mdl.add_constraint({j: A[r, j] for j in range(n)}, senses[r], b[r])
    mdl.set_objective({j: c[j] for j in range(n)})
    return mdl.finalize(), A, b, senses, c, lb, ub


def nondegenerate(x, A, b, senses, lb, ub):
    """Exactly m values strictly inside their bounds (structurals and slacks)."""
    inside = int(np.sum((x > lb + 1e-9) & (x < ub - 1e-9)))
    slack = b - A @ x
    inside += sum(1 for r, s in enumerate(senses) if s != "==" and abs(slack[r]) > 1e-9)
    return inside == len(senses)


@given(bounded_lps())
def test_reference_matches_highs(lp):
    mdl, A, b, senses, c, lb, ub = lp
    mult = 1.0 if mdl.sense == "min" else -1.0
    ref = solve_lp(mdl)
    hig = get_backend("highs").solve_lp(mdl)
    assert ref.status == hig.status
    if ref.status != STATUS_OPTIMAL:
        return
    assert abs(ref.objective - hig.objective) <= TOL * (1 + abs(hig.objective))
    x = ref.values
    assert np.all(x >= lb - TOL) and np.all(x <= ub + TOL)
    assert_dual_certificate(ref, A, b, senses, c, lb, ub, mult)
    assert_dual_certificate(hig, A, b, senses, c, lb, ub, mult)
    if nondegenerate(x, A, b, senses, lb, ub):
        assert np.allclose(ref.duals, hig.duals, atol=1e-6)
