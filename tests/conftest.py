import numpy as np
import pytest

from edgeprice.instance import GenConfig, Instance, generate

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    # derandomized: every run draws the same examples, so Tier-1 stays
    # reproducible and its time bounded; no example database is written
    settings.register_profile("edgeprice", derandomize=True, deadline=None,
                              max_examples=60, database=None)
    settings.load_profile("edgeprice")


TOL = 1e-7


def assert_dual_certificate(res, A, b, senses, c, lb, ub, mult):
    """The duals prove the objective: right signs and no duality gap."""
    y = mult * res.duals  # as for min (mult*c)'x, whose <= rows price <= 0
    for r, sense in enumerate(senses):
        if sense == "<=":
            assert y[r] <= TOL
        elif sense == ">=":
            assert y[r] >= -TOL
    red = mult * c - A.T @ y
    bounded = np.isfinite(ub)
    assert np.all(red[~bounded] >= -TOL)  # no upper bound to price a negative cost
    dual_obj = b @ y + np.where(red > 0, red * lb, red * np.where(bounded, ub, 0.0)).sum()
    assert abs(dual_obj - mult * res.objective) <= 1e-6 * (1 + abs(res.objective))


def rel_close(a, b, tol=1e-6):
    return abs(a - b) <= tol * (1.0 + max(abs(a), abs(b)))


@pytest.fixture(scope="session")
def small_instance():
    return generate(GenConfig(I=3, J=2, K=2, graph_size=30, seed=11))


def make_manual_instance(I=2, J=2, K=1, **overrides):
    """Hand-written minimal instance with every value explicit."""
    fields = dict(
        I=I, J=J, K=K,
        d=[[5.0 + i + 2 * j for j in range(J)] for i in range(I)],
        d0=[60.0] * I,
        C=[40.0] * J,
        S=[2000.0] * J,
        f=[0.5] * J,
        c=[0.2] * J,
        p0=0.02,
        p_grid=[[0.01, 0.03, 0.05] for _ in range(J)],
        ps_grid=[[0.005, 0.015] for _ in range(J)],
        R=[[30.0] * K for _ in range(I)],
        B=[25.0] * K,
        s=[500.0] * K,
        w=[4e-4] * K,
        psi=[[0.1] * K for _ in range(I)],
        phi=[[0.2] * K for _ in range(J)],
        Dmax=[50.0] * K,
        a=[[[1] * K for _ in range(J)] for _ in range(I)],
        seed=0,
    )
    fields.update(overrides)
    return Instance(**fields).validate()


def zero_demand_instance(J=2, K=1, I=2):
    """Zero demand everywhere; fixed costs high enough that selling
    placement slots alone cannot pay for activating a node."""
    return make_manual_instance(
        I=I, J=J, K=K,
        R=[[0.0] * K for _ in range(I)],
        f=[10.0] * J,
    )
