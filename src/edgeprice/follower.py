"""Per-service lower-level machinery.

Given the platform's decision (prices and activation), each service
solves a small MILP: place the service on a subset of active edge
nodes, buy compute at the nodes and the cloud, route demand, and drop
the rest, minimizing procurement + placement cost + delay and
unmet-demand penalties under a budget.

Three interchangeable routes to the same optimum live here:

* ``solve_sp1``           -- the follower MILP solved directly;
* ``solve_fixed_t_lp``    -- the LP left after fixing the placement
                             vector, together with its exact dual
                             (strong duality is verified internally);
* ``build_kkt_follower``  -- a single-level MILP encoding the KKT
                             system of the fixed-placement LP with
                             complementarity removed via the standard
                             big-M binary-switch reformulation.

The enumeration over placements (``enumerate_placements``) provides the
independent oracle used by the tests.

One layout serves SP1, SP2 and the fixed-placement LP: ``add_follower``
adds a service's variables and rows to a model and ``read_follower``
reads its solution back.  SP1 is one call (``build_follower_milp``), SP2
one per service (``bilevel.build_sp2``), and the fixed-placement LP is
the SP1 model with t fixed, whose duals are read from the rows
``add_follower`` returns.  That model is built once per placement
family (one service under one leader decision): on the built-in engine
the family solves the LP relaxation once and fixes t by its bounds,
starting each placement from the relaxation's optimal basis; a one-slot
memo per thread keeps the family between consecutive calls.  The KKT
model and the master's follower copies write their own rows: the first
through complementarity pairs, the second with the substitutions the
master's size formula counts.
"""

from __future__ import annotations

import itertools
import math
import pickle
import threading
from dataclasses import asdict, dataclass

import numpy as np

from .instance import grid_level
from .model import BINARY, BigMRegistry, Expr, MilpModel
from .solve import (STATUS_INFEASIBLE, STATUS_OPTIMAL, ModelLp, SolveError, SolverConfig,
                    backend_solve, backend_solve_polished, certificate_meets_claim,
                    get_backend, polish_binaries)
from .solve import solve_lp  # noqa: F401  -- looked up here by bench/tracing.py

INF = math.inf


class FollowerError(RuntimeError):
    pass


@dataclass
class ModelVariant:
    """Model toggles for the comparison schemes.

    ``placement_in_follower=False`` reproduces the older provisioning
    model in which services pay nothing for installation or storage:
    the placement term leaves the follower objective and budget (the
    platform side is untouched).
    """
    placement_in_follower: bool = True


DEFAULT_VARIANT = ModelVariant()


@dataclass
class LeaderDecision:
    p: list            # [j] compute price, a level of p_grid[j]
    ps: list           # [j] storage price, a level of ps_grid[j]
    z: list            # [j] activation in {0,1}

    @classmethod
    def from_prices(cls, instance, p, ps, z):
        """The leader at the grid levels that p and ps equal (``grid_level``)."""
        return cls(p=[_level(instance.p_grid[j], p[j], f"p[{j}]") for j in range(instance.J)],
                   ps=[_level(instance.ps_grid[j], ps[j], f"ps[{j}]") for j in range(instance.J)],
                   z=[int(v) for v in z])

    def validate(self, instance):
        for j in range(instance.J):
            if self.z[j] not in (0, 1):
                raise FollowerError(f"z[{j}] must be 0/1")
            _level(instance.p_grid[j], self.p[j], f"p[{j}]")
            _level(instance.ps_grid[j], self.ps[j], f"ps[{j}]")
        return self

    def placement_price(self, instance, k, j):
        """Cost the service pays to sit at EN j: install fee + storage rent."""
        return instance.phi[j][k] + instance.s_tb(k) * self.ps[j]


def _level(grid, price, label):
    """The level of ``grid`` that ``price`` equals (``grid_level``)."""
    v = grid_level(grid, price)
    if v is None:
        raise FollowerError(f"{label}={price} is not a member of the grid {grid}")
    return grid[v]


@dataclass
class CostBreakdown:
    cloud: float
    edge: float
    placement: float
    delay: float
    unmet: float

    @property
    def total(self):
        return self.cloud + self.edge + self.placement + self.delay + self.unmet

    def as_dict(self):
        d = asdict(self)
        d["total"] = self.total
        return d


@dataclass
class FollowerSolution:
    x: list            # [i][j] workload to ENs
    x0: list           # [i] workload to cloud
    q: list            # [i] unmet demand
    y: list            # [j] procurement at ENs
    y0: float          # procurement at cloud
    t: list            # [j] placement in {0,1}
    costs: CostBreakdown
    avg_delay: list    # [i] average delay per area

    def to_json_dict(self):
        d = asdict(self)
        d["costs"] = self.costs.as_dict()
        return d

    def max_violation(self, instance, k, leader, variant=DEFAULT_VARIANT):
        """Largest residual over the follower feasibility system."""
        I, J = instance.I, instance.J
        worst = 0.0
        for i in range(I):
            worst = max(worst, abs(self.x0[i] + sum(self.x[i][j] for j in range(J))
                                   + self.q[i] - instance.R[i][k]))
            worst = max(worst, -self.x0[i], -self.q[i])
            lhs = self.x0[i] * instance.d0[i] + sum(self.x[i][j] * instance.d[i][j]
                                                    for j in range(J))
            worst = max(worst, lhs - instance.Dmax[k] * instance.R[i][k])
            for j in range(J):
                worst = max(worst, -self.x[i][j],
                            self.x[i][j] - instance.a[i][j][k] * instance.R[i][k])
        worst = max(worst, sum(self.x0) - self.y0, -self.y0)
        for j in range(J):
            worst = max(worst, sum(self.x[i][j] for i in range(I)) - self.y[j])
            worst = max(worst, self.y[j] - instance.C[j] * self.t[j], -self.y[j])
            worst = max(worst, self.t[j] - leader.z[j])
        payment = self.costs.cloud + self.costs.edge
        if variant.placement_in_follower:
            payment += self.costs.placement
        worst = max(worst, payment - instance.B[k])
        return worst

    def validate(self, instance, k, leader, variant=DEFAULT_VARIANT, tol=1e-6):
        resid = self.max_violation(instance, k, leader, variant)
        if resid > tol * (1.0 + instance.max_demand()):
            raise FollowerError(f"follower solution violates feasibility by {resid:.3e}")
        return self


@dataclass
class DualSolution:
    """Duals of the fixed-placement LP, one per constraint family (the
    activation rows t_j <= z_j are constant there, with dual 0)."""
    mu1: float         # budget
    mu2: float         # cloud coupling
    Gamma: list        # [j] EN coupling
    sigma: list        # [j] placement capacity
    xi: list           # [i] delay cap
    eta: list          # [i] flow balance (sign-free)
    tau: list          # [i][j] eligibility

    def objective(self, instance, k, leader, t, variant=DEFAULT_VARIANT):
        """Dual objective of the inner LP (placement cost is added outside)."""
        I, J = instance.I, instance.J
        placement = sum(leader.placement_price(instance, k, j) * t[j] for j in range(J)) \
            if variant.placement_in_follower else 0.0
        val = -self.mu1 * (instance.B[k] - placement)
        val += sum(instance.R[i][k] * self.eta[i] for i in range(I))
        val -= sum(instance.R[i][k] * instance.Dmax[k] * self.xi[i] for i in range(I))
        val -= sum(instance.C[j] * t[j] * self.sigma[j] for j in range(J))
        val -= sum(instance.a[i][j][k] * instance.R[i][k] * self.tau[i][j]
                   for i in range(I) for j in range(J))
        return val

    def max_infeasibility(self, instance, k, leader):
        """Largest violation of the dual feasibility system."""
        I, J = instance.I, instance.J
        w = instance.w[k]
        worst = max(0.0, -self.mu1, -self.mu2)
        worst = max(worst, self.mu2 - instance.p0 * (1.0 + self.mu1))
        for j in range(J):
            worst = max(worst, -self.Gamma[j], -self.sigma[j])
            worst = max(worst, self.Gamma[j] - leader.p[j] * (1.0 + self.mu1) - self.sigma[j])
        for i in range(I):
            worst = max(worst, -self.xi[i])
            worst = max(worst, self.eta[i] - instance.psi[i][k])
            worst = max(worst, -(self.mu2 + instance.d0[i] * self.xi[i] - self.eta[i]
                                 + w * instance.d0[i]))
            for j in range(J):
                worst = max(worst, -self.tau[i][j])
                worst = max(worst, -(self.Gamma[j] + instance.d[i][j] * self.xi[i]
                                     + self.tau[i][j] - self.eta[i] + w * instance.d[i][j]))
        return worst


# -- model builders ---------------------------------------------------


def _placement_cost(instance, k, leader, j, variant):
    return leader.placement_price(instance, k, j) if variant.placement_in_follower else 0.0


def add_follower(m, instance, k, leader, variant=DEFAULT_VARIANT):
    """Add service k's variables and rows to ``m``; returns (handles, cost).

    ``handles`` maps t, x, x0, q, y and y0 to their variable indices and
    ``handles["rows"]`` each row family to its row indices; ``cost`` is
    the follower's objective as an Expr.  y has no upper bound of its
    own: the row y_j <= C_j t_j caps it, and a bound at C_j would take the
    capacity multiplier from that row in the fixed-placement LP.
    """
    I, J = instance.I, instance.J
    t = [m.add_var(f"t[{j},{k}]", BINARY) for j in range(J)]
    x = [[m.add_var(f"x[{i},{j},{k}]") for j in range(J)] for i in range(I)]
    x0 = [m.add_var(f"x0[{i},{k}]") for i in range(I)]
    q = [m.add_var(f"q[{i},{k}]") for i in range(I)]
    y = [m.add_var(f"y[{j},{k}]") for j in range(J)]
    y0 = m.add_var(f"y0[{k}]")

    payment = Expr({y0: instance.p0})
    for j in range(J):
        payment.add(y[j], leader.p[j])
        payment.add(t[j], _placement_cost(instance, k, leader, j, variant))
    cost = Expr().add_expr(payment)
    w = instance.w[k]
    for i in range(I):
        cost.add(q[i], instance.psi[i][k])
        cost.add(x0[i], w * instance.d0[i])
        for j in range(J):
            cost.add(x[i][j], w * instance.d[i][j])

    rows = {"budget": m.add_constraint(payment, "<=", instance.B[k], name=f"budget[{k}]",
                                       family="budget")}
    rows["activation"] = [m.add_constraint({t[j]: 1.0}, "<=", leader.z[j], name=f"act[{j},{k}]",
                                           family="activation") for j in range(J)]
    rows["capacity"] = [m.add_constraint({y[j]: 1.0, t[j]: -instance.C[j]}, "<=", 0.0,
                                         name=f"cap[{j},{k}]", family="placement_capacity")
                        for j in range(J)]
    rows["cloud"] = m.add_constraint(Expr({x0[i]: 1.0 for i in range(I)}).add(y0, -1.0), "<=",
                                     0.0, name=f"cloud[{k}]", family="cloud_coupling")
    rows["edge"] = [m.add_constraint(Expr({x[i][j]: 1.0 for i in range(I)}).add(y[j], -1.0),
                                     "<=", 0.0, name=f"edge[{j},{k}]", family="edge_coupling")
                    for j in range(J)]
    rows["flow"] = []
    for i in range(I):
        flow = Expr({x0[i]: 1.0, q[i]: 1.0})
        for j in range(J):
            flow.add(x[i][j], 1.0)
        rows["flow"].append(m.add_constraint(flow, "==", instance.R[i][k],
                                             name=f"flow[{i},{k}]", family="flow"))
    rows["delay"] = []
    for i in range(I):
        delay = Expr({x0[i]: instance.d0[i]})
        for j in range(J):
            delay.add(x[i][j], instance.d[i][j])
        rows["delay"].append(m.add_constraint(delay, "<=", instance.Dmax[k] * instance.R[i][k],
                                              name=f"delay[{i},{k}]", family="delay"))
    rows["eligibility"] = [[m.add_constraint({x[i][j]: 1.0}, "<=",
                                             instance.a[i][j][k] * instance.R[i][k],
                                             name=f"elig[{i},{j},{k}]", family="eligibility")
                            for j in range(J)] for i in range(I)]
    handles = {"t": t, "x": x, "x0": x0, "q": q, "y": y, "y0": y0, "rows": rows}
    return handles, cost


def build_follower_milp(instance, k, leader, variant=DEFAULT_VARIANT):
    """The follower MILP for service k under a fixed leader decision; returns (model, handles)."""
    leader.validate(instance)
    m = MilpModel(f"follower[{k}]", "min")
    handles, cost = add_follower(m, instance, k, leader, variant)
    m.set_objective(cost)
    return m.finalize(), handles


def read_follower(instance, k, leader, handles, values):
    """Service k's FollowerSolution at a point of a model built by ``add_follower``."""
    get = lambda idx: max(0.0, float(values[idx]))
    return assemble_solution(
        instance, k, leader,
        x=[[get(v) for v in row] for row in handles["x"]],
        x0=[get(v) for v in handles["x0"]],
        q=[get(v) for v in handles["q"]],
        y=[get(v) for v in handles["y"]],
        y0=get(handles["y0"]),
        t=[int(round(float(values[v]))) for v in handles["t"]])


def assemble_solution(instance, k, leader, x, x0, q, y, y0, t):
    I, J = instance.I, instance.J
    w = instance.w[k]
    costs = CostBreakdown(
        cloud=instance.p0 * y0,
        edge=sum(leader.p[j] * y[j] for j in range(J)),
        placement=sum(leader.placement_price(instance, k, j) * t[j] for j in range(J)),
        delay=w * (sum(x0[i] * instance.d0[i] for i in range(I))
                   + sum(x[i][j] * instance.d[i][j] for i in range(I) for j in range(J))),
        unmet=sum(instance.psi[i][k] * q[i] for i in range(I)),
    )
    avg = []
    for i in range(I):
        load = x0[i] * instance.d0[i] + sum(x[i][j] * instance.d[i][j] for j in range(J))
        avg.append(load / instance.R[i][k] if instance.R[i][k] > 0 else 0.0)
    return FollowerSolution(x=x, x0=x0, q=q, y=y, y0=y0, t=list(t), costs=costs, avg_delay=avg)


def cost_breakdown(instance, k, leader, sol, variant=DEFAULT_VARIANT):
    """Recompute the five cost components of a solution; rejects invalid input."""
    sol.validate(instance, k, leader, variant)
    fresh = assemble_solution(instance, k, leader, sol.x, sol.x0, sol.q, sol.y, sol.y0, sol.t)
    return fresh.costs


def follower_cost(instance, k, leader, sol, variant=DEFAULT_VARIANT):
    c = sol.costs
    total = c.cloud + c.edge + c.delay + c.unmet
    if variant.placement_in_follower:
        total += c.placement
    return total


# -- fixed-placement LP and its dual ----------------------------------


@dataclass
class FixedPlacementResult:
    status: str                      # "optimal" | "infeasible"
    objective: float | None = None   # full follower cost (LP value + placement)
    lp_value: float | None = None
    solution: FollowerSolution | None = None
    dual: DualSolution | None = None
    reason: str = ""


class _PlacementFamily:
    """Service k's fixed-placement LPs under one leader decision.

    The follower MILP is built, and the leader validated, once.  On the
    built-in engine the first placement that needs an LP builds the
    engine and solves the LP relaxation (t in [0, z]); each placement
    then fixes t by its bounds and starts from that root basis, never
    from the previous placement's, so an answer depends only on the
    placement.  Other backends fix t through ``polish_binaries``.
    """

    def __init__(self, instance, k, leader, variant, backend):
        self.model, self.h = build_follower_milp(instance, k, leader, variant)
        self.backend = backend
        self.lp = self.root = None

    def solve(self, t):
        t_idx = self.h["t"]
        if self.backend != "reference":
            return polish_binaries(self.model, dict(zip(t_idx, t)),
                                   get_backend(self.backend).solve_lp)
        if self.lp is None:
            self.lp = ModelLp(self.model)
            _, self.root = self.lp.solve(self.lp.lb, self.lp.ub)
        lb, ub = self.lp.lb.copy(), self.lp.ub.copy()
        lb[t_idx] = ub[t_idx] = t
        return self.lp.solve(lb, ub, start=self.root)[0]


# the last placement family each thread used, under the value of its arguments
_last_family = threading.local()


def _placement_family(instance, k, leader, variant, backend):
    key = pickle.dumps((instance, k, leader, variant, backend))
    slot = getattr(_last_family, "slot", None)
    if slot is None or slot[0] != key:
        slot = (key, _PlacementFamily(instance, k, leader, variant, backend))
        _last_family.slot = slot
    return slot[1]


def solve_fixed_t_lp(instance, k, leader, t, variant=DEFAULT_VARIANT, backend="reference"):
    """The follower MILP with the placement fixed at t, solved as an LP with exact duals.

    The model, and on the built-in engine the root basis every placement
    starts from, belong to a placement family (``_PlacementFamily``) kept
    in a one-slot memo per thread.  Its key is the value of every argument
    but t, so consecutive calls for one (instance, service, leader) share
    a family, any changed argument builds a new one, and an answer does
    not depend on the calls made before it.
    """
    family = _placement_family(instance, k, leader, variant, backend)
    J = instance.J
    t = [int(v) for v in t]
    for j in range(J):
        if t[j] > leader.z[j]:
            return FixedPlacementResult(STATUS_INFEASIBLE, reason=f"t[{j}]=1 at inactive EN {j}")
    placement = sum(_placement_cost(instance, k, leader, j, variant) * t[j] for j in range(J))
    if instance.B[k] - placement < -1e-12:
        return FixedPlacementResult(STATUS_INFEASIBLE, reason=f"placement cost {placement:.6g} "
                                    f"exceeds budget {instance.B[k]:.6g}")

    res = family.solve(t)
    h = family.h
    if res.status == STATUS_INFEASIBLE:
        return FixedPlacementResult(STATUS_INFEASIBLE, reason="LP infeasible")
    if res.status != STATUS_OPTIMAL:
        raise SolveError(f"fixed-t LP ended with status {res.status}")

    # sensitivity duals of a minimization: <= rows are nonpositive
    rows, duals = h["rows"], res.duals
    neg = lambda r: -float(duals[r])
    dual = DualSolution(
        mu1=neg(rows["budget"]),
        mu2=neg(rows["cloud"]),
        Gamma=[neg(r) for r in rows["edge"]],
        sigma=[neg(r) for r in rows["capacity"]],
        xi=[neg(r) for r in rows["delay"]],
        eta=[float(duals[r]) for r in rows["flow"]],
        tau=[[neg(r) for r in row] for row in rows["eligibility"]],
    )
    sol = read_follower(instance, k, leader, h, res.values)
    total = float(res.objective)
    lp_value = total - placement

    dual_obj = dual.objective(instance, k, leader, t, variant)
    scale = 1.0 + abs(lp_value)
    if abs(dual_obj - lp_value) > 1e-6 * scale:
        raise SolveError(
            f"strong duality violated on fixed-t LP: primal {lp_value:.12g} vs dual {dual_obj:.12g}")
    return FixedPlacementResult(STATUS_OPTIMAL, objective=total, lp_value=lp_value,
                                solution=sol, dual=dual)


def enumerate_placements(instance, k, leader, variant=DEFAULT_VARIANT, backend="reference"):
    """Exhaustive min over all 2^J placements of the fixed-t LP value."""
    J = instance.J
    best = None
    for bits in itertools.product((0, 1), repeat=J):
        res = solve_fixed_t_lp(instance, k, leader, list(bits), variant, backend)
        if res.status != STATUS_OPTIMAL:
            continue
        if best is None or res.objective < best.objective - 1e-12:
            best = res
    if best is None:
        raise FollowerError("no feasible placement found (all-zero should always work)")
    return best


def solve_sp1(instance, k, leader, variant=DEFAULT_VARIANT, backend="reference"):
    """Exact follower optimum; returns (FollowerSolution, phi).

    HiGHS solves it with the follower profile (``SolverConfig.follower_profile``).
    """
    model, handles = build_follower_milp(instance, k, leader, variant)
    res = backend_solve_polished(backend, model, SolverConfig(follower_profile=True))
    if res.status != STATUS_OPTIMAL:
        raise SolveError(f"SP1[{k}] ended with status {res.status} (must be feasible)")
    sol = read_follower(instance, k, leader, handles, res.values)
    sol.validate(instance, k, leader, variant, tol=1e-5)
    return sol, float(res.objective)


# -- KKT / complementarity single-level oracle -------------------------


def derived_dual_bound(instance):
    """Instance-derived cap for dual-side variables.

    Bounded by the follower cost ceiling (budget + worst-case penalties)
    and the marginal value of money on the cheapest resource (the
    smallest positive price), with a 10x cushion; the registry's 0.99*M
    validation guards the assumption.  It caps every KKT-follower dual and
    the master's mu1 where a budget can bind, and is the master's
    closed-node constant: each node j of a block's placement adds
    M * (1 - z_j) to its cut row (see ``repair_dual_blocks``).
    """
    inst = instance
    d_max = max(max(inst.d0),
                max(inst.d[i][j] for i in range(inst.I) for j in range(inst.J)))
    price_floor = min([p for p in [inst.p0, *itertools.chain(*inst.p_grid)] if p > 0]
                      or [1e-3])
    scale = 0.0
    for k in range(inst.K):
        ceiling = (inst.B[k] + inst.all_drop_cost(k)
                   + inst.w[k] * d_max * inst.total_demand(k))
        money = (max(inst.psi[i][k] for i in range(inst.I)) + inst.p0
                 + inst.w[k] * d_max) / price_floor
        scale = max(scale, ceiling, money)
    return 10.0 * (scale + 1.0)


def budget_cannot_bind(instance, k):
    """True when service k's budget exceeds its largest possible spend.

    That spend is p_top * D_k + P_k: the highest unit price (cloud or any
    grid level) times the total demand, plus the placement fees at every
    node at the highest storage price, charged in both model variants
    (conservative when the variant does not charge them).  The test is
    strict with a relative margin; ``build_master`` has the proof.
    """
    inst = instance
    p_top = max([inst.p0] + [row[-1] for row in inst.p_grid])
    placement_top = sum(inst.phi[j][k] + inst.s_tb(k) * inst.ps_grid[j][-1]
                        for j in range(inst.J))
    spend = p_top * inst.total_demand(k) + placement_top
    return spend < inst.B[k] - 1e-9 * (1.0 + inst.B[k])


@dataclass
class KktFollowerModel:
    model: MilpModel
    registry: BigMRegistry
    pairs: dict          # family -> list of (label, slack Expr, dual Expr, u idx)
    tags: dict

    def complementarity_residuals(self, values):
        """Per family, the largest min(primal slack, dual side) at a point."""
        out = {}
        for family, pairs in self.pairs.items():
            worst = 0.0
            for label, slack, dual, _u in pairs:
                worst = max(worst, min(slack.value(values), dual.value(values)))
            out[family] = worst
        return out


def build_kkt_follower(instance, k, leader, variant=DEFAULT_VARIANT):
    """Single-level MILP equivalent of the follower problem.

    Encodes primal feasibility, stationarity, and complementary slackness
    of the fixed-placement LP for every placement vector at once (t stays
    binary), using one switch binary per complementarity pair.  Twelve
    constraint families, each with its own big-M from the registry.
    """
    leader.validate(instance)
    I, J = instance.I, instance.J
    registry = BigMRegistry()
    w = instance.w[k]
    R = [instance.R[i][k] for i in range(I)]
    total_R = sum(R)
    dual_bound = derived_dual_bound(instance)

    m = MilpModel(f"kkt_follower[{k}]", "min")
    t = [m.add_var(f"t[{j}]", BINARY) for j in range(J)]
    x = [[m.add_var(f"x[{i},{j}]", ub=instance.a[i][j][k] * R[i]) for j in range(J)]
         for i in range(I)]
    x0 = [m.add_var(f"x0[{i}]", ub=R[i]) for i in range(I)]
    q = [m.add_var(f"q[{i}]", ub=R[i]) for i in range(I)]
    y = [m.add_var(f"y[{j}]", ub=instance.C[j]) for j in range(J)]
    y0 = m.add_var("y0", ub=total_R)
    mu1 = m.add_var("mu1", ub=dual_bound)
    mu2 = m.add_var("mu2", ub=dual_bound)
    Gamma = [m.add_var(f"Gamma[{j}]", ub=dual_bound) for j in range(J)]
    sigma = [m.add_var(f"sigma[{j}]", ub=dual_bound) for j in range(J)]
    xi = [m.add_var(f"xi[{i}]", ub=dual_bound) for i in range(I)]
    nu = [m.add_var(f"nu[{j}]", ub=dual_bound) for j in range(J)]
    eta = [m.add_var(f"eta[{i}]", lb=-dual_bound, ub=dual_bound) for i in range(I)]
    tau = [[m.add_var(f"tau[{i},{j}]", ub=dual_bound) for j in range(J)] for i in range(I)]

    obj = Expr({y0: instance.p0})
    for j in range(J):
        obj.add(y[j], leader.p[j])
        obj.add(t[j], _placement_cost(instance, k, leader, j, variant))
    for i in range(I):
        obj.add(q[i], instance.psi[i][k])
        obj.add(x0[i], w * instance.d0[i])
        for j in range(J):
            obj.add(x[i][j], w * instance.d[i][j])
    m.set_objective(obj)

    for i in range(I):
        flow = Expr({x0[i]: 1.0, q[i]: 1.0})
        for j in range(J):
            flow.add(x[i][j], 1.0)
        m.add_constraint(flow, "==", R[i], name=f"flow[{i}]", family="flow")

    pairs = {}

    def complementarity(family, label, slack_expr, dual_expr, M):
        """0 <= slack ⊥ dual >= 0 via a switch binary and big-M caps."""
        watch = []
        if len(dual_expr.coeffs) == 1 and not dual_expr.constant:
            (only_idx, coef), = dual_expr.coeffs.items()
            if coef == 1.0 and m.variables[only_idx].kind != BINARY:
                watch = [only_idx]
        M = registry.register(family, M, watch=watch)
        u = m.add_var(f"u[{family}:{label}]", BINARY)
        m.add_constraint(slack_expr, ">=", 0.0, name=f"{family}:{label}:p0", family=family)
        lhs = Expr().add_expr(slack_expr).add(u, -M)
        m.add_constraint(lhs, "<=", 0.0, name=f"{family}:{label}:pM", family=family)
        m.add_constraint(dual_expr, ">=", 0.0, name=f"{family}:{label}:d0", family=family)
        dhs = Expr().add_expr(dual_expr).add(u, M)
        m.add_constraint(dhs, "<=", M, name=f"{family}:{label}:dM", family=family)
        pairs.setdefault(family, []).append((label, slack_expr, dual_expr, u))

    price_floor = min([p for p in ([instance.p0] + leader.p) if p > 0] or [1e-3])
    psi_max = max(instance.psi[i][k] for i in range(I))
    d_max = max([instance.d0[i] for i in range(I)] +
                [instance.d[i][j] for i in range(I) for j in range(J)])
    mdual = max(dual_bound, (psi_max + instance.p0 + w * d_max) / price_floor)

    # family 1: budget
    slack = Expr(constant=instance.B[k])
    slack.add(y0, -instance.p0)
    for j in range(J):
        slack.add(y[j], -leader.p[j])
        slack.add(t[j], -_placement_cost(instance, k, leader, j, variant))
    complementarity("kkt1_budget", "all", slack, Expr({mu1: 1.0}),
                    max(instance.B[k], mdual))
    # family 2: cloud coupling
    slack = Expr({y0: 1.0})
    for i in range(I):
        slack.add(x0[i], -1.0)
    complementarity("kkt2_cloud", "all", slack, Expr({mu2: 1.0}), max(total_R, mdual))
    # families 3-4: EN coupling and capacity
    for j in range(J):
        slack = Expr({y[j]: 1.0})
        for i in range(I):
            slack.add(x[i][j], -1.0)
        complementarity("kkt3_edge", f"j{j}", slack, Expr({Gamma[j]: 1.0}),
                        max(max(instance.C), mdual))
        complementarity("kkt4_cap", f"j{j}",
                        Expr({t[j]: instance.C[j], y[j]: -1.0}), Expr({sigma[j]: 1.0}),
                        max(max(instance.C), mdual))
    # family 5: eligibility
    for i in range(I):
        for j in range(J):
            complementarity("kkt5_elig", f"i{i}j{j}",
                            Expr({x[i][j]: -1.0}, constant=instance.a[i][j][k] * R[i]),
                            Expr({tau[i][j]: 1.0}), max(max(R, default=1.0), 1.0, mdual))
    # family 6: activation
    for j in range(J):
        complementarity("kkt6_act", f"j{j}",
                        Expr({t[j]: -1.0}, constant=leader.z[j]), Expr({nu[j]: 1.0}),
                        max(1.0, mdual))
    # family 7: delay
    for i in range(I):
        slack = Expr({x0[i]: -instance.d0[i]}, constant=instance.Dmax[k] * R[i])
        for j in range(J):
            slack.add(x[i][j], -instance.d[i][j])
        complementarity("kkt7_delay", f"i{i}", slack, Expr({xi[i]: 1.0}),
                        max(instance.Dmax[k] * max(R, default=1.0), 1.0, mdual))
    # families 8-12: stationarity ⊥ primal variable
    for i in range(I):
        for j in range(J):
            station = Expr({Gamma[j]: 1.0, tau[i][j]: 1.0, eta[i]: 1.0,
                            xi[i]: instance.d[i][j]}, constant=w * instance.d[i][j])
            complementarity("kkt8_x", f"i{i}j{j}", station, Expr({x[i][j]: 1.0}),
                            max(max(R, default=1.0), 1.0, mdual))
    for i in range(I):
        station = Expr({mu2: 1.0, eta[i]: 1.0, xi[i]: instance.d0[i]},
                       constant=w * instance.d0[i])
        complementarity("kkt9_x0", f"i{i}", station, Expr({x0[i]: 1.0}),
                        max(max(R, default=1.0), 1.0, mdual))
        complementarity("kkt10_q", f"i{i}",
                        Expr({eta[i]: 1.0}, constant=instance.psi[i][k]),
                        Expr({q[i]: 1.0}), max(max(R, default=1.0), 1.0, mdual))
    for j in range(J):
        station = Expr({mu1: leader.p[j], Gamma[j]: -1.0, sigma[j]: 1.0},
                       constant=leader.p[j])
        complementarity("kkt11_y", f"j{j}", station, Expr({y[j]: 1.0}),
                        max(max(instance.C), mdual))
    station = Expr({mu1: instance.p0, mu2: -1.0}, constant=instance.p0)
    complementarity("kkt12_y0", "all", station, Expr({y0: 1.0}), max(total_R, mdual))

    tags = {"t": t, "x": x, "x0": x0, "q": q, "y": y, "y0": y0,
            "mu1": mu1, "mu2": mu2, "Gamma": Gamma, "sigma": sigma,
            "xi": xi, "nu": nu, "eta": eta, "tau": tau}
    return KktFollowerModel(model=m.finalize(), registry=registry, pairs=pairs, tags=tags)


def solve_kkt_follower(instance, k, leader, variant=DEFAULT_VARIANT, backend="reference"):
    """Solve the KKT reformulation; returns (optimum, residual audit, result).

    The raw MILP solve fixes the placement; the switch binaries are then
    re-derived from an exact primal/dual pair of that placement's LP and
    the completed pattern is certified against the KKT model itself (LP
    with all binaries fixed), and the certificate may not be worse than the
    engine's claim (``certificate_meets_claim``).  This sidesteps engine
    integrality slack, which on complementarity models routinely yields
    switch patterns with no exact completion.  The placement's LP is
    solved by the built-in engine whatever ``backend`` is, on purpose: the
    completion then does not depend on the engine that solved the KKT
    model.

    HiGHS runs the KKT MILP, as SP1 and SP2, with the follower profile
    (``SolverConfig.follower_profile``; see ``edgeprice.solve``), and the
    built-in engine at integrality tolerance 1e-8.
    """
    km = build_kkt_follower(instance, k, leader, variant)
    res = backend_solve(backend, km.model, SolverConfig(int_tol=1e-8, follower_profile=True))
    if res.status != STATUS_OPTIMAL:
        raise SolveError(f"KKT follower model ended with status {res.status}")
    claimed = float(res.objective)
    J, I = instance.J, instance.I
    tags = km.tags
    t = [int(round(res.values[tags["t"][j]])) for j in range(J)]
    ft = solve_fixed_t_lp(instance, k, leader, t, variant)
    if ft.status != STATUS_OPTIMAL:
        raise SolveError("KKT solve returned an unusable placement "
                         f"(fixed-placement LP {ft.status}: {ft.reason})")

    # assemble the exact completion: primal from the LP, duals from its
    # certificate (the flow multiplier flips sign between the two systems)
    point = np.zeros(km.model.n_vars)
    sol, dual = ft.solution, ft.dual
    for j in range(J):
        point[tags["t"][j]] = t[j]
        point[tags["y"][j]] = sol.y[j]
        point[tags["Gamma"][j]] = dual.Gamma[j]
        point[tags["sigma"][j]] = dual.sigma[j]
        point[tags["nu"][j]] = 0.0
    for i in range(I):
        point[tags["x0"][i]] = sol.x0[i]
        point[tags["q"][i]] = sol.q[i]
        point[tags["xi"][i]] = dual.xi[i]
        point[tags["eta"][i]] = -dual.eta[i]
        for j in range(J):
            point[tags["x"][i][j]] = sol.x[i][j]
            point[tags["tau"][i][j]] = dual.tau[i][j]
    point[tags["y0"]] = sol.y0
    point[tags["mu1"]] = dual.mu1
    point[tags["mu2"]] = dual.mu2
    for family, entries in km.pairs.items():
        for label, slack, dual_side, u_idx in entries:
            s_val = slack.value(point)
            d_val = dual_side.value(point)
            point[u_idx] = 1.0 if s_val > max(d_val, 1e-9 * (1.0 + abs(s_val))) else 0.0

    cert = polish_binaries(km.model, point, get_backend(backend).solve_lp)
    if cert.status != STATUS_OPTIMAL or not certificate_meets_claim(cert.objective, claimed,
                                                                    km.model.sense):
        raise SolveError(
            f"KKT certificate ({cert.status}, {cert.objective}) is worse than the engine's "
            f"claim {claimed:.12g}; the returned placement is suspect")
    km.registry.validate(cert.values)
    residuals = km.complementarity_residuals(cert.values)
    return float(cert.objective), residuals, cert
