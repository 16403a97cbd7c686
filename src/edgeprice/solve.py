"""Exact solving of MilpModels.

Two engines live behind one result contract, each reached by name
through ``get_backend``:

* ``"reference"``, the built-in engine: a bounded-variable simplex
  (primal, dual on a warm start), which a model meets only through
  ``ModelLp``, plus a
  deterministic best-first branch-and-bound on binaries over one
  ``ModelLp``, and
* ``"highs"``, an adapter for scipy's HiGHS.

An adapter is an object with ``solve_lp(model)`` and
``solve_milp(model, config)`` that returns SolveResults with the same
status vocabulary and tolerance semantics, so ``solve_milp_certified``
also takes a test's fake.  An LP solve takes no settings; a MILP solve
reads a ``SolverConfig``, which each caller builds where it calls the
engine, and both engines stop at the relative gap ``MIP_GAP``.

Both engines accept binaries within their integrality tolerance, so
``solve_milp``, ``backend_solve`` and the adapters return uncertified
incumbents.  Every engine is certified in one place,
``backend_solve_polished`` (``solve_milp_certified``).

The HiGHS adapter switches off two primal heuristics on every MILP:
RINS and RENS, which each solve a sub-MIP of the model.  On the bilevel
masters those sub-MIPs are nearly as hard as the master itself (on the
seed-113 full-enumeration master they spent 7,786 of 9,302 LP
iterations).  Replaying the 17 masters of one oracle + base bench pass,
HiGHS took 15.7 s with the defaults and 7.0 s without them, at objectives
equal within 5e-13.  The third sub-MIP heuristic, root reduced cost, is
off on the masters: replaying the 18 HiGHS MILPs of one oracle + base
pass (masters, SP1, SP2) took 4.70 s with it and 3.22 s without, at
objectives equal to 10 significant digits, while the 10 KKT MILPs of the
follower deck took 0.52 s with it and 1.52 s without.

Follower-sized MILPs (SP1, SP2 and the KKT follower) set
``SolverConfig.follower_profile``, which turns root reduced cost on and
the feasibility jump heuristic off.  Replaying the captured HiGHS MILPs
of one oracle + base + follower pass over 8 rounds, with feasibility
jump and without: KKT 0.35 s and 0.24 s; SP1 0.16 s and 0.08 s (oracle),
0.15 s and 0.08 s (base); SP2 0.08 s and 0.03 s (oracle), 0.09 s and
0.05 s (base).  The masters took 0.63 s and 0.71 s (oracle), 1.18 s and
1.41 s (base), 13–20 % slower without it, so they keep it.  Incumbents
do not depend on any heuristic, since every pattern is re-certified
(``solve_milp_certified``).

Dual values are reported for LP solves only (a certified MILP result
carries those of the LP with its binaries fixed), with the sensitivity
convention dObj/d(rhs): for a minimization, duals of ``<=`` rows are
nonpositive; for a maximization the signs flip (the dual of ``x <= 3``
in ``max x`` is +1).
"""

from __future__ import annotations

import heapq
import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .model import MilpModel, ModelError, VarDef
from .simplex import (BoundedSimplex, INFEASIBLE, ITER_LIMIT, OPTIMAL,
                      SimplexFailure, UNBOUNDED)

INF = math.inf

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_UNBOUNDED = "unbounded"
STATUS_GAP_LIMIT = "gap-limit"
STATUS_TIME_LIMIT = "time-limit"


class SolveError(RuntimeError):
    """Numerical failure or protocol violation during a solve."""


# relative gap at which both engines stop a MILP solve
MIP_GAP = 1e-8


@dataclass
class SolverConfig:
    """The settings of one MILP solve.

    ``int_tol`` is read only by the built-in branch and bound; the HiGHS
    adapter never passes it, so the KKT follower's 1e-8 reaches only the
    reference engine.
    """
    int_tol: float = 1e-6
    time_limit: float | None = None
    # HiGHS's heuristics for a follower-sized MILP: root reduced cost on,
    # feasibility jump off (see module docstring)
    follower_profile: bool = False

    def validate(self):
        if self.int_tol <= 0:
            raise ModelError("integrality tolerance must be positive")
        if self.time_limit is not None and self.time_limit < 0:
            raise ModelError("time limit must be nonnegative")
        return self


@dataclass
class SolveResult:
    status: str
    objective: float | None = None
    values: np.ndarray | None = None
    duals: np.ndarray | None = None
    stats: dict = field(default_factory=dict)


class _ModelCore:
    """Constraint matrix and vectors extracted once per model."""

    def __init__(self, model: MilpModel):
        m, n = model.n_constraints, model.n_vars
        rows, cols, data = [], [], []
        b = np.zeros(m)
        senses = []
        for r, con in enumerate(model.constraints):
            senses.append(con.sense)
            b[r] = con.rhs
            for idx, coef in con.coeffs.items():
                rows.append(r)
                cols.append(idx)
                data.append(coef)
        self.A = sp.csc_matrix((data, (rows, cols)), shape=(m, n))
        self.b = b
        self.senses = senses
        self.n = n
        self.c = np.zeros(n)
        for idx, coef in model.objective.items():
            self.c[idx] = coef
        self.offset = model.objective_offset
        self.sense_mult = 1.0 if model.sense == "min" else -1.0
        self.lb = np.array([v.lb for v in model.variables])
        self.ub = np.array([v.ub for v in model.variables])
        self.binaries = model.binary_indices()


class ModelLp:
    """A model's LP (binaries relaxed to [0,1]) on the built-in engine,
    extracted and equilibrated once and then solved under any bounds;
    the one place where a model meets ``BoundedSimplex``.

    ``lb`` and ``ub`` are the model's own bounds.  ``run`` returns the
    engine's LpSolution of min sense_mult·c'x (offset left out).
    ``solve`` returns the SolveResult and the optimum's basis (None
    unless optimal), which a later ``solve`` may take as its ``start``.
    """

    def __init__(self, model: MilpModel):
        self.core = core = _ModelCore(model)
        self.lb, self.ub = core.lb, core.ub
        self.engine = BoundedSimplex(core.A, core.b, core.senses)

    def run(self, lb, ub, start=None):
        core = self.core
        try:
            sol = self.engine.solve(core.sense_mult * core.c, lb, ub, start)
        except SimplexFailure as exc:
            raise SolveError(f"simplex failure: {exc}") from exc
        if sol.status == ITER_LIMIT:
            raise SolveError("simplex iteration limit exceeded (after Bland fallback)")
        return sol

    def solve(self, lb, ub, start=None):
        core = self.core
        t0 = time.perf_counter()
        sol = self.run(lb, ub, start)
        stats = {"iterations": sol.iterations, "wall_time": time.perf_counter() - t0}
        if sol.status == INFEASIBLE:
            return SolveResult(STATUS_INFEASIBLE, stats=stats), None
        if sol.status == UNBOUNDED:
            return SolveResult(STATUS_UNBOUNDED, stats=stats), None
        obj = core.sense_mult * sol.obj + core.offset
        duals = core.sense_mult * sol.duals
        stats["nodes"] = 0
        return SolveResult(STATUS_OPTIMAL, objective=obj, values=sol.x, duals=duals,
                           stats=stats), sol.basis


def solve_lp(model: MilpModel) -> SolveResult:
    """Solve the model as an LP (binaries relaxed to [0,1]) on the built-in
    engine; duals included."""
    lp = ModelLp(model)
    return lp.solve(lp.lb, lp.ub)[0]


def solve_milp(model: MilpModel, config: SolverConfig | None = None) -> SolveResult:
    """Best-first branch-and-bound on the binaries.

    Deterministic: lowest-index fractional binary is branched first and the
    down-branch (fix to 0) is explored first among equal bounds.  An
    integral leaf (binaries within ``int_tol``) becomes the incumbent with
    its binaries rounded and its LP value as the claim, uncertified: a
    binary inside the tolerance can leak through a big-M row.  Each child
    starts from its parent's optimal basis, which its one fixed binary
    leaves dual feasible (``BoundedSimplex.solve``).  The engine has no
    primal heuristics, so it ignores ``config.follower_profile``.
    """
    config = (config or SolverConfig()).validate()
    lp = ModelLp(model)
    core = lp.core
    if not core.binaries:
        return lp.solve(lp.lb, lp.ub)[0]

    t0 = time.perf_counter()
    deadline = t0 + config.time_limit if config.time_limit is not None else None
    mult = core.sense_mult  # internal objective is mult*obj, always minimized

    nodes = 0
    total_iters = 0
    incumbent = None
    incumbent_internal = INF

    def lp_at(fixes, start=None):
        nonlocal nodes, total_iters
        lb = core.lb.copy()
        ub = core.ub.copy()
        for idx, val in fixes.items():
            lb[idx] = ub[idx] = float(val)
        sol = lp.run(lb, ub, start)
        nodes += 1
        total_iters += sol.iterations
        return sol

    root = lp_at({})
    if root.status == INFEASIBLE:
        return SolveResult(STATUS_INFEASIBLE, stats={"nodes": nodes, "iterations": total_iters,
                                                     "wall_time": time.perf_counter() - t0})
    if root.status == UNBOUNDED:
        return SolveResult(STATUS_UNBOUNDED, stats={"nodes": nodes, "iterations": total_iters,
                                                    "wall_time": time.perf_counter() - t0})

    counter = 0
    heap = []  # (internal bound, insertion counter, fixes, lp solution)
    heapq.heappush(heap, (root.obj, counter, {}, root))

    def gap_cushion():
        ref = abs(incumbent_internal) if incumbent is not None else 1.0
        return MIP_GAP * max(1.0, ref)

    status = STATUS_OPTIMAL
    best_open_bound = root.obj
    while heap:
        if deadline is not None and time.perf_counter() > deadline:
            status = STATUS_TIME_LIMIT
            break
        bound, _, fixes, sol = heapq.heappop(heap)
        best_open_bound = bound
        if incumbent is not None and bound >= incumbent_internal - gap_cushion():
            best_open_bound = incumbent_internal
            break  # best-first: everything remaining is no better

        frac = next((idx for idx in core.binaries
                     if abs(sol.x[idx] - round(sol.x[idx])) > config.int_tol), None)
        if frac is None:
            # integral leaf; the pop test above guarantees it beats the incumbent
            incumbent_internal = sol.obj
            incumbent = sol.x.copy()
            incumbent[core.binaries] = np.round(incumbent[core.binaries])
            continue

        for val in (0, 1):  # down-branch first
            child_fixes = dict(fixes)
            child_fixes[frac] = val
            child = lp_at(child_fixes, sol.basis)
            if child.status != OPTIMAL:
                continue
            if incumbent is not None and child.obj >= incumbent_internal - gap_cushion():
                continue
            counter += 1
            heapq.heappush(heap, (child.obj, counter, child_fixes, child))

    wall = time.perf_counter() - t0
    stats = {"nodes": nodes, "iterations": total_iters, "wall_time": wall}
    if incumbent is None:
        if status == STATUS_OPTIMAL:
            return SolveResult(STATUS_INFEASIBLE, stats=stats)
        return SolveResult(status, stats=stats)
    obj = mult * incumbent_internal + core.offset
    if status != STATUS_OPTIMAL and heap:
        lo = min(best_open_bound, min(h[0] for h in heap))
        stats["gap"] = (incumbent_internal - lo) / max(1.0, abs(incumbent_internal))
    else:
        stats["gap"] = 0.0
    return SolveResult(status, objective=obj, values=incumbent, duals=None, stats=stats)


# relative tolerance of the claim-versus-certificate test, and the number of
# patterns the certify-or-exclude loop may exclude before it gives up
CERT_RTOL = 1e-9
MAX_EXCLUSIONS = 64


def polish_binaries(model, values, lp_solver):
    """Certify a binary pattern: re-solve the LP with every binary fixed.

    The pattern is ``values`` at the model's binaries, rounded.  Returns
    the LP's optimum, with its duals and with the binaries set exactly, or
    the LP's result if it is not optimal (the pattern has no feasible
    completion).  The caller's model is not modified: the LP gets its own
    variable list.
    """
    bins = model.binary_indices()
    pattern = {i: float(round(float(values[i]))) for i in bins}
    fixed = MilpModel(model.name, model.sense)
    fixed.variables = [VarDef(v.name, v.kind, pattern.get(i, v.lb), pattern.get(i, v.ub))
                       for i, v in enumerate(model.variables)]
    fixed.constraints = model.constraints
    fixed.objective = model.objective
    fixed.objective_offset = model.objective_offset
    lp = lp_solver(fixed.finalize())
    if lp.status != STATUS_OPTIMAL:
        return lp
    values = lp.values.copy()
    for i in bins:
        values[i] = pattern[i]
    return SolveResult(STATUS_OPTIMAL, objective=lp.objective, values=values, duals=lp.duals,
                       stats=lp.stats)


def certificate_meets_claim(certified, claimed, sense):
    """False when the certified objective is worse than the claimed one.

    One-sided: a better certificate is a feasible point the engine
    undervalued.  Worse by more than ``CERT_RTOL * (1 + |claimed|)`` means
    the claim leaned on a binary inside the engine's integrality tolerance.
    """
    worse = certified - claimed if sense == "min" else claimed - certified
    return worse <= CERT_RTOL * (1.0 + abs(claimed))


def solve_milp_certified(adapter, model, config=None):
    """Exact MILP optimum through any engine: certify every pattern or exclude it.

    The one place where engine answers are certified.  Each returned
    pattern is certified by ``polish_binaries`` and the best certificate
    kept.  The solve is optimal once the best certificate meets the
    engine's current claim, which bounds every pattern not yet excluded;
    otherwise the claimed pattern is excluded with a no-good row and the
    engine solves again.  At an engine limit the best certificate is
    returned with the limit status, after ``MAX_EXCLUSIONS`` exclusions
    with ``gap-limit``; without a certificate the result has no values.
    """
    config = (config or SolverConfig()).validate()
    bins = model.binary_indices()
    if not bins:
        return adapter.solve_lp(model)
    sense_mult = 1.0 if model.sense == "min" else -1.0

    work = model
    best = None
    status = STATUS_GAP_LIMIT  # kept only if the exclusions run out
    for _ in range(MAX_EXCLUSIONS + 1):
        res = adapter.solve_milp(work, config)
        if res.status == STATUS_INFEASIBLE:
            # nothing left beyond the excluded patterns, all of them certified
            status = STATUS_OPTIMAL if best is not None else STATUS_INFEASIBLE
            break
        if res.status not in (STATUS_OPTIMAL, STATUS_GAP_LIMIT, STATUS_TIME_LIMIT):
            return res
        if res.values is not None:
            cert = polish_binaries(model, res.values, adapter.solve_lp)
            if cert.status == STATUS_OPTIMAL and (
                    best is None or sense_mult * cert.objective < sense_mult * best.objective):
                best = cert
                best.stats = dict(res.stats)
        if res.status != STATUS_OPTIMAL:
            status = res.status  # the claim was never proven
            break
        if best is not None and certificate_meets_claim(best.objective, res.objective,
                                                        model.sense):
            status = STATUS_OPTIMAL
            break
        # no-good row cutting off exactly this pattern
        pattern = {i: int(round(res.values[i])) for i in bins}
        work = work.clone()
        work.add_constraint({i: 1.0 if v else -1.0 for i, v in pattern.items()}, "<=",
                            sum(pattern.values()) - 1, name=f"nogood{len(work.constraints)}",
                            family="nogood")
        work.finalize()
    if best is None:
        return SolveResult(status)
    best.status = status
    return best


def backend_solve_polished(name, model, config=None):
    """Backend dispatch returning exactly-certified integral solutions."""
    return solve_milp_certified(get_backend(name), model, config)


# -- the two engines --------------------------------------------------


class ReferenceBackend:
    """Adapter wrapping the built-in engine (identity adapter)."""

    def solve_lp(self, model):
        return solve_lp(model)

    def solve_milp(self, model, config=None):
        return solve_milp(model, config)


# RINS and RENS each solve a sub-MIP of the model; on the masters those
# sub-MIPs are nearly as hard as the master itself (see module docstring)
HIGHS_MILP_OPTIONS = {"mip_heuristic_run_rins": False, "mip_heuristic_run_rens": False}


class ScipyHighsBackend:
    """Adapter for scipy.optimize (HiGHS): linprog for LPs, milp for MILPs."""

    def solve_lp(self, model):
        from scipy.optimize import linprog

        core = _ModelCore(model)
        A = core.A.tocsr()
        senses = np.array(core.senses)
        ub = np.flatnonzero(senses != "==")
        eq = np.flatnonzero(senses == "==")
        sign = np.where(senses[ub] == ">=", -1.0, 1.0)  # ">=" rows enter negated
        kwargs = {}
        if ub.size:
            # diag(sign) @ A[ub], applied to the row data so that explicit
            # zeros survive and HiGHS sees the matrix entry for entry
            A_ub = A[ub]
            A_ub.data *= np.repeat(sign, np.diff(A_ub.indptr))
            kwargs["A_ub"] = A_ub; kwargs["b_ub"] = sign * core.b[ub]
        if eq.size:
            kwargs["A_eq"] = A[eq]; kwargs["b_eq"] = core.b[eq]
        t0 = time.perf_counter()
        res = linprog(core.sense_mult * core.c, bounds=np.column_stack((core.lb, core.ub)),
                      method="highs", **kwargs)
        wall = time.perf_counter() - t0
        stats = {"iterations": int(getattr(res, "nit", 0) or 0), "wall_time": wall, "nodes": 0}
        if res.status == 2:
            return SolveResult(STATUS_INFEASIBLE, stats=stats)
        if res.status == 3:
            return SolveResult(STATUS_UNBOUNDED, stats=stats)
        if res.status != 0:
            raise SolveError(f"highs linprog failed: {res.message}")
        duals = np.zeros(len(core.senses))
        if ub.size:
            duals[ub] = sign * res.ineqlin.marginals
        if eq.size:
            duals[eq] = res.eqlin.marginals
        duals *= core.sense_mult
        obj = core.sense_mult * res.fun + core.offset
        return SolveResult(STATUS_OPTIMAL, objective=obj, values=res.x, duals=duals, stats=stats)

    def solve_milp(self, model, config=None):
        from scipy.optimize import Bounds, LinearConstraint, milp

        config = (config or SolverConfig()).validate()
        core = _ModelCore(model)
        lo = np.full(len(core.b), -np.inf)
        hi = np.full(len(core.b), np.inf)
        for r, sense in enumerate(core.senses):
            if sense in ("<=", "=="):
                hi[r] = core.b[r]
            if sense in (">=", "=="):
                lo[r] = core.b[r]
        integrality = np.zeros(core.n)
        integrality[core.binaries] = 1
        # the follower profile (see module docstring)
        profile = config.follower_profile
        options = {"mip_rel_gap": MIP_GAP, **HIGHS_MILP_OPTIONS,
                   "mip_heuristic_run_root_reduced_cost": profile,
                   "mip_heuristic_run_feasibility_jump": not profile}
        if config.time_limit is not None:
            options["time_limit"] = config.time_limit
        t0 = time.perf_counter()
        with warnings.catch_warnings():
            # milp passes HIGHS_MILP_OPTIONS through verbatim and says so; an
            # option HiGHS itself rejects still raises OptimizeWarning
            warnings.filterwarnings("ignore", "Unrecognized options", RuntimeWarning)
            res = milp(c=core.sense_mult * core.c,
                       constraints=LinearConstraint(core.A, lo, hi),
                       integrality=integrality,
                       bounds=Bounds(core.lb, core.ub),
                       options=options)
        wall = time.perf_counter() - t0
        stats = {"nodes": int(getattr(res, "mip_node_count", 0) or 0), "wall_time": wall,
                 "iterations": 0, "gap": float(getattr(res, "mip_gap", 0.0) or 0.0)}
        if res.status == 2:
            return SolveResult(STATUS_INFEASIBLE, stats=stats)
        if res.status == 3:
            return SolveResult(STATUS_UNBOUNDED, stats=stats)
        # HiGHS names what stopped it in its model status, which scipy
        # appends to the message; scipy reports a node limit ("Solution
        # limit reached") as status 4, with or without a point
        message = str(res.message).lower()
        if res.status == 1 or (res.status == 4 and (res.x is not None
                                                    or "limit reached" in message)):
            label = STATUS_TIME_LIMIT if "time limit" in message else STATUS_GAP_LIMIT
            if res.x is None:
                return SolveResult(label, stats=stats)
            obj = core.sense_mult * res.fun + core.offset
            return SolveResult(label, objective=obj, values=res.x, stats=stats)
        if res.status == 4 and "unbounded" in message:
            # ambiguous "infeasible or unbounded": settle it via the relaxation,
            # mirroring the reference engine's root-relaxation semantics
            relax = self.solve_lp(model)
            if relax.status in (STATUS_INFEASIBLE, STATUS_UNBOUNDED):
                return SolveResult(relax.status, stats=stats)
        if res.status != 0 or res.x is None:
            raise SolveError(f"highs milp failed: {res.message}")
        x = np.array(res.x, dtype=float)
        for idx in core.binaries:
            x[idx] = round(x[idx])
        obj = core.sense_mult * res.fun + core.offset
        return SolveResult(STATUS_OPTIMAL, objective=obj, values=x, stats=stats)


_ENGINES = {"reference": ReferenceBackend(), "highs": ScipyHighsBackend()}
BACKENDS = tuple(_ENGINES)


def get_backend(name):
    """The adapter of the engine named "reference" or "highs"."""
    if name not in _ENGINES:
        raise ModelError(f"unknown backend {name!r}; choose from {sorted(_ENGINES)}")
    return _ENGINES[name]


def backend_solve(name, model, config=None):
    """Dispatch to an engine by name (MILP entry point; LPs pass through)."""
    adapter = get_backend(name)
    if model.binary_indices():
        return adapter.solve_milp(model, config)
    return adapter.solve_lp(model)
