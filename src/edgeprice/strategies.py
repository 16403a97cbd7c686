"""Pricing schemes, sensitivity sweeps, and the model-size audit.

A scheme is one of the names in ``SCHEME_KINDS``:

* ``dyn``          -- full bilevel optimization (prices free per node);
* ``flat``         -- one compute price and one storage price across all
                      nodes, still bilevel-optimal;
* ``avg``          -- each node's prices pinned to the middle level of its
                      grids (the lower middle level of an even grid),
                      activation and followers still optimized;
* ``nostorage``    -- storage prices identically zero (services stop paying
                      rent, the platform stops earning it);
* ``noplacement``  -- services pay neither installation nor storage, the
                      older provisioning model.

``avg`` and ``nostorage`` pin prices the same way: Algorithm 1 runs on a
copy of the instance whose grids hold the single pinned level per node
(``avg`` both grids, at levels of the original grids, so its leader is
also one of the original instance; ``nostorage`` the storage grid, at 0).
``flat`` ties the nodes' level indices, and ``Instance.validate`` gives
every node grids of the same width, so ``avg`` picks the same index at
every node and each of its leaders is also a ``flat`` leader.  The
feasible sets are nested by construction, so the optimal profits are
ordered dyn >= flat >= avg on every valid instance; the test suite
asserts this exactly.  Sweeps emit flat CSV-ready rows, one per
(scheme, axis value, replicate).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .bilevel import (Cut, block_keys, build_master, build_sp2, mp_size, run_algorithm1,
                      sp1_size, sp2_size)
from .follower import LeaderDecision, ModelVariant, budget_cannot_bind, build_follower_milp
from .instance import GenConfig, ScaleFactors, apply_scale, generate
from .solve import BACKENDS

SCHEME_KINDS = ("dyn", "flat", "avg", "nostorage", "noplacement")


class SchemeError(ValueError):
    pass


def _check_scheme(scheme):
    if scheme not in SCHEME_KINDS:
        raise SchemeError(f"unknown scheme {scheme!r}; choose from {SCHEME_KINDS}")


@dataclass
class SchemeResult:
    scheme: str
    status: str
    profit: float
    leader: LeaderDecision
    solutions: list
    state: object
    reports: list = field(default_factory=list)


def _single_level(instance, p=None, ps=None):
    """A copy of the instance whose compute grid at node j holds p[j]
    alone, and whose storage grid holds ps[j] alone (a grid left None is
    kept)."""
    pinned = instance.copy()
    if p is not None:
        pinned.p_grid = [[v] for v in p]
    if ps is not None:
        pinned.ps_grid = [[v] for v in ps]
    return pinned.validate()


def _middle(grids):
    """Each grid's middle level, the lower of the two middle levels of an
    even grid."""
    return [g[(len(g) - 1) // 2] for g in grids]


def solve_scheme(instance, scheme, epsilon=1e-4, backend="reference", time_limit=None,
                 max_iterations=None):
    """Solve the scheme named ``scheme`` to bilevel optimality; returns SchemeResult."""
    _check_scheme(scheme)
    inst = instance
    kwargs = dict(epsilon=epsilon, backend=backend, time_limit=time_limit,
                  max_iterations=max_iterations)
    if scheme == "dyn":
        state = run_algorithm1(inst, **kwargs)
    elif scheme == "flat":
        state = run_algorithm1(inst, flat=True, **kwargs)
    elif scheme == "avg":
        state = run_algorithm1(_single_level(inst, p=_middle(inst.p_grid),
                                             ps=_middle(inst.ps_grid)), **kwargs)
    elif scheme == "nostorage":
        state = run_algorithm1(_single_level(inst, ps=[0.0] * inst.J), **kwargs)
    else:  # noplacement
        state = run_algorithm1(inst, variant=ModelVariant(placement_in_follower=False),
                               **kwargs)

    reports = []
    for k, sol in enumerate(state.incumbent_solutions):
        rep = sol.to_json_dict()
        rep["service"] = k
        reports.append(rep)
    return SchemeResult(scheme=scheme, status=state.status, profit=state.LB,
                        leader=state.incumbent_leader,
                        solutions=state.incumbent_solutions, state=state,
                        reports=reports)


# -- sweeps ------------------------------------------------------------

SWEEP_AXES = ("p0", "delta", "gamma0", "Lambda", "beta0", "I")


@dataclass
class SweepSpec:
    schemes: list
    axis: str
    values: list
    replicates: int = 1
    base_seed: int = 0
    epsilon: float = 1e-4
    backend: str = "reference"
    gen: GenConfig = field(default_factory=GenConfig)
    time_limit: float | None = None

    def validate(self):
        if self.axis not in SWEEP_AXES:
            raise SchemeError(f"unknown sweep axis {self.axis!r}; choose from {SWEEP_AXES}")
        for name in ("replicates", "base_seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise SchemeError(f"{name} must be an integer, not {value!r}")
        if self.replicates < 1:
            raise SchemeError("replicates must be >= 1")
        if not self.values:
            raise SchemeError("axis values must be nonempty")
        if self.epsilon <= 0:
            raise SchemeError("epsilon must be positive")
        if self.time_limit is not None and self.time_limit < 0:
            raise SchemeError("time limit must be nonnegative")
        if self.axis in ("delta", "gamma0", "Lambda", "beta0", "p0"):
            if any(v < 0 for v in self.values):
                raise SchemeError(f"axis {self.axis} values must be nonnegative")
        if self.axis == "I" and any(int(v) <= 0 for v in self.values):
            raise SchemeError("area counts must be positive")
        if self.backend not in BACKENDS:
            raise SchemeError(f"unknown backend {self.backend!r}; choose from {BACKENDS}")
        for s in self.schemes:
            _check_scheme(s)
        return self


SWEEP_COLUMNS = ("scheme", "axis", "value", "replicate", "seed", "status", "profit",
                 "active_ens", "placements", "unmet_total", "mean_avg_delay",
                 "iterations", "wall_time", "prices", "storage_prices", "error")


def _instance_for(spec, value, replicate):
    seed = spec.base_seed + 7919 * replicate
    gen = replace(spec.gen, seed=seed)
    if spec.axis == "I":
        gen = replace(gen, I=int(value))
    inst = generate(gen)
    if spec.axis == "p0":
        inst = inst.copy()
        inst.p0 = float(value)
        inst.validate()
    elif spec.axis in ("delta", "gamma0", "Lambda", "beta0"):
        inst = apply_scale(inst, ScaleFactors(**{spec.axis: float(value)}))
    return inst, seed


def run_sweep(spec):
    """One row per (scheme, axis value, replicate); failures recorded, not raised."""
    spec.validate()
    rows = []
    for value in spec.values:
        for rep in range(spec.replicates):
            inst, seed = _instance_for(spec, value, rep)
            for sch in spec.schemes:
                row = dict.fromkeys(SWEEP_COLUMNS, "")
                row.update(scheme=sch, axis=spec.axis, value=value, replicate=rep, seed=seed)
                try:
                    outcome = solve_scheme(inst, sch, epsilon=spec.epsilon,
                                           backend=spec.backend,
                                           time_limit=spec.time_limit)
                    row["status"] = outcome.status
                    row["profit"] = outcome.profit
                    row["iterations"] = outcome.state.iteration
                    row["wall_time"] = round(outcome.state.wall_time, 3)
                    row["active_ens"] = sum(outcome.leader.z)
                    row["prices"] = "|".join(f"{p:g}" for p in outcome.leader.p)
                    row["storage_prices"] = "|".join(f"{p:g}" for p in outcome.leader.ps)
                    row["placements"] = sum(sum(s.t) for s in outcome.solutions)
                    row["unmet_total"] = round(sum(sum(s.q) for s in outcome.solutions), 6)
                    delays = [d for s in outcome.solutions for d in s.avg_delay]
                    row["mean_avg_delay"] = round(sum(delays) / len(delays), 6) if delays else ""
                except Exception as exc:  # keep sweeping; the row carries the failure
                    row["status"] = "error"
                    row["error"] = str(exc)
                rows.append(row)
    return rows


# -- closed-form size audit ----------------------------------------------


def audit_sizes(I, J, K, V, H, L):
    """Build MP/SP1/SP2 symbolically and compare counts to the closed forms.

    Zero tolerance: every count must match exactly.  The report names the
    mismatching component and carries the built per-family row counts for
    diagnosis.
    """
    if min(I, J, K, V, H) <= 0 or L < 0:
        raise SchemeError("audit dimensions must be positive (L >= 0)")
    grid_v = [round(0.01 * (v + 1), 6) for v in range(V)]
    grid_h = [round(0.005 * (h + 1), 6) for h in range(H)]
    inst = generate(GenConfig(I=I, J=J, K=K, graph_size=max(100, I + J),
                              compute_grid=tuple(grid_v), storage_grid=tuple(grid_h), seed=0))
    cuts = [Cut(t_vectors=tuple(tuple((l + j) % 2 for j in range(J)) for _ in range(K)))
            for l in range(L)]
    blocks = [(sum(t), not budget_cannot_bind(inst, k)) for k, t in block_keys(cuts)]
    leader = LeaderDecision.from_prices(
        inst, [inst.p_grid[j][0] for j in range(J)],
        [inst.ps_grid[j][0] for j in range(J)], [1] * J)

    entries = []

    def compare(label, built_stats, formula_stats, families):
        for comp, built, want in (("constraints", built_stats.n_constraints, formula_stats.n_constraints),
                                  ("continuous", built_stats.n_continuous, formula_stats.n_continuous),
                                  ("binary", built_stats.n_binary, formula_stats.n_binary)):
            entries.append({"model": label, "component": comp, "built": built,
                            "formula": want, "match": built == want,
                            "families": families if comp == "constraints" else None})

    mp_bundle = build_master(inst, cuts)
    compare("MP", mp_bundle.model.stats(), mp_size(I, J, K, V, H, blocks),
            mp_bundle.model.family_counts())
    sp1_model, _ = build_follower_milp(inst, 0, leader)
    compare("SP1", sp1_model.stats(), sp1_size(I, J), sp1_model.family_counts())
    sp2_model, _ = build_sp2(inst, leader, [inst.all_drop_cost(k) for k in range(K)],
                             service_blocks_only=True)
    compare("SP2", sp2_model.stats(), sp2_size(I, J, K), sp2_model.family_counts())

    ok = all(e["match"] for e in entries)
    return {"ok": ok, "dims": {"I": I, "J": J, "K": K, "V": V, "H": H, "L": L},
            "entries": entries}
