"""Solver-agnostic MILP construction layer.

Models are sparse collections of variables, linear constraints, and a
linear objective.  The module also provides the exact linearization
toolkit: the caller declares product variables, the toolkit adds their
rows with M the other factor's declared upper bound: convex-hull rows
for a one-hot group of binaries.
A registry records every product built against it, for a post-solve
linearization audit, and tracks the big-M constants of each constraint
family so their validity can be audited too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

INF = math.inf

CONTINUOUS = "continuous"
BINARY = "binary"

SENSES = ("<=", ">=", "==")


class ModelError(ValueError):
    """Raised on malformed model construction (bad bounds, unknown vars, ...)."""


@dataclass
class VarDef:
    name: str
    kind: str = CONTINUOUS
    lb: float = 0.0
    ub: float = INF

    def validate(self):
        if self.kind not in (CONTINUOUS, BINARY):
            raise ModelError(f"variable {self.name}: unknown kind {self.kind!r}")
        if self.kind == BINARY and (self.lb not in (0.0, 1.0) or self.ub not in (0.0, 1.0)):
            # fixing a binary inside {0,1} is allowed; widening is not
            raise ModelError(f"binary variable {self.name} must have bounds within {{0,1}}")
        if self.lb > self.ub:
            raise ModelError(f"variable {self.name}: lb {self.lb} > ub {self.ub}")


@dataclass
class LinearConstraint:
    coeffs: dict          # var index -> coefficient
    sense: str            # "<=", ">=", "=="
    rhs: float
    name: str = ""
    family: str = ""      # constraint-family identifier, used by stats and big-M audits


@dataclass
class ModelStats:
    n_constraints: int
    n_continuous: int
    n_binary: int

    def as_tuple(self):
        return (self.n_constraints, self.n_continuous, self.n_binary)


class Expr:
    """Sparse linear expression: coefficient map plus a constant term."""

    __slots__ = ("coeffs", "constant")

    def __init__(self, coeffs=None, constant=0.0):
        self.coeffs = dict(coeffs) if coeffs else {}
        self.constant = constant

    def add(self, idx, coef):
        if coef:
            self.coeffs[idx] = self.coeffs.get(idx, 0.0) + coef
        return self

    def add_expr(self, other):
        for idx, coef in other.coeffs.items():
            self.add(idx, coef)
        self.constant += other.constant
        return self

    def value(self, x):
        return self.constant + sum(c * x[i] for i, c in self.coeffs.items())


class MilpModel:
    """Sparse MILP container with a name registry and exact stats."""

    def __init__(self, name="model", sense="min"):
        if sense not in ("min", "max"):
            raise ModelError(f"objective sense must be min or max, got {sense!r}")
        self.name = name
        self.sense = sense
        self.variables: list[VarDef] = []
        self.constraints: list[LinearConstraint] = []
        self.objective: dict = {}
        self.objective_offset = 0.0
        self._by_name: dict = {}
        self._finalized = False

    # -- construction ------------------------------------------------

    def add_var(self, name, kind=CONTINUOUS, lb=0.0, ub=INF):
        if self._finalized:
            raise ModelError("model is finalized")
        if name in self._by_name:
            raise ModelError(f"duplicate variable name {name!r}")
        if kind == BINARY:
            lb, ub = 0.0, 1.0
        v = VarDef(name=name, kind=kind, lb=float(lb), ub=float(ub))
        v.validate()
        idx = len(self.variables)
        self.variables.append(v)
        self._by_name[name] = idx
        return idx

    def add_constraint(self, coeffs, sense, rhs, name="", family=""):
        if self._finalized:
            raise ModelError("model is finalized")
        if sense not in SENSES:
            raise ModelError(f"unknown constraint sense {sense!r}")
        if isinstance(coeffs, Expr):
            rhs = float(rhs) - coeffs.constant
            coeffs = coeffs.coeffs
        clean = {}
        for idx, coef in coeffs.items():
            if not (0 <= idx < len(self.variables)):
                raise ModelError(f"constraint {name!r} references undeclared variable {idx}")
            if coef:
                clean[idx] = clean.get(idx, 0.0) + float(coef)
        con = LinearConstraint(coeffs=clean, sense=sense, rhs=float(rhs),
                               name=name or f"c{len(self.constraints)}", family=family)
        self.constraints.append(con)
        return len(self.constraints) - 1

    def set_objective(self, coeffs, sense=None, offset=0.0):
        if sense is not None:
            if sense not in ("min", "max"):
                raise ModelError(f"objective sense must be min or max, got {sense!r}")
            self.sense = sense
        if isinstance(coeffs, Expr):
            offset = float(offset) + coeffs.constant
            coeffs = coeffs.coeffs
        for idx in coeffs:
            if not (0 <= idx < len(self.variables)):
                raise ModelError(f"objective references undeclared variable {idx}")
        self.objective = {i: float(c) for i, c in coeffs.items() if c}
        self.objective_offset = float(offset)

    def finalize(self):
        for v in self.variables:
            v.validate()
        self._finalized = True
        return self

    # -- queries -----------------------------------------------------

    @property
    def n_vars(self):
        return len(self.variables)

    @property
    def n_constraints(self):
        return len(self.constraints)

    def binary_indices(self):
        return [i for i, v in enumerate(self.variables) if v.kind == BINARY]

    def stats(self):
        n_bin = sum(1 for v in self.variables if v.kind == BINARY)
        return ModelStats(n_constraints=len(self.constraints),
                          n_continuous=len(self.variables) - n_bin,
                          n_binary=n_bin)

    def family_counts(self):
        counts = {}
        for con in self.constraints:
            counts[con.family] = counts.get(con.family, 0) + 1
        return counts

    def constraint_activity(self, con, x):
        return sum(coef * x[idx] for idx, coef in con.coeffs.items())

    def max_violation(self, x):
        """Largest constraint/bound violation of a candidate point."""
        worst = 0.0
        for con in self.constraints:
            act = self.constraint_activity(con, x)
            if con.sense == "<=":
                worst = max(worst, act - con.rhs)
            elif con.sense == ">=":
                worst = max(worst, con.rhs - act)
            else:
                worst = max(worst, abs(act - con.rhs))
        for i, v in enumerate(self.variables):
            worst = max(worst, v.lb - x[i], x[i] - v.ub)
        return worst

    def clone(self):
        """Deep-enough copy: independent variables/constraints, shared nothing."""
        dup = MilpModel(self.name, self.sense)
        dup.variables = [VarDef(v.name, v.kind, v.lb, v.ub) for v in self.variables]
        dup.constraints = [LinearConstraint(dict(c.coeffs), c.sense, c.rhs, c.name, c.family)
                           for c in self.constraints]
        dup.objective = dict(self.objective)
        dup.objective_offset = self.objective_offset
        dup._by_name = dict(self._by_name)
        dup._finalized = False
        return dup

    # -- debugging dump ----------------------------------------------

    def dump_lp(self):
        """Plain-text LP-style dump with deterministic ordering."""
        lines = [f"\\ model {self.name}", f"{'Minimize' if self.sense == 'min' else 'Maximize'}"]
        lines.append(" obj: " + _format_terms(self.objective, self.variables, self.objective_offset))
        lines.append("Subject To")
        for con in self.constraints:
            op = {"<=": "<=", ">=": ">=", "==": "="}[con.sense]
            lines.append(f" {con.name}: " + _format_terms(con.coeffs, self.variables) + f" {op} {con.rhs:.17g}")
        lines.append("Bounds")
        for v in self.variables:
            lo = "-inf" if v.lb == -INF else f"{v.lb:.17g}"
            hi = "+inf" if v.ub == INF else f"{v.ub:.17g}"
            lines.append(f" {lo} <= {v.name} <= {hi}")
        binaries = [v.name for v in self.variables if v.kind == BINARY]
        if binaries:
            lines.append("Binaries")
            lines.append(" " + " ".join(binaries))
        lines.append("End")
        return "\n".join(lines) + "\n"


def _format_terms(coeffs, variables, offset=0.0):
    parts = []
    for idx in sorted(coeffs):
        coef = coeffs[idx]
        sign = "-" if coef < 0 else "+"
        parts.append(f"{sign} {abs(coef):.17g} {variables[idx].name}")
    if offset:
        sign = "-" if offset < 0 else "+"
        parts.append(f"{sign} {abs(offset):.17g}")
    if not parts:
        return "0"
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else text


class BigMRegistry:
    """Big-M bookkeeping per constraint family, with post-solve validation.

    ``register`` records a family's M together with the variable indices
    whose values that M caps.  After a solve, ``validate`` flags any
    watched variable that reached 0.99*M, which is the symptom of an M
    chosen too small (the linearized model may then be cutting off
    genuinely feasible points).  ``links`` lists every product the
    linearization toolkit built against this registry as (U, a, b) with
    U = a*b, so a solution's linearization error can be audited.
    """

    FLAG_RATIO = 0.99

    def __init__(self):
        self.entries = {}           # family -> (M, [watched var indices])
        self.flags = {}             # family -> dict with max value / ratio after validate()
        self.links = []             # (U, a, b) index triples with U = a*b

    def register(self, family, M, watch=()):
        if M <= 0:
            raise ModelError(f"big-M for family {family!r} must be positive, got {M}")
        if family in self.entries:
            old_m, old_watch = self.entries[family]
            if abs(old_m - M) > 1e-12 * max(1.0, abs(M)):
                raise ModelError(f"family {family!r} registered twice with different M")
            self.entries[family] = (old_m, list(old_watch) + list(watch))
        else:
            self.entries[family] = (float(M), list(watch))
        return float(M)

    def get(self, family):
        if family not in self.entries:
            raise ModelError(f"big-M registry has no entry for family {family!r}")
        return self.entries[family][0]

    def validate(self, values):
        """Record, per family, how close watched variables came to M."""
        self.flags = {}
        for family, (M, watch) in self.entries.items():
            worst = 0.0
            for idx in watch:
                worst = max(worst, abs(values[idx]))
            ratio = worst / M if M else INF
            self.flags[family] = {"M": M, "max_value": worst, "ratio": ratio,
                                  "flagged": ratio >= self.FLAG_RATIO}
        return self.flags

    def flagged_families(self):
        return sorted(f for f, rec in self.flags.items() if rec["flagged"])


# -- linearization toolkit -------------------------------------------


def link_one_hot(model, Us, u, bs, family="link_one_hot", registry=None):
    """Constrain Us[v] = u*bs[v] for u in [0, M] and binaries bs; returns Us.

    The caller's model must force sum_v bs[v] = 1.  Rows: Us[v] <= M*bs[v]
    per level and sum_v Us[v] = u (Us[v] >= 0 is each lower bound), the
    convex hull of the disjunction over the levels: exact at every one-hot
    bs, and U_v <= u and U_v >= u - M(1 - b_v) follow, so its relaxation is
    at least as tight as the three big-M rows per level, in V + 1 rows, not 3V.
    """
    if not Us or len(Us) != len(bs):
        raise ModelError(f"link_one_hot got {len(Us)} products for {len(bs)} binaries")
    for U in Us:
        var = model.variables[U]
        if var.lb != 0.0:
            raise ModelError(f"product variable {var.name} must have lower bound 0, has {var.lb}")
    for b in bs:
        if model.variables[b].kind != BINARY:
            raise ModelError(f"link_one_hot partner {model.variables[b].name} is not binary")
    uvar = model.variables[u]
    if uvar.lb < 0 or not 0 < uvar.ub < INF:
        raise ModelError(f"link_one_hot needs 0 <= {uvar.name} <= M with a finite M > 0; "
                         f"{uvar.name} has bounds [{uvar.lb}, {uvar.ub}]")
    M = uvar.ub
    names = [model.variables[U].name for U in Us]
    for name, U, b in zip(names, Us, bs):
        model.add_constraint({U: 1.0, b: -M}, "<=", 0.0, name=f"{name}:ub_bin", family=family)
    model.add_constraint({**{U: 1.0 for U in Us}, u: -1.0}, "==", 0.0,
                         name=f"{names[0]}:sum", family=family)
    if registry is not None:
        registry.links.extend((U, u, b) for U, b in zip(Us, bs))
    return Us
