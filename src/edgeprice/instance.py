"""Problem instances: data model, random generator, JSON persistence.

An Instance carries every exogenous parameter of the pricing problem.
The generator follows the standard recipe for this problem family:
a Barabasi-Albert topology (default 100 nodes, attachment rate 2) with
uniform link delays in [2, 5] ms, pairwise delays as shortest paths,
areas and edge nodes drawn without replacement from the graph nodes,
and all scalar parameters sampled uniformly from configured ranges.

Units: delays in ms, compute in vCPU, service sizes and storage
capacities in GB, storage prices in $/TB (converted once, at model
build time, via size_gb / 1000).  The JSON schema (version 1) records
the units explicitly.

Randomness: a single 64-bit seed feeds numpy's PCG64 through
SeedSequence.spawn, one child stream per parameter family, so adding a
parameter family never shifts the draws of the others.  The topology
stream is reduced to an int seed for networkx (Mersenne Twister), which
is stable across platforms.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict

import networkx as nx
import numpy as np

SCHEMA_VERSION = 1

UNITS = {
    "delay": "ms",
    "compute": "vCPU",
    "service_size": "GB",
    "storage_capacity": "GB",
    "storage_price": "$/TB",
    "compute_price": "$/vCPU",
}

# spawn order of the per-family RNG streams; append only
_STREAMS = ("topology", "placement", "link_delay", "demand", "threshold",
            "fixed_cost", "variable_cost", "delay_penalty", "size",
            "budget", "unmet_penalty", "storage_capacity", "compute_capacity")

# EC2 M5 family vCPU counts; EN capacities are drawn from these
M5_VCPUS = (2, 4, 8, 16, 32, 48, 64, 96)


class InstanceError(ValueError):
    """Invalid instance data (schema violation, negative parameter, ...)."""


@dataclass
class Instance:
    I: int
    J: int
    K: int
    d: list            # [i][j] area-to-EN delay (ms)
    d0: list           # [i] area-to-cloud delay (ms)
    C: list            # [j] computing capacity (vCPU)
    S: list            # [j] storage capacity (GB)
    f: list            # [j] fixed operating cost ($)
    c: list            # [j] variable operating cost ($)
    p0: float          # cloud unit price ($/vCPU)
    p_grid: list       # [j][v] compute price levels ($/vCPU)
    ps_grid: list      # [j][h] storage price levels ($/TB)
    R: list            # [i][k] demand (vCPU)
    B: list            # [k] budget ($)
    s: list            # [k] service size (GB)
    w: list            # [k] delay penalty ($/(vCPU*ms))
    psi: list          # [i][k] unmet-demand penalty ($/vCPU)
    phi: list          # [j][k] installation cost ($)
    Dmax: list         # [k] delay threshold (ms)
    a: list            # [i][j][k] eligibility indicator in {0,1}
    seed: int = 0

    # -- derived helpers ----------------------------------------------

    @property
    def V(self):
        return len(self.p_grid[0])

    @property
    def H(self):
        return len(self.ps_grid[0])

    def s_tb(self, k):
        """Service size in TB, the unit the storage prices are quoted in."""
        return self.s[k] / 1000.0

    def total_demand(self, k):
        return sum(self.R[i][k] for i in range(self.I))

    def all_drop_cost(self, k):
        return sum(self.psi[i][k] * self.R[i][k] for i in range(self.I))

    def max_demand(self):
        return max((self.R[i][k] for i in range(self.I) for k in range(self.K)), default=0.0)

    def validate(self):
        def check_nonneg(value, path):
            if not isinstance(value, (int, float)) or math.isnan(value) or value < 0:
                raise InstanceError(f"invalid value at {path}: {value!r} (must be nonnegative)")

        if min(self.I, self.J, self.K) <= 0:
            raise InstanceError("I, J, K must all be positive")
        _expect_shape(self.d, (self.I, self.J), "d")
        _expect_shape(self.d0, (self.I,), "d0")
        for name in ("C", "S", "f", "c"):
            _expect_shape(getattr(self, name), (self.J,), name)
        _expect_shape(self.R, (self.I, self.K), "R")
        _expect_shape(self.psi, (self.I, self.K), "psi")
        _expect_shape(self.phi, (self.J, self.K), "phi")
        for name in ("B", "s", "w", "Dmax"):
            _expect_shape(getattr(self, name), (self.K,), name)
        _expect_shape(self.a, (self.I, self.J, self.K), "a")

        for i in range(self.I):
            check_nonneg(self.d0[i], f"d0[{i}]")
            for j in range(self.J):
                check_nonneg(self.d[i][j], f"d[{i}][{j}]")
        for j in range(self.J):
            for name in ("C", "S", "f", "c"):
                check_nonneg(getattr(self, name)[j], f"{name}[{j}]")
            if self.C[j] == 0:
                raise InstanceError(f"invalid value at C[{j}]: 0 (must be positive)")
        check_nonneg(self.p0, "p0")
        if len(self.p_grid) != self.J or len(self.ps_grid) != self.J:
            raise InstanceError("price grids must have one row per EN")
        for label, grid in (("p_grid", self.p_grid), ("ps_grid", self.ps_grid)):
            width = len(grid[0])
            if width < 1:
                raise InstanceError(f"{label} must have at least one level per EN")
            for j, row in enumerate(grid):
                if len(row) != width:
                    raise InstanceError(f"{label}[{j}] has ragged width")
                for v, price in enumerate(row):
                    check_nonneg(price, f"{label}[{j}][{v}]")
                    if v > 0 and not price > row[v - 1]:
                        raise InstanceError(f"{label}[{j}] is not strictly increasing")
        for i in range(self.I):
            for k in range(self.K):
                check_nonneg(self.R[i][k], f"R[{i}][{k}]")
                check_nonneg(self.psi[i][k], f"psi[{i}][{k}]")
        for j in range(self.J):
            for k in range(self.K):
                check_nonneg(self.phi[j][k], f"phi[{j}][{k}]")
        for k in range(self.K):
            for name in ("B", "s", "w", "Dmax"):
                check_nonneg(getattr(self, name)[k], f"{name}[{k}]")
        for i in range(self.I):
            for j in range(self.J):
                for k in range(self.K):
                    if self.a[i][j][k] not in (0, 1):
                        raise InstanceError(f"a[{i}][{j}][{k}] must be 0 or 1")
        return self

    def copy(self):
        return Instance(**json.loads(json.dumps(asdict(self))))


def _expect_shape(obj, shape, path):
    if len(shape) == 1:
        if not isinstance(obj, list) or len(obj) != shape[0]:
            raise InstanceError(f"{path} must be a list of length {shape[0]}")
        return
    if not isinstance(obj, list) or len(obj) != shape[0]:
        raise InstanceError(f"{path} must have {shape[0]} rows")
    for r, row in enumerate(obj):
        _expect_shape(row, shape[1:], f"{path}[{r}]")


@dataclass
class GenConfig:
    I: int = 12
    J: int = 8
    K: int = 4
    graph_size: int = 100
    attachment_rate: int = 2
    link_delay_range: tuple = (2.0, 5.0)
    cloud_delay: float = 60.0
    demand_range: tuple = (20.0, 35.0)
    threshold_range: tuple = (30.0, 100.0)
    p0: float = 0.02
    compute_grid: tuple = (0.01, 0.02, 0.03, 0.04, 0.05)
    storage_grid: tuple = (0.005, 0.01, 0.015)
    fixed_cost_range: tuple = (0.1, 3.6)
    variable_cost_range: tuple = (0.04, 1.44)
    delay_penalty_range: tuple = (1e-5, 1e-3)
    install_cost: float = 0.2
    size_range: tuple = (20.0, 1000.0)
    budget_range: tuple = (20.0, 50.0)
    # psi is not pinned by the usual references; chosen above the cloud
    # serving-cost ceiling p0 + w*d0 so dropping demand usually loses
    unmet_penalty_range: tuple = (0.05, 0.15)
    # storage sized to host a few typical services per EN
    storage_capacity_range: tuple = (1000.0, 4000.0)
    eligibility_rule: str = "all"   # "all" | "delay"
    seed: int = 0

    def validate(self):
        if min(self.I, self.J, self.K) <= 0:
            raise InstanceError("I, J, K must all be positive")
        if self.I + self.J > self.graph_size:
            raise InstanceError(
                f"I+J = {self.I + self.J} exceeds graph size {self.graph_size}")
        for name in ("link_delay_range", "demand_range", "threshold_range",
                     "fixed_cost_range", "variable_cost_range", "delay_penalty_range",
                     "size_range", "budget_range", "unmet_penalty_range",
                     "storage_capacity_range"):
            lo, hi = getattr(self, name)
            if not lo <= hi:
                raise InstanceError(f"{name} is empty: {lo} > {hi}")
        if self.eligibility_rule not in ("all", "delay"):
            raise InstanceError(f"unknown eligibility rule {self.eligibility_rule!r}")
        if list(self.compute_grid) != sorted(set(self.compute_grid)):
            raise InstanceError("compute grid must be strictly increasing")
        if list(self.storage_grid) != sorted(set(self.storage_grid)):
            raise InstanceError("storage grid must be strictly increasing")
        return self


@dataclass
class ScaleFactors:
    delta: float = 1.0     # scales demand R
    gamma0: float = 1.0    # scales capacity C
    Lambda: float = 1.0    # scales delay threshold Dmax
    beta0: float = 1.0     # scales delay penalty w

    def validate(self):
        for name in ("delta", "gamma0", "Lambda", "beta0"):
            if getattr(self, name) <= 0:
                raise InstanceError(f"scale factor {name} must be positive")
        return self


@dataclass
class Topology:
    """The emitted graph, kept separate from the Instance for auditing."""
    n_nodes: int
    edges: list          # (u, v, delay)
    area_nodes: list     # graph node id per area
    en_nodes: list       # graph node id per EN


def _streams(seed):
    children = np.random.SeedSequence(seed).spawn(len(_STREAMS))
    return {name: np.random.default_rng(ss) for name, ss in zip(_STREAMS, children)}


def generate_with_topology(config: GenConfig):
    """Generate an Instance plus the topology it was derived from."""
    config.validate()
    rngs = _streams(config.seed)

    topo_seed = int(rngs["topology"].integers(0, 2**31 - 1))
    graph = nx.barabasi_albert_graph(config.graph_size, config.attachment_rate,
                                     seed=topo_seed)
    lo, hi = config.link_delay_range
    delay_rng = rngs["link_delay"]
    edges = []
    for u, v in sorted(graph.edges()):
        delay = float(delay_rng.uniform(lo, hi))
        graph[u][v]["delay"] = delay
        edges.append((u, v, delay))

    nodes = rngs["placement"].choice(config.graph_size, size=config.I + config.J,
                                     replace=False)
    area_nodes = [int(n) for n in nodes[:config.I]]
    en_nodes = [int(n) for n in nodes[config.I:]]

    dist = dict(nx.all_pairs_dijkstra_path_length(graph, weight="delay"))
    d = [[float(dist[ai][ej]) for ej in en_nodes] for ai in area_nodes]
    d0 = [float(config.cloud_delay)] * config.I

    I, J, K = config.I, config.J, config.K
    R = _draw(rngs["demand"], config.demand_range, (I, K))
    Dmax = _draw(rngs["threshold"], config.threshold_range, (K,))
    f = _draw(rngs["fixed_cost"], config.fixed_cost_range, (J,))
    c = _draw(rngs["variable_cost"], config.variable_cost_range, (J,))
    w = _draw(rngs["delay_penalty"], config.delay_penalty_range, (K,))
    s = _draw(rngs["size"], config.size_range, (K,))
    B = _draw(rngs["budget"], config.budget_range, (K,))
    psi = _draw(rngs["unmet_penalty"], config.unmet_penalty_range, (I, K))
    S = _draw(rngs["storage_capacity"], config.storage_capacity_range, (J,))

    if config.eligibility_rule == "all":
        a = [[[1 for _ in range(K)] for _ in range(J)] for _ in range(I)]
    else:
        a = [[[1 if d[i][j] <= Dmax[k] else 0 for k in range(K)]
              for j in range(J)] for i in range(I)]

    C = [float(v) for v in rngs["compute_capacity"].choice(M5_VCPUS, size=J)]

    inst = Instance(
        I=I, J=J, K=K, d=d, d0=d0,
        C=C,
        S=S, f=f, c=c, p0=float(config.p0),
        p_grid=[list(map(float, config.compute_grid)) for _ in range(J)],
        ps_grid=[list(map(float, config.storage_grid)) for _ in range(J)],
        R=R, B=B, s=s, w=w, psi=psi, phi=[[float(config.install_cost)] * K for _ in range(J)],
        Dmax=Dmax, a=a, seed=int(config.seed),
    ).validate()
    topo = Topology(n_nodes=config.graph_size, edges=edges,
                    area_nodes=area_nodes, en_nodes=en_nodes)
    return inst, topo


def _draw(rng, bounds, shape):
    lo, hi = bounds
    arr = rng.uniform(lo, hi, size=shape)
    if len(shape) == 1:
        return [float(v) for v in arr]
    return [[float(v) for v in row] for row in arr]


def generate(config: GenConfig) -> Instance:
    inst, _ = generate_with_topology(config)
    return inst


def apply_scale(instance: Instance, factors: ScaleFactors) -> Instance:
    """Return a scaled copy: R*=delta, C*=gamma0, Dmax*=Lambda, w*=beta0."""
    factors.validate()
    out = instance.copy()
    out.R = [[r * factors.delta for r in row] for row in instance.R]
    out.C = [cj * factors.gamma0 for cj in instance.C]
    out.Dmax = [dk * factors.Lambda for dk in instance.Dmax]
    out.w = [wk * factors.beta0 for wk in instance.w]
    return out.validate()


def grid_level(grid, price):
    """The index of the level of ``grid`` that ``price`` equals within
    1e-9 * max(1, |level|), or None."""
    return next((v for v, g in enumerate(grid) if abs(g - price) <= 1e-9 * max(1.0, abs(g))),
                None)


# -- persistence -----------------------------------------------------


def to_dict(instance: Instance) -> dict:
    doc = {"schema_version": SCHEMA_VERSION, "units": dict(UNITS)}
    doc.update(asdict(instance))
    return doc


def from_dict(doc: dict) -> Instance:
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise InstanceError(
            f"unsupported schema version {doc.get('schema_version')!r}; expected {SCHEMA_VERSION}")
    names = ("I", "J", "K", "d", "d0", "C", "S", "f", "c", "p0", "p_grid",
             "ps_grid", "R", "B", "s", "w", "psi", "phi", "Dmax", "a", "seed")
    missing = [k for k in names if k not in doc]
    if missing:
        raise InstanceError(f"instance document lacks {', '.join(missing)}")
    return Instance(**{k: doc[k] for k in names}).validate()


def save(instance: Instance, path):
    with open(path, "w") as fh:
        json.dump(to_dict(instance), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load(path) -> Instance:
    with open(path) as fh:
        doc = json.load(fh)
    return from_dict(doc)
