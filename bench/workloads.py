"""The three workloads: their instance decks, the timed solve of one
instance, and the answer check of that solve.

Every call into the package goes through the module attribute
(``bilevel.run_algorithm1``, not a name imported here), so the traced
run's wrappers see the benchmark's own calls too.

Decks are fixed and the workload seed only sets their order.  On these
recipes one instance takes from 0.3 s to 94 s, and even a follower's
time moves by a factor of two with the leader's prices, so decks drawn
afresh from each seed would make the run-to-run spread far larger than
any useful regression bound.
"""

from __future__ import annotations

import itertools
import math
import random

import numpy as np

from edgeprice import bilevel, follower, instance, strategies

ORACLE_EPSILON = 1e-8
REL_TOL = 1e-6
DUALITY_TOL = 1e-7
BASE_MAX_ITERATIONS = 2
FOLLOWER_INSTANCES = 10


def rel_diff(a, b):
    return abs(a - b) / max(1.0, abs(b))


def finite(x):
    """JSON-safe number: None for inf/nan."""
    return float(x) if x is not None and math.isfinite(x) else None


def verify(inst, state):
    """Problems with the incumbent of an AlgorithmState, if it has one."""
    if state.incumbent_leader is None:
        return []
    report = bilevel.verify_bilevel_solution(inst, state.incumbent_leader,
                                             state.incumbent_solutions, backend="highs")
    return [] if report["ok"] else [f"incumbent fails verify_bilevel_solution: {report}"]


class Workload:
    """A fixed deck of generator specs (``SPECS``); the workload seed sets their order."""

    @classmethod
    def deck(cls, seed):
        specs = [dict(spec) for spec in cls.SPECS]
        random.Random(seed).shuffle(specs)
        return specs

    @staticmethod
    def build(spec):
        return instance.generate(instance.GenConfig(**spec))


class Oracle(Workload):
    """Criterion-1 recipe: Algorithm 1 and full enumeration on each instance."""

    name = "oracle"
    # consecutive seeds of the criterion-1 batch (seed0 = 100, K = 2 + (seed - 100) mod 3):
    # K = 2, 3, 4; 112 and 114 have nonzero optima, 114 takes 4 iterations
    SPECS = tuple({"seed": s, "I": 6, "J": 4, "K": 2 + (s - 100) % 3, "graph_size": 60}
                  for s in (112, 113, 114))
    TINY = {"seed": 11, "I": 3, "J": 2, "K": 2, "graph_size": 30}

    @staticmethod
    def solve(inst):
        state = bilevel.run_algorithm1(inst, epsilon=ORACLE_EPSILON, backend="highs")
        enum, enum_status = bilevel.solve_bruteforce(inst, backend="highs")
        return state, enum, enum_status

    @staticmethod
    def check(inst, out):
        state, enum, enum_status = out
        problems = []
        if enum_status != "optimal":
            problems.append(f"enumeration ended {enum_status}")
        if state.status not in ("gap-closed", "duplicate-t"):
            problems.append(f"Algorithm 1 ended {state.status}")
        if enum is not None and rel_diff(state.LB, enum.theta) > REL_TOL:
            problems.append(f"LB {state.LB!r} != enumeration optimum {enum.theta!r}")
        if state.incumbent_leader is None:
            problems.append("no incumbent")
        problems += verify(inst, state)
        record = {"seed": inst.seed, "K": inst.K, "status": state.status,
                  "iterations": state.iteration, "LB": finite(state.LB), "UB": finite(state.UB),
                  "enum_optimum": finite(enum.theta) if enum is not None else None,
                  "cut_sources": [cut.source for cut in state.cuts]}
        return problems, state.incumbent_leader is not None and not problems, record


class Base(Workload):
    """The paper's base preset through the path ``edgeprice solve`` takes."""

    name = "base"
    # consecutive base-preset seeds: 0 ends with no incumbent (SP2 infeasible,
    # SP1-fallback cuts only), 1 closes the gap at iteration 2
    SPECS = tuple({"seed": s, "I": 12, "J": 8, "K": 4} for s in (0, 1))
    TINY = {"seed": 11, "I": 3, "J": 2, "K": 1, "graph_size": 30}

    @staticmethod
    def solve(inst):
        return strategies.solve_scheme(inst, "dyn", backend="highs",
                                       max_iterations=BASE_MAX_ITERATIONS)

    @staticmethod
    def check(inst, res):
        state = res.state
        problems = []
        ubs = [row["UB"] for row in state.trace]
        lbs = [row["LB"] for row in state.trace]
        for a, b in zip(ubs, ubs[1:]):
            if b > a + 1e-9 * (1 + abs(a)):
                problems.append(f"UB increased {a!r} -> {b!r}")
        for a, b in zip(lbs, lbs[1:]):
            if b < a - 1e-12:
                problems.append(f"LB decreased {a!r} -> {b!r}")
        if math.isfinite(state.LB) and state.UB < state.LB - REL_TOL * (1 + abs(state.LB)):
            problems.append(f"UB {state.UB!r} < LB {state.LB!r}")
        problems += verify(inst, state)
        record = {"seed": inst.seed, "status": state.status, "iterations": state.iteration,
                  "LB": finite(state.LB), "UB": finite(state.UB), "profit": finite(res.profit),
                  "cut_sources": [cut.source for cut in state.cuts]}
        return problems, state.incumbent_leader is not None and not problems, record


def _follower_specs():
    # the criterion-2 recipe: instance i has seed 200 + i, J cycling 2..6 and
    # I cycling 3..6; prices drawn once from seed 2024.  Every node is active,
    # so each of the 2^J placements is a real LP.
    rng = np.random.default_rng(2024)
    specs = []
    for i in range(FOLLOWER_INSTANCES):
        J = 2 + i % 5
        specs.append({"seed": 200 + i, "I": 3 + i % 4, "J": J, "K": 1, "graph_size": 40,
                      "p": [int(v) for v in rng.integers(0, 5, J)],
                      "ps": [int(v) for v in rng.integers(0, 3, J)]})
    return tuple(specs)


class Follower(Workload):
    """Criterion-2 recipe: SP1, every fixed-placement LP and KKT per instance."""

    name = "follower"
    SPECS = _follower_specs()
    TINY = {"seed": 11, "I": 3, "J": 2, "K": 1, "graph_size": 30, "p": [0, 1], "ps": [0, 1]}

    @staticmethod
    def build(spec):
        spec = dict(spec)
        p, ps = spec.pop("p"), spec.pop("ps")
        inst = instance.generate(instance.GenConfig(**spec))
        leader = follower.LeaderDecision.from_prices(
            inst, p=[inst.p_grid[j][v] for j, v in enumerate(p)],
            ps=[inst.ps_grid[j][h] for j, h in enumerate(ps)], z=[1] * inst.J)
        return inst, leader

    @staticmethod
    def solve(case):
        inst, leader = case
        _, phi = follower.solve_sp1(inst, 0, leader, backend="reference")
        lps = [(bits, follower.solve_fixed_t_lp(inst, 0, leader, list(bits), backend="reference"))
               for bits in itertools.product((0, 1), repeat=inst.J)]
        kkt, _, _ = follower.solve_kkt_follower(inst, 0, leader, backend="highs")
        return phi, lps, kkt

    @staticmethod
    def check(case, out):
        inst, leader = case
        phi, lps, kkt = out
        problems = []
        enum = min((res.objective for _, res in lps if res.status == "optimal"), default=None)
        worst = 0.0
        for bits, res in lps:
            if res.status != "optimal":
                continue
            dual = res.dual.objective(inst, 0, leader, list(bits))
            worst = max(worst, abs(dual - res.lp_value) / (1 + abs(res.lp_value)))
        if enum is None:
            problems.append("no feasible placement")
        elif rel_diff(enum, phi) > REL_TOL:
            problems.append(f"SP1 {phi!r} != enumeration {enum!r}")
        if rel_diff(kkt, phi) > REL_TOL:
            problems.append(f"SP1 {phi!r} != KKT {kkt!r}")
        if worst > DUALITY_TOL:
            problems.append(f"strong duality residual {worst:.3e}")
        record = {"seed": inst.seed, "I": inst.I, "J": inst.J, "phi": phi,
                  "enum": finite(enum), "kkt": kkt, "duality_worst": worst}
        return problems, not problems, record


WORKLOADS = {w.name: w for w in (Oracle, Base, Follower)}
