"""Span tracing for the traced benchmark run.

The wrappers are installed by the benchmark, not by the package: each
public function of a layer is replaced, for the length of the traced
pass, by a wrapper that records a span (name, start, end, parent span,
instance id) and a few counts taken from the return value.  Functions
are wrapped under every name they are looked up by, because the
package's modules import names directly (``edgeprice.bilevel`` calls its
own ``solve_sp1``, not ``edgeprice.follower.solve_sp1``).  scipy's
``milp``/``linprog`` are imported inside the adapter methods at call
time, so wrapping the ``scipy.optimize`` attributes catches them.

Untraced runs never call ``install``: the wrappers are absent, not off.
"""

from __future__ import annotations

import functools
import importlib
import json
import time


def _stats_nodes(res):
    return {"nodes": int(res.stats.get("nodes", 0) or 0)}


def _master_size(bundle):
    stats = bundle.model.stats()
    return {"vars": stats.n_continuous + stats.n_binary, "rows": stats.n_constraints}


def _algorithm_state(state):
    return {"iterations": state.iteration,
            "cuts": len(state.cuts),
            "sp2_cuts": sum(1 for cut in state.cuts if cut.source == "sp2"),
            "no_incumbent": int(state.incumbent_leader is None)}


# (module, class or None, attribute, span name, counter on the return value).
# The span name is "<layer>.<function>"; one function wrapped under several
# lookup names keeps one span name.
TARGETS = [
    ("edgeprice.instance", None, "generate", "instance.generate", None),
    ("edgeprice.strategies", None, "solve_scheme", "strategies.solve_scheme", None),
    ("edgeprice.bilevel", None, "run_algorithm1", "bilevel.run_algorithm1", _algorithm_state),
    ("edgeprice.strategies", None, "run_algorithm1", "bilevel.run_algorithm1", _algorithm_state),
    ("edgeprice.bilevel", None, "solve_bruteforce", "bilevel.solve_bruteforce", None),
    ("edgeprice.bilevel", None, "build_master", "bilevel.build_master", _master_size),
    ("edgeprice.strategies", None, "build_master", "bilevel.build_master", _master_size),
    ("edgeprice.bilevel", None, "repair_dual_blocks", "bilevel.repair_dual_blocks", None),
    ("edgeprice.bilevel", None, "solve_sp2", "bilevel.solve_sp2", None),
    ("edgeprice.bilevel", None, "build_sp2", "bilevel.build_sp2", None),
    ("edgeprice.follower", None, "solve_sp1", "follower.solve_sp1", None),
    ("edgeprice.bilevel", None, "solve_sp1", "follower.solve_sp1", None),
    ("edgeprice.follower", None, "build_follower_milp", "follower.build_follower_milp", None),
    ("edgeprice.strategies", None, "build_follower_milp", "follower.build_follower_milp", None),
    ("edgeprice.follower", None, "solve_fixed_t_lp", "follower.solve_fixed_t_lp", None),
    ("edgeprice.follower", None, "build_kkt_follower", "follower.build_kkt_follower", None),
    ("edgeprice.follower", None, "solve_kkt_follower", "follower.solve_kkt_follower", None),
    ("edgeprice.solve", None, "backend_solve_polished", "solve.backend_solve_polished", None),
    ("edgeprice.bilevel", None, "backend_solve_polished", "solve.backend_solve_polished", None),
    ("edgeprice.follower", None, "backend_solve_polished", "solve.backend_solve_polished", None),
    ("edgeprice.solve", None, "backend_solve", "solve.backend_solve", None),
    ("edgeprice.follower", None, "backend_solve", "solve.backend_solve", None),
    ("edgeprice.solve", None, "solve_milp_certified", "solve.solve_milp_certified", None),
    ("edgeprice.solve", None, "polish_binaries", "solve.polish_binaries", None),
    ("edgeprice.follower", None, "polish_binaries", "solve.polish_binaries", None),
    ("edgeprice.solve", None, "solve_milp", "solve.ref_milp", _stats_nodes),
    ("edgeprice.solve", None, "solve_lp", "solve.ref_lp", None),
    ("edgeprice.follower", None, "solve_lp", "solve.ref_lp", None),
    ("edgeprice.solve", "ScipyHighsBackend", "solve_milp", "solve.highs_adapter_milp", _stats_nodes),
    ("edgeprice.solve", "ScipyHighsBackend", "solve_lp", "solve.highs_adapter_lp", None),
    ("scipy.optimize", None, "milp", "solve.scipy_milp", None),
    ("scipy.optimize", None, "linprog", "solve.scipy_linprog", None),
    ("edgeprice.simplex", "BoundedSimplex", "solve", "simplex.solve",
     lambda sol: {"pivots": int(sol.iterations)}),
]

ADAPTER_SPANS = ("solve.highs_adapter_milp", "solve.highs_adapter_lp")


class Tracer:
    """In-memory span recorder; ``install``/``uninstall`` patch the targets."""

    def __init__(self):
        self.spans = []
        self.instance = None
        self._stack = []
        self._patched = []
        self._t0 = time.perf_counter()

    def _wrap(self, fn, name, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            span = {"id": len(tracer.spans), "parent": stack[-1]["id"] if stack else None,
                    "name": name, "instance": tracer.instance,
                    "start": time.perf_counter() - tracer._t0, "end": None}
            tracer.spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter() - tracer._t0
                stack.pop()
            if counter is not None:
                span.update(counter(result))
            return result

        return traced

    def install(self):
        for module_name, cls_name, attr, name, counter in TARGETS:
            owner = importlib.import_module(module_name)
            if cls_name is not None:
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counter))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _quantile(values, q):
    """Nearest-rank quantile; 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))]


def summarize(spans):
    """Per-name totals and self times, per-layer totals, and the per-layer metrics."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)

    def dur(s):
        return s["end"] - s["start"]

    def self_time(s):
        return dur(s) - sum(dur(c) for c in children.get(s["id"], ()))

    def parent_name(s):
        return spans[s["parent"]]["name"] if s["parent"] is not None else None

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name, parent=None):
        return sum(dur(s) for s in named(name) if parent is None or parent_name(s) == parent)

    per_name = {}
    for s in spans:
        row = per_name.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += dur(s)
        row["self_s"] += self_time(s)

    # a layer's total counts only its outermost spans, so nested calls inside
    # the same layer are not counted twice
    per_layer = {}
    for s in spans:
        layer = s["name"].split(".")[0]
        row = per_layer.setdefault(layer, {"total_s": 0.0, "self_s": 0.0})
        row["self_s"] += self_time(s)
        p = parent_name(s)
        if p is None or p.split(".")[0] != layer:
            row["total_s"] += dur(s)

    runs = named("bilevel.run_algorithm1")
    last_master = []
    for run in runs:
        builds = [c for c in children.get(run["id"], []) if c["name"] == "bilevel.build_master"]
        if builds:
            last_master.append(builds[-1])
    cuts = sum(r.get("cuts", 0) for r in runs)
    certified = named("solve.solve_milp_certified")
    adapter_calls = [sum(1 for c in children.get(s["id"], [])
                         if c["name"] == "solve.highs_adapter_milp") for s in certified]
    fixed_t = [dur(s) for s in named("follower.solve_fixed_t_lp")]

    metrics = {
        "bilevel.iterations": (sum(r.get("iterations", 0) for r in runs), "count"),
        "bilevel.master_vars_last": (max((s["vars"] for s in last_master), default=0), "count"),
        "bilevel.master_rows_last": (max((s["rows"] for s in last_master), default=0), "count"),
        "bilevel.master_s": (total("solve.backend_solve_polished", "bilevel.run_algorithm1"), "s"),
        "bilevel.enum_master_s": (total("solve.backend_solve_polished",
                                        "bilevel.solve_bruteforce"), "s"),
        "bilevel.build_master_s": (total("bilevel.build_master"), "s"),
        "bilevel.repair_s": (total("bilevel.repair_dual_blocks"), "s"),
        "bilevel.sp2_s": (total("bilevel.solve_sp2"), "s"),
        "bilevel.sp2_infeasible": (sum(1 for s in named("bilevel.solve_sp2")
                                       if s.get("error") == "Sp2Infeasible"), "count"),
        "bilevel.sp2_cut_frac": (sum(r.get("sp2_cuts", 0) for r in runs) / cuts if cuts else 0.0,
                                 "ratio"),
        "bilevel.no_incumbent": (sum(r.get("no_incumbent", 0) for r in runs), "count"),
        "follower.sp1_s": (total("follower.solve_sp1"), "s"),
        "follower.sp1_calls": (len(named("follower.solve_sp1")), "count"),
        "follower.fixed_t_lp_s": (sum(fixed_t), "s"),
        "follower.fixed_t_lp_calls": (len(fixed_t), "count"),
        "follower.fixed_t_lp_s_p50": (_quantile(fixed_t, 0.50), "s"),
        "follower.fixed_t_lp_s_p98": (_quantile(fixed_t, 0.98), "s"),
        "follower.kkt_s": (total("follower.solve_kkt_follower"), "s"),
        "follower.build_s": (total("follower.build_follower_milp")
                             + total("follower.build_kkt_follower"), "s"),
        "solve.highs_milp_s": (total("solve.scipy_milp"), "s"),
        "solve.highs_milp_calls": (len(named("solve.scipy_milp")), "count"),
        "solve.highs_nodes": (sum(s.get("nodes", 0) for s in named("solve.highs_adapter_milp")),
                              "count"),
        "solve.highs_lp_s": (total("solve.scipy_linprog"), "s"),
        "solve.adapter_glue_s": (sum(self_time(s) for s in spans if s["name"] in ADAPTER_SPANS),
                                 "s"),
        "solve.certify_s": (total("solve.polish_binaries"), "s"),
        "solve.certify_calls": (len(named("solve.polish_binaries")), "count"),
        "solve.exclusions": (sum(max(0, n - 1) for n in adapter_calls), "count"),
        "solve.first_try_frac": (sum(1 for n in adapter_calls if n == 1) / len(adapter_calls)
                                 if adapter_calls else 0.0, "ratio"),
        "solve.ref_milp_s": (total("solve.ref_milp"), "s"),
        "solve.ref_nodes": (sum(s.get("nodes", 0) for s in named("solve.ref_milp")), "count"),
        "simplex.solve_s": (total("simplex.solve"), "s"),
        "simplex.calls": (len(named("simplex.solve")), "count"),
        "simplex.pivots": (sum(s.get("pivots", 0) for s in named("simplex.solve")), "count"),
        "instance.generate_s": (total("instance.generate"), "s"),
    }
    samples = {"follower.fixed_t_lp_s_p50": len(fixed_t), "follower.fixed_t_lp_s_p98": len(fixed_t),
               "solve.first_try_frac": len(adapter_calls), "bilevel.sp2_cut_frac": cuts,
               "bilevel.master_vars_last": len(last_master),
               "bilevel.master_rows_last": len(last_master)}
    return {"per_name": per_name, "per_layer": per_layer, "metrics": metrics,
            "samples": samples}
