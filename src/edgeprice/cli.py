"""Command-line entry point.

Subcommands: generate, solve, compare, sweep, audit.  Every command that
writes into an output directory drops exactly one manifest.json there
(command, config snapshot, instance hash, seed, version, wall time,
result paths), so runs are reproducible from the manifest plus the
instance file alone.

Exit codes: 0 = optimal/pass, 2 = limit/NA, 1 = error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import os
import sys
import time

from . import __version__
from .bilevel import TRACE_COLUMNS, run_algorithm1, solve_bruteforce
from .instance import GenConfig, generate, load, save
from .solve import BACKENDS
from .strategies import (SCHEME_KINDS, SWEEP_COLUMNS, SweepSpec, audit_sizes, run_sweep,
                         solve_scheme)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_LIMIT = 2

PRESETS = {
    "base": dict(I=12, J=8, K=4),
    "tiny": dict(I=3, J=2, K=1),
    "tableIV-small": dict(I=6, J=4, K=3),
}


@contextlib.contextmanager
def stdout_to_stderr():
    """Point file descriptor 1 at stderr while a command solves: HiGHS's C
    code prints stray lines to stdout, which carries the command's output."""
    sys.stdout.flush()
    saved = os.dup(1)
    os.dup2(2, 1)
    try:
        yield
    finally:
        sys.stdout.flush()
        os.dup2(saved, 1)
        os.close(saved)


def _hash_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        digest.update(fh.read())
    return digest.hexdigest()


def _write_manifest(outdir, command, config, seed, instance_hash, wall, outputs):
    manifest = {
        "manifest_version": 1,
        "command": command,
        "config": config,
        "seed": seed,
        "instance_hash": instance_hash,
        "tool_version": __version__,
        "wall_time": round(wall, 3),
        "outputs": sorted(outputs),
    }
    path = os.path.join(outdir, "manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def cmd_generate(args):
    t0 = time.perf_counter()
    fields = dict(PRESETS[args.preset]) if args.preset else {}
    for name, key in (("areas", "I"), ("nodes", "J"), ("services", "K")):
        val = getattr(args, name)
        if val is not None:
            fields[key] = val
    cfg = GenConfig(seed=args.seed, **fields)
    inst = generate(cfg)
    save(inst, args.out)
    outdir = os.path.dirname(os.path.abspath(args.out)) or "."
    _write_manifest(outdir, "generate", cfg.__dict__, args.seed,
                    _hash_file(args.out), time.perf_counter() - t0, [args.out])
    print(f"wrote {args.out}: I={inst.I} J={inst.J} K={inst.K} seed={inst.seed}")
    return EXIT_OK


def cmd_solve(args):
    t0 = time.perf_counter()
    inst = load(args.instance)
    with stdout_to_stderr():
        result = solve_scheme(inst, args.scheme, epsilon=args.epsilon,
                              backend=args.backend, time_limit=args.time_limit)
    state = result.state
    os.makedirs(args.out, exist_ok=True)

    trace_path = os.path.join(args.out, "trace.csv")
    with open(trace_path, "w", newline="") as fh:
        wr = csv.DictWriter(fh, fieldnames=TRACE_COLUMNS)
        wr.writeheader()
        for row in state.trace:
            wr.writerow(row)

    solution = {
        "scheme": result.scheme,
        "status": result.status,
        "profit": result.profit,
        "epsilon": args.epsilon,
        "iterations": state.iteration,
        "final_gap": state.gap if state.UB != float("inf") else None,
        "leader": {"p": result.leader.p, "ps": result.leader.ps, "z": result.leader.z},
        "services": result.reports,
    }
    sol_path = os.path.join(args.out, "solution.json")
    with open(sol_path, "w") as fh:
        json.dump(solution, fh, indent=1, sort_keys=True)
        fh.write("\n")

    _write_manifest(args.out, "solve",
                    {"scheme": args.scheme, "epsilon": args.epsilon,
                     "time_limit": args.time_limit, "backend": args.backend},
                    inst.seed, _hash_file(args.instance),
                    time.perf_counter() - t0, [sol_path, trace_path])
    print(f"{result.scheme}: status={result.status} profit={result.profit} "
          f"iterations={state.iteration} gap={state.gap:.3g}")
    return EXIT_OK if result.status in ("gap-closed", "duplicate-t") else EXIT_LIMIT


def cmd_compare(args):
    t0 = time.perf_counter()
    inst = load(args.instance)
    with stdout_to_stderr():
        t_alg = time.perf_counter()
        state = run_algorithm1(inst, epsilon=args.epsilon, backend=args.backend,
                               time_limit=args.time_limit)
        alg_wall = time.perf_counter() - t_alg
        t_bf = time.perf_counter()
        bf, bf_status = solve_bruteforce(inst, backend=args.backend,
                                         max_cuts=args.max_cuts,
                                         time_limit=args.time_limit)
        bf_wall = time.perf_counter() - t_bf

    doc = {"algorithm1": {"status": state.status, "objective": state.LB,
                          "iterations": state.iteration, "wall_time": round(alg_wall, 3)},
           "bruteforce": {"status": bf_status,
                          "objective": bf.theta if bf is not None else None,
                          "wall_time": round(bf_wall, 3)}}
    os.makedirs(args.out, exist_ok=True)
    code = EXIT_OK
    if bf_status == "NA":
        doc["relative_difference"] = None
        code = EXIT_LIMIT
    else:
        diff = abs(state.LB - bf.theta) / max(1.0, abs(bf.theta))
        doc["relative_difference"] = diff
        if diff > 1e-6 or state.status not in ("gap-closed", "duplicate-t"):
            code = EXIT_ERROR
    out_path = os.path.join(args.out, "compare.json")
    with open(out_path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    _write_manifest(args.out, "compare",
                    {"epsilon": args.epsilon, "backend": args.backend,
                     "max_cuts": args.max_cuts, "time_limit": args.time_limit},
                    inst.seed, _hash_file(args.instance),
                    time.perf_counter() - t0, [out_path])
    print(json.dumps(doc, indent=1, sort_keys=True))
    return code


def cmd_sweep(args):
    t0 = time.perf_counter()
    with open(args.spec) as fh:
        raw = json.load(fh)
    gen = GenConfig(**{k: (tuple(v) if isinstance(v, list) else v)
                       for k, v in raw.get("gen", {}).items()})
    spec = SweepSpec(schemes=raw["schemes"], axis=raw["axis"], values=raw["values"],
                     replicates=raw.get("replicates", 1),
                     base_seed=raw.get("base_seed", 0),
                     epsilon=raw.get("epsilon", 1e-4),
                     backend=raw.get("backend", args.backend),
                     gen=gen, time_limit=raw.get("time_limit")).validate()
    os.makedirs(args.out, exist_ok=True)
    with stdout_to_stderr():
        rows = run_sweep(spec)

    csv_path = os.path.join(args.out, "sweep.csv")
    with open(csv_path, "w", newline="") as fh:
        wr = csv.DictWriter(fh, fieldnames=SWEEP_COLUMNS)
        wr.writeheader()
        for row in rows:
            wr.writerow(row)

    # plot-ready series: mean profit per (scheme, axis value)
    series = {}
    for row in rows:
        if row["status"] in ("gap-closed", "duplicate-t"):
            series.setdefault(row["scheme"], {}).setdefault(row["value"], []).append(row["profit"])
    plot = {"axis": spec.axis, "values": list(spec.values),
            "series": {scheme: [(sum(v[val]) / len(v[val]) if val in v and v[val] else None)
                                for val in spec.values]
                       for scheme, v in series.items()}}
    plot_path = os.path.join(args.out, "profit_vs_%s.json" % spec.axis)
    with open(plot_path, "w") as fh:
        json.dump(plot, fh, indent=1, sort_keys=True)
        fh.write("\n")

    _write_manifest(args.out, "sweep", raw, spec.base_seed, _hash_file(args.spec),
                    time.perf_counter() - t0, [csv_path, plot_path])
    failures = sum(1 for row in rows if row["status"] == "error")
    print(f"sweep complete: {len(rows)} rows, {failures} failures -> {csv_path}")
    return EXIT_OK if failures == 0 else EXIT_LIMIT


def cmd_audit(args):
    report = audit_sizes(args.areas, args.nodes, args.services,
                         args.price_levels, args.storage_levels, args.cuts)
    width = max(len(e["model"]) for e in report["entries"])
    for e in report["entries"]:
        flag = "PASS" if e["match"] else "FAIL"
        print(f"{e['model']:<{width}} {e['component']:<12} built={e['built']:<8} "
              f"formula={e['formula']:<8} {flag}")
        if not e["match"] and e.get("families"):
            print("  families:", json.dumps(e["families"], sort_keys=True))
    print("audit:", "PASS" if report["ok"] else "FAIL")
    return EXIT_OK if report["ok"] else EXIT_ERROR


def build_parser():
    parser = argparse.ArgumentParser(prog="edgeprice",
                                     description="Exact bilevel edge-resource pricing toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a random instance")
    g.add_argument("--preset", choices=sorted(PRESETS), default=None)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--areas", type=int, default=None)
    g.add_argument("--nodes", type=int, default=None)
    g.add_argument("--services", type=int, default=None)
    g.add_argument("-o", "--out", required=True)
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("solve", help="solve one pricing scheme on an instance")
    s.add_argument("instance")
    s.add_argument("--scheme", choices=SCHEME_KINDS, default="dyn")
    s.add_argument("--epsilon", type=float, default=1e-4)
    s.add_argument("--time-limit", type=float, default=None)
    s.add_argument("--backend", choices=BACKENDS, default="highs")
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_solve)

    c = sub.add_parser("compare", help="cross-check the iterative algorithm vs brute force")
    c.add_argument("instance")
    c.add_argument("--epsilon", type=float, default=1e-4)
    c.add_argument("--time-limit", type=float, default=None)
    c.add_argument("--max-cuts", type=int, default=1024)
    c.add_argument("--backend", choices=BACKENDS, default="highs")
    c.add_argument("--out", required=True)
    c.set_defaults(func=cmd_compare)

    w = sub.add_parser("sweep", help="run a sensitivity sweep from a JSON spec")
    w.add_argument("spec")
    w.add_argument("--backend", choices=BACKENDS, default="highs")
    w.add_argument("--out", required=True)
    w.set_defaults(func=cmd_sweep)

    a = sub.add_parser("audit", help="compare built model sizes to the closed forms")
    a.add_argument("--areas", type=int, default=12)
    a.add_argument("--nodes", type=int, default=8)
    a.add_argument("--services", type=int, default=4)
    a.add_argument("--price-levels", type=int, default=5)
    a.add_argument("--storage-levels", type=int, default=3)
    a.add_argument("--cuts", type=int, default=1)
    a.set_defaults(func=cmd_audit)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
