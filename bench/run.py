"""edgeprice benchmark: one workload, one seed, every metric by name.

    python3 bench/run.py --workload {oracle,base,follower} --seed N \
        --seconds S --trace {0,1}

Runs the workload in a fresh single-threaded worker process
(``worker.py``), checks every answer, and prints one line per metric
followed, as the last line of stdout, by one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics of
a separate traced pass.  The full result (per-instance answers, versions,
per-layer totals and self times, spans) is written under
``.bench_runs/`` in the checkout.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("oracle", "base", "follower")
# set-up is timed in this many extra fresh processes, besides the worker itself
SETUP_PROBES = 4
DEADLINE_S = 170.0
# printed and kept in result.json but left out of the result line: failed_frac
# is 0 at every correct commit and is carried by "failed"/"attempted"; the
# median instance of a deck is one short solve, whose time swings by up to
# 30 % between runs on a shared 2-core machine, more than any usable bound
LINE_ONLY = {"failed_frac", "instance_s_p50"}
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def spawn(args, out, deadline, setup_only=False):
    """Run worker.py to completion; returns its wall-clock start time."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out)] + ["--setup-only"] * setup_only
    log = "setup.log" if setup_only else "worker.log"
    env = {**os.environ, **SINGLE_THREAD}
    started = time.time()
    # the worker's stdout and stderr go to a log: HiGHS prints stray lines
    # to stdout from C code, and this process's stdout carries the result
    with open(out / log, "a") as fh:
        proc = subprocess.run(cmd, stdout=fh, stderr=subprocess.STDOUT, env=env, cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write((out / log).read_text()[-4000:])
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return started


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "edgeprice" / "__init__.py").is_file():
        raise SystemExit(f"no edgeprice package under {ROOT / 'src'}")
    out = ROOT / ".bench_runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    setup = []
    try:
        for _ in range(0 if args.trace else SETUP_PROBES):
            started = spawn(args, out, deadline, setup_only=True)
            setup.append(json.loads((out / "setup.json").read_text())["ready"] - started)
        started = spawn(args, out, deadline)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"worker did not finish within {DEADLINE_S:.0f} s")
    result = json.loads((out / "result.json").read_text())

    if args.trace:
        tr = result["tracing"]
        metrics = {name: (value, unit, tr["samples"].get(name, 1))
                   for name, (value, unit) in tr["metrics"].items()}
        print(f"{'layer':12} {'total_s':>10} {'self_s':>10}")
        for layer, row in sorted(tr["per_layer"].items()):
            print(f"{layer:12} {row['total_s']:10.4f} {row['self_s']:10.4f}")
        print(f"{'span':32} {'calls':>7} {'total_s':>10} {'self_s':>10}")
        for name, row in sorted(tr["per_name"].items()):
            print(f"{name:32} {row['calls']:7d} {row['total_s']:10.4f} {row['self_s']:10.4f}")
        print(f"tracing overhead: {tr['traced_s'] - tr['untraced_s']:+.4f} s "
              f"(traced {tr['traced_s']:.4f} s, untraced {tr['untraced_s']:.4f} s, "
              f"{tr['spans']} spans)")
    else:
        setup.append(result["ready"] - started)
        metrics = {"setup_s": (statistics.median(setup), "s", len(setup)),
                   **{name: tuple(v) for name, v in result["metrics"].items()}}
    for err in result["errors"]:
        print(f"FAILED instance {err['instance']}: {err['error']}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}: {result['passes']} pass(es) over "
          f"{len(result['deck'])} instances, {result['attempted']} attempted, "
          f"{result['failed']} failed; python {result['versions']['python']}, numpy "
          f"{result['versions']['numpy']}, scipy {result['versions']['scipy']}, "
          f"nproc {result['nproc']}; full result in {out.relative_to(ROOT)}")
    for name, (value, unit, n) in metrics.items():
        print(f"{name:28} {value:14.6f} {unit:6} (n={n})")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit, _) in metrics.items()
                                  if name not in LINE_ONLY}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
