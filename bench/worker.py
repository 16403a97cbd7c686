"""One workload in one fresh process; started by run.py, not by hand.

Set-up (imports, deck generation, one warm-up solve on a tiny instance
through every engine the workload uses) ends at the first timed
instance; its wall-clock end is written out so that run.py can time
set-up from process start.  Untraced, the deck is solved in whole
passes while another pass fits in ``--seconds``.  Traced, one untraced
pass is followed by one pass with the span wrappers installed; the
difference between the two is the tracing overhead.  Answer checks run
outside the timed region.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def solve_pass(wl, cases, result):
    """Solve each case once; returns per-case (seconds, output or None)."""
    out = []
    for label, case in cases:
        t0 = time.perf_counter()
        try:
            answer = wl.solve(case)
        except Exception:
            result["errors"].append({"instance": label, "error": traceback.format_exc()})
            answer = None
        out.append((time.perf_counter() - t0, answer))
    return out


def check_pass(wl, cases, solved, result, expected=None):
    """Check every answer of one pass; returns the records of that pass.

    With ``expected`` (the records of an earlier pass), an answer that
    differs from its expected record also fails.
    """
    records = []
    for i, ((label, case), (_, answer)) in enumerate(zip(cases, solved)):
        result["attempted"] += 1
        if answer is None:
            result["failed"] += 1
            records.append(None)
            continue
        try:
            problems, answered, record = wl.check(case, answer)
        except Exception:
            problems, answered, record = [traceback.format_exc()], False, None
        if expected is not None and record != expected[i]:
            problems.append("answer differs from the untraced pass")
        result["failed"] += bool(problems)
        result["answered"] += bool(answered)
        if problems:
            result["errors"].append({"instance": label, "error": problems})
        records.append(record)
    return records


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    out = Path(args.out)

    wl = WORKLOADS[args.workload]
    specs = wl.deck(args.seed)
    cases = [(spec["seed"], wl.build(spec)) for spec in specs]
    wl.solve(wl.build(wl.TINY))
    ready = time.time()
    if args.setup_only:
        (out / "setup.json").write_text(json.dumps({"ready": ready}))
        return 0

    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "ready": ready, "deck": specs,
              "versions": {"python": platform.python_version(), "numpy": np.__version__,
                           "scipy": scipy.__version__},
              "nproc": len(os.sched_getaffinity(0)),
              "attempted": 0, "failed": 0, "answered": 0, "errors": []}
    times = {label: [] for label, _ in cases}
    t_begin = time.perf_counter()
    passes = 0
    while True:
        solved = solve_pass(wl, cases, result)
        for (label, _), (seconds, _) in zip(cases, solved):
            times[label].append(seconds)
        records = check_pass(wl, cases, solved, result)
        passes += 1
        elapsed = time.perf_counter() - t_begin
        if args.trace or elapsed + elapsed / passes > args.seconds:
            break
    result["passes"] = passes
    result["answers"] = records
    result["instance_s"] = times

    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_cases, traced_solved = [], []
            for i, spec in enumerate(specs):
                tracer.instance = i
                traced_cases.append((spec["seed"], wl.build(spec)))
                traced_solved += solve_pass(wl, traced_cases[-1:], result)
        finally:
            tracer.uninstall()
        tracer.write(out / "spans.jsonl")
        check_pass(wl, traced_cases, traced_solved, result, expected=records)
        summary = tracing.summarize(tracer.spans)
        untraced_s = sum(t[0] for t in times.values())
        traced_s = sum(seconds for seconds, _ in traced_solved)
        summary["metrics"]["trace.overhead_s"] = (traced_s - untraced_s, "s")
        result["tracing"] = {"untraced_s": untraced_s, "traced_s": traced_s,
                             "spans": len(tracer.spans), **summary}
    else:
        per_instance = [statistics.median(v) for v in times.values()]
        n = len(per_instance)
        attempted = max(result["attempted"], 1)
        result["metrics"] = {
            "instances_per_min": (60.0 * n / sum(per_instance), "1/min", n),
            "instance_s_p50": (statistics.median(per_instance), "s", n),
            "instance_s_max": (max(per_instance), "s", n),
            "failed_frac": (result["failed"] / attempted, "ratio", attempted),
            "answered_frac": (result["answered"] / attempted, "ratio", attempted),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
        }
    (out / "result.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
