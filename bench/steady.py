"""Steadiness check: do two sets of runs of the same code agree?

Usage (from the repository root):

    python3 bench/steady.py [--workloads desk-analyze,eps-sweep] [--runs 10]
                            [--trace-check]

It makes two sets of ``--runs`` runs per workload; each run uses its own
seed, counting up from 1.  For every workload and end-to-end metric it
prints each set's median and quartiles, the spread (Q3 - Q1) / median
against the metric's bound (and a third of it, the target), and how far
the second set's median moved from the first in the worse direction.  It
also checks that the share of failed operations is identical in every run.
With ``--trace-check`` it runs the traced pass twice on one seed per
workload (seed 1) and checks that every count repeats exactly (``--runs 0`` skips
the sets).  Raw results go to
``bench/.work/steady.json``.  Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SETS = 2


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr[-3000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace-check", action="store_true")
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    ok = True
    raw = {}
    for workload in args.workloads.split(",") if args.runs else ():
        runs = []
        for s in range(SETS):
            for i in range(args.runs):
                seed = 1 + s * args.runs + i
                line = run_once(workload, seed, seconds, 0)
                line["set"], line["seed"] = s, seed
                runs.append(line)
                print(f"{workload} set {s} seed {seed}: " + " ".join(
                    f"{k}={v['value']:.6g}" for k, v in line["metrics"].items())
                    + f" failed={line['failed']}/{line['attempted']}"
                    + ("" if line["correct"] else " INCORRECT"), flush=True)
                ok &= line["correct"]
        raw[workload] = runs
        shares = {Fraction(r["failed"], r["attempted"]) for r in runs}
        same_share = len(shares) == 1
        print(f"{workload}: failed share identical in every run: {same_share} "
              f"{sorted(map(str, shares))}")
        ok &= same_share
        print(f"{'metric':<12} {'set':>3} {'median':>12} {'Q1':>12} {'Q3':>12} "
              f"{'spread':>7} {'bound':>6} {'spread<=bound/3':>15} {'drift':>7}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for s in range(SETS):
                values = [r["metrics"][name]["value"] for r in runs if r["set"] == s]
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med
                medians.append(med)
                steady = spread <= bound / 3
                drift = ""
                if s:
                    worse = (medians[-1] - medians[0]) / medians[0]
                    if metric["better"] == "higher":
                        worse = -worse
                    drift = f"{worse:+.3f}"
                    ok &= worse <= bound
                ok &= spread <= bound
                print(f"{name:<12} {s:>3} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                      f"{spread:>7.3f} {bound:>6.2f} {str(steady):>15} {drift:>7}")
    if args.trace_check:
        for workload in args.workloads.split(","):
            a, b = (run_once(workload, 1, seconds, 1) for _ in range(2))
            counts = [m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "bytes")]
            differ = [n for n in counts if a["metrics"][n]["value"] != b["metrics"][n]["value"]]
            overhead = [r["metrics"]["trace.overhead_pct"]["value"] for r in (a, b)]
            print(f"{workload}: traced counts repeat exactly: {not differ} {differ}; "
                  f"tracing overhead {overhead[0]:.1f}% and {overhead[1]:.1f}%")
            ok &= not differ
    os.makedirs(os.path.join(BENCH, ".work"), exist_ok=True)
    with open(os.path.join(BENCH, ".work", "steady.json"), "w") as fh:
        json.dump(raw, fh, indent=1)
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
