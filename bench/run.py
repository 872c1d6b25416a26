"""oscnet benchmark: one workload, one run, one JSON line.

Usage (from the repository root):

    python3 bench/run.py --workload desk-analyze --seed 1 --seconds 20 --trace 0

Steps: time ``import oscnet.cli`` in fresh interpreters (``setup_s``),
write the seeded inputs, run the closed loop in a worker process for about
``--seconds`` of operation time, check every output against the oracle, and
print ``{"correct", "attempted", "failed", "metrics"}`` as the last line.
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
its per-layer metrics from one extra traced pass.  Progress and any failed
check go to stderr; the full result and the spans stay in
``bench/.work/<workload>/``.
"""

from __future__ import annotations

import os

# One BLAS thread, for this process and every child (set before numpy loads).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

SETUP_PROBES = 15
# Time a fresh interpreter took to ``import numpy`` on the machine the
# bounds were set on; set-up times are reported at this speed.
REFERENCE_IMPORT_S = 0.08
# The worker's reference kernel on the machine the bounds were set on
# (2-core x86-64 VM, where it took from about 0.43 ms to 0.85 ms as the
# host changed speed).  Operation times are reported at this speed.
REFERENCE_S = 0.55e-3
RUN_LIMIT_S = 175.0
PROBE = ("import time; start = time.perf_counter(); import oscnet.cli; "
         "oscnet.cli.build_parser(); print(repr(time.perf_counter() - start))")
REFERENCE_PROBE = ("import time; start = time.perf_counter(); import numpy; "
                   "print(repr(time.perf_counter() - start))")

sys.path.insert(0, BENCH)
import oracle                          # noqa: E402
import workloads                       # noqa: E402


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _child_seconds(code):
    out = subprocess.run([sys.executable, "-c", code], env=child_env(),
                         capture_output=True, text=True, timeout=60)
    if out.returncode:
        fail(f"a set-up probe failed:\n{out.stderr}")
    return float(out.stdout)


def setup_seconds():
    """Median time from a fresh interpreter to a ready CLI, over several
    interpreters, at the reference speed.  Each probe is scaled by the time
    a fresh interpreter takes to import numpy alone, measured just before
    and just after it: import times follow the host's speed far more
    closely than the worker's reference kernel does.  The first probe,
    which may compile bytecode, is discarded."""
    samples = []
    before = _child_seconds(REFERENCE_PROBE)
    for _ in range(SETUP_PROBES + 1):
        probe = _child_seconds(PROBE)
        after = _child_seconds(REFERENCE_PROBE)
        samples.append(probe * REFERENCE_IMPORT_S / (0.5 * (before + after)))
        before = after
    return statistics.median(samples[1:])


def run_worker(ops, workdir, seconds, trace, deadline):
    outdir = os.path.join(workdir, "outputs")
    os.makedirs(outdir)
    plan = {"src": SRC, "ops": ops, "outdir": outdir, "seconds": seconds,
            "trace": bool(trace), "trace_path": os.path.join(workdir, "spans.json")}
    plan_path = os.path.join(workdir, "plan.json")
    result_path = os.path.join(workdir, "worker.json")
    with open(plan_path, "w") as fh:
        json.dump(plan, fh)
    with open(os.path.join(workdir, "worker.log"), "w") as log:
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH, "worker.py"), plan_path, result_path],
                env=child_env(), stdout=log, stderr=log,
                timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            fail("the worker ran past the time limit")
    if proc.returncode:
        with open(os.path.join(workdir, "worker.log")) as log:
            fail(f"the worker failed:\n{log.read()[-4000:]}")
    with open(result_path) as fh:
        return json.load(fh), outdir


def check_outputs(ops, codes, outdir):
    """Oracle checks of the first pass.  Every output is checked, also that
    of an operation which exited 3 (the routes disagree).  Returns
    (problems, notes)."""
    problems = []
    notes = {"undecided": 0, "abstained": 0, "steps": 0}
    for k, (op, code) in enumerate(zip(ops, codes)):
        config, check = op["argv"][1], op["check"]
        path = os.path.join(outdir, f"first-{k}")
        if code not in (0, 3) or not os.path.exists(path):
            problems.append(f"op {k} ({os.path.basename(config)}): exit code {code}, "
                            "no output to check")
            continue
        with open(path) as fh:
            text = fh.read()
        if check["name"] == "analyze":
            expected = None
            if "same_verdict_as" in check:
                original = oracle.load_system(check["same_verdict_as"])
                expected = oracle.spectrum_truth(original.gamma(), original.n)[0]
            found = oracle.check_analyze(config, text, code, expected,
                                         spectral_fault="rescale" in check)
            sysm = oracle.load_system(config)
            notes["undecided"] += oracle.spectrum_truth(sysm.gamma(), sysm.n)[0] is None
            notes["abstained"] += '"indeterminate"' in text
        elif check["name"] == "sweep":
            argv = op["argv"]
            found = oracle.check_sweep(
                config, text, float(argv[argv.index("--eps-min") + 1]),
                float(argv[argv.index("--eps-max") + 1]),
                int(argv[argv.index("--eps-steps") + 1]))
        else:
            argv = op["argv"]
            seed = int(argv[argv.index("--seed") + 1]) if "--seed" in argv else None
            found = oracle.check_simulate(config, text, check["mode"], seed)
            notes["steps"] += oracle.trace_steps(text)
        if code and check["name"] != "analyze":
            found.append(f"exit code {code}")
        problems += [f"op {k} ({os.path.basename(config)}): {p}" for p in found]
    return problems, notes


def calibrated(latencies, references, inside):
    """Operation times at the reference speed: each time scaled by
    REFERENCE_S over the mean of the reference timings around it and, for
    an operation longer than the worker's sampling interval, inside it."""
    return [[t * REFERENCE_S / statistics.fmean([ref[k], *ins[k], ref[k + 1]])
             for k, t in enumerate(lat)]
            for lat, ref, ins in zip(latencies, references, inside)]


def _rates(passes):
    """(median over passes of operations per second, median latency)."""
    flat = [t for one_pass in passes for t in one_pass]
    return (statistics.median(len(p) / sum(p) for p in passes),
            statistics.median(flat))


def end_to_end(result, setup_s, notes):
    raw = result["latencies"]
    passes = calibrated(raw, result["references"], result["inside"])
    ops_per_s, p50 = _rates(passes)
    metrics = {"setup_s": (setup_s, "s"),
               "ops_per_s": (ops_per_s, "1/s"),
               "op_p50_ms": (1e3 * p50, "ms"),
               "peak_rss_mb": (result["peak_rss_mb"], "MB")}
    flat = [t for one_pass in passes for t in one_pass]
    raw_ops_per_s, raw_p50 = _rates(raw)
    refs = [r for one_pass in result["references"] for r in one_pass]
    extra = {"samples": len(flat), "passes": len(passes),
             "raw_ops_per_s": raw_ops_per_s, "raw_op_p50_ms": 1e3 * raw_p50,
             "host_speed": REFERENCE_S / statistics.median(refs)}
    if len(flat) >= 200:    # ten samples beyond the 95th percentile
        extra["op_p95_ms"] = 1e3 * statistics.quantiles(flat, n=20)[18]
    if notes["steps"]:
        extra["steps_per_s"] = notes["steps"] * len(passes) / sum(flat)
    return metrics, extra


def per_layer(result, ops, names):
    totals, counters = result["totals"], result["counters"]
    passes = calibrated(result["latencies"], result["references"], result["inside"])
    untraced_pass = sum(map(sum, passes)) / len(passes)
    traced = result["traced_latencies"]
    traced_pass = sum(calibrated([traced], [result["traced_references"]],
                                 [[[]] * len(traced)])[0])
    metrics = {}
    for name, unit in names:
        base, _, kind = name.rpartition(".")
        if name == "trace.overhead_pct":
            value = 100.0 * (traced_pass / untraced_pass - 1.0)
        elif kind in ("calls", "self_s", "total_s"):
            value = totals.get(base, [0, 0.0, 0.0])[("calls", "self_s", "total_s").index(kind)]
        elif kind == "calls_per_op":
            value = totals.get(base, [0])[0] / len(ops)
        else:
            value = counters.get(name, 0)
        metrics[name] = (value, unit)
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    if args.seed < 0:
        fail("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "oscnet", "cli.py")):
        fail(f"no oscnet source tree at {SRC}")
    with open(SPEC) as fh:
        spec = json.load(fh)

    workdir = os.path.join(BENCH, ".work", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    setup_s = None if args.trace else setup_seconds()
    ops = workloads.generate(args.workload, args.seed, os.path.join(workdir, "inputs"))
    result, outdir = run_worker(ops, workdir, args.seconds, args.trace, deadline)

    codes = result["codes"]
    problems, notes = check_outputs(ops, codes[0], outdir)
    if any(c != codes[0] for c in codes):
        problems.append("exit codes differ between passes")
    if result["mismatches"]:
        problems.append(f"{result['mismatches']} outputs differ from the first pass")
    failed = [k for k, code in enumerate(codes[0]) if code != 0]
    for k in failed:
        print(f"bench: op {k} ({os.path.basename(ops[k]['argv'][1])}) "
              f"exited {codes[0][k]}", file=sys.stderr)
    for p in problems:
        print(f"bench: check failed: {p}", file=sys.stderr)

    if args.trace:
        metrics = per_layer(result, ops, [(m["name"], m["unit"]) for m in spec["per_layer"]])
        extra = {}
    else:
        metrics, extra = end_to_end(result, setup_s, notes)
    line = {"correct": not problems,
            "attempted": len(ops) * len(codes),
            "failed": len(failed) * len(codes),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(os.path.join(workdir, "result.json"), "w") as fh:
        json.dump(dict(line, extra=extra, notes=notes, problems=problems,
                       seed=args.seed, workload=args.workload), fh, indent=1)
    shutil.rmtree(outdir)
    print(f"bench: {args.workload} seed {args.seed}: {extra} {notes}", file=sys.stderr)
    print(json.dumps(line))


if __name__ == "__main__":
    main()
