"""Closed-loop driver: one caller runs each operation after the previous one
ends, through ``oscnet.cli.main`` only.

Usage: python3 bench/worker.py PLAN.json RESULT.json

The plan names the source tree, the operations, the output directory and
the run length.  The first pass writes every output to its own file for
the oracle; later passes overwrite one scratch file per operation and must
reproduce the first pass byte for byte.  The reference kernel is timed
before the first operation of a pass and after every operation, and in
timed passes also every SAMPLE_S seconds inside an operation that runs
longer (from a SIGALRM handler whose own time is taken off the
operation's), so each operation's time can be set against the host's
speed around and during it.  Passes are whole: another starts only if it
is expected to end within the run length.  With tracing on, one more pass
runs under the tracer after the timed passes, without samples inside
operations so that no span holds them.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import resource
import signal
import sys
import time

# Interval of the reference timings inside a long operation.  Operations
# shorter than this are never interrupted.
SAMPLE_S = 0.1


def reference_seconds(matrix):
    """Best of three timings of a fixed kernel: Python-level column rotations
    on a 16 x 16 array, the kind of work the program's eigen kernels do.  Its
    time follows the speed the host gives this process at the moment."""
    best = math.inf
    for _ in range(3):
        w = matrix.copy()
        start = time.perf_counter()
        for p in range(15):
            for r in range(p + 1, 16):
                cp, cr = w[:, p].copy(), w[:, r].copy()
                w[:, p] = 0.8 * cp - 0.6 * cr
                w[:, r] = 0.6 * cp + 0.8 * cr
        best = min(best, time.perf_counter() - start)
    return best


def _digest(path):
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def main(plan_path, result_path):
    with open(plan_path) as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    import numpy as np
    import oscnet.cli
    if not os.path.abspath(oscnet.cli.__file__).startswith(plan["src"] + os.sep):
        raise SystemExit(f"imported {oscnet.cli.__file__}, not the tree under test")

    ops, outdir = plan["ops"], plan["outdir"]
    devnull = open(os.devnull, "w")

    matrix = np.random.default_rng(0).standard_normal((16, 16))
    inside, spent = [], [0.0]

    def sample(signum, frame):
        start = time.perf_counter()
        inside.append(reference_seconds(matrix))
        spent[0] += time.perf_counter() - start

    signal.signal(signal.SIGALRM, sample)

    def run(k, out, sampled=False):
        """(seconds without the in-operation samples, exit code, samples)."""
        argv = ops[k]["argv"] + ["--out", out]
        inside.clear()
        spent[0] = 0.0
        with contextlib.redirect_stderr(devnull):
            if sampled:
                signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
            start = time.perf_counter()
            try:
                code = oscnet.cli.main(argv)
            except SystemExit as exc:     # argparse rejects the arguments
                code = exc.code
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                seconds = time.perf_counter() - start
            return seconds - spent[0], code, list(inside)

    run(0, os.path.join(outdir, "warmup"))
    for _ in range(10):
        reference_seconds(matrix)

    latencies, references, samples, codes, first, mismatches = [], [], [], [], [], 0
    while True:
        pass_no = len(latencies)
        lat, ref, ins, cod = [], [reference_seconds(matrix)], [], []
        for k in range(len(ops)):
            out = os.path.join(outdir, f"{'first' if pass_no == 0 else 'again'}-{k}")
            seconds, code, during = run(k, out, sampled=True)
            ref.append(reference_seconds(matrix))
            lat.append(seconds)
            ins.append(during)
            cod.append(code)
            digest = _digest(out)
            if pass_no == 0:
                first.append(digest)
            elif digest != first[k]:
                mismatches += 1
        latencies.append(lat)
        references.append(ref)
        samples.append(ins)
        codes.append(cod)
        timed = sum(map(sum, latencies))
        if timed + timed / len(latencies) > plan["seconds"]:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"latencies": latencies, "references": references, "inside": samples,
              "codes": codes, "mismatches": mismatches, "peak_rss_mb": peak_rss_mb}
    if plan["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        lat, ref = [], [reference_seconds(matrix)]
        for k in range(len(ops)):
            tracer.op = k
            out = os.path.join(outdir, f"traced-{k}")
            seconds, code, _ = run(k, out)
            ref.append(reference_seconds(matrix))
            lat.append(seconds)
            if code != codes[0][k] or _digest(out) != first[k]:
                mismatches += 1
            if ops[k]["argv"][0] == "analyze":
                tracer.add("cli.report_bytes", os.path.getsize(out))
        result["traced_latencies"], result["traced_references"] = lat, ref
        result["mismatches"] = mismatches
        result["totals"] = tracer.totals()
        result["counters"] = tracer.counters
        tracer.dump(plan["trace_path"])
    devnull.close()
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(*sys.argv[1:3])
