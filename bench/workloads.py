"""Seeded inputs for the benchmark workloads.

Each workload is a fixed schedule of operation slots.  The seed draws only
the numbers inside a slot (unit matrices, edge weights, random starts and,
on desk-analyze, which node pairs carry an edge), never the slot's shape or
kind, so every seed times the same mix of sizes and operations.
Configurations are written as JSON with ``repr`` floats, so the program and
the oracle read identical doubles.

An operation is a dict: ``argv`` is the ``oscnet.cli.main`` argument list
without ``--out``; ``check`` names the oracle check and carries what it needs
beyond the configuration file.
"""

from __future__ import annotations

import itertools
import json
import os

import numpy as np

import oracle

WORKLOADS = ("desk-analyze", "array-analyze", "eps-sweep", "sim-trace")

# Time rescaling t -> t / sqrt(s) maps K -> sK, dampers -> sqrt(s) D and
# springs -> sR without changing whether the array synchronizes.
RESCALE_FACTORS = (1e-20, 1e20)

SWEEP_GRID = ("0", "2", "12")      # --eps-min, --eps-max, --eps-steps


def _sym(a):
    return 0.5 * (a + a.T)


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _unit(rng, n):
    """Unit (M, K) with squared natural frequencies at least 0.4 apart."""
    freqs = 0.5 + np.cumsum(rng.uniform(0.4, 1.6, n))
    shapes = _orthogonal(rng, n)
    p = (shapes * freqs) @ shapes.T
    a = 0.4 * rng.standard_normal((n, n))
    mass = _sym(a @ a.T + (0.6 + rng.uniform()) * np.eye(n))
    w, u = np.linalg.eigh(mass)
    root = (u * np.sqrt(w)) @ u.T
    return mass, _sym(root @ p @ root)


def _weight(rng, n, rank):
    """PSD weight of the given rank; full-rank weights get a floor of 0.2."""
    f = rng.standard_normal((n, rank))
    w = f @ f.T / rank
    if rank == n:
        w += 0.2 * np.eye(n)
    return _sym(w)


def _tree(rng, nodes):
    """Edges of a random spanning tree on ``nodes``."""
    order = [int(x) for x in rng.permutation(nodes)]
    return [tuple(sorted((order[k], order[int(rng.integers(0, k))])))
            for k in range(1, len(order))]


def _spring_pairs(rng, q):
    """A spanning tree on all q nodes, so springs join every damper group."""
    return sorted(_tree(rng, list(range(1, q + 1))))


def _damper_pairs(rng, q, connected):
    """Connected: a spanning tree plus one extra pair when q > 2.
    Disconnected: spanning trees on two node groups of fixed sizes."""
    nodes = list(range(1, q + 1))
    if connected:
        pairs = _tree(rng, nodes)
        spare = [p for p in itertools.combinations(nodes, 2) if p not in pairs]
        if q > 2:
            pairs.append(spare[int(rng.integers(0, len(spare)))])
        return sorted(pairs)
    perm = [int(x) for x in rng.permutation(nodes)]
    cut = q // 2
    return sorted(_tree(rng, perm[:cut]) + _tree(rng, perm[cut:]))


def _edges(rng, pairs, n, full_rank):
    """Edge list; without full rank, edge k gets rank 1 + k mod n."""
    return [{"i": i, "j": j,
             "W": _weight(rng, n, n if full_rank else 1 + k % n).tolist()}
            for k, (i, j) in enumerate(pairs)]


def _scalar_graph(rng, q, pairs):
    s = np.zeros((q, q))
    for i, j in pairs:
        s[i - 1, j - 1] = s[j - 1, i - 1] = rng.uniform(0.5, 2.0)
    return s.tolist()


def _config(rng, q, n, kind, graph_rng=None):
    """One configuration of the given kind (see DESK_KINDS).  ``graph_rng``,
    when given, draws which node pairs carry edges instead of ``rng``."""
    graph_rng = graph_rng or rng
    doc = {"n": n, "q": q}
    if kind.startswith("chain"):
        doc["chain"] = {"masses": rng.uniform(0.5, 2.0, n).tolist(),
                        "springs": rng.uniform(0.5, 2.0, n + 1).tolist()}
    else:
        mass, stiffness = _unit(rng, n)
        doc["M"], doc["K"] = mass.tolist(), stiffness.tolist()
    connected = "disconnected" not in kind
    springs = "springs" in kind
    if kind.startswith("commensurable"):
        d_pairs = _damper_pairs(graph_rng, q, True)
        r_pairs = _spring_pairs(graph_rng, q) if springs else []
        doc["commensurable"] = {
            "C_d": rng.standard_normal((max(1, n - 1), n)).tolist(),
            "C_r": rng.standard_normal((1 + n // 2, n)).tolist(),
            "d": _scalar_graph(rng, q, d_pairs),
            "r": _scalar_graph(rng, q, r_pairs)}
        return doc
    full_rank = "full" in kind
    d_pairs = _damper_pairs(graph_rng, q, connected)
    r_pairs = _spring_pairs(graph_rng, q) if springs else []
    doc["dissipative"] = _edges(rng, d_pairs, n, full_rank)
    doc["restorative"] = _edges(rng, r_pairs, n, full_rank)
    return doc


def _decisive(rng, q, n, kind, graph_rng=None):
    """A configuration the oracle can decide: no eigenvalue of Gamma has a
    real part between the on- and off-axis thresholds.  Inside that band
    the two decision routes can count a weakly damped mode differently and
    ``analyze`` then fails on some seeds only, so such draws are redrawn."""
    for _ in range(100):
        doc = _config(rng, q, n, kind, graph_rng)
        system = oracle.System(doc)
        if oracle.spectrum_truth(system.gamma(), n)[1] is not None:
            return doc
    raise RuntimeError(f"no decisive draw for {q} x {n} {kind}")


DESK_KINDS = (
    "full-dampers", "full-dampers+springs",
    "rank-dampers", "rank-dampers+springs",
    "disconnected", "disconnected+springs",
    "commensurable", "commensurable+springs",
    "chain-rank-dampers+springs", "chain-disconnected+springs",
)

# Synchronizing members whose time-rescaled copies are analyzed; drawn from
# a fixed seed so the copies are the same in every run.
RESCALED_SHAPES = ((3, 2), (4, 3), (5, 2), (3, 4))


def rescale(doc, s):
    """Time-rescaled copy of an explicit-edge configuration."""
    out = dict(doc)
    out["K"] = (s * np.asarray(doc["K"])).tolist()
    out["dissipative"] = [dict(e, W=(np.sqrt(s) * np.asarray(e["W"])).tolist())
                          for e in doc["dissipative"]]
    out["restorative"] = [dict(e, W=(s * np.asarray(e["W"])).tolist())
                          for e in doc["restorative"]]
    return out


def _write(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def _desk_analyze(seed, workdir):
    rng = np.random.default_rng([0, seed])
    ops = []
    for q, n, kind in itertools.product(range(2, 7), range(1, 5), DESK_KINDS):
        path = _write(os.path.join(workdir, f"desk-{len(ops):03d}.json"),
                      _decisive(rng, q, n, kind))
        ops.append({"argv": ["analyze", path], "check": {"name": "analyze"}})
    fixed = np.random.default_rng([0, 0, 1])
    for k, (q, n) in enumerate(RESCALED_SHAPES):
        doc = _config(fixed, q, n, "full-dampers+springs")
        original = _write(os.path.join(workdir, f"rescaled-{k}.json"), doc)
        for s in RESCALE_FACTORS:
            path = _write(os.path.join(workdir, f"rescaled-{k}-{s:g}.json"),
                          rescale(doc, s))
            ops.append({"argv": ["analyze", path],
                        "check": {"name": "analyze", "same_verdict_as": original,
                                  "rescale": s}})
    return ops


def _fixed_graph(workload, slot):
    """Edge placement of a slot that is the same for every seed, for the
    workloads whose few operations cannot average out topology effects."""
    return np.random.default_rng([workload, 2**32, slot])


ARRAY_SLOTS = ((12, 4, "full-dampers+springs"), (16, 4, "rank-dampers+springs"),
               (24, 4, "disconnected"))


def _array_analyze(seed, workdir):
    rng = np.random.default_rng([1, seed])
    ops = []
    for k, (q, n, kind) in enumerate(ARRAY_SLOTS):
        path = _write(os.path.join(workdir, f"array-{k}.json"),
                      _decisive(rng, q, n, kind, _fixed_graph(1, k)))
        ops.append({"argv": ["analyze", path], "check": {"name": "analyze"}})
    return ops


# Dampers leave the array split in two, so at eps = 0 it cannot synchronize;
# springs joining the halves make it synchronize for every eps > 0 on the grid.
SWEEP_SHAPES = ((3, 2), (3, 3), (4, 3), (6, 2), (4, 4))


def _eps_sweep(seed, workdir):
    rng = np.random.default_rng([2, seed])
    ops = []
    for k, (q, n) in enumerate(SWEEP_SHAPES):
        path = _write(os.path.join(workdir, f"sweep-{k}.json"),
                      _config(rng, q, n, "disconnected+springs", _fixed_graph(2, k)))
        lo, hi, steps = SWEEP_GRID
        ops.append({"argv": ["sweep", path, "--eps-min", lo, "--eps-max", hi,
                             "--eps-steps", steps],
                    "check": {"name": "sweep"}})
    return ops


# (q, n, kind): random starts on synchronizing arrays, counterexample starts
# on arrays whose dampers leave modes undamped.  Workloads with few slots use
# an odd number of them, of distinct cost, so the median latency falls inside
# one slot's samples rather than between two.
SIM_SLOTS = ((3, 2, "full-dampers+springs"), (4, 3, "full-dampers+springs"),
             (6, 2, "full-dampers"), (6, 4, "full-dampers+springs"),
             (3, 2, "disconnected"), (4, 3, "disconnected"), (6, 3, "disconnected"))


SIM_STEPS = {"random": 6000, "counterexample": 3000}


def _default_step(doc):
    """The step ``simulate`` takes when given no ``--dt``: a tenth of
    1 / omega_max, at most 0.01."""
    system = oracle.System(doc)
    omega_max = (np.sqrt(np.linalg.eigvalsh(system.stiffness())[-1])
                 + 2.0 * np.linalg.norm(system.lap_d, 2))
    return min(0.01, 0.1 / float(omega_max))


def _counterexample_step(doc):
    """The step ``simulate --counterexample`` takes when given no ``--dt``:
    the default step shortened so that the mode's period is a whole number
    of steps.  With dampers split in two and no springs, every unit mode
    moving in anti-phase between the halves is undamped, so the mode the
    program picks, the fastest, has the top unit frequency.  Returns the
    step and the number of steps per period."""
    period = 2.0 * np.pi / float(np.sqrt(oracle.System(doc).freqs_sq[-1]))
    per_period = max(1, round(period / _default_step(doc)))
    return period / per_period, per_period


def _sim_trace(seed, workdir):
    rng = np.random.default_rng([3, seed])
    ops = []
    for k, (q, n, kind) in enumerate(SIM_SLOTS):
        doc = _config(rng, q, n, kind, _fixed_graph(3, k))
        path = _write(os.path.join(workdir, f"sim-{k}.json"), doc)
        if kind == "disconnected":
            mode, start = "counterexample", ["--counterexample"]
            dt, per_period = _counterexample_step(doc)
            # At least one period, so the trace has a period mark to check.
            steps = max(SIM_STEPS[mode], per_period)
        else:
            mode, dt = "random", _default_step(doc)
            start = ["--seed", str(int(rng.integers(0, 2**31)))]
            steps = SIM_STEPS[mode]
        # The program chooses the step; the horizon, half a step short of
        # ``steps`` steps, is rounded up to whole steps, so every seed
        # integrates as many steps (seeds 0 to 2299 never drew a period
        # longer than SIM_STEPS).
        ops.append({"argv": ["simulate", path, *start,
                             "--t-final", repr((steps - 0.5) * dt)],
                    "check": {"name": "simulate", "mode": mode}})
    return ops


GENERATORS = {"desk-analyze": _desk_analyze, "array-analyze": _array_analyze,
              "eps-sweep": _eps_sweep, "sim-trace": _sim_trace}


def generate(workload, seed, workdir):
    """Write the workload's configurations into ``workdir``; return its ops."""
    os.makedirs(workdir, exist_ok=True)
    return GENERATORS[workload](seed, workdir)


if __name__ == "__main__":
    # python3 bench/workloads.py WORKLOAD SEED DIR: write the inputs, print the ops.
    import sys
    for op in generate(sys.argv[1], int(sys.argv[2]), sys.argv[3]):
        print(json.dumps(op))
