"""Command-line front end.

Subcommands: ``analyze`` (verdicts from both decision routes plus modal
diagnostics, JSON), ``simulate`` (trace CSV), ``bound`` (weak-coupling
radius, JSON), and ``sweep`` (margin versus coupling strength, CSV).
Exit codes: 0 success, 1 invalid model or config, 2 numerical failure,
3 disagreement between the two decision routes.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys as _sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .criteria import (CLUSTER_GAP_TOL, VERDICT_TOL, commensurable_check,
                       harmonic_check, pure_dissipative_check,
                       sync_check_spectral, sync_check_subspace,
                       weak_coupling_bound)
from .errors import (ConfigError, InvalidInputError, InvalidModelError,
                     NumericalFailureError, OscnetError,
                     UnsupportedConfigurationError)
from .linalg import DEFAULT_RANK_TOL
from .model import (CouplingEdge, CouplingGraph, OscillatorModel,
                    _check_placement, build_mass_spring_chain,
                    commensurable_graph, normalize)
from .simulate import (counterexample_ic, default_time_step, integrate,
                       random_initial_state)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NUMERICAL = 2
EXIT_DISCREPANCY = 3


def _matrix(value, name, errors):
    try:
        m = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        errors.append(f"{name}: not a numeric matrix")
        return None
    if m.ndim != 2 or m.size == 0:
        errors.append(f"{name}: expected a nonempty 2-d matrix")
        return None
    if not np.all(np.isfinite(m)):
        errors.append(f"{name}: entries must be finite")
        return None
    return m


def _edges(entries, field, q, errors):
    out = []
    if not isinstance(entries, list):
        errors.append(f"{field}: expected a list of edges")
        return out
    for pos, entry in enumerate(entries):
        where = f"{field}[{pos}]"
        if not isinstance(entry, dict) or not {"i", "j", "W"} <= set(entry):
            errors.append(f"{where}: each edge needs keys i, j, W")
            continue
        w = _matrix(entry["W"], f"{where}.W", errors)
        if w is None:
            continue
        i, j = entry["i"], entry["j"]
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in (i, j)):
            errors.append(f"{where}: i and j must be integers")
            continue
        try:
            edge = CouplingEdge(i, j, w)
            _check_placement(edge, q)
        except InvalidModelError as exc:
            errors.append(str(exc))
            continue
        out.append(edge)
    return out


def parse_config(path):
    """Load and validate a model configuration file.

    Returns ``(OscillatorModel, CouplingGraph)``; on failure raises
    :class:`ConfigError` carrying every problem found, not just the first.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError([f"{path}: {exc.strerror or exc}"])
    except json.JSONDecodeError as exc:
        raise ConfigError(
            [f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"])
    if not isinstance(raw, dict):
        raise ConfigError([f"{path}: top level must be a JSON object"])

    errors = []
    q = raw.get("q")
    if not isinstance(q, int) or q < 1:
        errors.append("q: required positive integer")
        q = 1

    has_mk = "M" in raw or "K" in raw
    has_chain = "chain" in raw
    model = None
    if has_mk == has_chain:
        errors.append("exactly one of (M, K) or chain must be present")
    elif has_mk:
        m = _matrix(raw.get("M"), "M", errors) if "M" in raw else None
        k = _matrix(raw.get("K"), "K", errors) if "K" in raw else None
        if "M" not in raw or "K" not in raw:
            errors.append("M and K must both be present")
        elif m is not None and k is not None:
            try:
                model = OscillatorModel(m, k)
            except InvalidModelError as exc:
                errors.append(str(exc))
    else:
        chain = raw["chain"]
        if not isinstance(chain, dict) or not {"masses", "springs"} <= set(chain):
            errors.append("chain: needs keys masses and springs")
        else:
            try:
                model = build_mass_spring_chain(chain["masses"], chain["springs"])
            except (InvalidModelError, TypeError, ValueError) as exc:
                errors.append(f"chain: {exc}")
    if model is not None and "n" in raw and raw["n"] != model.n:
        errors.append(f"n is {raw['n']} but the model has n={model.n}")

    epsilon = raw.get("epsilon", 1.0)
    if not isinstance(epsilon, (int, float)) or not math.isfinite(epsilon) or epsilon < 0:
        errors.append("epsilon: must be a finite number >= 0")
        epsilon = 1.0

    graph = None
    if "commensurable" in raw:
        if raw.get("dissipative") or raw.get("restorative"):
            errors.append("give either explicit edge lists or commensurable data, not both")
        cm = raw["commensurable"]
        needed = {"C_d", "C_r", "d", "r"}
        if not isinstance(cm, dict) or not needed <= set(cm):
            errors.append("commensurable: needs keys C_d, C_r, d, r")
        else:
            c_d = _matrix(cm["C_d"], "commensurable.C_d", errors)
            c_r = _matrix(cm["C_r"], "commensurable.C_r", errors)
            d = _matrix(cm["d"], "commensurable.d", errors)
            r = _matrix(cm["r"], "commensurable.r", errors)
            if all(x is not None for x in (c_d, c_r, d, r)):
                try:
                    graph = commensurable_graph(c_d, c_r, d, r, epsilon)
                except InvalidModelError as exc:
                    errors.append(f"commensurable: {exc}")
    else:
        dissipative = _edges(raw.get("dissipative", []), "dissipative", q, errors)
        restorative = _edges(raw.get("restorative", []), "restorative", q, errors)
        try:
            graph = CouplingGraph(q, tuple(dissipative), tuple(restorative), epsilon)
        except InvalidModelError as exc:
            errors.append(str(exc))
    if graph is not None and graph.q != q:
        errors.append(f"q is {q} but the coupling data implies q={graph.q}")
    if model is not None and graph is not None and graph.n not in (None, model.n):
        errors.append(f"coupling weights are {graph.n}x{graph.n} "
                      f"but the model has n={model.n}")

    if errors:
        raise ConfigError(errors)
    return model, graph


def write_config(model, graph, path):
    """Write a configuration file that parses back to the same matrices."""
    doc = {"n": model.n, "q": graph.q,
           "M": model.mass.tolist(), "K": model.stiffness.tolist(),
           "epsilon": graph.epsilon}
    if graph.commensurable is not None:
        cc = graph.commensurable
        doc["commensurable"] = {"C_d": cc.c_dissipative.tolist(),
                                "C_r": cc.c_restorative.tolist(),
                                "d": cc.d_scalars.tolist(),
                                "r": cc.r_scalars.tolist()}
    else:
        doc["dissipative"] = [
            {"i": e.i, "j": e.j, "W": e.weight.tolist()} for e in graph.dissipative]
        doc["restorative"] = [
            {"i": e.i, "j": e.j, "W": e.weight.tolist()} for e in graph.restorative]
    with open(path, "w") as fh:
        fh.write(dumps_json(doc))
        fh.write("\n")


def _fmt_number(x):
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if not math.isfinite(x):
        return "null"
    return format(x, ".17g")


def dumps_json(obj, indent=0):
    """JSON text with every float at 17 significant digits."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (bool, int, float, np.integer, np.floating)):
        return _fmt_number(obj)
    if isinstance(obj, np.ndarray):
        return dumps_json(obj.tolist(), indent)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [dumps_json(v, indent + 1) for v in obj]
        if all("\n" not in s and len(s) < 24 for s in items):
            return "[" + ", ".join(items) + "]"
        return "[\n" + ",\n".join(inner + s for s in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{json.dumps(str(k))}: {dumps_json(v, indent + 1)}"
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(inner + s for s in items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def build_report(model, graph, tol=VERDICT_TOL):
    """Full analysis report for one configuration (plain dict)."""
    system = normalize(model, graph)
    spectral = sync_check_spectral(system, tol=tol)
    subspace = sync_check_subspace(system)
    if "indeterminate" in (spectral.synchronizes, subspace.synchronizes):
        contradiction = {"yes", "no"} <= {spectral.synchronizes,
                                          subspace.synchronizes}
        status = "discrepancy" if contradiction else "indeterminate"
    elif (spectral.synchronizes == subspace.synchronizes
          and spectral.imaginary_axis_count == subspace.imaginary_axis_count):
        status = "ok"
    else:
        status = "discrepancy"
    report = {
        "tool": {"name": "oscnet", "version": __version__},
        "model": {"q": system.q, "n": system.n,
                  "freqs_sq": system.freqs_sq.tolist(),
                  "epsilon": graph.epsilon},
        "tolerances": {"verdict": tol, "rank": DEFAULT_RANK_TOL,
                       "cluster": CLUSTER_GAP_TOL},
        "verdicts": {"spectral": asdict(spectral), "subspace": asdict(subspace)},
        "status": status,
    }
    springs = np.any(system.lap_restorative)
    if system.q > 1:
        report["modal_blocks"] = {
            "lambda2_dissipative": system.modal.dissipative_spectra[:, 1],
            "re_lambda2_combined": system.modal.combined_real[:, 1]}
    if system.n == 1:
        report["verdicts"]["harmonic"] = asdict(harmonic_check(system, tol=tol))
    if not springs:
        report["verdicts"]["pure_dissipative"] = asdict(
            pure_dissipative_check(system, tol=tol))
    if system.n >= 2 and springs:
        report["weak_coupling"] = weak_coupling_bound(system).to_dict()
    if graph.commensurable is not None:
        report["commensurable"] = asdict(commensurable_check(system, tol=tol))
    return report


def _cmd_analyze(args):
    model, graph = parse_config(args.config)
    report = build_report(model, graph, tol=args.tol)
    text = dumps_json(report) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        _sys.stdout.write(text)
    spectral = report["verdicts"]["spectral"]["synchronizes"]
    print(f"verdict: {spectral} "
          f"(margin {report['verdicts']['spectral']['margin']})", file=_sys.stderr)
    if report["status"] == "discrepancy":
        print("error: the two decision routes disagree", file=_sys.stderr)
        return EXIT_DISCREPANCY
    return EXIT_OK


def _cmd_simulate(args):
    model, graph = parse_config(args.config)
    system = normalize(model, graph)
    seed = args.seed
    if args.counterexample:
        mode = counterexample_ic(system)
        if mode is None:
            print("system synchronizes; no counterexample trajectory exists",
                  file=_sys.stderr)
            return EXIT_OK
        z0, v0 = mode.shape, np.zeros_like(mode.shape)
        t_final = args.t_final if args.t_final is not None else 5.0 * mode.period
        dt = args.dt
        if dt is None:
            # land period multiples exactly on the grid
            dt = mode.period / max(1, round(mode.period / default_time_step(system)))
        seed = None
    else:
        z0, v0 = random_initial_state(system, seed)
        t_final = args.t_final if args.t_final is not None else 50.0
        dt = args.dt
    trace = integrate(system, z0, v0, t_final, dt=dt, seed=seed)
    trace.to_csv(args.out)
    print(f"wrote {trace.times.size} samples to {args.out}", file=_sys.stderr)
    return EXIT_OK


def _cmd_bound(args):
    model, graph = parse_config(args.config)
    system = normalize(model, graph)
    text = dumps_json(weak_coupling_bound(system).to_dict()) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        _sys.stdout.write(text)
    return EXIT_OK


def _cmd_sweep(args):
    model, graph = parse_config(args.config)
    system = normalize(model, graph)
    if args.eps_steps < 1 or args.eps_min < 0 or args.eps_max < args.eps_min:
        raise InvalidInputError("sweep needs 0 <= eps-min <= eps-max and eps-steps >= 1")
    grid = np.linspace(args.eps_min, args.eps_max, args.eps_steps)
    rows = []
    for e in grid:
        verdict = sync_check_spectral(system, eps=float(e))
        rows.append((float(e), verdict.margin, verdict.synchronizes))
    with open(args.out, "w", newline="") as fh:
        fh.write("eps,margin,verdict\n")
        for e, margin, verdict in rows:
            fh.write(f"{format(e, '.17g')},{format(margin, '.17g')},{verdict}\n")
    print(f"wrote {len(rows)} rows to {args.out}", file=_sys.stderr)
    return EXIT_OK


@functools.cache
def build_parser():
    """The command-line parser, built once per process and shared."""
    parser = argparse.ArgumentParser(
        prog="oscnet",
        description="Synchronization analysis for arrays of identical "
                    "coupled linear oscillators.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="run both decision routes and report")
    p.add_argument("config")
    p.add_argument("--tol", type=float, default=VERDICT_TOL,
                   help="relative on-axis tolerance (default %(default)g)")
    p.add_argument("--out", default=None, help="report path (default: stdout)")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("simulate", help="integrate the array and write a trace")
    p.add_argument("config")
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--t-final", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--counterexample", action="store_true",
                   help="start from the certified non-synchronizing mode")
    p.add_argument("--out", default="trace.csv")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("bound", help="weak-coupling radius and its ingredients")
    p.add_argument("config")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("sweep", help="margin and verdict over a coupling grid")
    p.add_argument("config")
    p.add_argument("--eps-min", type=float, required=True)
    p.add_argument("--eps-max", type=float, required=True)
    p.add_argument("--eps-steps", type=int, required=True)
    p.add_argument("--out", default="sweep.csv")
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=_sys.stderr)
        return EXIT_INVALID
    except (InvalidModelError, InvalidInputError,
            UnsupportedConfigurationError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_INVALID
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=_sys.stderr)
        return EXIT_NUMERICAL
    except OscnetError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
