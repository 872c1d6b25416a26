"""Independent checks of the program's outputs.

Everything here is rebuilt from the raw configuration file with
``numpy.linalg`` (LAPACK) and never imports ``oscnet``.  The truth of "does
the array synchronize" is the count of eigenvalues of Gamma = L_d + jS with
zero real part, decided relative to ||Gamma||_2:

* a real part at most ``ON_AXIS * ||Gamma||_2`` is on the axis;
* one at least ``OFF_AXIS * ||Gamma||_2`` is off it;
* one in between leaves the case undecided, and only the report's
  agreement with itself is checked.

LAPACK's eigenvalues of these small, well-scaled matrices are accurate to
about 1e-15 ||Gamma||_2, so values the program reports are compared within
``MATCH * ||Gamma||_2``.
"""

from __future__ import annotations

import json
import math

import numpy as np

ON_AXIS = 1e-10
OFF_AXIS = 1e-6
MATCH = 1e-9


class System:
    """Mass-normalized matrices of one configuration file."""

    def __init__(self, doc):
        if "chain" in doc:
            masses = np.asarray(doc["chain"]["masses"], dtype=float)
            springs = np.asarray(doc["chain"]["springs"], dtype=float)
            mass = np.diag(masses)
            stiffness = (np.diag(springs[:-1] + springs[1:])
                         - np.diag(springs[1:-1], 1) - np.diag(springs[1:-1], -1))
        else:
            mass = np.asarray(doc["M"], dtype=float)
            stiffness = np.asarray(doc["K"], dtype=float)
        self.q, self.n = int(doc["q"]), mass.shape[0]
        self.epsilon = float(doc.get("epsilon", 1.0))
        w, u = np.linalg.eigh(mass)
        self.m_inv_sqrt = (u / np.sqrt(w)) @ u.T
        p = self.m_inv_sqrt @ stiffness @ self.m_inv_sqrt
        self.p = 0.5 * (p + p.T)
        self.freqs_sq, self.shapes = np.linalg.eigh(self.p)
        self.shapes_physical = self.m_inv_sqrt @ self.shapes
        self.commensurable = doc.get("commensurable")
        if self.commensurable is not None:
            cm = self.commensurable
            c_d, c_r = np.asarray(cm["C_d"], float), np.asarray(cm["C_r"], float)
            d, r = np.asarray(cm["d"], float), np.asarray(cm["r"], float)
            damp = [(i + 1, j + 1, d[i, j] * (c_d.T @ c_d))
                    for i in range(self.q) for j in range(i + 1, self.q) if d[i, j]]
            spring = [(i + 1, j + 1, r[i, j] * (c_r.T @ c_r))
                      for i in range(self.q) for j in range(i + 1, self.q) if r[i, j]]
        else:
            damp = [(e["i"], e["j"], np.asarray(e["W"], float))
                    for e in doc.get("dissipative", [])]
            spring = [(e["i"], e["j"], np.asarray(e["W"], float))
                      for e in doc.get("restorative", [])]
        self.lap_d = self._laplacian(damp)
        self.lap_r = self._laplacian(spring)

    def _laplacian(self, edges):
        n = self.n
        lap = np.zeros((self.q * n, self.q * n))
        for i, j, w in edges:
            w = self.m_inv_sqrt @ w @ self.m_inv_sqrt
            a, b = (i - 1) * n, (j - 1) * n
            lap[a:a + n, a:a + n] += w
            lap[b:b + n, b:b + n] += w
            lap[a:a + n, b:b + n] -= w
            lap[b:b + n, a:a + n] -= w
        return lap

    def stiffness(self, eps=None):
        e = self.epsilon if eps is None else eps
        return np.kron(np.eye(self.q), self.p) + e * self.lap_r

    def gamma(self, eps=None):
        return self.lap_d + 1j * self.stiffness(eps)

    def mode_block(self, lap, k):
        """q x q block of a Laplacian seen by mode k."""
        basis = np.kron(np.eye(self.q), self.shapes[:, [k]])
        return basis.T @ lap @ basis


def load_system(path):
    with open(path) as fh:
        return System(json.load(fh))


def spectrum_truth(mat, n):
    """Oracle verdict from the eigenvalues of ``mat`` (n guaranteed on axis).

    Returns ``(truth, count, margin, scale)``.  ``truth`` is "no" when more
    than n real parts are on the axis, "yes" when exactly n are and all
    others are off it, and None otherwise.  ``count`` is None when some
    real part sits between the thresholds.
    """
    scale = float(np.linalg.norm(mat, 2))
    re = np.sort(np.linalg.eigvals(mat).real)
    on = re <= ON_AXIS * scale
    gray = bool(np.any(~on & (re < OFF_AXIS * scale)))
    on_count = int(np.count_nonzero(on))
    margin = float(re[n]) if re.size > n else math.inf
    if on_count > n:
        truth = "no"
    else:
        truth = None if gray else "yes"
    return truth, None if gray else on_count, margin, scale


def exact_tokens(tokens):
    """True when every number token is written with 17 significant digits,
    i.e. parses back to a double that prints as the same token."""
    return all(format(float(tok), ".17g") == tok for tok in tokens)


def parse_json(text):
    """Parse a report, keeping the text of every number it holds."""
    tokens = []

    def keep(tok):
        tokens.append(tok)
        return float(tok)
    return json.loads(text, parse_float=keep, parse_int=keep), tokens


def _close(a, b, tol):
    return abs(a - b) <= tol


class Problems(list):
    def need(self, ok, message):
        if not ok:
            self.append(message)


def _check_verdict_consistent(v, n, where, problems):
    """A verdict agrees with its own count, margin and tolerance."""
    if v["margin"] is None or v["synchronizes"] == "indeterminate":
        return
    if v["synchronizes"] == "yes":
        problems.need(v["imaginary_axis_count"] == n,
                      f"{where}: yes with {v['imaginary_axis_count']} on-axis eigenvalues")
    if v["method"] == "spectral":
        problems.need((v["imaginary_axis_count"] > n) == (v["margin"] <= v["tolerance"]),
                      f"{where}: count {v['imaginary_axis_count']} and margin "
                      f"{v['margin']} disagree at tolerance {v['tolerance']}")


def _expected_status(spectral, subspace):
    a, b = spectral["synchronizes"], subspace["synchronizes"]
    if "indeterminate" in (a, b):
        return "discrepancy" if {a, b} == {"yes", "no"} else "indeterminate"
    if a == b and spectral["imaginary_axis_count"] == subspace["imaginary_axis_count"]:
        return "ok"
    return "discrepancy"


def check_analyze(config, text, exit_code, expected_truth=None, spectral_fault=False):
    """Check one ``analyze`` report.  ``expected_truth`` overrides the
    oracle's verdict for inputs whose answer is known by a property.  With
    ``spectral_fault`` the spectral verdict is not compared with the truth:
    on time-rescaled inputs the spectral route's tolerance floor is known to
    flip it.  Everything else, its margin and its agreement with its own
    count and tolerance included, is still checked."""
    problems = Problems()
    sysm = load_system(config)
    n, q = sysm.n, sysm.q
    report, tokens = parse_json(text)
    problems.need(exact_tokens(tokens), "report numbers do not round-trip")
    model = report["model"]
    problems.need(model["q"] == q and model["n"] == n, "model size differs")
    problems.need(model["epsilon"] == sysm.epsilon, "epsilon differs")
    fscale = float(sysm.freqs_sq[-1])
    problems.need(np.allclose(model["freqs_sq"], sysm.freqs_sq, rtol=0, atol=MATCH * fscale),
                  "squared frequencies differ")

    gam = sysm.gamma()
    truth, count, margin, scale = spectrum_truth(gam, n)
    if expected_truth is not None:
        truth = expected_truth
    verdicts = report["verdicts"]
    spectral, subspace = verdicts["spectral"], verdicts["subspace"]
    for name, v in verdicts.items():
        _check_verdict_consistent(v, n, name, problems)
    status = _expected_status(spectral, subspace)
    problems.need(report["status"] == status,
                  f"status {report['status']} but the routes give {status}")
    problems.need(exit_code == (3 if status == "discrepancy" else 0),
                  f"exit code {exit_code} with status {report['status']}")
    problems.need(_close(spectral["margin"], margin, MATCH * scale),
                  f"spectral margin {spectral['margin']} vs oracle {margin}")
    if truth is not None:
        for name in ("subspace",) if spectral_fault else ("spectral", "subspace"):
            v = verdicts[name]
            # The subspace route may abstain when eigenvalue clusters of the
            # position coupling sit too close to separate; that is no error.
            allowed = (truth,) if name == "spectral" else (truth, "indeterminate")
            problems.need(v["synchronizes"] in allowed,
                          f"{name} says {v['synchronizes']}, oracle {truth}")
            if count is not None and expected_truth is None \
                    and v["synchronizes"] != "indeterminate":
                problems.need(v["imaginary_axis_count"] == count,
                              f"{name} count {v['imaginary_axis_count']} vs oracle {count}")
        for name in ("harmonic", "pure_dissipative"):
            if name in verdicts:
                problems.need(verdicts[name]["synchronizes"] in (truth, "indeterminate"),
                              f"{name} says {verdicts[name]['synchronizes']}, oracle {truth}")
    problems.need(("harmonic" in verdicts) == (n == 1), "harmonic verdict presence")
    springs = bool(np.any(sysm.lap_r))
    problems.need(("pure_dissipative" in verdicts) == (not springs),
                  "pure_dissipative verdict presence")

    lam2, comb = [], []
    if q > 1:
        for k in range(n):
            g = sysm.mode_block(sysm.lap_d, k)
            b = sysm.mode_block(sysm.lap_r, k)
            lam2.append(float(np.linalg.eigvalsh(g)[1]))
            comb.append(float(np.sort(np.linalg.eigvals(g + 1j * b).real)[1]))
        blocks = report["modal_blocks"]
        bscale = float(np.linalg.norm(sysm.lap_d, 2) + np.linalg.norm(sysm.lap_r, 2)) or 1.0
        problems.need(np.allclose(blocks["lambda2_dissipative"], lam2, rtol=0,
                                  atol=MATCH * bscale), "per-mode lambda2 differs")
        problems.need(np.allclose(blocks["re_lambda2_combined"], comb, rtol=0,
                                  atol=MATCH * bscale), "per-mode combined margin differs")
    _check_weak_coupling(report, sysm, comb, lam2, problems)
    _check_commensurable(report, sysm, truth, problems)
    return problems


def _check_weak_coupling(report, sysm, comb, lam2, problems):
    expected = sysm.n >= 2 and bool(np.any(sysm.lap_r))
    problems.need(("weak_coupling" in report) == expected, "weak_coupling presence")
    if not expected:
        return
    wc = report["weak_coupling"]
    norm_g = float(np.linalg.norm(sysm.lap_d, 2))
    norm_b = float(np.linalg.norm(sysm.lap_r, 2))
    problems.need(_close(wc["norm_G"], norm_g, MATCH * max(norm_g, 1.0)), "norm_G differs")
    problems.need(_close(wc["norm_B"], norm_b, MATCH * max(norm_b, 1.0)), "norm_B differs")
    sigma = 0.5 * float(np.min(np.diff(sysm.freqs_sq)))
    problems.need(_close(wc["sigma_bar"], sigma, MATCH * sysm.freqs_sq[-1]), "sigma_bar differs")
    problems.need(np.allclose(wc["hypothesis_margins"], comb, rtol=0, atol=MATCH * (norm_g + norm_b)),
                  "hypothesis margins differ")
    problems.need(np.allclose(wc["lambda2_dissipative_blocks"], lam2, rtol=0,
                              atol=MATCH * (norm_g + 1.0)), "block lambda2 differs")


def _check_commensurable(report, sysm, truth, problems):
    problems.need(("commensurable" in report) == (sysm.commensurable is not None),
                  "commensurable block presence")
    if sysm.commensurable is None:
        return
    cm = report["commensurable"]
    for key, c in (("alpha", "C_d"), ("beta", "C_r")):
        prod = np.asarray(sysm.commensurable[c], float) @ sysm.shapes_physical
        energies = np.sum(prod * prod, axis=0)
        problems.need(np.allclose(cm[key], energies, rtol=MATCH, atol=MATCH * energies.max()),
                      f"commensurable {key} differs")
    d = np.asarray(sysm.commensurable["d"], float)
    r = np.asarray(sysm.commensurable["r"], float)
    ell_d, ell_r = np.diag(d.sum(1)) - d, np.diag(r.sum(1)) - r
    if np.any(ell_r):
        scalar = float(np.sort(np.linalg.eigvals(ell_d + 1j * ell_r).real)[1])
    else:
        scalar = float(np.linalg.eigvalsh(ell_d)[1])
    sscale = float(np.linalg.norm(ell_d, 2) + np.linalg.norm(ell_r, 2))
    problems.need(_close(cm["scalar_margin"], scalar, MATCH * sscale), "scalar margin differs")
    if cm["verdict"] is not None and truth is not None:
        problems.need(cm["verdict"]["synchronizes"] in (truth, "indeterminate"),
                      f"commensurable says {cm['verdict']['synchronizes']}, oracle {truth}")


def check_sweep(config, text, eps_min, eps_max, steps):
    """Check one ``sweep`` CSV row by row; the grid must cross a change of
    verdict."""
    problems = Problems()
    sysm = load_system(config)
    lines = text.splitlines()
    problems.need(lines[0] == "eps,margin,verdict", "sweep header")
    rows = [line.split(",") for line in lines[1:]]
    grid = np.linspace(eps_min, eps_max, steps)
    problems.need(len(rows) == steps, f"{len(rows)} sweep rows, expected {steps}")
    problems.need(exact_tokens([x for e, m, _ in rows for x in (e, m)]),
                  "sweep numbers do not round-trip")
    truths = set()
    for (e, m, verdict), eps in zip(rows, grid):
        problems.need(float(e) == eps, f"grid point {e} vs {eps!r}")
        truth, _, margin, scale = spectrum_truth(sysm.gamma(eps), sysm.n)
        problems.need(_close(float(m), margin, MATCH * scale),
                      f"eps {e}: margin {m} vs oracle {margin}")
        if truth is not None:
            truths.add(truth)
            problems.need(verdict == truth, f"eps {e}: {verdict}, oracle {truth}")
    problems.need(truths == {"yes", "no"}, f"grid crosses no change of verdict: {truths}")
    return problems


def read_trace(text):
    """Parse a trace CSV into (seed or None, header, float rows)."""
    lines = text.splitlines()
    seed = None
    if lines[0].startswith("# seed="):
        seed = int(lines[0][len("# seed="):])
        lines = lines[1:]
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return seed, lines[0].split(","), data


def trace_steps(text):
    """Integration steps in a trace CSV (rows after the first)."""
    rows = text.count("\n") - 1 - text.startswith("# seed=")
    return rows - 1


def check_simulate(config, text, mode, seed=None):
    """Check one ``simulate`` trace against the exact linear solution."""
    problems = Problems()
    sysm = load_system(config)
    q, n = sysm.q, sysm.n
    dim = q * n
    csv_seed, header, data = read_trace(text)
    problems.need(csv_seed == seed, f"seed line {csv_seed}, expected {seed}")
    problems.need(header == ["t", "e", "W"] + [f"z_{i + 1}" for i in range(dim)]
                  + [f"v_{i + 1}" for i in range(dim)], "trace header")
    body = text.split("\n", 1 if csv_seed is None else 2)[-1]
    problems.need(exact_tokens(body.replace("\n", ",").rstrip(",").split(",")),
                  "trace numbers do not round-trip")
    t, err, energy = data[:, 0], data[:, 1], data[:, 2]
    z, v = data[:, 3:3 + dim], data[:, 3 + dim:]
    dt = t[1]
    problems.need(np.allclose(t, dt * np.arange(t.size), rtol=1e-12, atol=0), "time grid")
    s = sysm.stiffness()
    blocks = z.reshape(-1, q, n)
    sync = np.linalg.norm((blocks - blocks.mean(axis=1, keepdims=True)).reshape(-1, dim), axis=1)
    problems.need(np.allclose(err, sync, rtol=1e-10, atol=1e-12 * sync[0]), "sync error column")
    w = 0.5 * np.einsum("ki,ij,kj->k", z, s, z) + 0.5 * np.einsum("ki,ki->k", v, v)
    problems.need(np.allclose(energy, w, rtol=1e-10, atol=1e-12 * w[0]), "energy column")
    problems.need(np.max(np.diff(energy)) <= 1e-10 * energy[0], "energy rises")

    # Exact solution of x' = A x, x = (z, v), through A's eigendecomposition.
    a = np.block([[np.zeros((dim, dim)), np.eye(dim)], [-s, -sysm.lap_d]])
    lam, vecs = np.linalg.eig(a)
    x0 = np.concatenate([z[0], v[0]])
    exact = (vecs @ (np.exp(lam * t[-1]) * np.linalg.solve(vecs, x0))).real
    x_end = np.concatenate([z[-1], v[-1]])
    problems.need(np.linalg.norm(x_end - exact) <= 1e-6 * np.linalg.norm(x0),
                  f"endpoint off the exact solution by "
                  f"{np.linalg.norm(x_end - exact) / np.linalg.norm(x0):.3e}")

    truth, _, _, _ = spectrum_truth(sysm.gamma(), n)
    tenth = max(1, t.size // 10)
    if mode == "random":
        problems.need(truth == "yes", f"random start on an array the oracle calls {truth}")
        problems.need(err[-tenth:].max() < 0.5 * err[:tenth].max(), "sync error does not decay")
    else:
        problems.need(truth == "no", f"counterexample on an array the oracle calls {truth}")
        problems.need(not np.any(v[0]), "counterexample starts moving")
        rho = float(z[0] @ s @ z[0] / (z[0] @ z[0]))
        sscale = float(np.linalg.norm(s, 2))
        problems.need(np.linalg.norm(s @ z[0] - rho * z[0]) <= MATCH * sscale * np.linalg.norm(z[0])
                      and np.linalg.norm(sysm.lap_d @ z[0]) <= MATCH * sscale * np.linalg.norm(z[0]),
                      "counterexample start is not an undamped mode")
        problems.need(sync[0] > 0.5 * np.linalg.norm(z[0]), "counterexample start is synchronous")
        # From rest in an undamped mode, z(t) = cos(omega t) z(0), so at the
        # grid point nearest each period mark the sync error is
        # |cos(omega t)| e(0), within the RK4 error.
        omega = math.sqrt(rho)
        marks = np.rint(2.0 * math.pi / omega * np.arange(1, 100) / dt).astype(int)
        marks = marks[marks < t.size]
        problems.need(marks.size > 0, "trace shorter than one period")
        problems.need(np.allclose(err[marks], err[0] * np.abs(np.cos(omega * t[marks])),
                                  rtol=0, atol=1e-6 * err[0]),
                      "sync error does not return at the period marks")
    return problems
