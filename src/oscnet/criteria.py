"""Synchronization tests for the coupled array.

Two independent routes decide the general case: a spectral test counting
imaginary-axis eigenvalues of the complex criterion matrix, and a subspace
test intersecting eigenspaces of the position coupling with the null space
of the dissipative Laplacian.  Specializations cover the harmonic (n = 1),
pure-dissipative, weak-restorative, and commensurable regimes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, UnsupportedConfigurationError
from .linalg import (CLUSTER_GAP_TOL, DEFAULT_RANK_TOL, SubspaceBasis,
                     complex_eig, eigenvalue_clusters, orthonormal_columns,
                     spectral_norm, subspace_intersection, sym_eig,
                     nullspace_basis)
from .model import (ArraySystem, admittance_matrix, array_stiffness,
                    modal_permutation)

# An eigenvalue counts as on the imaginary axis when its real part is at
# most VERDICT_TOL * max(scale, 1); margins within 10x of that threshold
# are reported indeterminate instead of being forced to a verdict.
VERDICT_TOL = 1e-8


@dataclass(frozen=True)
class SyncVerdict:
    """Outcome of one synchronization test.

    ``margin`` is the real part of the first eigenvalue beyond the n
    guaranteed imaginary-axis ones (or the relevant second-smallest
    eigenvalue for the specialized tests); the subspace route carries no
    margin.  ``tolerance`` is the on-axis threshold in effect.
    """

    synchronizes: str            # "yes" | "no" | "indeterminate"
    imaginary_axis_count: int
    margin: float | None
    method: str
    tolerance: float
    diagnostic: str | None = None


def _classify(n_expected, count, margin, tau, method, diagnostic=None):
    if margin > 10.0 * tau and count == n_expected:
        verdict = "yes"
    elif margin <= tau:
        verdict = "no"
    else:
        verdict = "indeterminate"
        if diagnostic is None:
            diagnostic = (f"margin {margin:.6e} is within 10x of the "
                          f"on-axis tolerance {tau:.6e}")
    return SyncVerdict(verdict, count, float(margin), method, tau, diagnostic)


def _resolve_eps(sys, eps):
    e = sys.graph.epsilon if eps is None else float(eps)
    if not np.isfinite(e) or e < 0.0:
        raise InvalidInputError(f"epsilon must be finite and >= 0, got {e}")
    return e


def sync_check_spectral(sys: ArraySystem, eps=None, tol=VERDICT_TOL) -> SyncVerdict:
    """Spectral synchronization test.

    Counts eigenvalues of the complex criterion matrix on the imaginary
    axis; the array synchronizes exactly when that count is n.  The margin
    is the real part of the (n+1)-th smallest eigenvalue (by real part).
    """
    e = _resolve_eps(sys, eps)
    gam = admittance_matrix(sys, e)
    vals = complex_eig(gam)
    re = np.sort(vals.real)
    tau = tol * max(spectral_norm(gam), 1.0)
    count = int(np.count_nonzero(re <= tau))
    margin = float(re[sys.n]) if re.size > sys.n else math.inf
    return _classify(sys.n, count, margin, tau, "spectral")


@dataclass(frozen=True)
class SubspaceAnalysis:
    """Eigenspace/null-space intersection data behind the subspace test."""

    count: int
    ambiguous: bool
    cluster_tol: float
    components: tuple  # ((rho, SubspaceBasis), ...) nonempty intersections


def subspace_analysis(sys: ArraySystem, eps=None, tol=CLUSTER_GAP_TOL,
                      rank_tol=DEFAULT_RANK_TOL) -> SubspaceAnalysis:
    """Cluster the position-coupling spectrum and intersect each eigenspace
    with the null space of the dissipative Laplacian."""
    e = _resolve_eps(sys, eps)
    s = array_stiffness(sys, e)
    vals, vecs = sym_eig(s)
    scale = max(abs(vals[0]), abs(vals[-1]))
    gap = float(tol * scale)
    clusters = eigenvalue_clusters(vals, gap)
    ambiguous = any(
        vals[clusters[i + 1][0]] - vals[clusters[i][1] - 1] < 10.0 * gap
        for i in range(len(clusters) - 1))
    null_d = nullspace_basis(sys.lap_dissipative, rank_tol)
    components = []
    count = 0
    dim = sys.q * sys.n
    for a, b in clusters:
        eigenspace = SubspaceBasis(dim, vecs[:, a:b], rank_tol)
        shared = subspace_intersection(eigenspace, null_d, rank_tol)
        if shared.dim:
            components.append((float(np.mean(vals[a:b])), shared))
            count += shared.dim
    return SubspaceAnalysis(count, ambiguous, gap, tuple(components))


def sync_check_subspace(sys: ArraySystem, eps=None,
                        rank_tol=DEFAULT_RANK_TOL) -> SyncVerdict:
    """Subspace synchronization test (independent of the spectral route).

    Undamped steady-state motion lives in eigenspaces of the position
    coupling that meet the null space of the dissipative Laplacian; the
    array synchronizes exactly when those intersections have total
    dimension n.
    """
    analysis = subspace_analysis(sys, eps, rank_tol=rank_tol)
    if analysis.ambiguous:
        return SyncVerdict(
            "indeterminate", analysis.count, None, "subspace",
            analysis.cluster_tol,
            "eigenvalue clusters of the position coupling are closer than "
            "10x the clustering tolerance; eigenspaces cannot be separated reliably")
    if analysis.count == sys.n:
        verdict = "yes"
    elif analysis.count > sys.n:
        verdict = "no"
    else:
        # Mathematically impossible (the n synchronous modes always count);
        # report honestly if numerics ever get here.
        return SyncVerdict(
            "indeterminate", analysis.count, None, "subspace",
            analysis.cluster_tol,
            f"found only {analysis.count} < n = {sys.n} shared directions")
    return SyncVerdict(verdict, analysis.count, None, "subspace",
                       analysis.cluster_tol, None)


@dataclass(frozen=True)
class ModalForm:
    """Mode-by-mode reshuffle of the array matrices.

    ``dissipative``/``restorative`` are the block Laplacians conjugated by
    the mode shapes and permuted so entry (k, l) of ``*_blocks`` is the
    q x q block coupling modes k and l (0-based).  ``admittance`` is the
    permuted criterion matrix, similar to the original one.
    """

    dissipative: np.ndarray        # qn x qn, PSD
    restorative: np.ndarray        # qn x qn, PSD
    dissipative_blocks: np.ndarray  # (n, n, q, q)
    restorative_blocks: np.ndarray
    admittance: np.ndarray         # qn x qn complex
    permutation: np.ndarray        # qn x qn, 0/1
    epsilon: float


def modal_transform(sys: ArraySystem, eps=None) -> ModalForm:
    """Conjugate the array matrices by the mode shapes and regroup by mode."""
    e = _resolve_eps(sys, eps)
    q, n = sys.q, sys.n
    by_mode = np.kron(np.eye(q), sys.mode_shapes)
    perm = modal_permutation(q, n)
    g = perm.T @ (by_mode.T @ sys.lap_dissipative @ by_mode) @ perm
    b = perm.T @ (by_mode.T @ sys.lap_restorative @ by_mode) @ perm
    g = 0.5 * (g + g.T)
    b = 0.5 * (b + b.T)
    omega = g + 1j * (np.kron(np.diag(sys.freqs_sq), np.eye(q)) + e * b)
    g_blocks = g.reshape(n, q, n, q).swapaxes(1, 2)
    b_blocks = b.reshape(n, q, n, q).swapaxes(1, 2)
    return ModalForm(g, b, g_blocks, b_blocks, omega, perm, e)


def pure_dissipative_check(sys: ArraySystem, tol=VERDICT_TOL) -> SyncVerdict:
    """Synchronization test for arrays with no restorative coupling.

    The array synchronizes exactly when every per-mode dissipative block
    has a simple zero eigenvalue, i.e. its second-smallest eigenvalue is
    positive.  The margin is the worst such eigenvalue over the modes.
    """
    if np.any(sys.lap_restorative):
        raise UnsupportedConfigurationError(
            "pure_dissipative_check requires all restorative weights to be zero; "
            "use sync_check_spectral or sync_check_subspace instead")
    q, n = sys.q, sys.n
    if q == 1:
        return SyncVerdict("yes", n, math.inf, "pure_dissipative",
                           tol, "single oscillator is trivially synchronous")
    mf = modal_transform(sys, eps=0.0)
    spectra = [sym_eig(mf.dissipative_blocks[k, k])[0] for k in range(n)]
    scale = max(max(abs(v[0]), abs(v[-1])) for v in spectra)
    tau = tol * max(scale, 1.0)
    count = sum(int(np.count_nonzero(v <= tau)) for v in spectra)
    margin = min(float(v[1]) for v in spectra)
    return _classify(n, count, margin, tau, "pure_dissipative")


def harmonic_check(sys: ArraySystem, eps=None, tol=VERDICT_TOL) -> SyncVerdict:
    """Exact synchronization test for single-mode (n = 1) oscillators.

    With one mode the Laplacians are scalar-weighted, and the array
    synchronizes exactly when the second-smallest eigenvalue (by real
    part) of ``L_d + j eps L_r`` has positive real part; with no
    restorative coupling this reduces to the algebraic connectivity of
    the dissipative graph.
    """
    if sys.n != 1:
        raise UnsupportedConfigurationError(
            f"harmonic_check applies only to n = 1 oscillators (got n = {sys.n})")
    e = _resolve_eps(sys, eps)
    q = sys.q
    if q == 1:
        return SyncVerdict("yes", 1, math.inf, "harmonic", tol,
                           "single oscillator is trivially synchronous")
    ld = sys.lap_dissipative
    lr = sys.lap_restorative
    if not np.any(lr):
        vals, _ = sym_eig(ld)
        scale = max(abs(vals[0]), abs(vals[-1]))
        tau = tol * max(scale, 1.0)
        count = int(np.count_nonzero(vals <= tau))
        margin = float(vals[1])
    else:
        crit = ld + 1j * e * lr
        re = np.sort(complex_eig(crit).real)
        tau = tol * max(spectral_norm(crit), 1.0)
        count = int(np.count_nonzero(re <= tau))
        margin = float(re[1])
    return _classify(1, count, margin, tau, "harmonic")


@dataclass(frozen=True)
class WeakCouplingBound:
    """Explicit threshold on the restorative coupling strength.

    When every per-mode hypothesis margin is positive, the array is
    guaranteed to synchronize for every coupling strength in
    ``(0, radius)``.  ``c`` is the eigenvector-perturbation constant used
    in deriving the radius, exposed as a diagnostic.
    """

    sigma_bar: float               # half the smallest gap between squared frequencies
    mu_bar: float                  # half the smallest gap between distinct
    #                                eigenvalues of the restorative blocks
    gamma_bar: float               # worst-case dissipation seen by candidate
    #                                steady-state directions
    norm_g: float
    norm_b: float
    c: float
    radius: float
    hypothesis_margins: np.ndarray       # (n,) Re lambda_2 of G_kk + j B_kk
    lambda2_dissipative_blocks: np.ndarray  # (n,) lambda_2 of G_kk
    applicable: bool
    status: str = "ok"
    diagnostic: str | None = None

    def to_dict(self):
        """Plain dict in the key order of the ``bound`` and ``analyze`` output."""
        return {"sigma_bar": self.sigma_bar, "mu_bar": self.mu_bar,
                "gamma_bar": self.gamma_bar, "norm_G": self.norm_g,
                "norm_B": self.norm_b, "c": self.c, "radius": self.radius,
                "hypothesis_margins": self.hypothesis_margins.tolist(),
                "lambda2_dissipative_blocks":
                    self.lambda2_dissipative_blocks.tolist(),
                "applicable": self.applicable, "status": self.status,
                "diagnostic": self.diagnostic}


def weak_coupling_bound(sys: ArraySystem) -> WeakCouplingBound:
    """Compute the guaranteed weak-coupling radius and its ingredients."""
    n, q = sys.n, sys.q
    if n < 2:
        raise UnsupportedConfigurationError(
            "the weak-coupling radius is degenerate for n = 1; "
            "harmonic_check settles that case exactly")
    if not np.any(sys.lap_restorative):
        raise UnsupportedConfigurationError(
            "the weak-coupling bound requires at least one nonzero restorative "
            "weight; use pure_dissipative_check instead")
    mf = modal_transform(sys, eps=1.0)
    freqs = sys.freqs_sq
    sigma_bar = 0.5 * float(np.min(np.diff(freqs)))
    ones = np.full(q, 1.0 / math.sqrt(q))
    mu_gaps = []
    gamma_sq = []
    margins = np.empty(n)
    lambda2_g = np.empty(n)
    for k in range(n):
        gkk = mf.dissipative_blocks[k, k]
        bkk = mf.restorative_blocks[k, k]
        gvals, _ = sym_eig(gkk)
        lambda2_g[k] = gvals[1]
        bvals, bvecs = sym_eig(bkk)
        bscale = max(abs(bvals[0]), abs(bvals[-1]))
        clusters = eigenvalue_clusters(bvals, CLUSTER_GAP_TOL * bscale)
        if len(clusters) > 1:
            centers = [float(np.mean(bvals[a:b])) for a, b in clusters]
            mu_gaps.append(min(np.diff(centers)))
        for a, b in clusters:
            basis = bvecs[:, a:b]
            deflated = basis - np.outer(ones, ones @ basis)
            w = orthonormal_columns(deflated, drop_tol=1e-8)
            if w.shape[1]:
                restricted = w.T @ gkk @ w
                rvals, _ = sym_eig(0.5 * (restricted + restricted.T))
                gamma_sq.append(float(rvals[0]))
        cvals = complex_eig(gkk + 1j * bkk)
        margins[k] = np.sort(cvals.real)[1]
    norm_g = spectral_norm(mf.dissipative)
    norm_b = spectral_norm(mf.restorative)
    gamma_bar = math.sqrt(max(min(gamma_sq), 0.0)) if gamma_sq else 0.0
    if not mu_gaps:
        return WeakCouplingBound(
            sigma_bar, math.nan, gamma_bar, norm_g, norm_b, math.nan, math.nan,
            margins, lambda2_g, applicable=False, status="indeterminate",
            diagnostic="every restorative block has a single distinct eigenvalue; "
                       "the gap constant is undefined")
    mu_bar = 0.5 * float(min(mu_gaps))
    c = math.sqrt(n - 1) * norm_b / sigma_bar * (1.0 + norm_b / mu_bar)
    if gamma_bar > 0.0:
        radius = (gamma_bar * sigma_bar * mu_bar
                  / ((math.sqrt(norm_g) + 2.0 * gamma_bar)
                     * math.sqrt(n - 1) * norm_b * (mu_bar + norm_b)))
    else:
        radius = 0.0
    applicable = gamma_bar > 0.0 and bool(np.all(margins > 0.0))
    diagnostic = None
    if not applicable:
        diagnostic = ("the bound guarantees nothing here: some per-mode "
                      "hypothesis margin is not positive")
    return WeakCouplingBound(sigma_bar, mu_bar, gamma_bar, norm_g, norm_b,
                             c, radius, margins, lambda2_g,
                             applicable=applicable, diagnostic=diagnostic)


@dataclass(frozen=True)
class CommensurableReport:
    """Synchronization diagnostics for rank-structured coupling.

    In the pure-dissipative case ``verdict`` is exact: the array
    synchronizes iff the scalar dissipative graph is connected and the
    dissipative output matrix observes every mode.  With restorative
    coupling present, ``weak_coupling_sufficient`` instead flags whether
    synchronization is guaranteed for small enough coupling strength,
    with ``radius`` giving the explicit threshold when available.
    """

    verdict: SyncVerdict | None
    weak_coupling_sufficient: bool | None
    radius: float | None
    alpha: np.ndarray              # per-mode dissipative observability energies
    beta: np.ndarray               # per-mode restorative observability energies
    observable_dissipative: bool
    observable_restorative: bool
    scalar_margin: float
    diagnostic: str | None = None


def _observability(c, shapes, rank_tol):
    """Per-mode output energies ||C v_k||^2 and the eigenvector-based
    observability flag (every mode must produce nonzero output)."""
    prod = c @ shapes
    energies = np.sum(prod * prod, axis=0)
    c_norm = spectral_norm(c)
    col_norms = np.linalg.norm(shapes, axis=0)
    thresholds = (rank_tol * c_norm * col_norms) ** 2
    return energies, bool(np.all(energies > thresholds))


def commensurable_check(sys: ArraySystem, tol=VERDICT_TOL,
                        rank_tol=DEFAULT_RANK_TOL) -> CommensurableReport:
    """Synchronization analysis specialized to commensurable coupling."""
    cc = sys.graph.commensurable
    if cc is None:
        raise UnsupportedConfigurationError(
            "commensurable_check requires commensurable coupling data")
    shapes = sys.mode_shapes_physical
    alpha, obs_d = _observability(cc.c_dissipative, shapes, rank_tol)
    beta, obs_r = _observability(cc.c_restorative, shapes, rank_tol)
    ell_d = sys.scalar_lap_dissipative
    ell_r = sys.scalar_lap_restorative
    n, q = sys.n, sys.q
    if q == 1:
        verdict = SyncVerdict("yes", n, math.inf, "commensurable", tol,
                              "single oscillator is trivially synchronous")
        return CommensurableReport(verdict, None, None, alpha, beta,
                                   obs_d, obs_r, math.inf)
    pure = not np.any(ell_r)
    if pure:
        vals, _ = sym_eig(ell_d)
        scale = max(abs(vals[0]), abs(vals[-1]))
        tau = tol * max(scale, 1.0)
        margin = float(vals[1])
        zeros_d = int(np.count_nonzero(vals <= tau))
        # Unobserved modes see no dissipation at all, so every one of their
        # q directions stays on the axis.
        obs_thresholds = (rank_tol * spectral_norm(cc.c_dissipative)
                          * np.linalg.norm(shapes, axis=0)) ** 2
        count = sum(zeros_d if alpha[k] > obs_thresholds[k] else q
                    for k in range(n))
        if margin > 10.0 * tau and obs_d:
            verdict_str = "yes"
            diagnostic = None
        elif margin <= tau or not obs_d:
            verdict_str = "no"
            diagnostic = None if margin <= tau else (
                "the dissipative output matrix misses at least one mode")
        else:
            verdict_str = "indeterminate"
            diagnostic = (f"scalar margin {margin:.6e} is within 10x of the "
                          f"on-axis tolerance {tau:.6e}")
        verdict = SyncVerdict(verdict_str, count, margin, "commensurable",
                              tau, diagnostic)
        return CommensurableReport(verdict, None, None, alpha, beta,
                                   obs_d, obs_r, margin)
    crit = ell_d + 1j * ell_r
    re = np.sort(complex_eig(crit).real)
    tau = tol * max(spectral_norm(crit), 1.0)
    margin = float(re[1])
    sufficient = bool(margin > 10.0 * tau and obs_d and obs_r)
    radius = None
    diagnostic = None
    if n >= 2:
        bound = weak_coupling_bound(sys)
        radius = bound.radius if bound.status == "ok" else None
    else:
        diagnostic = ("n = 1: harmonic_check settles this case exactly; "
                      "no weak-coupling radius is needed")
    return CommensurableReport(None, sufficient, radius, alpha, beta,
                               obs_d, obs_r, margin, diagnostic)
