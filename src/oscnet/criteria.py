"""Synchronization tests for the coupled array.

Two independent routes decide the general case: a spectral test counting
imaginary-axis eigenvalues of the complex criterion matrix, and a subspace
test finding, by an orthogonal observability staircase, the undamped
motions that the position coupling keeps clear of the dissipative
Laplacian.  Specializations cover the harmonic (n = 1), pure-dissipative,
weak-restorative, and commensurable regimes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedConfigurationError
from .linalg import (DEFAULT_RANK_TOL, _lapack, complex_eig, nullspace_basis,
                     spectral_norm, sym_eig, sym_norm)
from .model import (ArraySystem, ModalBlocks, _readonly, _resolve_eps,
                    _synchrony_complement)

# An eigenvalue counts as on the imaginary axis when its real part is at
# most VERDICT_TOL * max(scale, 1); margins within 10x of that threshold
# are reported indeterminate instead of being forced to a verdict.
VERDICT_TOL = 1e-8
# Two eigenvalues of a restorative block with gap <= CLUSTER_GAP_TOL * scale
# share an eigenspace (the weak-coupling bound's block-gap constant).
CLUSTER_GAP_TOL = 1e-8


@dataclass(frozen=True)
class SyncVerdict:
    """Outcome of one synchronization test.

    ``margin`` is the smallest real part among the eigenvalues beyond the
    n guaranteed imaginary-axis ones (or the relevant second-smallest
    eigenvalue for the specialized tests); for the subspace route it is
    the smallest singular value its staircase dropped, or None if it
    dropped none.  ``tolerance`` is the threshold in effect.
    """

    synchronizes: str            # "yes" | "no" | "indeterminate"
    imaginary_axis_count: int
    margin: float | None
    method: str
    tolerance: float
    diagnostic: str | None = None


def _classify(n_expected, count, margin, tau, method, why_no=None):
    """``no`` when the margin is on the axis or more than ``n_expected``
    eigenvalues are; ``why_no`` explains a ``no`` that the margin does not."""
    diagnostic = None
    if margin > 10.0 * tau and count == n_expected:
        verdict = "yes"
    elif margin <= tau:
        verdict = "no"
    elif count > n_expected:
        verdict, diagnostic = "no", why_no
    else:
        verdict = "indeterminate"
        diagnostic = (f"margin {margin:.6e} is within 10x of the "
                      f"on-axis tolerance {tau:.6e}")
    return SyncVerdict(verdict, count, float(margin), method, tau, diagnostic)


def sync_sweep(sys: ArraySystem, eps_grid, tol=VERDICT_TOL) -> list[SyncVerdict]:
    """Spectral synchronization test at each coupling strength of a grid.

    Counts eigenvalues of the complex criterion matrix on the imaginary
    axis; the array synchronizes exactly when that count is n.  The n
    synchronous eigenvalues are always there, so the count is n plus that
    of the deflated matrix Gamma'(eps) of :attr:`ArraySystem.deflated`,
    and the margin is the smallest real part of its eigenvalues.  The
    tolerance tol * max(||Gamma'||, omega_n^2, 1) equals tol * max(||Gamma||, 1).
    The whole grid is one stack: one eigenvalue call and one norm call.
    """
    eps = np.array([_resolve_eps(sys, e) for e in eps_grid])
    n = sys.n
    floor = max(float(sys.freqs_sq[-1]), 1.0)
    if sys.q == 1:
        return [_classify(n, n, math.inf, tol * floor, "spectral") for _ in eps]
    d = sys.deflated
    gam = d.dissipative + 1j * (d.stiffness + eps[:, None, None] * d.restorative)
    re = complex_eig(gam).real
    taus = tol * np.maximum(spectral_norm(gam), floor)
    counts = n + np.count_nonzero(re <= taus[:, None], axis=1)
    return [_classify(n, int(c), float(r[0]), float(t), "spectral")
            for c, r, t in zip(counts, re, taus)]


def sync_check_spectral(sys: ArraySystem, eps=None, tol=VERDICT_TOL) -> SyncVerdict:
    """Spectral synchronization test at one coupling strength (the default
    is the graph's); see :func:`sync_sweep`."""
    return sync_sweep(sys, [eps], tol)[0]


@dataclass(frozen=True)
class SubspaceAnalysis:
    """The undamped motions of the array outside synchrony.

    ``basis`` (qn x (count - n), orthonormal columns) spans the largest
    subspace orthogonal to synchrony that the position coupling maps into
    itself and the dissipative Laplacian annihilates.  ``margin`` is the
    smallest singular value the staircase dropped (None if it dropped
    none) and ``tolerance`` the threshold it compared them with.
    """

    count: int
    margin: float | None
    tolerance: float
    basis: np.ndarray


def subspace_analysis(sys: ArraySystem, eps=None,
                      rank_tol=DEFAULT_RANK_TOL) -> SubspaceAnalysis:
    """Deflated observability staircase of the position coupling S and the
    dissipative Laplacian L_d (Paige, IEEE TAC 26(1), 1981).

    On the complement U of the synchronous subspace, with S' = U^T S U and
    L_d' = U^T L_d U from :attr:`ArraySystem.deflated`, start from
    Z = null(L_d') and repeat: keep the right singular vectors of
    R = (I - Z Z^T) S' Z whose singular value is at most
    tau = rank_tol * ||S'||_2, until none is dropped.  What is left is the
    largest S'-invariant subspace in the null space; the on-axis count is
    n + dim Z.  The routine never forms the criterion matrix.
    """
    q, n = sys.q, sys.n
    d = sys.deflated
    sp = d.stiffness + _resolve_eps(sys, eps) * d.restorative
    tau = rank_tol * sym_norm(sp)
    if q == 1:
        z = np.zeros((0, 0))       # nothing moves orthogonally to synchrony
    else:
        z = nullspace_basis(d.dissipative, rank_tol)
    margin = None
    while z.shape[1]:
        sz = sp @ z
        _, sigma, vt = _lapack("subspace_analysis", np.linalg.svd,
                               sz - z @ (z.T @ sz), full_matrices=False)
        keep = sigma <= tau
        if keep.all():
            break
        dropped = float(sigma[~keep].min())
        margin = dropped if margin is None else min(margin, dropped)
        z = z @ vt[keep].T
    return SubspaceAnalysis(n + z.shape[1], margin, tau, d.basis @ z)


def sync_check_subspace(sys: ArraySystem, eps=None,
                        rank_tol=DEFAULT_RANK_TOL) -> SyncVerdict:
    """Subspace synchronization test (independent of the spectral route).

    Counts the undamped motions found by :func:`subspace_analysis`: the
    array synchronizes exactly when there are none besides the n
    synchronous ones.  A count above n is ``no``.  A count of n is ``yes``
    unless a dropped singular value lies within 10x of the staircase
    tolerance, which is ``indeterminate``.
    """
    analysis = subspace_analysis(sys, eps, rank_tol)
    tau, margin = analysis.tolerance, analysis.margin
    diagnostic = None
    if analysis.count > sys.n:
        verdict = "no"
    elif margin is None or margin > 10.0 * tau:
        verdict = "yes"
    else:
        verdict = "indeterminate"
        diagnostic = (f"staircase margin {margin:.6e} is within 10x of the "
                      f"rank tolerance {tau:.6e}")
    return SyncVerdict(verdict, analysis.count, margin, "subspace", tau,
                       diagnostic)


@dataclass(frozen=True)
class ModalForm(ModalBlocks):
    """The modal blocks of the array (:attr:`ArraySystem.modal`) plus its
    criterion matrix at ``epsilon`` in the same mode-major order
    (``admittance``), which is similar to the original one."""

    admittance: np.ndarray         # qn x qn complex
    epsilon: float


def modal_transform(sys: ArraySystem, eps=None) -> ModalForm:
    """Conjugate the array matrices by the mode shapes and regroup by mode."""
    e = _resolve_eps(sys, eps)
    m = sys.modal
    s = np.kron(np.diag(sys.freqs_sq), np.eye(sys.q)) + e * m.restorative
    return ModalForm(**vars(m), admittance=m.dissipative + 1j * s, epsilon=e)


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
    spectra = sys.modal.dissipative_spectra
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
    mu_bar: float                  # half the smallest gap between eigenvalue
    #                                clusters of a restorative block B_kk
    gamma_bar: float               # sqrt of the least eigenvalue of G_kk on
    #                                any cluster eigenspace of B_kk inside 1-perp
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
    """Compute the guaranteed weak-coupling radius and its ingredients.

    The result is stored on ``sys`` on first use, the way
    :attr:`ArraySystem.modal` is, so every caller shares one computation.
    """
    n = sys.n
    if n < 2:
        raise UnsupportedConfigurationError(
            "the weak-coupling radius is degenerate for n = 1; "
            "harmonic_check settles that case exactly")
    if not np.any(sys.lap_restorative):
        raise UnsupportedConfigurationError(
            "the weak-coupling bound requires at least one nonzero restorative "
            "weight; use pure_dissipative_check instead")
    cache = vars(sys)
    if "_weak_coupling_bound" not in cache:
        cache["_weak_coupling_bound"] = _weak_coupling_bound(sys)
    return cache["_weak_coupling_bound"]


def _weak_coupling_bound(sys):
    """Each block satisfies B_kk 1 = G_kk 1 = 0, so it is worked on the
    motions orthogonal to synchrony, u^T B_kk u, and its spectrum is that
    of the deflated block with a 0 put in front.  One eigensolve per mode
    gives the clusters and a basis v of each; a cluster's restricted
    dissipation is the smallest eigenvalue of its diagonal block of
    v^T G_kk v, where the vector 1 does not appear."""
    n, q = sys.n, sys.q
    mf = sys.modal
    sigma_bar = 0.5 * float(np.min(np.diff(sys.freqs_sq)))
    u = _synchrony_complement(q, 1)
    mu_gaps = []
    gamma_sq = []
    for k in range(n):
        vals, vecs = sym_eig(u.T @ mf.restorative_blocks[k, k] @ u)
        spectrum = np.concatenate(([0.0], vals))
        gap = CLUSTER_GAP_TOL * max(abs(vals[0]), abs(vals[-1]))
        cuts = np.flatnonzero(np.diff(spectrum) > gap) + 1
        if cuts.size:
            centers = [float(np.mean(part)) for part in np.split(spectrum, cuts)]
            mu_gaps.append(min(np.diff(centers)))
        v = u @ vecs
        h = v.T @ mf.dissipative_blocks[k, k] @ v
        for idx in np.split(np.arange(q - 1), cuts - 1):
            if idx.size == 1:
                gamma_sq.append(float(h[idx[0], idx[0]]))
            elif idx.size:
                rvals = _lapack("weak_coupling_bound", np.linalg.eigvalsh,
                                h[np.ix_(idx, idx)])
                gamma_sq.append(float(rvals[0]))
    # G and B are similar to L_d and L_r, which vanish on synchrony
    norm_g = sym_norm(sys.deflated.dissipative)
    norm_b = sym_norm(sys.deflated.restorative)
    gamma_bar = math.sqrt(max(min(gamma_sq), 0.0))
    margins = _readonly(mf.combined_real[:, 1])
    lambda2_g = _readonly(mf.dissipative_spectra[:, 1])
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
    """Per-mode output energies ||C v_k||^2 and, per mode, whether it
    produces nonzero output (the eigenvector observability test needs
    every mode to)."""
    prod = c @ shapes
    energies = np.sum(prod * prod, axis=0)
    c_norm = spectral_norm(c)
    col_norms = np.linalg.norm(shapes, axis=0)
    thresholds = (rank_tol * c_norm * col_norms) ** 2
    return energies, energies > thresholds


def commensurable_check(sys: ArraySystem, tol=VERDICT_TOL,
                        rank_tol=DEFAULT_RANK_TOL) -> CommensurableReport:
    """Synchronization analysis specialized to commensurable coupling."""
    cc = sys.graph.commensurable
    if cc is None:
        raise UnsupportedConfigurationError(
            "commensurable_check requires commensurable coupling data")
    shapes = sys.mode_shapes_physical
    alpha, seen_d = _observability(cc.c_dissipative, shapes, rank_tol)
    beta, seen_r = _observability(cc.c_restorative, shapes, rank_tol)
    obs_d, obs_r = bool(np.all(seen_d)), bool(np.all(seen_r))
    ell_d = sys.scalar_lap_dissipative
    ell_r = sys.scalar_lap_restorative
    n, q = sys.n, sys.q
    if q == 1:
        verdict = SyncVerdict("yes", n, math.inf, "commensurable", tol,
                              "single oscillator is trivially synchronous")
        return CommensurableReport(verdict, None, None, alpha, beta,
                                   obs_d, obs_r, math.inf)
    # Springs count as present only when some restorative weight is
    # nonzero, as in the other checks: r edges with C_r = 0 carry none.
    if not np.any(sys.lap_restorative):
        vals, _ = sym_eig(ell_d)
        scale = max(abs(vals[0]), abs(vals[-1]))
        tau = tol * max(scale, 1.0)
        margin = float(vals[1])
        zeros_d = int(np.count_nonzero(vals <= tau))
        # Unobserved modes see no dissipation at all, so every one of their
        # q directions stays on the axis.
        count = sum(zeros_d if seen else q for seen in seen_d)
        verdict = _classify(
            n, count, margin, tau, "commensurable",
            "the dissipative output matrix misses at least one mode")
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
