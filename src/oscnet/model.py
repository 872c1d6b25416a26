"""Oscillator unit and coupled-array data model.

An array of ``q`` identical units ``M x'' + K x = 0`` is coupled through
per-edge positive semidefinite matrix weights: dissipative weights act on
velocity differences, restorative weights on position differences.  This
module validates that data, moves it to mass-normalized coordinates
(``z = M^{1/2} x``), and assembles the block Laplacians and the complex
criterion matrix used by the synchronization tests.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidInputError, InvalidModelError
from .linalg import complex_eig, sym_eig

SPD_TOL = 1e-12          # smallest eigenvalue must exceed SPD_TOL * largest
WEIGHT_TOL = 1e-12       # symmetry / PSD slack for coupling weights, relative
FREQ_GAP_TOL = 1e-6      # squared mode frequencies must differ by this, relative


def _readonly(a):
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def _check_spd(m, name):
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise InvalidModelError(f"{name}: expected a nonempty square matrix")
    if not np.all(np.isfinite(m)):
        raise InvalidModelError(f"{name}: entries must be finite")
    fro = np.linalg.norm(m, "fro")
    if np.linalg.norm(m - m.T, "fro") > 1e-12 * fro:
        raise InvalidModelError(f"{name}: matrix must be symmetric")
    vals, vecs = sym_eig(m)
    if vals[-1] <= 0.0 or vals[0] <= SPD_TOL * vals[-1]:
        raise InvalidModelError(
            f"{name}: matrix must be positive definite "
            f"(eigenvalue range [{vals[0]:.3e}, {vals[-1]:.3e}])")
    return vals, vecs


def _check_distinct_freqs(freqs_sq):
    scale = freqs_sq[-1]
    for k in range(len(freqs_sq) - 1):
        if freqs_sq[k + 1] - freqs_sq[k] <= FREQ_GAP_TOL * scale:
            raise InvalidModelError(
                f"modes {k + 1} and {k + 2} have nearly equal squared natural "
                f"frequencies ({freqs_sq[k]:.9g}, {freqs_sq[k + 1]:.9g}); "
                f"the analysis requires distinct mode frequencies")


@dataclass(frozen=True)
class OscillatorModel:
    """One oscillator unit: mass and stiffness matrices, both SPD.

    The squared natural frequencies (eigenvalues of ``M^{-1/2} K M^{-1/2}``)
    must be pairwise distinct; models violating that are rejected here
    rather than analyzed incorrectly.  ``normal_form`` keeps the tuple
    (M^{-1/2}, P, squared frequencies, mode shapes) worked out on the way.
    """

    mass: np.ndarray
    stiffness: np.ndarray
    normal_form: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mass = _readonly(self.mass)
        stiffness = _readonly(self.stiffness)
        mvals, mvecs = _check_spd(mass, "mass matrix")
        _check_spd(stiffness, "stiffness matrix")
        if mass.shape != stiffness.shape:
            raise InvalidModelError(
                f"mass and stiffness shapes differ: {mass.shape} vs {stiffness.shape}")
        m_inv_sqrt = (mvecs / np.sqrt(mvals)) @ mvecs.T
        p = m_inv_sqrt @ stiffness @ m_inv_sqrt
        p = 0.5 * (p + p.T)
        freqs_sq, shapes = sym_eig(p)
        _check_distinct_freqs(freqs_sq)
        object.__setattr__(self, "mass", mass)
        object.__setattr__(self, "stiffness", stiffness)
        object.__setattr__(self, "normal_form", (m_inv_sqrt, p, freqs_sq, shapes))

    @property
    def n(self) -> int:
        return self.mass.shape[0]


def build_mass_spring_chain(masses, springs) -> OscillatorModel:
    """Oscillator unit for a chain of masses with walls at both ends.

    ``masses`` has length n, ``springs`` length n+1 (spring i sits to the
    left of mass i; the last spring ties the chain to the right wall).
    """
    masses = np.asarray(masses, dtype=float).ravel()
    springs = np.asarray(springs, dtype=float).ravel()
    n = masses.size
    if n == 0 or springs.size != n + 1:
        raise InvalidModelError(
            f"a chain of {n} masses needs {n + 1} springs, got {springs.size}")
    if np.any(masses <= 0.0) or np.any(springs <= 0.0):
        raise InvalidModelError("all masses and spring constants must be positive")
    stiffness = np.zeros((n, n))
    for i in range(n):
        stiffness[i, i] = springs[i] + springs[i + 1]
        if i + 1 < n:
            stiffness[i, i + 1] = -springs[i + 1]
            stiffness[i + 1, i] = -springs[i + 1]
    return OscillatorModel(np.diag(masses), stiffness)


def _check_weight(i, j, w):
    if i == j:
        raise InvalidModelError(f"edge ({i},{j}): self-loops are not allowed")
    if w.ndim != 2 or w.shape[0] != w.shape[1] or w.shape[0] == 0:
        raise InvalidModelError(f"edge ({i},{j}): weight must be a square matrix")
    if not np.all(np.isfinite(w)):
        raise InvalidModelError(f"edge ({i},{j}): weight entries must be finite")
    fro = np.linalg.norm(w, "fro")
    if np.linalg.norm(w - w.T, "fro") > WEIGHT_TOL * fro:
        raise InvalidModelError(f"edge ({i},{j}): weight must be symmetric")
    vals, _ = sym_eig(0.5 * (w + w.T))
    scale = max(abs(vals[0]), abs(vals[-1]))
    if vals[0] < -WEIGHT_TOL * scale:
        raise InvalidModelError(
            f"edge ({i},{j}): weight must be positive semidefinite "
            f"(smallest eigenvalue {vals[0]:.3e})")


def _check_placement(edge, q, n=None):
    """Checks of an edge against the array it joins; the weight itself was
    checked when the edge was made."""
    i, j = edge.i, edge.j
    if not 1 <= i < j <= q:
        raise InvalidModelError(
            f"edge ({i},{j}): expected 1 <= i < j <= {q} (edges are stored once)")
    if n is not None and edge.weight.shape[0] != n:
        raise InvalidModelError(
            f"edge ({i},{j}): weight is {edge.weight.shape[0]}x{edge.weight.shape[0]}, "
            f"expected {n}x{n}")


@dataclass(frozen=True)
class CouplingEdge:
    """One undirected edge (i < j, 1-based) with a PSD matrix weight.

    The weight is checked once, here; ``j <= q`` where the edge joins an array.
    """

    i: int
    j: int
    weight: np.ndarray

    def __post_init__(self):
        try:
            object.__setattr__(self, "i", operator.index(self.i))
            object.__setattr__(self, "j", operator.index(self.j))
        except TypeError:
            raise InvalidModelError(
                f"edge ({self.i!r},{self.j!r}): indices must be integers") from None
        object.__setattr__(self, "weight", _readonly(self.weight))
        _check_weight(self.i, self.j, self.weight)


@dataclass(frozen=True)
class CommensurableCoupling:
    """Rank-structured coupling: every weight is a scalar multiple of C^T C."""

    c_dissipative: np.ndarray  # (m_d, n)
    c_restorative: np.ndarray  # (m_r, n)
    d_scalars: np.ndarray      # (q, q) symmetric, nonnegative, zero diagonal
    r_scalars: np.ndarray

    def __post_init__(self):
        for name in ("c_dissipative", "c_restorative"):
            c = _readonly(getattr(self, name))
            if c.ndim != 2 or c.size == 0:
                raise InvalidModelError(f"{name}: expected a nonempty 2-d matrix")
            if not np.all(np.isfinite(c)):
                raise InvalidModelError(f"{name}: entries must be finite")
            object.__setattr__(self, name, c)
        q = None
        for name in ("d_scalars", "r_scalars"):
            s = _readonly(getattr(self, name))
            _check_scalar_weights(s, name)
            if q is not None and s.shape[0] != q:
                raise InvalidModelError("d_scalars and r_scalars sizes differ")
            q = s.shape[0]
            object.__setattr__(self, name, s)

    @property
    def q(self) -> int:
        return self.d_scalars.shape[0]


def _check_scalar_weights(s, name):
    if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] == 0:
        raise InvalidModelError(f"{name}: expected a square matrix of scalars")
    if not np.all(np.isfinite(s)):
        raise InvalidModelError(f"{name}: entries must be finite")
    if np.any(s != s.T):
        raise InvalidModelError(f"{name}: scalar weights must be symmetric")
    if np.any(np.diag(s) != 0.0):
        raise InvalidModelError(f"{name}: diagonal must be zero (no self-loops)")
    if np.any(s < 0.0):
        bad = np.argwhere(s < 0.0)[0]
        raise InvalidModelError(
            f"{name}: weight for edge ({bad[0] + 1},{bad[1] + 1}) is negative")


def _expanded_weights(c, s):
    """Yield ``(i, j, s_ij * C^T C)`` (1-based, i < j) for each nonzero
    scalar weight of checked ``C`` and ``s``, in row-major order."""
    base = c.T @ c
    base = 0.5 * (base + base.T)
    for i, j in zip(*np.nonzero(np.triu(s, 1))):
        yield i + 1, j + 1, s[i, j] * base


def commensurable_expand(c, scalars):
    """Expand rank-structured coupling into per-edge matrix weights.

    Each edge (i, j) with scalar weight s_ij > 0 receives the matrix weight
    ``s_ij * C^T C``; returns the tuple of those edges.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim != 2 or c.size == 0:
        raise InvalidModelError("commensurable_expand: C must be a nonempty 2-d matrix")
    if not np.all(np.isfinite(c)):
        raise InvalidModelError("commensurable_expand: C entries must be finite")
    s = np.asarray(scalars, dtype=float)
    _check_scalar_weights(s, "scalar weights")
    return tuple(CouplingEdge(*t) for t in _expanded_weights(c, s))


@dataclass(frozen=True)
class CouplingGraph:
    """Coupling topology of the array: q nodes plus weighted edge lists.

    ``epsilon`` scales the restorative side only; the dissipative side is
    never scaled.  When ``commensurable`` data is present the edge lists
    must be exactly its expansion (use :func:`commensurable_graph`).
    """

    q: int
    dissipative: tuple = ()
    restorative: tuple = ()
    epsilon: float = 1.0
    commensurable: CommensurableCoupling | None = None

    def __post_init__(self):
        q = int(self.q)
        if q < 1:
            raise InvalidModelError(f"need at least one oscillator, got q={q}")
        eps = float(self.epsilon)
        if not np.isfinite(eps) or eps < 0.0:
            raise InvalidModelError(f"epsilon must be finite and >= 0, got {eps}")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "epsilon", eps)
        n = None
        for name in ("dissipative", "restorative"):
            edges = []
            seen = set()
            for e in getattr(self, name):
                edge = e if isinstance(e, CouplingEdge) else CouplingEdge(*e)
                _check_placement(edge, q, n)
                if (edge.i, edge.j) in seen:
                    raise InvalidModelError(
                        f"edge ({edge.i},{edge.j}) appears twice in {name}")
                seen.add((edge.i, edge.j))
                n = edge.weight.shape[0]
                edges.append(edge)
            object.__setattr__(self, name, tuple(edges))
        if self.commensurable is not None:
            self._check_commensurable_consistency()

    def _check_commensurable_consistency(self):
        cc = self.commensurable
        if cc.q != self.q:
            raise InvalidModelError(
                f"commensurable data is for q={cc.q}, graph has q={self.q}")
        for name, c, s in (("dissipative", cc.c_dissipative, cc.d_scalars),
                           ("restorative", cc.c_restorative, cc.r_scalars)):
            expected = list(_expanded_weights(c, s))
            actual = getattr(self, name)
            if len(expected) != len(actual) or any(
                    (e.i, e.j) != (i, j) or not np.array_equal(e.weight, w)
                    for (i, j, w), e in zip(expected, actual)):
                raise InvalidModelError(
                    f"{name} edges do not equal the commensurable expansion")

    @property
    def n(self) -> int | None:
        """Weight dimension, or None if the graph carries no edges."""
        for edges in (self.dissipative, self.restorative):
            if edges:
                return edges[0].weight.shape[0]
        if self.commensurable is not None:
            return self.commensurable.c_dissipative.shape[1]
        return None


def commensurable_graph(c_dissipative, c_restorative, d_scalars, r_scalars,
                        epsilon=1.0) -> CouplingGraph:
    """Build a CouplingGraph whose edges are the commensurable expansion."""
    cc = CommensurableCoupling(c_dissipative, c_restorative, d_scalars, r_scalars)
    if cc.c_dissipative.shape[1] != cc.c_restorative.shape[1]:
        raise InvalidModelError(
            "commensurable C matrices must have the same number of columns")
    d_edges = commensurable_expand(cc.c_dissipative, cc.d_scalars)
    r_edges = commensurable_expand(cc.c_restorative, cc.r_scalars)
    return CouplingGraph(cc.q, d_edges, r_edges, epsilon, commensurable=cc)


def _add_edge(lap, i, j, w, n):
    bi = (i - 1) * n
    bj = (j - 1) * n
    lap[bi:bi + n, bi:bi + n] += w
    lap[bj:bj + n, bj:bj + n] += w
    lap[bi:bi + n, bj:bj + n] -= w
    lap[bj:bj + n, bi:bi + n] -= w


def build_laplacian(weights, q, n):
    """Block Laplacian of matrix-weighted edges on q nodes.

    ``weights`` is an iterable of ``CouplingEdge`` or ``(i, j, W)`` triples
    with 1-based ``i < j``.  Diagonal blocks accumulate the incident
    weights; off-diagonal blocks get their negatives.
    """
    lap = np.zeros((q * n, q * n))
    for e in weights:
        edge = e if isinstance(e, CouplingEdge) else CouplingEdge(*e)
        _check_placement(edge, q, n)
        _add_edge(lap, edge.i, edge.j, edge.weight, n)
    return lap


@dataclass(frozen=True)
class ModalBlocks:
    """The coupling of an array regrouped mode by mode; independent of eps.

    ``dissipative`` (G) and ``restorative`` (B) are the block Laplacians
    conjugated by the mode shapes and reordered mode-major, so that entry
    (k, l) of ``*_blocks`` is the q x q block coupling modes k and l
    (0-based).  Row k of ``dissipative_spectra`` holds the ascending
    eigenvalues of G_kk, row k of ``combined_real`` the ascending real
    parts of the eigenvalues of G_kk + j B_kk.
    """

    dissipative: np.ndarray          # qn x qn, PSD
    restorative: np.ndarray          # qn x qn, PSD
    dissipative_blocks: np.ndarray   # (n, n, q, q) view of dissipative
    restorative_blocks: np.ndarray
    dissipative_spectra: np.ndarray  # (n, q)
    combined_real: np.ndarray        # (n, q)


@dataclass(frozen=True)
class ArraySystem:
    """Array in mass-normalized coordinates, with all derived matrices.

    ``freqs_sq`` holds the squared natural frequencies of one unit
    (ascending); ``mode_shapes`` their orthonormal eigenvectors;
    ``mode_shapes_physical`` the corresponding eigenvectors of
    ``M^{-1} K`` in the original coordinates.
    """

    model: OscillatorModel
    graph: CouplingGraph
    normalized_stiffness: np.ndarray      # n x n, symmetric positive definite
    freqs_sq: np.ndarray                  # (n,)
    mode_shapes: np.ndarray               # n x n, orthonormal columns
    mode_shapes_physical: np.ndarray      # n x n
    mass_inv_sqrt: np.ndarray             # n x n
    lap_dissipative: np.ndarray           # qn x qn
    lap_restorative: np.ndarray           # qn x qn
    scalar_lap_dissipative: np.ndarray | None = field(default=None)
    scalar_lap_restorative: np.ndarray | None = field(default=None)

    @property
    def q(self) -> int:
        return self.graph.q

    @property
    def n(self) -> int:
        return self.model.n

    @cached_property
    def modal(self) -> ModalBlocks:
        """Modal blocks and per-mode spectra, computed on first use."""
        q, n = self.q, self.n
        by_mode = np.kron(np.eye(q), self.mode_shapes)
        # index (node, mode) -> (mode, node) on both sides
        g, b = (
            (by_mode.T @ lap @ by_mode).reshape(q, n, q, n)
            .transpose(1, 0, 3, 2).reshape(q * n, q * n)
            for lap in (self.lap_dissipative, self.lap_restorative))
        g = 0.5 * (g + g.T)
        b = 0.5 * (b + b.T)
        g_blocks = g.reshape(n, q, n, q).swapaxes(1, 2)
        b_blocks = b.reshape(n, q, n, q).swapaxes(1, 2)
        return ModalBlocks(
            g, b, g_blocks, b_blocks,
            np.array([sym_eig(g_blocks[k, k])[0] for k in range(n)]),
            np.array([complex_eig(g_blocks[k, k] + 1j * b_blocks[k, k]).real
                      for k in range(n)]))


def normalize(model: OscillatorModel, graph: CouplingGraph) -> ArraySystem:
    """Move the array to mass-normalized coordinates and derive its matrices."""
    n = model.n
    if graph.n is not None and graph.n != n:
        raise InvalidModelError(
            f"coupling weights are {graph.n}x{graph.n} but the model has n={n}")
    m_inv_sqrt, p, freqs_sq, shapes = model.normal_form
    # The weights were checked when their edges were made, and congruence
    # by M^{-1/2} keeps them symmetric PSD.
    lap_d = np.zeros((graph.q * n, graph.q * n))
    lap_r = np.zeros_like(lap_d)
    for lap, edges in ((lap_d, graph.dissipative), (lap_r, graph.restorative)):
        for e in edges:
            w = m_inv_sqrt @ e.weight @ m_inv_sqrt
            _add_edge(lap, e.i, e.j, 0.5 * (w + w.T), n)
    scalar_d = scalar_r = None
    if graph.commensurable is not None:
        cc = graph.commensurable
        scalar_d = np.diag(cc.d_scalars.sum(axis=1)) - cc.d_scalars
        scalar_r = np.diag(cc.r_scalars.sum(axis=1)) - cc.r_scalars
    return ArraySystem(
        model=model,
        graph=graph,
        normalized_stiffness=p,
        freqs_sq=freqs_sq,
        mode_shapes=shapes,
        mode_shapes_physical=m_inv_sqrt @ shapes,
        mass_inv_sqrt=m_inv_sqrt,
        lap_dissipative=lap_d,
        lap_restorative=lap_r,
        scalar_lap_dissipative=scalar_d,
        scalar_lap_restorative=scalar_r,
    )


def _resolve_eps(sys, eps):
    e = sys.graph.epsilon if eps is None else float(eps)
    if not np.isfinite(e) or e < 0.0:
        raise InvalidInputError(f"epsilon must be finite and >= 0, got {e}")
    return e


def array_stiffness(sys: ArraySystem, eps=None) -> np.ndarray:
    """Position-coupling matrix of the array: block stiffness plus eps times
    the restorative Laplacian.  Symmetric positive definite."""
    e = _resolve_eps(sys, eps)
    s = np.kron(np.eye(sys.q), sys.normalized_stiffness) + e * sys.lap_restorative
    return 0.5 * (s + s.T)


def admittance_matrix(sys: ArraySystem, eps=None) -> np.ndarray:
    """Complex criterion matrix: dissipative Laplacian plus j times the
    position coupling.  Complex symmetric (not Hermitian); the array
    synchronizes exactly when only n of its eigenvalues sit on the
    imaginary axis."""
    return sys.lap_dissipative + 1j * array_stiffness(sys, eps)
