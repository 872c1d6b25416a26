"""Dense eigenvalue, null-space and norm wrappers.

The eigenvalue work goes to LAPACK through ``numpy.linalg``: ``syevd`` for
real symmetric eigenproblems and ``geev`` for general complex spectra.  The
wrappers check their input, fix the output order, and report a LAPACK
failure as :class:`NumericalFailureError`.  Tolerances are relative to the
spectral norm of the operand unless stated otherwise.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError, NumericalFailureError

# Relative rank threshold used for null spaces and the subspace staircase.
DEFAULT_RANK_TOL = 1e-9


def _as_matrix(a, name, dtype=float):
    m = np.asarray(a, dtype=dtype)
    if m.ndim != 2:
        raise InvalidInputError(f"{name}: expected a 2-d matrix, got shape {m.shape}")
    if m.size and not np.all(np.isfinite(m)):
        raise InvalidInputError(f"{name}: entries must be finite")
    return m


def _as_square(a, name, dtype=float):
    m = _as_matrix(a, name, dtype=dtype)
    if m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise InvalidInputError(
            f"{name}: expected a nonempty square matrix, got shape {m.shape}")
    return m


def _lapack(name, routine, *args, **kwargs):
    try:
        return routine(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"{name}: LAPACK failed: {exc}") from exc


def sym_eig(a):
    """Eigendecomposition of a real symmetric matrix (LAPACK ``syevd``).

    Returns ``(w, q)`` with eigenvalues ``w`` sorted ascending and
    orthonormal eigenvectors in the columns of ``q``, so that
    ``a ~= q @ diag(w) @ q.T``.

    Raises
    ------
    InvalidInputError
        If the input is not square or not symmetric to within
        ``1e-12 * ||a||_F``.
    NumericalFailureError
        If LAPACK fails to converge.
    """
    m = _as_square(a, "sym_eig")
    fro = np.linalg.norm(m, "fro")
    if np.linalg.norm(m - m.T, "fro") > 1e-12 * fro:
        raise InvalidInputError("sym_eig: matrix is not symmetric")
    return _lapack("sym_eig", np.linalg.eigh, 0.5 * (m + m.T))


def complex_eig(a):
    """Eigenvalues (with multiplicity) of a square complex matrix.

    Uses LAPACK ``geev`` (balancing, Hessenberg reduction, shifted QR).
    The returned array is sorted by (real part, imaginary part).

    Raises
    ------
    NumericalFailureError
        If LAPACK fails to converge.
    """
    m = _as_square(a, "complex_eig", dtype=complex)
    vals = _lapack("complex_eig", np.linalg.eigvals, m)
    return vals[np.lexsort((vals.imag, vals.real))]


def nullspace_basis(a, tol=DEFAULT_RANK_TOL):
    """Orthonormal basis of the near-null space of a symmetric PSD matrix.

    Returns the basis vectors as the columns of an array.  A direction
    counts as null when its eigenvalue is at most ``tol * ||a||_2``.  The
    zero matrix yields the full space.
    """
    vals, vecs = sym_eig(a)
    scale = max(abs(vals[0]), abs(vals[-1]))
    if vals[0] < -tol * scale:
        raise InvalidInputError(
            f"nullspace_basis: matrix is not positive semidefinite "
            f"(smallest eigenvalue {vals[0]:.3e})")
    return vecs[:, vals <= tol * scale]


def spectral_norm(a):
    """Largest singular value of a real or complex matrix (LAPACK SVD)."""
    m = np.asarray(a)
    m = _as_matrix(m, "spectral_norm", complex if np.iscomplexobj(m) else float)
    if m.size == 0:
        return 0.0
    return float(_lapack("spectral_norm", np.linalg.norm, m, 2))
