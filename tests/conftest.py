"""Shared generators and independent oracles for the test suite.

Oracles go through numpy/LAPACK or plain combinatorics.  The package's
eigenvalue wrappers also call LAPACK, so an oracle here is independent
only in the matrix it solves: ``charpoly_roots`` reaches LAPACK through
``np.roots``, but on the companion matrix of the characteristic
polynomial, not on the matrix itself.
"""

import numpy as np
import pytest

from oscnet import CouplingEdge, CouplingGraph, OscillatorModel, normalize


def random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def random_model(rng, n, freq_lo=0.5, gap_lo=0.4, gap_hi=1.6):
    """Oscillator unit with well-separated squared natural frequencies."""
    freqs = freq_lo + np.cumsum(rng.uniform(gap_lo, gap_hi, n))
    shapes = random_orthogonal(rng, n)
    p = shapes @ np.diag(freqs) @ shapes.T
    a = rng.standard_normal((n, n)) * 0.4
    mass = a @ a.T + (0.6 + rng.uniform()) * np.eye(n)
    w, u = np.linalg.eigh(mass)
    mass_sqrt = (u * np.sqrt(w)) @ u.T
    stiffness = mass_sqrt @ p @ mass_sqrt
    return OscillatorModel(mass, 0.5 * (stiffness + stiffness.T))


def random_psd_weight(rng, n, scale=1.0, rank=None):
    r = int(rank) if rank is not None else int(rng.integers(1, n + 1))
    f = rng.standard_normal((n, r))
    w = (scale / r) * (f @ f.T)
    return 0.5 * (w + w.T)


def random_edge_pairs(rng, q, p_edge, ensure_connected=False):
    pairs = {(i, j) for i in range(1, q + 1) for j in range(i + 1, q + 1)
             if rng.uniform() < p_edge}
    if ensure_connected and q > 1:
        order = rng.permutation(q) + 1
        for idx in range(1, q):
            a, b = int(order[idx]), int(order[rng.integers(0, idx)])
            pairs.add((min(a, b), max(a, b)))
    return sorted(pairs)


def random_edges(rng, q, n, p_edge, scale=1.0, ensure_connected=False):
    return tuple(CouplingEdge(i, j, random_psd_weight(rng, n, scale))
                 for i, j in random_edge_pairs(rng, q, p_edge, ensure_connected))


def random_system(rng, q=None, n=None, connected=None, with_restorative=None,
                  weight_scale=1.0, epsilon=1.0):
    q = int(rng.integers(2, 7)) if q is None else q
    n = int(rng.integers(1, 5)) if n is None else n
    model = random_model(rng, n)
    if connected is None:
        connected = bool(rng.uniform() < 0.5)
    if with_restorative is None:
        with_restorative = bool(rng.uniform() < 0.5)
    d_edges = random_edges(rng, q, n, 0.4, weight_scale, ensure_connected=connected)
    r_edges = random_edges(rng, q, n, 0.4, weight_scale) if with_restorative else ()
    if with_restorative and not r_edges:
        i = int(rng.integers(1, q))
        r_edges = (CouplingEdge(i, i + 1, random_psd_weight(rng, n, weight_scale)),)
    graph = CouplingGraph(q, d_edges, r_edges, epsilon=epsilon)
    return normalize(model, graph)


def components_count(q, pairs):
    """Number of connected components among nodes 1..q (union-find oracle)."""
    parent = list(range(q + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in pairs:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    return len({find(i) for i in range(1, q + 1)})


def charpoly_roots(a):
    """Eigenvalue oracle: Faddeev-LeVerrier characteristic polynomial
    coefficients, then numpy's companion-matrix root finder."""
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    work = np.zeros_like(a)
    ident = np.eye(n)
    for k in range(1, n + 1):
        work = a @ (work + coeffs[k - 1] * ident)
        coeffs[k] = -np.trace(work) / k
    return np.roots(coeffs)


def assert_multiset_close(got, expected, tol):
    """Greedy nearest-neighbour matching of two eigenvalue multisets."""
    got = list(np.asarray(got, dtype=complex))
    rest = list(np.asarray(expected, dtype=complex))
    assert len(got) == len(rest)
    for x in got:
        k = min(range(len(rest)), key=lambda i: abs(rest[i] - x))
        assert abs(rest[k] - x) <= tol, f"eigenvalue {x} vs nearest {rest[k]}"
        rest.pop(k)


def observability_rank_deficient(c, a):
    """Kalman oracle: True when [C; CA; ...; CA^{n-1}] loses rank."""
    n = a.shape[0]
    blocks = [c]
    for _ in range(n - 1):
        blocks.append(blocks[-1] @ a)
    obs = np.vstack(blocks)
    smax = np.linalg.svd(obs, compute_uv=False)[0]
    rank = np.linalg.matrix_rank(obs, tol=1e-8 * max(smax, 1.0))
    return rank < n


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
