"""Time-domain integration of the coupled array.

Fixed-step classical 4th-order integration of the mass-normalized
second-order dynamics, with the quadratic energy and the synchronization
error recorded at every step.  Also constructs the explicit periodic
trajectories that certify a failed synchronization verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .criteria import subspace_analysis
from .errors import InvalidInputError
from .linalg import spectral_norm, sym_eig
from .model import ArraySystem, array_stiffness

# RK4 keeps purely oscillatory modes stable up to |omega * dt| = 2*sqrt(2);
# user-supplied steps are rejected beyond this fraction of that limit.
_STABILITY_LIMIT = 2.5
# Rows per block for the derived columns and the CSV writer; bounds temporaries.
_BLOCK = 128


@dataclass(frozen=True)
class SimulationTrace:
    """One integrated trajectory on a uniform time grid, kept in one table.

    ``table`` has a row per grid point and the columns ``t, e, W, z, v``,
    of which ``times``, ``sync_error``, ``energy``, ``positions`` (qn
    mass-normalized) and ``velocities`` are views.  ``sync_error[k]`` is the
    distance of the position state from the synchronous subspace (all
    oscillators equal) at ``times[k]``; ``energy`` is the quadratic energy
    driving the dissipation argument.
    """

    table: np.ndarray       # (m, 3 + 2 qn)
    dt: float
    epsilon: float
    seed: int | None = None

    times = property(lambda self: self.table[:, 0])
    sync_error = property(lambda self: self.table[:, 1])
    energy = property(lambda self: self.table[:, 2])
    positions = property(lambda self: self.table[:, 3:(self.table.shape[1] + 3) // 2])
    velocities = property(lambda self: self.table[:, (self.table.shape[1] + 3) // 2:])

    def to_csv(self, path):
        """Write the trace as CSV with 17 significant digits per number."""
        qn = self.positions.shape[1]
        names = [f"{c}_{i + 1}" for c in "zv" for i in range(qn)]
        header = ",".join(["t", "e", "W", *names])
        row = ",".join(["%.17g"] * self.table.shape[1]) + "\n"
        with open(path, "w", newline="") as fh:
            if self.seed is not None:
                fh.write(f"# seed={self.seed}\n")
            fh.write(header + "\n")
            for lo in range(0, len(self.table), _BLOCK):
                block = self.table[lo:lo + _BLOCK]
                fh.write((row * block.shape[0]) % tuple(block.ravel().tolist()))


@dataclass(frozen=True)
class CounterexampleMode:
    """A periodic, non-synchronizing solution of the array dynamics.

    Starting from position ``shape`` at rest, the array oscillates as
    ``cos(omega t) * shape`` forever; ``shape`` lies outside the
    synchronous subspace, so the synchronization error returns to its
    initial value every ``period``.
    """

    omega: float
    shape: np.ndarray    # (qn,) real unit vector
    period: float


def _sync_errors(z, q, n):
    """Distance of each row of stacked positions from the synchronous subspace."""
    block = z.reshape(-1, q, n)
    return np.linalg.norm(block - block.mean(axis=1, keepdims=True), axis=(1, 2))


def _energies(s, z, zdot):
    """Quadratic energy of each row of positions and velocities."""
    return 0.5 * (np.einsum("ki,ki->k", z @ s, z)
                  + np.einsum("ki,ki->k", zdot, zdot))


def sync_error(z, q, n) -> float:
    """Distance of a stacked position vector from the synchronous subspace."""
    return float(_sync_errors(np.reshape(z, (1, q * n)), q, n)[0])


def energy(sys: ArraySystem, z, zdot, eps=None) -> float:
    """Quadratic energy: half the position-coupling form plus kinetic term."""
    s = array_stiffness(sys, eps)
    z = np.asarray(z, dtype=float).ravel()
    zdot = np.asarray(zdot, dtype=float).ravel()
    if z.size != s.shape[0] or zdot.size != s.shape[0]:
        raise InvalidInputError(
            f"state dimension must be {s.shape[0]}, got {z.size} and {zdot.size}")
    return float(_energies(s, z[None], zdot[None])[0])


def _omega_max(sys, eps):
    svals, _ = sym_eig(array_stiffness(sys, eps))
    return math.sqrt(max(svals[-1], 0.0)) + 2.0 * spectral_norm(sys.lap_dissipative)


def default_time_step(sys: ArraySystem, eps=None) -> float:
    """Conservative step size: resolves the fastest mode by a factor of ten."""
    return min(0.01, 0.1 / _omega_max(sys, eps))


def integrate(sys: ArraySystem, z0, v0, t_final, eps=None, dt=None,
              seed=None) -> SimulationTrace:
    """Integrate the array from ``(z0, v0)`` up to at least ``t_final``.

    Classical fixed-step 4th-order Runge-Kutta on the first-order form of
    the mass-normalized dynamics, applied as one precomputed propagator
    matrix that fills the trace table row by row.  ``dt`` defaults to
    :func:`default_time_step`; steps beyond the stability limit are
    rejected with a suggested value.
    """
    e = sys.graph.epsilon if eps is None else float(eps)
    s = array_stiffness(sys, e)
    ld = sys.lap_dissipative
    dim = s.shape[0]
    z = np.asarray(z0, dtype=float).ravel()
    v = np.asarray(v0, dtype=float).ravel()
    if z.size != dim or v.size != dim:
        raise InvalidInputError(
            f"state dimension must be {dim}, got {z.size} and {v.size}")
    if not (np.all(np.isfinite(z)) and np.all(np.isfinite(v))):
        raise InvalidInputError("initial state must be finite")
    if dt is None:
        # the default step lies well inside the stability bound
        dt = default_time_step(sys, e)
    else:
        dt = float(dt)
        if not np.isfinite(dt) or dt <= 0.0:
            raise InvalidInputError(f"dt must be positive, got {dt}")
        omega_max = _omega_max(sys, e)
        if omega_max > 0.0 and dt > _STABILITY_LIMIT / omega_max:
            raise InvalidInputError(
                f"dt={dt:.6g} exceeds the stability bound "
                f"{_STABILITY_LIMIT / omega_max:.6g}; "
                f"try dt={default_time_step(sys, e):.6g}")
    t_final = float(t_final)
    if not dt <= t_final < math.inf:
        raise InvalidInputError(
            f"t_final must be finite and at least dt={dt:.6g}, got {t_final}")
    steps = max(1, int(math.ceil(t_final / dt - 1e-9)))

    # x' = A x with x = (z, v) is linear and time-invariant, so one RK4 step
    # is x <- P(dt A) x, P(h) = 1 + h + h^2/2 + h^3/6 + h^4/24 (Horner's rule).
    ha = dt * np.block([[np.zeros((dim, dim)), np.eye(dim)], [-s, -ld]])
    prop = eye = np.eye(2 * dim)
    for c in (4.0, 3.0, 2.0, 1.0):
        prop = eye + (ha @ prop) / c
    step = prop.T
    table = np.empty((steps + 1, 3 + 2 * dim))
    table[:, 0] = dt * np.arange(steps + 1)
    x = table[:, 3:]
    x[0, :dim], x[0, dim:] = z, v
    for k in range(steps):
        np.dot(x[k], step, out=x[k + 1])
    for lo in range(0, steps + 1, _BLOCK):
        rows = table[lo:lo + _BLOCK]
        zb, vb = rows[:, 3:3 + dim], rows[:, 3 + dim:]
        rows[:, 1] = _sync_errors(zb, sys.q, sys.n)
        rows[:, 2] = _energies(s, zb, vb)
    return SimulationTrace(table, dt, e, seed)


def random_initial_state(sys: ArraySystem, seed=0, scale=1.0):
    """Reproducible random initial state (standard normal entries)."""
    rng = np.random.default_rng(seed)
    dim = sys.q * sys.n
    return scale * rng.standard_normal(dim), scale * rng.standard_normal(dim)


def counterexample_ic(sys: ArraySystem, eps=None) -> CounterexampleMode | None:
    """Initial condition certifying a failed synchronization verdict.

    Returns None when the subspace route counts no undamped motion besides
    the n synchronous ones.  Otherwise returns the fastest undamped mode:
    the top eigenvector of the position coupling restricted to the basis
    that :func:`~oscnet.criteria.subspace_analysis` finds orthogonal to
    synchrony, signed so that the first of its largest-magnitude entries
    is positive.
    """
    analysis = subspace_analysis(sys, eps)
    if analysis.count == sys.n:
        return None
    basis = analysis.basis
    vals, vecs = sym_eig(basis.T @ array_stiffness(sys, eps) @ basis)
    shape = basis @ vecs[:, -1]
    # The solver leaves the sign free; fix it so traces do not depend on it.
    # Symmetric arrays tie entries in magnitude up to rounding, so the first
    # of the largest entries is made positive, not the rounding's winner.
    size = np.abs(shape)
    shape *= np.sign(shape[np.argmax(size >= (1.0 - 1e-9) * size.max())])
    omega = math.sqrt(vals[-1])
    return CounterexampleMode(omega, shape, 2.0 * math.pi / omega)
