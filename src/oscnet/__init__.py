"""Synchronization analysis for arrays of identical coupled linear oscillators.

Identical units ``M x'' + K x = 0`` are coupled through positive
semidefinite matrix weights on velocity differences (dissipative) and
position differences (restorative).  This package decides whether every
trajectory of the coupled array converges to synchrony, certifies the
verdict by time-domain simulation, and computes an explicit coupling
threshold for the weak-restorative regime.
"""

__version__ = "0.1.0"

from .errors import (ConfigError, InvalidInputError, InvalidModelError,
                     NumericalFailureError, OscnetError,
                     UnsupportedConfigurationError)
from .linalg import (complex_eig, nullspace_basis, spectral_norm, sym_eig,
                     sym_norm)
from .model import (ArraySystem, CommensurableCoupling, CouplingEdge,
                    CouplingGraph, OscillatorModel, admittance_matrix,
                    array_stiffness, build_laplacian, build_mass_spring_chain,
                    commensurable_expand, commensurable_graph, normalize)
from .criteria import (CommensurableReport, ModalForm, SyncVerdict,
                       WeakCouplingBound, commensurable_check, harmonic_check,
                       modal_transform, pure_dissipative_check,
                       sync_check_spectral, sync_check_subspace,
                       sync_sweep, weak_coupling_bound)
from .simulate import (CounterexampleMode, SimulationTrace, counterexample_ic,
                       default_time_step, energy, integrate,
                       random_initial_state, sync_error)
from .cli import build_report, parse_config, write_config

__all__ = [
    "ArraySystem", "CommensurableCoupling", "CommensurableReport",
    "ConfigError", "CounterexampleMode", "CouplingEdge", "CouplingGraph",
    "InvalidInputError", "InvalidModelError", "ModalForm",
    "NumericalFailureError", "OscillatorModel", "OscnetError",
    "SimulationTrace", "SyncVerdict",
    "UnsupportedConfigurationError", "WeakCouplingBound",
    "admittance_matrix", "array_stiffness", "build_laplacian",
    "build_mass_spring_chain", "build_report", "commensurable_check",
    "commensurable_expand", "commensurable_graph", "complex_eig",
    "counterexample_ic", "default_time_step", "energy", "harmonic_check",
    "integrate", "modal_transform", "normalize", "nullspace_basis",
    "parse_config", "pure_dissipative_check", "random_initial_state",
    "spectral_norm", "sym_eig", "sym_norm",
    "sync_check_spectral", "sync_check_subspace", "sync_error", "sync_sweep",
    "weak_coupling_bound", "write_config",
]
