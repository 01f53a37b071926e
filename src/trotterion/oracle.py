"""Ground-truth dense propagators, spectra, and time-ordered evolution.

Everything here goes through a Hermitian eigendecomposition: the
matrices are small (dimension <= 4096) and the spectra are needed for
level-population analysis anyway. A time-independent Hamiltonian is
built and diagonalised once (``spectrum``); every propagator at a phase
theta then comes from ``Spectrum.propagator``, a matrix product that
costs no further ``eigh``. That product is the one definition of
exp(-i theta H): its form, ``(V * exp(-i theta w)) @ V^dag``, fixes the
rounding of every exact curve in the scenario CSVs, so applying the
phases to ``V^dag psi`` instead, though cheaper, would change their bytes.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .models import RampSpec, ising2
from .pauli import StateVector, WeightedPauliSum, hamiltonian_matrix

DEGENERACY_TOL = 1e-9


class DegenerateGroundState(ValueError):
    """The ground level is degenerate; no unique ground state exists."""


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition with degenerate eigenvalues grouped into levels."""

    eigenvalues: np.ndarray  # ascending
    eigenvectors: np.ndarray  # orthonormal columns, matching order

    @cached_property
    def levels(self) -> tuple:
        """(energy, index slice) per degenerate group, ascending."""
        w = self.eigenvalues
        levels = []
        start = 0
        for i in range(1, len(w) + 1):
            if i == len(w) or w[i] - w[i - 1] > DEGENERACY_TOL:
                levels.append((float(np.mean(w[start:i])), slice(start, i)))
                start = i
        return tuple(levels)

    def level_energies(self) -> np.ndarray:
        return np.array([e for e, _ in self.levels])

    @cached_property
    def _adjoint(self) -> np.ndarray:
        return self.eigenvectors.conj().T

    def propagator(self, theta: float) -> np.ndarray:
        """exp(-i theta H) from the stored eigendecomposition."""
        return (self.eigenvectors * np.exp(-1j * theta * self.eigenvalues)) @ self._adjoint


def _matrix_of(h) -> np.ndarray:
    if isinstance(h, WeightedPauliSum):
        return hamiltonian_matrix(h)
    return np.asarray(h, dtype=complex)


def _check_hermitian(m: np.ndarray) -> None:
    if np.max(np.abs(m - m.conj().T)) > 1e-9:
        raise ValueError("Hamiltonian matrix is not Hermitian")


def propagator(h, theta: float) -> np.ndarray:
    """exp(-i theta H) via eigendecomposition.

    To evolve under one Hamiltonian at several phases, call ``spectrum``
    once and ``Spectrum.propagator`` per phase.
    """
    return spectrum(h).propagator(theta)


def spectrum(h) -> Spectrum:
    """Full eigendecomposition with degeneracy grouping."""
    m = _matrix_of(h)
    _check_hermitian(m)
    return Spectrum(*np.linalg.eigh(m))


def level_populations(psi0: StateVector, spec: Spectrum) -> np.ndarray:
    """Population of each degenerate level in the initial state."""
    if spec.eigenvectors.shape[0] != psi0.amps.shape[0]:
        raise ValueError("state dimension does not match spectrum")
    overlaps = np.abs(spec.eigenvectors.conj().T @ psi0.amps) ** 2
    return np.array([overlaps[sl].sum() for _, sl in spec.levels])


def instantaneous_ground_state(h) -> StateVector:
    """Lowest eigenvector, phase-fixed so its largest amplitude is real positive."""
    spec = spectrum(h)
    _, sl = spec.levels[0]
    if sl.stop - sl.start > 1:
        raise DegenerateGroundState("ground level is degenerate")
    vec = spec.eigenvectors[:, sl.start]
    k = int(np.argmax(np.abs(vec)))
    vec = vec * np.exp(-1j * np.angle(vec[k]))
    n = int(np.log2(len(vec)))
    return StateVector(n, vec)


def ramp_hamiltonian(ramp: RampSpec, theta: float) -> WeightedPauliSum:
    return ising2(ramp.B, ramp.J_at(theta))


def _ramp_slices(ramp: RampSpec, start: float, stop: float, slices: int):
    """Exact propagators of equal slices from start to stop, in order.

    Each slice evolves under the ramp's Hamiltonian at its midpoint.
    """
    d = (stop - start) / slices
    for k in range(slices):
        yield propagator(ramp_hamiltonian(ramp, start + (k + 0.5) * d), d)


def time_ordered_propagator(
    ramp: RampSpec, fine_steps: int = 2000, theta_end: float | None = None
) -> np.ndarray:
    """Ordered product of short exact propagators over a fine theta grid.

    Uses the midpoint coupling of each slice; doubling fine_steps moves
    the result by less than 1e-8 for the bundled ramps.
    """
    if fine_steps < 1:
        raise ValueError("fine_steps must be >= 1")
    theta_end = ramp.theta_t if theta_end is None else theta_end
    u = np.eye(4, dtype=complex)
    for step in _ramp_slices(ramp, 0.0, theta_end, fine_steps):
        u = step @ u
    return u


def ramp_evolution(
    ramp: RampSpec, psi0: StateVector, thetas: np.ndarray, fine_per_unit: int = 2000
) -> list:
    """States of the exact time-dependent evolution at the given phases.

    fine_per_unit is the number of integration slices per unit of theta_t.
    """
    thetas = np.asarray(thetas, dtype=float)
    if np.any(np.diff(thetas) < 0):
        raise ValueError("theta grid must be nondecreasing")
    states = []
    psi = psi0.amps.copy()
    prev = 0.0
    for th in thetas:
        span = th - prev
        if span > 0:
            steps = max(1, int(np.ceil(fine_per_unit * span / ramp.theta_t)))
            for step in _ramp_slices(ramp, prev, th, steps):
                psi = step @ psi
        prev = th
        states.append(StateVector(psi0.n, psi.copy()))
    return states
