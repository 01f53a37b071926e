"""Ground-truth evolution: dense propagators and spectra, sparse evolution, ramps.

A time-independent Hamiltonian on at most ``DENSE_MAX_SPINS`` spins is
built as a dense matrix and diagonalised once (``spectrum``); every
propagator at a phase theta then comes from ``Spectrum.propagator``, a
matrix product that costs no further ``eigh``. That product is the one
dense definition of exp(-i theta H): its form,
``(V * exp(-i theta w)) @ V^dag``, fixes the rounding of every exact curve
in the bundled scenario CSVs (all at six spins or fewer), so applying the
phases to ``V^dag psi`` instead, though cheaper, would change their bytes.

Above ``DENSE_MAX_SPINS`` a dense propagator costs O(4^n) memory and
O(8^n) time per phase. There ``sparse_evolution`` applies
exp(-i theta H) to one state over a whole uniform theta grid with
``scipy.sparse.linalg.expm_multiply`` on a CSR Hamiltonian (Al-Mohy and
Higham, SIAM J. Sci. Comput. 33, 488, 2011), and no full matrix is formed.
The cutoff sits at the measured crossover: on a 33-point grid of a
long-range Ising model (best of 5, 2-vCPU Xeon VM), n=7 takes 14 ms dense
against 21 ms sparse, and n=8 77 ms against 34 ms. Full propagators
(``propagator``, process-fidelity checks) and spectra stay dense at every
size. The two-spin ramp's slices are built, diagonalised and exponentiated
as one (S, 4, 4) stack, then multiplied in order. ``Exact`` picks the route.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .models import RampSpec, _ising2_terms, ising2
from .pauli import StateVector, WeightedPauliSum, _stacked_matrices, hamiltonian_matrix, hamiltonian_sparse

DEGENERACY_TOL = 1e-9
# Largest spin count whose exact curves come from a dense Spectrum; above
# it they come from sparse_evolution.
DENSE_MAX_SPINS = 7


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
        return self.eigenvectors.conj().swapaxes(-1, -2)

    def propagator(self, theta: float | np.ndarray) -> np.ndarray:
        """exp(-i theta H) from the eigendecomposition; a stack takes an (S, 1) theta column."""
        phases = np.exp(-1j * theta * self.eigenvalues)
        return (self.eigenvectors * phases[..., None, :]) @ self._adjoint


def _check_hermitian(m: np.ndarray) -> None:
    if np.max(np.abs(m - m.conj().swapaxes(-1, -2)), initial=0.0) > 1e-9:
        raise ValueError("Hamiltonian matrix is not Hermitian")


def propagator(h, theta: float) -> np.ndarray:
    """exp(-i theta H) via eigendecomposition; ``Exact`` reuses one across phases."""
    return spectrum(h).propagator(theta)


def spectrum(h: WeightedPauliSum) -> Spectrum:
    """Full eigendecomposition with degeneracy grouping."""
    m = hamiltonian_matrix(h)
    _check_hermitian(m)
    return Spectrum(*np.linalg.eigh(m))


def sparse_evolution(h: WeightedPauliSum, psi0: StateVector, thetas) -> np.ndarray:
    """States exp(-i theta H) psi0 at every theta of a uniform grid, as columns (2^n, k).

    One ``expm_multiply`` call covers the whole grid. scipy's interval mode
    is only accurate on a grid that starts at 0 and rises, so the state is
    first carried to ``thetas[0]`` and a falling grid runs under -H.
    scipy's one-norm estimate draws from numpy's global random state, so
    the calls run on a fixed seed and the caller's state is put back.
    """
    from scipy.sparse.linalg import expm_multiply

    thetas = np.asarray(thetas, dtype=float)
    span = thetas[-1] - thetas[0]
    step = span / max(len(thetas) - 1, 1)
    if np.max(np.abs(np.diff(thetas) - step), initial=0.0) > 1e-9 * max(1.0, abs(span)):
        raise ValueError("sparse evolution needs a uniform theta grid")
    generator = -1j * hamiltonian_sparse(h)
    saved = np.random.get_state()
    np.random.seed(0)
    try:
        start = psi0.amps if thetas[0] == 0 else expm_multiply(thetas[0] * generator, psi0.amps)
        if len(thetas) == 1:  # the interval mode needs two points
            return start[:, None].copy()
        if span < 0:
            generator, span = -generator, -span
        amps = expm_multiply(generator, start, start=0.0, stop=span, num=len(thetas), endpoint=True)
    finally:
        np.random.set_state(saved)
    return np.ascontiguousarray(amps.T)  # the dense path's layout, so batch sums round alike


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


def _ramp_steps(ramp: RampSpec, edges: np.ndarray, slices: np.ndarray) -> np.ndarray:
    """Exact propagators of every slice from edges[0] on, stacked (S, 4, 4) in order.

    Interval j, edges[j] to edges[j + 1], has slices[j] equal slices, each under
    the ramp's Hamiltonian at its midpoint. One pass builds, checks,
    diagonalises and exponentiates them all, each rounded as a lone slice.
    """
    widths = np.repeat(np.diff(edges), slices) / np.repeat(slices, slices)
    k = np.arange(len(widths)) - np.repeat(np.cumsum(slices) - slices, slices)
    mids = np.repeat(edges[:-1], slices) + (k + 0.5) * widths
    m = _stacked_matrices(2, _ising2_terms(ramp.B, ramp.J_at(mids)[:, None]))
    _check_hermitian(m)
    return Spectrum(*np.linalg.eigh(m)).propagator(widths[:, None])


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
    for step in _ramp_steps(ramp, np.array([0.0, theta_end]), np.array([fine_steps])):
        u = step @ u
    return u


def ramp_evolution(
    ramp: RampSpec, psi0: StateVector, thetas: np.ndarray, fine_per_unit: int = 2000
) -> np.ndarray:
    """States of the exact time-dependent evolution at the given phases, as columns (4, k).

    fine_per_unit is the number of integration slices per unit of theta_t.
    """
    edges = np.concatenate([[0.0], np.asarray(thetas, dtype=float)])
    spans = np.diff(edges)
    if np.any(spans < 0):
        raise ValueError("theta grid must be nonnegative and nondecreasing")
    slices = np.ceil(fine_per_unit * spans / ramp.theta_t).astype(int)  # 0 on a zero span
    steps = _ramp_steps(ramp, edges, slices)
    states = np.empty((len(psi0.amps), len(spans)), dtype=complex)
    psi, ends = psi0.amps, np.cumsum(slices)
    for j, end in enumerate(ends):
        for step in steps[end - slices[j]:end]:
            psi = step @ psi
        states[:, j] = psi
    return states


@dataclass(frozen=True)
class Exact:
    """The exact oracle of one model (ramp, dense or sparse route), diagonalised at most once.

    Above ``DENSE_MAX_SPINS`` spins only ``propagator`` diagonalises.
    """

    model: WeightedPauliSum | RampSpec

    @cached_property
    def spectrum(self) -> Spectrum:
        return spectrum(self.model)

    def states(self, psi0: StateVector, thetas) -> np.ndarray:
        """exp(-i theta H) psi0, or the ramp's ordered evolution, as columns (2^n, k)."""
        if isinstance(self.model, RampSpec):
            return ramp_evolution(self.model, psi0, thetas)
        if self.model.n > DENSE_MAX_SPINS:
            return sparse_evolution(self.model, psi0, thetas)
        return np.stack([self.spectrum.propagator(th) @ psi0.amps for th in thetas], axis=1)

    def propagator(self, theta: float) -> np.ndarray:
        """The full 2^n x 2^n propagator from 0 to theta."""
        if isinstance(self.model, RampSpec):
            return time_ordered_propagator(self.model, 2000, theta)
        return self.spectrum.propagator(theta)
