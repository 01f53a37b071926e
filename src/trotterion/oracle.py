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
O(8^n) time per phase. There ``sparse_evolution`` applies exp(-i theta H)
to one state at every theta of any grid (unsorted, repeated or negative
phases alike) with one Chebyshev series on a CSR Hamiltonian, and no full
matrix is formed. The series needs only a bound on the spectrum: the
identity terms' coefficients give its centre, the moduli of the other
coefficients sum to its radius. Coefficients below ``CHEBYSHEV_TOL`` are
set to 0, so theta = 0 returns the initial state bit for bit. Full
propagators (``propagator``, process-fidelity checks) and spectra stay dense
at every size. The two-spin ramp's slices are built, diagonalised and
exponentiated as one (S, 4, 4) stack, then multiplied in order. ``Exact``
picks the route and rejects a non-finite theta.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .models import RampSpec, _ising2_terms
from .pauli import DimensionError, StateVector, WeightedPauliSum, _stacked_matrices, hamiltonian_matrix, hamiltonian_sparse

DEGENERACY_TOL = 1e-9
# Largest spin count whose exact curves come from a dense Spectrum; above
# it they come from sparse_evolution. Timed on a 33-point grid over [0, 2.3]
# of long_range_ising(n, 0.5, 1) (best of 7, two runs, 2-vCPU Xeon VM):
# n=6 takes 3.1-3.7 ms dense against 1.4-2.4 ms sparse, n=7 13.7-15.4 ms
# against 2.3-3.7 ms, n=8 73-81 ms against 4.1-6.3 ms. The sparse route is
# faster from n=6 on; the cutoff stays at 6 because the bundled scenarios'
# CSV bytes, all at six spins or fewer, come from the dense route.
DENSE_MAX_SPINS = 6
# Chebyshev coefficients of sparse_evolution: parts below CHEBYSHEV_TOL are
# set to 0; CHEBYSHEV_BLOCK (at least 3) vectors are summed per matrix product.
CHEBYSHEV_TOL = 1e-15
CHEBYSHEV_BLOCK = 32
# Midpoint slices of a ramp's exact evolution: per unit of theta_t in
# ramp_evolution, over the whole span in time_ordered_propagator. Doubling
# it moves the bundled ramps by < 1e-8.
RAMP_SLICES = 2000


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


def _chebyshev_coefficients(a: np.ndarray) -> np.ndarray:
    """(2 - delta_k0) (-i)^k J_k(a) for k = 0, 1, ..., one column per entry of a.

    By the Jacobi-Anger expansion these are the cosine coefficients of
    exp(-i a cos t), read off one FFT of it sampled at a power-of-two size of
    at least 2K. K = |a| + 12 |a|^(1/3) + 20 terms carry every J_k above 1e-17,
    so the aliased terms, of order K and higher, lie below that too.
    """
    top = np.max(np.abs(a), initial=0.0)
    terms = int(top + 12 * np.cbrt(top)) + 20
    size = 1 << (2 * terms - 1).bit_length()
    samples = np.exp(-1j * np.multiply.outer(np.cos(2 * np.pi / size * np.arange(size)), a))
    c = np.fft.fft(samples, axis=0)[:terms] / size
    c[1:] *= 2
    return c


def sparse_evolution(h: WeightedPauliSum, psi0: StateVector, thetas) -> np.ndarray:
    """States exp(-i theta H) psi0 at every theta of any grid, as columns (2^n, k).

    One Chebyshev series covers the whole grid (Tal-Ezer and Kosloff, J. Chem.
    Phys. 81, 3967, 1984). The spectrum of H lies in shift +- radius, where
    shift sums the identity terms' coefficients and radius the moduli of the
    others', so with H~ = (H - shift) / radius,
    exp(-i theta H) = exp(-i theta shift) sum_k (2 - delta_k0) (-i)^k
    J_k(theta radius) T_k(H~). Real and imaginary parts of a coefficient below
    ``CHEBYSHEV_TOL`` are set to exactly 0 and the series ends after the last
    nonzero one, so at theta = 0, or over a subnormal span, it is psi0 bit for
    bit. The recurrence T_{k+1} psi0 = 2 H~ T_k psi0 - T_{k-1} psi0 runs on the
    CSR matrix of H - shift; every ``CHEBYSHEV_BLOCK`` vectors are added into
    the result with one matrix product, and only that block is kept.
    """
    thetas = np.asarray(thetas, dtype=float)
    shift = sum(c for c, p in h.terms if p.is_identity)
    rest = tuple((c, p) for c, p in h.terms if not p.is_identity)
    radius = sum(abs(c) for c, _ in rest)
    coeffs = _chebyshev_coefficients(thetas * radius) * np.exp(-1j * shift * thetas)
    coeffs.real[np.abs(coeffs.real) < CHEBYSHEV_TOL] = 0.0
    coeffs.imag[np.abs(coeffs.imag) < CHEBYSHEV_TOL] = 0.0
    coeffs = coeffs[: 1 + max(np.flatnonzero(coeffs.any(axis=1)), default=0)]
    terms = len(coeffs)
    if terms > 1:
        twice = hamiltonian_sparse(WeightedPauliSum(h.n, rest))  # 2 H~
        twice.data *= 2.0 / radius
    # a ring of CHEBYSHEV_BLOCK >= 3 slots: T_k goes to slot k % block and
    # reads T_{k-1}, T_{k-2} from the two slots before it
    block = min(CHEBYSHEV_BLOCK, terms)
    basis = np.empty((block, len(psi0.amps)), dtype=complex)
    out = np.zeros((len(psi0.amps), len(thetas)), dtype=complex)
    for k in range(terms):
        slot = k % block
        if k == 0:
            basis[0] = psi0.amps
        elif k == 1:
            np.multiply(twice @ psi0.amps, 0.5, out=basis[1])
        else:
            np.subtract(twice @ basis[(k - 1) % block], basis[(k - 2) % block], out=basis[slot])
        if slot == block - 1 or k == terms - 1:
            out += basis[: slot + 1].T @ coeffs[k - slot : k + 1]
    return out


def level_populations(psi0: StateVector, spec: Spectrum) -> np.ndarray:
    """Population of each degenerate level in the initial state."""
    if spec.eigenvectors.shape[0] != psi0.amps.shape[0]:
        raise ValueError("state dimension does not match spectrum")
    overlaps = np.abs(spec.eigenvectors.conj().T @ psi0.amps) ** 2
    return np.array([overlaps[sl].sum() for _, sl in spec.levels])


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
    ramp: RampSpec, fine_steps: int = RAMP_SLICES, theta_end: float | None = None
) -> np.ndarray:
    """Ordered product of fine_steps short exact propagators from 0 to theta_end.

    Uses the midpoint coupling of each slice.
    """
    if fine_steps < 1:
        raise ValueError("fine_steps must be >= 1")
    theta_end = ramp.theta_t if theta_end is None else theta_end
    u = np.eye(4, dtype=complex)
    for step in _ramp_steps(ramp, np.array([0.0, theta_end]), np.array([fine_steps])):
        u = step @ u
    return u


def ramp_evolution(ramp: RampSpec, psi0: StateVector, thetas: np.ndarray) -> np.ndarray:
    """States of the exact time-dependent evolution at the given phases, as columns (4, k).

    Each span between phases takes RAMP_SLICES slices per unit of theta_t, rounded up.
    """
    edges = np.concatenate([[0.0], np.asarray(thetas, dtype=float)])
    spans = np.diff(edges)
    if np.any(spans < 0):
        raise ValueError("theta grid must be nonnegative and nondecreasing")
    slices = np.ceil(RAMP_SLICES * spans / ramp.theta_t).astype(int)  # 0 on a zero span
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
        thetas = np.asarray(thetas, dtype=float)
        if not np.isfinite(thetas).all():
            raise ValueError("theta grid must be finite")
        n = 2 if isinstance(self.model, RampSpec) else self.model.n
        if psi0.n != n:
            raise DimensionError(f"{psi0.n}-spin state for a {n}-spin model")
        if isinstance(self.model, RampSpec):
            return ramp_evolution(self.model, psi0, thetas)
        if n > DENSE_MAX_SPINS:
            return sparse_evolution(self.model, psi0, thetas)
        out = np.empty((len(psi0.amps), len(thetas)), dtype=complex)
        for k, th in enumerate(thetas):
            out[:, k] = self.spectrum.propagator(th) @ psi0.amps
        return out

    def propagator(self, theta: float) -> np.ndarray:
        """The full 2^n x 2^n propagator from 0 to theta."""
        if isinstance(self.model, RampSpec):
            return time_ordered_propagator(self.model, theta_end=theta)
        return self.spectrum.propagator(theta)
