"""Fidelities, entanglement, process tomography, Hofmann bounds and GHZ fidelity.

Process matrices live in the n-spin Pauli operator basis ordered
I, X, Y, Z per spin with the first spin's letter varying slowest
(II, IX, IY, IZ, XI, ...).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .gates import sequence_unitary
from .pauli import DimensionError, PauliString, StateVector, _column_products, expectation

_LETTERS = "IXYZ"
_YY = PauliString(2, "YY")


@dataclass(frozen=True)
class ProcessMatrix:
    """Chi representation of a quantum process, unit trace."""

    n: int
    chi: np.ndarray

    def __post_init__(self):
        chi = np.asarray(self.chi, dtype=complex)
        d4 = 4**self.n
        if chi.shape != (d4, d4):
            raise DimensionError(f"chi has shape {chi.shape}, expected ({d4},{d4})")
        object.__setattr__(self, "chi", chi)

    def validate(self) -> None:
        if np.max(np.abs(self.chi - self.chi.conj().T)) > 1e-8:
            raise ValueError("chi matrix is not Hermitian")
        if abs(np.trace(self.chi).real - 1.0) > 1e-6:
            raise ValueError(f"chi trace {np.trace(self.chi)} != 1")
        if np.linalg.eigvalsh(self.chi).min() < -1e-6:
            raise ValueError("chi has a significantly negative eigenvalue")


@dataclass(frozen=True)
class GhzMeasurementRecord:
    """Populations and parity oscillation amplitudes characterizing a
    cos(theta)|0..0> + sin(theta)|1..1> target."""

    theta: float
    pop_low: float
    pop_high: float
    parities: tuple
    signs: tuple

    def __post_init__(self):
        if len(self.signs) != len(self.parities):
            raise ValueError("need one sign per parity")
        if not all(s in (-1, 1) for s in self.signs):
            raise ValueError("signs must be +1 or -1")


def _density(state: StateVector) -> np.ndarray:
    return np.outer(state.amps, state.amps.conj())


def process_fidelity(U: np.ndarray, V: np.ndarray) -> float:
    """|Tr(U^dag V)|^2 / d^2, invariant under global phases."""
    U, V = np.asarray(U, complex), np.asarray(V, complex)
    if U.shape != V.shape:
        raise DimensionError("unitaries have different dimensions")
    d = U.shape[0]
    for M in (U, V):
        if np.max(np.abs(M.conj().T @ M - np.eye(d))) > 1e-6:
            raise ValueError("input is not unitary")
    # Tr(U^dag V) is the elementwise sum conj(U) * V
    return float(abs(np.vdot(U, V)) ** 2 / d**2)


def chi_overlap(a: ProcessMatrix, b: ProcessMatrix) -> float:
    """Normalized Tr(chi_a chi_b), the chi-basis process fidelity."""
    ta, tb = np.trace(a.chi).real, np.trace(b.chi).real
    return float(np.trace(a.chi @ b.chi).real / (ta * tb))


def tangles(amps: np.ndarray) -> np.ndarray:
    """Concurrence squared |psi^T YY psi|^2 of every two-spin state psi in the columns of amps (4, k)."""
    # modulus and square per scalar, as the bundled CSVs carry them; numpy's array forms round otherwise
    return np.clip([abs(c) ** 2 for c in _column_products(amps, _YY, np.dot)], 0.0, 1.0)


def tangle2(state: StateVector) -> float:
    """Concurrence squared of a two-spin pure state."""
    return float(tangles(state.amps[:, None])[0])


# -- process tomography ------------------------------------------------------


def pauli_basis_ops(n: int):
    """All n-letter Pauli strings, first spin's letter slowest."""
    return [PauliString(n, "".join(c)) for c in product(_LETTERS, repeat=n)]


def unitary_chi(U: np.ndarray, n: int) -> ProcessMatrix:
    """Rank-one chi matrix of a unitary channel."""
    d = 2**n
    coeffs = np.array([np.trace(p.matrix().conj().T @ U) / d for p in pauli_basis_ops(n)])
    return ProcessMatrix(n, np.outer(coeffs, coeffs.conj()))


_SINGLE_INPUTS = (
    np.array([1, 0], complex),  # |0>
    np.array([0, 1], complex),  # |1>
    np.array([1, 1], complex) / np.sqrt(2),  # |+>
    np.array([1, 1j], complex) / np.sqrt(2),  # |+i>
)


def _tomography_inputs(n: int):
    states = []
    for combo in product(range(4), repeat=n):
        amps = np.array([1.0 + 0j])
        for q in reversed(combo):  # spin 0 = lowest bit
            amps = np.kron(_SINGLE_INPUTS[q], amps)
        states.append(StateVector(n, amps))
    return states


def _measured_density(state: StateVector, rng, shots) -> np.ndarray:
    """Output density matrix from Pauli expectations, exact or sampled."""
    n, d = state.n, 2**state.n
    sigma = np.zeros((d, d), dtype=complex)
    for p in pauli_basis_ops(n):
        val = expectation(state, p) if not p.is_identity else 1.0
        if shots is not None and not p.is_identity:
            prob = (1 + val) / 2
            val = 2 * rng.binomial(shots, prob) / shots - 1
        sigma += val * p.matrix()
    return sigma / d


def simulate_qpt(program, shots: int | None = None, seed: int = 0) -> ProcessMatrix:
    """Tomographic chi reconstruction of a compiled program or gate sequence.

    Propagates the standard product-state input set, reconstructs each
    output from Pauli expectations (sampled binomially when shots is
    given), inverts linearly to the process, and projects the result
    onto the positive cone with trace renormalization.
    """
    seq = getattr(program, "sequence", program)
    n = seq.n
    if n > 2:  # checked before a sequence is multiplied out
        raise DimensionError("tomography supported for n <= 2")
    U = sequence_unitary(seq)
    d = 2**n
    rng = np.random.default_rng(seed)
    inputs = _tomography_inputs(n)
    in_mat = np.column_stack([_density(s).reshape(-1) for s in inputs])
    if np.linalg.matrix_rank(in_mat) < d * d:
        raise ValueError("input set is underdetermined")
    outputs = [_measured_density(StateVector(n, U @ s.amps), rng, shots) for s in inputs]
    out_mat = np.column_stack([o.reshape(-1) for o in outputs])
    transfer = out_mat @ np.linalg.inv(in_mat)
    # Choi matrix: sum_ij |i><j| (x) E(|i><j|)
    choi = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            eij = np.zeros((d, d), complex)
            eij[i, j] = 1.0
            choi += np.kron(eij, (transfer @ eij.reshape(-1)).reshape(d, d))
    vecs = []
    for p in pauli_basis_ops(n):
        pm = p.matrix()
        v = np.zeros(d * d, complex)
        for i in range(d):
            v[i * d : (i + 1) * d] = pm[:, i]
        vecs.append(v)
    V = np.column_stack(vecs)
    chi = V.conj().T @ choi @ V / d**2
    chi = (chi + chi.conj().T) / 2
    w, vec = np.linalg.eigh(chi)
    w = np.clip(w, 0.0, None)
    chi = (vec * w) @ vec.conj().T
    chi /= np.trace(chi).real
    return ProcessMatrix(n, chi)


# -- process-fidelity bounds from two truth tables ---------------------------


def hofmann_bounds(F1: float, F2: float, u1: float = 0.0, u2: float = 0.0) -> dict:
    """Process fidelity interval F1 + F2 - 1 <= Fp <= min(F1, F2), with uncertainties.

    Returns lower, upper, lower_unc and upper_unc; with F1 and F2 in [0, 1],
    lower never exceeds upper.
    """
    for f in (F1, F2):
        if not 0.0 <= f <= 1.0:
            raise ValueError(f"truth-table fidelity {f} outside [0, 1]")
    upper, upper_unc = (F1, u1) if F1 <= F2 else (F2, u2)
    return {"lower": F1 + F2 - 1.0, "upper": upper, "lower_unc": float(np.hypot(u1, u2)), "upper_unc": upper_unc}


# -- GHZ-class fidelity estimation ------------------------------------------


def ghz_fidelity(record: GhzMeasurementRecord) -> float:
    """Populations-plus-parity estimate of the overlap with
    cos(theta)|0..0> + sin(theta)|1..1>."""
    n = len(record.parities)
    c, s = np.cos(record.theta), np.sin(record.theta)
    coherence = sum(a * q for a, q in zip(record.signs, record.parities)) / n
    return float(c**2 * record.pop_low + s**2 * record.pop_high + c * s * coherence)
