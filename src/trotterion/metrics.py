"""Fidelities, entanglement, process tomography, and truth-table bounds.

Process matrices live in the n-spin Pauli operator basis ordered
I, X, Y, Z per spin with the first spin's letter varying slowest
(II, IX, IY, IZ, XI, ...).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np
from scipy.linalg import sqrtm

from .gates import GateOp, apply_gate, apply_sequence, sequence_unitary
from .pauli import (
    DensityMatrix,
    DimensionError,
    PauliString,
    StateVector,
    apply_pauli,
    expectation,
)

_LETTERS = "IXYZ"


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

    def validate(self, tol: float = 1e-8) -> None:
        if np.max(np.abs(self.chi - self.chi.conj().T)) > tol:
            raise ValueError("chi matrix is not Hermitian")
        if abs(np.trace(self.chi).real - 1.0) > 1e-6:
            raise ValueError(f"chi trace {np.trace(self.chi)} != 1")
        if np.linalg.eigvalsh(self.chi).min() < -1e-6:
            raise ValueError("chi has a significantly negative eigenvalue")


@dataclass(frozen=True)
class TruthTable:
    """Per-input overlap with the ideal output state of a target process."""

    basis_label: str
    rows: tuple  # (input id, fidelity, uncertainty)

    def __post_init__(self):
        for _, f, _ in self.rows:
            if not -1e-9 <= f <= 1 + 1e-9:
                raise ValueError(f"fidelity {f} outside [0, 1]")

    def average(self) -> tuple:
        """Mean fidelity and its quadrature-propagated uncertainty."""
        fids = np.array([f for _, f, _ in self.rows])
        uncs = np.array([u for _, _, u in self.rows])
        return float(fids.mean()), float(np.sqrt(np.sum(uncs**2)) / len(self.rows))


@dataclass(frozen=True)
class FidelityBound:
    """Two-sided process fidelity interval from complementary truth tables."""

    lower: float
    upper: float
    lower_unc: float = 0.0
    upper_unc: float = 0.0

    def __post_init__(self):
        if self.lower > self.upper + 1e-12:
            raise ValueError("lower bound exceeds upper bound")


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


def _density(state) -> np.ndarray:
    if isinstance(state, StateVector):
        return np.outer(state.amps, state.amps.conj())
    if isinstance(state, DensityMatrix):
        return state.matrix
    return np.asarray(state, dtype=complex)


def state_fidelity(a, b) -> float:
    """Uhlmann fidelity; reduces to |<a|b>|^2 for pure states."""
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        if a.n != b.n:
            raise DimensionError("states have different spin counts")
        return float(abs(a.overlap(b)) ** 2)
    ra, rb = _density(a), _density(b)
    if ra.shape != rb.shape:
        raise DimensionError("density matrices have different dimensions")
    s = sqrtm(ra)
    val = np.trace(sqrtm(s @ rb @ s)).real
    return float(np.clip(val**2, 0.0, 1.0))


def process_fidelity(U: np.ndarray, V: np.ndarray) -> float:
    """|Tr(U^dag V)|^2 / d^2, invariant under global phases."""
    U, V = np.asarray(U, complex), np.asarray(V, complex)
    if U.shape != V.shape:
        raise DimensionError("unitaries have different dimensions")
    d = U.shape[0]
    for M in (U, V):
        if np.max(np.abs(M.conj().T @ M - np.eye(d))) > 1e-6:
            raise ValueError("input is not unitary")
    return float(abs(np.trace(U.conj().T @ V)) ** 2 / d**2)


def chi_overlap(a: ProcessMatrix, b: ProcessMatrix) -> float:
    """Normalized Tr(chi_a chi_b), the chi-basis process fidelity."""
    ta, tb = np.trace(a.chi).real, np.trace(b.chi).real
    return float(np.trace(a.chi @ b.chi).real / (ta * tb))


def tangle2(state: StateVector) -> float:
    """Concurrence squared of a two-spin pure state (spin-flip construction)."""
    if state.n != 2:
        raise DimensionError("tangle is defined here for exactly 2 spins")
    flipped = apply_pauli(state, PauliString(2, "YY"))
    conc = abs(np.dot(state.amps, flipped.amps))
    return float(np.clip(conc**2, 0.0, 1.0))


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
    """Tomographic chi reconstruction of a compiled program or unitary.

    Propagates the standard product-state input set, reconstructs each
    output from Pauli expectations (sampled binomially when shots is
    given), inverts linearly to the process, and projects the result
    onto the positive cone with trace renormalization.
    """
    seq = getattr(program, "sequence", program)
    n = int(np.log2(seq.shape[0])) if isinstance(seq, np.ndarray) else seq.n
    if n > 2:  # checked before a sequence is multiplied out
        raise DimensionError("tomography supported for n <= 2")
    U = seq if isinstance(seq, np.ndarray) else sequence_unitary(seq)
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


# -- complementary truth tables ---------------------------------------------


def complementary_check(set_a, set_b, tol: float = 1e-9) -> bool:
    """True iff every cross overlap |<a|b>|^2 equals 1/N."""
    if len(set_a) != len(set_b):
        return False
    N = len(set_a)
    for a in set_a:
        for b in set_b:
            if abs(abs(a.overlap(b)) ** 2 - 1.0 / N) > tol:
                return False
    return True


def truth_table(
    program,
    basis,
    reference: np.ndarray,
    label: str = "",
    shots: int | None = None,
    seed: int = 0,
) -> TruthTable:
    """Overlap of program outputs with the reference-unitary outputs."""
    seq = program.sequence if hasattr(program, "sequence") else program
    rng = np.random.default_rng(seed)
    rows = []
    for i, psi in enumerate(basis):
        out = apply_sequence(psi, seq)
        target = StateVector(psi.n, reference @ psi.amps)
        fid = abs(target.overlap(out)) ** 2
        unc = 0.0
        if shots is not None:
            fid = rng.binomial(shots, fid) / shots
            unc = float(np.sqrt(max(fid * (1 - fid), 1e-12) / shots))
        rows.append((i, float(fid), unc))
    return TruthTable(label, tuple(rows))


def hofmann_bounds(F1: float, F2: float, u1: float = 0.0, u2: float = 0.0) -> FidelityBound:
    """Process fidelity interval F1 + F2 - 1 <= Fp <= min(F1, F2)."""
    for f in (F1, F2):
        if not 0.0 <= f <= 1.0:
            raise ValueError(f"truth-table fidelity {f} outside [0, 1]")
    upper, upper_unc = (F1, u1) if F1 <= F2 else (F2, u2)
    return FidelityBound(F1 + F2 - 1.0, upper, float(np.hypot(u1, u2)), upper_unc)


# -- GHZ-class fidelity estimation ------------------------------------------


def ghz_fidelity(record: GhzMeasurementRecord) -> float:
    """Populations-plus-parity estimate of the overlap with
    cos(theta)|0..0> + sin(theta)|1..1>."""
    n = len(record.parities)
    c, s = np.cos(record.theta), np.sin(record.theta)
    coherence = sum(a * q for a, q in zip(record.signs, record.parities)) / n
    return float(c**2 * record.pop_low + s**2 * record.pop_high + c * s * coherence)


def ghz_parity_observable(state: StateVector, phi: float) -> float:
    """<Z...Z> after the collective analysis rotation O3(pi/4, phi)."""
    rotated = apply_gate(state, GateOp("O3", np.pi / 4, phi))
    return expectation(rotated, PauliString(state.n, "Z" * state.n))


def ghz_record_from_state(
    state: StateVector, theta: float, phase_offset: float = -np.pi / 2
) -> GhzMeasurementRecord:
    """Measure the populations and the n equally spaced parities of a state.

    Analysis phases are spaced by pi/n and the sign tags alternate
    starting from +1. For the real-coefficient target
    cos(theta)|0..0> + sin(theta)|1..1> the parity oscillates as
    2 cos(theta) sin(theta) cos(n phi + n pi/2), so the default offset
    -pi/2 places the analysis phases on its extrema.
    """
    n = state.n
    probs = state.probabilities()
    phis = [i * np.pi / n + phase_offset for i in range(n)]
    signs = tuple((-1) ** i for i in range(n))
    parities = tuple(ghz_parity_observable(state, phi) for phi in phis)
    return GhzMeasurementRecord(theta, float(probs[0]), float(probs[-1]), parities, signs)


def decoherence_group_analysis(rows) -> dict:
    """Group parity-table rows by the input's |#0 - #1| imbalance.

    Each row is (label, parities, populations); labels are bit strings.
    Returns per-group mean absolute parity and mean total population.
    """
    groups = {}
    for label, parities, populations in rows:
        bits = [c for c in label if c in "01"]
        if not bits:
            raise ValueError(f"row label {label!r} is not a bit string")
        key = abs(bits.count("0") - bits.count("1"))
        entry = groups.setdefault(key, [])
        entry.append((np.mean(np.abs(parities)), np.sum(populations)))
    return {
        key: {
            "parity": float(np.mean([p for p, _ in vals])),
            "population": float(np.mean([q for _, q in vals])),
            "count": len(vals),
        }
        for key, vals in sorted(groups.items())
    }
