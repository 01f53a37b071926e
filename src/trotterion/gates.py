"""The four-operation trapped-ion gate set acting on statevectors.

Gate generators (theta is the dimensionless evolution phase, sigma_phi =
cos(phi) sigma_x + sin(phi) sigma_y):

* ``O1(theta, j)``   -- exp(-i theta sigma_z^j), addressed light shift
* ``O2(theta)``      -- exp(-i theta sum_i sigma_z^i), global light shift
* ``O3(theta, phi)`` -- exp(-i theta sum_i sigma_phi^i), global rotation
* ``O4(theta, phi)`` -- exp(-i theta sum_{i<j} sigma_phi^i sigma_phi^j),
  the all-pairs entangling interaction

Every generator is diagonal in one of two bases. O1 and O2 are diagonal
in the computational basis. O3 and O4 are diagonal in the product
sigma_phi eigenbasis W = V_phi^{(x)n}, with value m (O3) or (m^2 - n)/2
(O4) for total eigenvalue m; ``_generator`` states these diagonals once.

Each gate's action on states is written once, in ``_evolve``, a kernel on
amplitude arrays of shape (2^n,) or (2^n, k): each of the k columns is a
separate state, and theta is one scalar for all columns or one phase per
column. O4, and O3 with one phase per column, are evaluated there in the
sigma_phi eigenbasis instead of by dense exponentiation; cost is O(n 2^n)
per application. O3 with one scalar phase is its 2x2 rotation on each spin.

``sequence_unitary`` multiplies a whole program out on the identity
instead. Each run of gates diagonal in one basis folds into one phase
vector, and each change into or out of a sigma_phi eigenbasis is two
matrix products with the cached Kronecker factors of W over the high and
the low half of the spins: O(2^(5n/2)) per rotation of a 2^n x 2^n
unitary, against O(2^(3n)) for a product with W itself.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby

import numpy as np

from .pauli import DimensionError, StateVector, _popcounts

GATE_KINDS = ("O1", "O2", "O3", "O4")


@dataclass(frozen=True)
class GateOp:
    """One gate from the native set, with phase theta and axis phi."""

    kind: str
    theta: float
    phi: float = 0.0
    target: int | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if (self.target is not None) != (self.kind == "O1"):
            raise ValueError("target must be given for O1 and only for O1")
        if not np.isfinite(self.theta):
            raise ValueError("gate phase must be finite")
        if not np.isfinite(self.phi):
            raise ValueError("gate axis phi must be finite")
        object.__setattr__(self, "phi", float(self.phi) % (2 * np.pi))

    def to_line(self) -> str:
        """Line-oriented text form, e.g. ``O4 theta=0.19635 phi=0.0``."""
        parts = [self.kind, f"theta={self.theta:.9g}"]
        if self.kind in ("O3", "O4"):
            parts.append(f"phi={self.phi:.9g}")
        if self.kind == "O1":
            parts.append(f"target={self.target}")
        return " ".join(parts)


@dataclass(frozen=True)
class GateSequence:
    """Ordered gate program on n spins; gates[0] acts first."""

    n: int
    gates: tuple = ()

    def __post_init__(self):
        for g in self.gates:
            if g.kind == "O1" and not 0 <= g.target < self.n:
                raise DimensionError(f"O1 target {g.target} out of range for n={self.n}")

    def __len__(self) -> int:
        return len(self.gates)

    def to_text(self) -> str:
        return "\n".join(g.to_line() for g in self.gates)


# kind: (reference theta, duration at reference in us, scaling)
_DURATIONS = {
    "O1": (np.pi / 2, 30.0, "fixed"),
    "O2": (np.pi / 16, 10.0, "linear"),
    "O3": (np.pi / 4, 5.0, "linear"),
    "O4": (np.pi / 16, 30.0, "fixed"),
}


class DurationModel:
    """Wall-time model per gate kind.

    ``linear`` kinds scale with theta relative to the reference point;
    ``fixed`` kinds cost the reference duration per pulse regardless of
    theta (the entangling-gate length is set by the laser detuning, and
    addressed pulses are dominated by beam-steering time).
    """

    def duration(self, gate: GateOp) -> float:
        ref_theta, ref_dur, scaling = _DURATIONS[gate.kind]
        if scaling == "fixed":
            return ref_dur
        return ref_dur * abs(gate.theta) / ref_theta


def _phi_basis_change(phi: float) -> np.ndarray:
    """Columns are the +1 and -1 eigenvectors of sigma_phi."""
    e = np.exp(1j * phi)
    return np.array([[1, 1], [e, -e]], dtype=complex) / np.sqrt(2)


def _z_totals(n: int) -> np.ndarray:
    """Sum of sigma_z eigenvalues per basis index (set bit = spin down = -1)."""
    return n - 2 * _popcounts(n)


def _apply_single_spin(amps: np.ndarray, n: int, j: int, mat: np.ndarray) -> np.ndarray:
    """Apply one 2x2 matrix to spin j of an amplitude vector (2^n,) or of every column of (2^n, k)."""
    # rows: bit j of the index; columns: the index bits above and below j and
    # the column. This one BLAS product fixes the rounding the statevector
    # results (and the bundled CSVs) carry. A batch column equals its vector
    # result bit for bit from n = 3 on, and to about 1e-15 below that
    pairs = amps.reshape(2 ** (n - 1 - j), 2, -1).transpose(1, 0, 2)
    out = np.dot(mat, pairs.reshape(2, -1)).reshape(pairs.shape)
    return out.transpose(1, 0, 2).reshape(amps.shape)


def _each_spin(amps: np.ndarray, n: int, mat: np.ndarray) -> np.ndarray:
    for j in range(n):
        amps = _apply_single_spin(amps, n, j, mat)
    return amps


@lru_cache(maxsize=256)
def _generator(kind: str, n: int, target: int | None = None) -> np.ndarray:
    """The diagonal of a gate kind's generator in its own basis; read-only.

    O1 and O2 are diagonal in the computational basis, O3 and O4 in the
    product sigma_phi eigenbasis, where popcount counts -1 eigenvectors.
    """
    if kind == "O1":
        gen = 1 - 2 * ((np.arange(2**n) >> target) & 1)
    else:
        m = _z_totals(n)
        gen = (m**2 - n) / 2 if kind == "O4" else m
    gen.setflags(write=False)
    return gen


def _diagonal(amps: np.ndarray, theta: np.ndarray, gen: np.ndarray) -> np.ndarray:
    """exp(-i theta D) for a diagonal generator D; theta scalar or per column."""
    gen = gen.reshape(gen.shape + (1,) * (amps.ndim - 1))
    return amps * np.exp(-1j * theta * gen)


def _evolve(amps: np.ndarray, n: int, g: GateOp, theta) -> np.ndarray:
    """exp(-i theta G) for the generator G of the gate kind.

    ``amps`` has shape (2^n,) or (2^n, k); ``theta`` is a scalar or one
    phase per column, broadcast along the column axis.
    """
    theta = np.asarray(theta, dtype=float)
    if g.kind == "O1" and not 0 <= g.target < n:
        raise DimensionError(f"O1 target {g.target} out of range for n={n}")
    if g.kind == "O3" and theta.ndim == 0:  # the bundled CSVs carry this form's rounding
        sig = np.array([[0, np.exp(-1j * g.phi)], [np.exp(1j * g.phi), 0]], dtype=complex)
        return _each_spin(amps, n, np.cos(theta) * np.eye(2) - 1j * np.sin(theta) * sig)
    gen = _generator(g.kind, n, g.target)
    if g.kind in ("O1", "O2"):
        return _diagonal(amps, theta, gen)
    # O3 per column and O4: rotate into the product sigma_phi eigenbasis,
    # apply diagonal phases, rotate back
    v = _phi_basis_change(g.phi)
    amps = _each_spin(amps, n, v.conj().T)
    return _each_spin(_diagonal(amps, theta, gen), n, v)


def apply_gate(state: StateVector, g: GateOp) -> StateVector:
    """exp(-i theta G)|psi> for the generator G of the gate kind."""
    return StateVector(state.n, _evolve(state.amps, state.n, g, g.theta))


def apply_sequence(state: StateVector, seq: GateSequence) -> StateVector:
    if seq.n != state.n:
        raise DimensionError("sequence and state spin counts differ")
    for g in seq.gates:
        state = apply_gate(state, g)
    return state


@lru_cache(maxsize=64)
def _rotation_factors(n: int, phi: float, adjoint: bool) -> tuple:
    """Kronecker factors of W = V_phi^{(x)n} (or W^dag) over the high and the low spins.

    W equals ``np.kron(high, low)``, with ``n // 2`` spins in the high factor.
    """
    v = _phi_basis_change(phi)
    if adjoint:
        v = v.conj().T
    factors = []
    for spins in (n // 2, n - n // 2):
        f = np.ones((1, 1), dtype=complex)
        for _ in range(spins):
            f = np.kron(f, v)
        f.setflags(write=False)
        factors.append(f)
    return tuple(factors)


def _rotate(u: np.ndarray, n: int, phi: float, adjoint: bool) -> np.ndarray:
    """W u, or W^dag u, for a (2^n, k) array u; two matrix products."""
    high, low = _rotation_factors(n, phi, adjoint)
    k = u.shape[1]
    u = (high @ u.reshape(len(high), -1)).reshape(len(high), len(low), k)
    return (low @ u).reshape(-1, k)


def _basis_key(g: GateOp):
    """None for the computational basis, else the phi of the sigma_phi eigenbasis."""
    return g.phi if g.kind in ("O3", "O4") else None


def sequence_unitary(seq: GateSequence) -> np.ndarray:
    """Right-to-left product of gate unitaries; the first gate acts first.

    Each run of gates diagonal in one basis is one phase vector; a run in
    a sigma_phi eigenbasis sits between a rotation into it and one out.
    """
    n = seq.n
    u = np.eye(2**n, dtype=complex)
    for phi, run in groupby(seq.gates, key=_basis_key):
        exponent = sum(g.theta * _generator(g.kind, n, g.target) for g in run)
        phase = np.exp(-1j * exponent)[:, None]
        if phi is None:
            u = phase * u
        else:
            u = _rotate(phase * _rotate(u, n, phi, True), n, phi, False)
    return u


def sequence_stats(seq: GateSequence, model: DurationModel | None = None) -> dict:
    """Gate count and summed wall time of a sequence."""
    model = model or DurationModel()
    kinds = {}
    for g in seq.gates:
        kinds[g.kind] = kinds.get(g.kind, 0) + 1
    return {
        "gate_count": len(seq),
        "wall_time_us": sum(model.duration(g) for g in seq.gates),
        "kind_counts": kinds,
    }
