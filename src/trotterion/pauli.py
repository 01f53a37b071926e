"""Exact n-spin states, Pauli-string operators, and observable extraction.

Conventions (fixed once, used everywhere):

* ``|0> == |up>`` and ``sigma_z |up> = +|up>``.
* Spin ``j`` maps to bit ``j`` of the amplitude index, little-endian.
  A set bit means the spin points down.
* Dense complex amplitudes throughout; dimensions stay at or below 2**12.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
# imported with the package, not on the first CSR build, so that the first
# evolution above six spins in a process does not pay for it
from scipy.sparse import csr_matrix

MAX_SPINS = 12

_PAULI_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


class DimensionError(ValueError):
    """Spin counts do not match, or exceed the dense-representation limit."""


def _check_n(n: int) -> None:
    if not 1 <= n <= MAX_SPINS:
        raise DimensionError(f"spin count {n} outside supported range 1..{MAX_SPINS}")


@dataclass(frozen=True)
class PauliString:
    """A tensor product of single-spin Pauli operators, one per spin."""

    n: int
    ops: str

    def __post_init__(self):
        _check_n(self.n)
        if len(self.ops) != self.n:
            raise DimensionError(f"ops length {len(self.ops)} != n={self.n}")
        bad = set(self.ops) - set("IXYZ")
        if bad:
            raise ValueError(f"invalid Pauli letters: {sorted(bad)}")

    @classmethod
    def from_string(cls, ops: str) -> "PauliString":
        return cls(len(ops), ops)

    @property
    def is_identity(self) -> bool:
        return set(self.ops) <= {"I"}

    def matrix(self) -> np.ndarray:
        """Dense 2^n x 2^n matrix, little-endian spin order."""
        out = np.array([[1.0 + 0j]])
        for c in self.ops:
            out = np.kron(_PAULI_MATS[c], out)
        return out

    def __str__(self) -> str:
        return self.ops


@dataclass(frozen=True)
class WeightedPauliSum:
    """Real linear combination of Pauli strings on a common spin register."""

    n: int
    terms: tuple = ()

    def __post_init__(self):
        _check_n(self.n)
        for coeff, p in self.terms:
            if p.n != self.n:
                raise DimensionError(f"term {p} has n={p.n}, expected {self.n}")
            if not math.isfinite(coeff):
                raise ValueError(f"non-finite coefficient {coeff} on {p}")

    @classmethod
    def from_terms(cls, n: int, terms) -> "WeightedPauliSum":
        return cls(n, tuple([(float(c), p) for c, p in terms]))

    def __add__(self, other: "WeightedPauliSum") -> "WeightedPauliSum":
        if other.n != self.n:
            raise DimensionError("cannot add sums on different spin counts")
        return WeightedPauliSum(self.n, self.terms + other.terms)


@dataclass
class StateVector:
    """Pure state of n spins as 2^n complex amplitudes."""

    n: int
    amps: np.ndarray

    def __post_init__(self):
        _check_n(self.n)
        self.amps = np.asarray(self.amps, dtype=complex)
        if self.amps.shape != (2**self.n,):
            raise DimensionError(
                f"amplitude vector has shape {self.amps.shape}, expected ({2**self.n},)"
            )

    @classmethod
    def basis(cls, n: int, index: int) -> "StateVector":
        amps = np.zeros(2**n, dtype=complex)
        amps[index] = 1.0
        return cls(n, amps)

    @classmethod
    def all_up(cls, n: int) -> "StateVector":
        return cls.basis(n, 0)

    @classmethod
    def all_down(cls, n: int) -> "StateVector":
        return cls.basis(n, 2**n - 1)

    @classmethod
    def from_label(cls, label: str) -> "StateVector":
        """Product state from a little-endian label over {u, d} (spin 0 first)."""
        bits = 0
        for j, c in enumerate(label):
            if c == "d":
                bits |= 1 << j
            elif c != "u":
                raise ValueError(f"invalid spin label character {c!r}")
        return cls.basis(len(label), bits)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amps) ** 2

    def overlap(self, other: "StateVector") -> complex:
        if other.n != self.n:
            raise DimensionError("overlap between different spin counts")
        return complex(np.vdot(self.amps, other.amps))


@lru_cache(maxsize=MAX_SPINS)
def _popcounts(n: int) -> np.ndarray:
    """Number of set bits (down spins) of every basis index; read-only."""
    counts = np.array([bin(i).count("1") for i in range(2**n)])
    counts.setflags(write=False)
    return counts


@lru_cache(maxsize=128)
def _action(p: PauliString) -> tuple:
    """A Pauli string's action on the basis: it maps index ``col`` to ``col ^ x`` times ``phase[col]``.

    x marks the X/Y spins and ``phase = i**nY * (-1)**popcount(col & z)``,
    where z marks the Y/Z spins and nY counts the Y letters. Every phase is
    +-1 or +-i, so multiplying by one is exact. Returns (x, read-only phase).
    """
    x = sum(1 << j for j, c in enumerate(p.ops) if c in "XY")
    z = sum(1 << j for j, c in enumerate(p.ops) if c in "YZ")
    phase = (1, 1j, -1, -1j)[p.ops.count("Y") % 4] * (1 - 2 * (_popcounts(p.n)[np.arange(2**p.n) & z] & 1))
    phase.setflags(write=False)
    return x, phase


def _pauli_applied(amps: np.ndarray, p: PauliString) -> np.ndarray:
    """P applied to amplitudes (2^n,) or to every row of (k, 2^n): a phase, then a gather."""
    if amps.shape[-1] != 2**p.n:
        raise DimensionError(f"operator on {p.n} spins applied to {amps.shape[-1]} amplitudes")
    x, phase = _action(p)
    # np.take keeps each row contiguous, as _column_products needs; amps[..., idx] would not
    return np.take(phase * amps, np.arange(2**p.n) ^ x, axis=-1)


def apply_pauli(state: StateVector, p: PauliString) -> StateVector:
    """Return P|psi> for a Pauli string P."""
    return StateVector(state.n, _pauli_applied(state.amps, p))


def _column_products(amps: np.ndarray, p: PauliString, product) -> np.ndarray:
    """``product(psi, P psi)`` for every column psi of amps (2^n, k), as complex values (k,).

    Every ``pauli:`` and ``tangle`` value is rounded here, as the bundled CSVs
    carry it: one BLAS call (``np.vdot`` or ``np.dot``) per pair of contiguous
    vectors. A strided column, or one product over the batch, rounds otherwise.
    """
    cols = np.ascontiguousarray(amps.T)
    return np.array([product(u, v) for u, v in zip(cols, _pauli_applied(cols, p))], dtype=complex)


def expectations(amps: np.ndarray, p: PauliString) -> np.ndarray:
    """<psi|P|psi> of every column psi of amps (2^n, k), clipped to [-1, 1]."""
    return np.clip(_column_products(amps, p, np.vdot).real, -1.0, 1.0)


def expectation(state: StateVector, p: PauliString) -> float:
    """<psi|P|psi>; real for Pauli strings, clipped to [-1, 1]."""
    return float(expectations(state.amps[:, None], p)[0])


def hamming_histogram(state: StateVector) -> np.ndarray:
    """Probability of finding exactly i spins pointing down, i = 0..n."""
    return np.bincount(_popcounts(state.n), weights=state.probabilities(), minlength=state.n + 1)


def _elements_by_flip(n: int, terms) -> dict:
    """The matrix elements of a sum of terms, grouped by the bits x each term flips (see ``_action``).

    ``values[..., col]`` is the element in row ``col ^ x`` and column ``col``. An
    (S, 1) coefficient column gives one matrix of a stack per entry, each rounded
    alike. Terms are added in order from zero, in the order a dense sum adds them.
    """
    by_flip = {}
    for coeff, p in terms:
        x, phase = _action(p)
        by_flip[x] = by_flip.get(x, 0j) + coeff * phase
    return by_flip


def hamiltonian_matrix(h: WeightedPauliSum) -> np.ndarray:
    """Dense Hermitian matrix of a weighted Pauli sum: ``sum(coeff * p.matrix())`` in term order, exactly."""
    return _stacked_matrices(h.n, h.terms)


def _stacked_matrices(n: int, terms) -> np.ndarray:
    """``hamiltonian_matrix`` of terms bit for bit; (S, 1) coefficients give a stack (S, d, d)."""
    d = 2**n
    by_flip = _elements_by_flip(n, terms)
    stack = max((v.shape[:-1] for v in by_flip.values()), key=len, default=())
    out = np.zeros(stack + (d, d), dtype=complex)
    cols = np.arange(d)
    for x, values in by_flip.items():
        out[..., cols ^ x, cols] = values
    return out


def hamiltonian_sparse(h: WeightedPauliSum):
    """The matrix of ``hamiltonian_matrix`` in CSR form, built without a dense copy."""
    d = 2**h.n
    cols = np.arange(d)
    by_flip = _elements_by_flip(h.n, h.terms)
    if not by_flip:
        return csr_matrix((d, d), dtype=complex)
    rows = np.concatenate([cols ^ x for x in by_flip])
    values = np.concatenate(list(by_flip.values()))
    return csr_matrix((values, (rows, np.tile(cols, len(by_flip)))), shape=(d, d))
