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


def _apply_single_spin(amps: np.ndarray, n: int, j: int, mat: np.ndarray) -> np.ndarray:
    """Apply one 2x2 matrix to spin j of an amplitude vector (2^n,) or of every column of (2^n, k)."""
    # rows: bit j of the index; columns: the index bits above and below j and
    # the column. This one BLAS product fixes the rounding the statevector
    # results (and the bundled CSVs) carry. A batch column equals its vector
    # result bit for bit from n = 3 on, and to about 1e-15 below that
    pairs = amps.reshape(2 ** (n - 1 - j), 2, -1).transpose(1, 0, 2)
    out = np.dot(mat, pairs.reshape(2, -1)).reshape(pairs.shape)
    return out.transpose(1, 0, 2).reshape(amps.shape)


def apply_pauli(state: StateVector, p: PauliString) -> StateVector:
    """Return P|psi> for a Pauli string P."""
    if p.n != state.n:
        raise DimensionError(f"operator on {p.n} spins applied to {state.n}-spin state")
    amps = state.amps
    for j, c in enumerate(p.ops):
        if c != "I":
            amps = _apply_single_spin(amps, state.n, j, _PAULI_MATS[c])
    return StateVector(state.n, amps)


def expectation(state: StateVector, p: PauliString) -> float:
    """<psi|P|psi>; real for Pauli strings, clipped to [-1, 1]."""
    val = np.vdot(state.amps, apply_pauli(state, p).amps)
    return float(np.clip(val.real, -1.0, 1.0))


@lru_cache(maxsize=MAX_SPINS)
def _popcounts(n: int) -> np.ndarray:
    """Number of set bits (down spins) of every basis index; read-only."""
    counts = np.array([bin(i).count("1") for i in range(2**n)])
    counts.setflags(write=False)
    return counts


def hamming_histogram(state: StateVector) -> np.ndarray:
    """Probability of finding exactly i spins pointing down, i = 0..n."""
    return np.bincount(_popcounts(state.n), weights=state.probabilities(), minlength=state.n + 1)


def columnwise(fn):
    """Batch form of a per-state function: amplitudes (2^n, k) -> values (k,).

    Calls ``fn`` on a ``StateVector`` of each column in turn, for values
    that have no array form over the whole batch. Each column is copied to
    contiguous memory first: on a strided view the BLAS products inside
    ``expectation`` and ``tangle2`` round differently in the last bits.
    """

    def batch(amps: np.ndarray) -> np.ndarray:
        n = amps.shape[0].bit_length() - 1
        cols = np.ascontiguousarray(amps.T)
        return np.array([fn(StateVector(n, col)) for col in cols], dtype=float)

    return batch


_I_POWERS = (1, 1j, -1, -1j)


def _elements_by_flip(n: int, terms) -> dict:
    """The matrix elements of a sum of terms, grouped by the bits each term flips.

    A Pauli string maps basis index ``col`` to ``col ^ x`` with phase
    ``i**nY * (-1)**popcount(col & z)``, where x marks its X/Y spins, z its
    Y/Z spins and nY counts its Y letters. Returns x -> values, where
    ``values[..., col]`` is the element in row ``col ^ x`` and column ``col``.
    An (S, 1) coefficient column gives one matrix of a stack per entry, each rounded alike.
    Terms are added in order from zero, in the order a dense sum adds them.
    """
    cols = np.arange(2**n)
    parity = _popcounts(n) & 1
    by_flip = {}
    for coeff, p in terms:
        x = sum(1 << j for j, c in enumerate(p.ops) if c in "XY")
        z = sum(1 << j for j, c in enumerate(p.ops) if c in "YZ")
        signs = 1 - 2 * parity[cols & z]
        values = coeff * _I_POWERS[p.ops.count("Y") % 4] * signs
        if x not in by_flip:
            by_flip[x] = np.zeros(values.shape, dtype=complex)
        by_flip[x] += values
    return by_flip


def hamiltonian_matrix(h: WeightedPauliSum) -> np.ndarray:
    """Dense Hermitian matrix of a weighted Pauli sum.

    Equals ``sum(coeff * p.matrix())`` over the terms in order, exactly.
    """
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
