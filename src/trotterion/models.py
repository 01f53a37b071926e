"""Constructors for the simulated spin models.

All Hamiltonians are dimensionless; evolution is parameterised by the
phase theta. The field term is written +B sum_k sigma_z^k, so with the
package convention (set bit = spin down = -1 eigenvalue of sigma_z) the
all-down state is the paramagnetic ground state for B > 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .pauli import PauliString, WeightedPauliSum

@dataclass(frozen=True)
class CouplingGraph:
    """Symmetric pairwise coupling strengths along a common axis phi."""

    n: int
    J: np.ndarray
    phi: float = 0.0

    def __post_init__(self):
        J = np.asarray(self.J, dtype=float)
        if J.shape != (self.n, self.n):
            raise ValueError(f"coupling matrix shape {J.shape} != ({self.n},{self.n})")
        # one comparison: a NaN or infinite entry fails it as well
        with np.errstate(invalid="ignore"):
            symmetric = np.abs(J - J.T).max() <= 1e-12
        if not symmetric:
            if not np.isfinite(J).all():
                raise ValueError("coupling matrix must be finite")
            raise ValueError("coupling matrix must be symmetric")
        if not math.isfinite(self.phi):
            raise ValueError("coupling axis phi must be finite")
        J = (J + J.T) / 2
        np.fill_diagonal(J, 0.0)
        J.setflags(write=False)
        object.__setattr__(self, "J", J)

    def pairs(self):
        """Nonzero (i, j, J_ij) with i < j."""
        rows = self.J.tolist()
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if rows[i][j] != 0.0:
                    yield i, j, rows[i][j]


@dataclass(frozen=True)
class FieldSpec:
    """Uniform single-spin field of given strength along one axis."""

    axis: str
    strength: float

    def __post_init__(self):
        if self.axis not in ("x", "y", "z"):
            raise ValueError(f"unknown field axis {self.axis!r}")
        if not np.isfinite(self.strength):
            raise ValueError("field strength must be finite")


@dataclass(frozen=True)
class RampSpec:
    """Linear coupling ramp J(theta) at fixed field B over total phase theta_t."""

    n = 2  # spins; a class attribute, not a field
    theta_t: float
    J_start: float
    J_end: float
    B: float

    def __post_init__(self):
        if self.theta_t <= 0:
            raise ValueError("total phase must be positive")

    def J_at(self, theta: float) -> float:
        frac = np.clip(theta / self.theta_t, 0.0, 1.0)
        return self.J_start + (self.J_end - self.J_start) * frac


def _axis_letter(axis: str) -> str:
    return {"x": "X", "y": "Y", "z": "Z"}[axis]


def _field_terms(n: int, axis: str, strength: float):
    letter = _axis_letter(axis)
    for k in range(n):
        ops = "".join(letter if j == k else "I" for j in range(n))
        yield strength, PauliString(n, ops)


@lru_cache(maxsize=1024)
def _pair_term(n: int, i: int, j: int, letter: str) -> PauliString:
    ops = "".join(letter if k in (i, j) else "I" for k in range(n))
    return PauliString(n, ops)


def _ising2_terms(B, J) -> list:
    """ising2's (coefficient, PauliString) terms; J may be an (S, 1) column, one per slice."""
    return [(B, PauliString(2, "ZI")), (B, PauliString(2, "IZ")), (J, PauliString(2, "XX"))]


def ising2(B: float, J: float) -> WeightedPauliSum:
    """Two-spin Ising model: B(Z1 + Z2) + J X1X2."""
    return WeightedPauliSum.from_terms(2, _ising2_terms(B, J))


def xy2(B: float, J: float) -> WeightedPauliSum:
    """ising2 plus an equal-strength YY coupling."""
    return ising2(B, J) + WeightedPauliSum.from_terms(2, [(J, PauliString(2, "YY"))])


def xyz2(B: float, J: float) -> WeightedPauliSum:
    """ising2 plus equal-strength YY and ZZ couplings."""
    extra = [(J, PauliString(2, "YY")), (J, PauliString(2, "ZZ"))]
    return ising2(B, J) + WeightedPauliSum.from_terms(2, extra)


def long_range_ising(n: int, B: float, J: float):
    """All-pairs XX coupling of strength J with transverse field B.

    Returns the Pauli sum together with its coupling graph.
    """
    if n < 2:
        raise ValueError("long-range model needs at least 2 spins")
    terms = []
    for i in range(n):
        for j in range(i + 1, n):
            terms.append((J, _pair_term(n, i, j, "X")))
    terms.extend(_field_terms(n, "z", B))
    Jm = np.full((n, n), J, dtype=float)
    np.fill_diagonal(Jm, 0.0)
    return WeightedPauliSum.from_terms(n, terms), CouplingGraph(n, Jm, 0.0)


def coupling_graph_model(graph: CouplingGraph, field: FieldSpec | None = None) -> WeightedPauliSum:
    """One pair term per nonzero coupling, plus an optional uniform field."""
    letter = "X" if abs(graph.phi) < 1e-12 else ("Y" if abs(graph.phi - np.pi / 2) < 1e-12 else None)
    if letter is None:
        raise ValueError("coupling graph models support axis phi in {0, pi/2} only")
    terms = [(Jij, _pair_term(graph.n, i, j, letter)) for i, j, Jij in graph.pairs()]
    if field is not None and field.strength != 0.0:
        terms.extend(_field_terms(graph.n, field.axis, field.strength))
    return WeightedPauliSum.from_terms(graph.n, terms)


def many_body_model(
    p: PauliString, strength: float, field: FieldSpec | None = None
) -> WeightedPauliSum:
    """A single weighted many-body string, plus an optional transverse field."""
    if p.is_identity:
        raise ValueError("many-body model requires a nontrivial Pauli string")
    terms = [(strength, p)]
    if field is not None and field.strength != 0.0:
        terms.extend(_field_terms(p.n, field.axis, field.strength))
    return WeightedPauliSum.from_terms(p.n, terms)

