"""Coupling-strength fluctuation and phase-miscalibration error models.

The dominant hardware error is a slow fluctuation of the laser-ion
coupling strength: constant within one sequence, Gaussian from sequence
to sequence. Entangling and light-shift phases scale quadratically with
the coupling, collective-rotation phases linearly, so one relative
error epsilon perturbs a whole sequence coherently.

``sample_checkpoints`` draws every shot under one contract. Shot k draws
from its own stream ``default_rng(SeedSequence(seed, spawn_key=(k,)))``:
first epsilon (sigma_rel times a normal, redrawn while epsilon <= -1),
then one uniform per (checkpoint, observable) in row-major order; a
uniform below the success probability of the shot's state is a hit.
``shot_states`` gives the perturbed states themselves, one column per
epsilon, for averages without projective sampling.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from numbers import Integral, Real

import numpy as np

from .gates import GATE_KINDS, GateOp, GateSequence, _evolve
from .pauli import StateVector

_QUADRATIC_KINDS = ("O1", "O2", "O4")


@dataclass(frozen=True)
class NoiseParams:
    """Fluctuation width, deterministic miscalibrations, and sampling."""

    sigma_rel: float = 0.0
    miscal: dict = field(default_factory=dict)
    shots: int = 200
    seed: int = 0

    def __post_init__(self):
        # the chained comparisons are False for NaN, so they reject it too
        if not isinstance(self.sigma_rel, Real) or not 0 <= self.sigma_rel < math.inf:
            raise ValueError(f"sigma_rel must be a finite nonnegative number, got {self.sigma_rel!r}")
        if not isinstance(self.shots, Integral) or isinstance(self.shots, bool) or self.shots < 1:
            raise ValueError(f"shots must be an integer >= 1, got {self.shots!r}")
        if not isinstance(self.miscal, dict):
            raise TypeError(f"miscal must map gate kinds to numbers, got {self.miscal!r}")
        for kind, err in self.miscal.items():
            if kind not in GATE_KINDS:
                raise ValueError(f"unknown gate kind {kind!r}")
            if not isinstance(err, Real) or not abs(err) < 0.1:
                raise ValueError(f"miscalibration of {kind} must be a number below 10%, got {err!r}")


def _phase_scale(kind: str, eps: float) -> float:
    return (1 + eps) ** 2 if kind in _QUADRATIC_KINDS else 1 + eps


def _scaled(seq: GateSequence, factor_by_kind: dict) -> GateSequence:
    """seq with every gate phase multiplied by its kind's factor (1 for a kind not listed)."""
    gates = tuple(
        GateOp(g.kind, g.theta * factor_by_kind[g.kind], g.phi, g.target) if g.kind in factor_by_kind else g
        for g in seq.gates
    )
    return GateSequence(seq.n, gates)


def perturb_sequence(seq: GateSequence, eps: float) -> GateSequence:
    """Scale every gate phase by the stated power of (1 + eps)."""
    if eps <= -1:
        raise ValueError("relative coupling error must exceed -1")
    return _scaled(seq, {kind: _phase_scale(kind, eps) for kind in GATE_KINDS})


def apply_miscalibration(program, kind: str, rel_err: float):
    """Deterministically scale the phase of every gate of one kind, in a program or a sequence."""
    if abs(rel_err) >= 0.1:
        raise ValueError("miscalibration must stay below 10%")
    if hasattr(program, "sequence"):
        return replace(program, sequence=_scaled(program.sequence, {kind: 1 + rel_err}))
    return _scaled(program, {kind: 1 + rel_err})


def _draw_eps(rng, sigma: float) -> float:
    # reject eps <= -1: a negative coupling strength is unphysical
    while True:
        eps = sigma * rng.standard_normal()
        if eps > -1:
            return eps


def shot_states(seq: GateSequence, psi0: StateVector, eps, checkpoints) -> Iterator[np.ndarray]:
    """Yield amplitudes (2^n, shots) at each checkpoint, one column per epsilon.

    Column k is ``apply_sequence(psi0, perturb_sequence(seq, eps[k]))``
    stopped at the checkpoint, with perturb_sequence's phase arithmetic.
    """
    if min(eps) <= -1:
        raise ValueError("relative coupling error must exceed -1")
    scale = {kind: np.array([_phase_scale(kind, e) for e in eps]) for kind in GATE_KINDS}
    amps = np.repeat(psi0.amps[:, None], len(eps), axis=1)
    cps = set(checkpoints)
    for i, g in enumerate(seq.gates, 1):
        amps = _evolve(amps, seq.n, g, g.theta * scale[g.kind])
        if i in cps:
            yield amps


def sample_checkpoints(seq: GateSequence, psi0: StateVector, outcomes, checkpoints, params):
    """Estimates and binomial errors, shape (checkpoints, observables).

    ``outcomes`` are (value function, is_probability) pairs, each value
    function mapping the shot batch's amplitudes (2^n, shots) to one
    value per shot; a hit fraction p estimates a probability as p and an
    expectation as 2p - 1.
    """
    seq = _scaled(seq, {kind: 1 + err for kind, err in params.miscal.items()})  # shots scale on top
    eps, uniforms = [], []
    for shot in range(params.shots):
        rng = np.random.default_rng(np.random.SeedSequence(params.seed, spawn_key=(shot,)))
        eps.append(_draw_eps(rng, params.sigma_rel))
        uniforms.append(rng.random((len(checkpoints), len(outcomes))))
    is_prob = np.array([p for _, p in outcomes])
    hits = []
    for amps, u in zip(shot_states(seq, psi0, eps, checkpoints), np.swapaxes(uniforms, 0, 1)):
        # (shots, observables); reshape keeps an empty observable list a (shots, 0) table
        prob = np.array([fn(amps) for fn, _ in outcomes]).reshape(len(outcomes), len(eps)).T
        hits.append((u < np.where(is_prob, prob, (1 + prob) / 2)).sum(axis=0))
    p = np.array(hits) / params.shots
    err_p = np.sqrt(np.clip(p * (1 - p), 1e-12, None) / params.shots)
    return np.where(is_prob, p, 2 * p - 1), np.where(is_prob, err_p, 2 * err_p)
