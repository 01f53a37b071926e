"""Coupling-strength fluctuation and phase-miscalibration error models.

The dominant hardware error is a slow fluctuation of the laser-ion
coupling strength: constant within one sequence, Gaussian from sequence
to sequence. Entangling and light-shift phases scale quadratically with
the coupling, collective-rotation phases linearly, so one relative
error epsilon perturbs a whole sequence coherently.

Sampled ensembles share one draw contract. Shot k draws from its own
stream ``default_rng(SeedSequence(seed, spawn_key=(k,)))``: first epsilon
(sigma_rel times a normal, redrawn while epsilon <= -1), then one uniform
per (checkpoint, observable) in row-major order; a uniform below the
success probability of the shot's state is a hit.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from functools import partial
from numbers import Real

import numpy as np

from .gates import GATE_KINDS, GateOp, GateSequence, _evolve, apply_sequence
from .pauli import PauliString, StateVector, columnwise, expectation

_QUADRATIC_KINDS = ("O1", "O2", "O4")


@dataclass(frozen=True)
class NoiseParams:
    """Fluctuation width, deterministic miscalibrations, and sampling."""

    sigma_rel: float = 0.0
    miscal: dict = field(default_factory=dict)
    shots: int | None = None
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.sigma_rel, Real) or self.sigma_rel < 0:
            raise ValueError(f"sigma_rel must be a nonnegative number, got {self.sigma_rel!r}")
        if self.shots is not None and self.shots < 1:
            raise ValueError("shots must be >= 1")
        if not isinstance(self.miscal, dict):
            raise TypeError(f"miscal must map gate kinds to numbers, got {self.miscal!r}")
        for kind, err in self.miscal.items():
            if kind not in GATE_KINDS:
                raise ValueError(f"unknown gate kind {kind!r}")
            if not isinstance(err, Real) or abs(err) >= 0.1:
                raise ValueError(f"miscalibration of {kind} must be a number below 10%, got {err!r}")


@dataclass(frozen=True)
class ShotEnsemble:
    """Aggregated per-observable estimates over a noisy shot ensemble."""

    shots: int
    estimates: np.ndarray  # one value per observable
    errors: np.ndarray  # binomial standard errors, 0 in analytic mode

    def __post_init__(self):
        object.__setattr__(self, "estimates", np.asarray(self.estimates, dtype=float))
        object.__setattr__(self, "errors", np.asarray(self.errors, dtype=float))


def _phase_scale(kind: str, eps: float) -> float:
    return (1 + eps) ** 2 if kind in _QUADRATIC_KINDS else 1 + eps


def perturb_sequence(seq: GateSequence, eps: float) -> GateSequence:
    """Scale every gate phase by the stated power of (1 + eps)."""
    if eps <= -1:
        raise ValueError("relative coupling error must exceed -1")
    gates = tuple(
        GateOp(g.kind, g.theta * _phase_scale(g.kind, eps), g.phi, g.target) for g in seq.gates
    )
    return GateSequence(seq.n, gates)


def apply_miscalibration(program, kind: str, rel_err: float):
    """Deterministically scale the phase of every gate of one kind."""
    if abs(rel_err) >= 0.1:
        raise ValueError("miscalibration must stay below 10%")
    seq = program.sequence if hasattr(program, "sequence") else program
    gates = tuple(
        GateOp(g.kind, g.theta * (1 + rel_err) if g.kind == kind else g.theta, g.phi, g.target)
        for g in seq.gates
    )
    out = GateSequence(seq.n, gates)
    if hasattr(program, "sequence"):
        return replace(program, sequence=out)
    return out


def _miscalibrated(seq: GateSequence, params: NoiseParams) -> GateSequence:
    for kind, err in params.miscal.items():
        seq = apply_miscalibration(seq, kind, err)
    return seq


def _outcome(obs):
    """(batch value function, is_probability) of a Pauli string or probability callable.

    The batch function maps amplitudes (2^n, k) to values (k,); ``obs``
    itself takes one ``StateVector``.
    """
    if isinstance(obs, PauliString):
        return columnwise(partial(expectation, p=obs)), False
    return columnwise(obs), True


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
    seq = _miscalibrated(seq, params)
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


def run_noisy_ensemble(
    program,
    psi0: StateVector,
    observables,
    params: NoiseParams,
) -> ShotEnsemble:
    """Monte-Carlo estimate of observables under per-sequence fluctuation.

    Shot k draws from the substream (params.seed, k): its epsilon first,
    then one uniform per observable, in order (the module's contract with
    the end of the sequence as the only checkpoint). Each observable, a
    Pauli string or a callable giving a success probability, contributes
    one projective sample per shot. With shots=None the exact
    expectations of the unperturbed (but miscalibrated) sequence are
    returned.
    """
    seq = program.sequence if hasattr(program, "sequence") else program
    outcomes = [_outcome(o) for o in observables]
    if params.shots is None:
        out = apply_sequence(psi0, _miscalibrated(seq, params))
        vals = np.array([fn(out.amps[:, None])[0] for fn, _ in outcomes], dtype=float)
        return ShotEnsemble(0, vals, np.zeros_like(vals))
    est, err = sample_checkpoints(seq, psi0, outcomes, (len(seq),), params)
    return ShotEnsemble(params.shots, est[-1], err[-1])


def ensemble_mean_expectation(
    program,
    psi0: StateVector,
    observable,
    sigma_rel: float,
    samples: int,
    seed: int = 0,
) -> float:
    """Fluctuation-averaged exact expectation (no projective sampling).

    Uses common random numbers: the epsilon draw for sample k is
    sigma_rel times the k-th unit normal of the seed's stream, so sweeps
    over sigma_rel are directly comparable.
    """
    z = np.random.default_rng(seed).standard_normal(samples)
    seq = program.sequence if hasattr(program, "sequence") else program
    (amps,) = shot_states(seq, psi0, np.maximum(sigma_rel * z, -1 + 1e-12), (len(seq),))
    fn, _ = _outcome(observable)
    return float(np.mean(fn(amps)))
