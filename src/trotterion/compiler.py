"""Lowering spin Hamiltonians to stroboscopic native-gate programs.

A compiled program is a flat gate sequence with checkpoint indices after
each digital step, so observables can be read out stroboscopically. All
constructions are verified against the dense-exponential oracle in the
test suite; the compiler itself never touches 2^n x 2^n matrices.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations

import numpy as np

from .gates import GateOp, GateSequence, apply_gate
from .models import CouplingGraph, RampSpec, ising2, many_body_model, xy2, xyz2
from .pauli import PauliString, StateVector, WeightedPauliSum

DECOMP_TOL = 1e-10
MAX_LAYERS = 3  # largest refocusing subset the exact search tries before nnls
_SCREEN_CHUNK = 4096  # subsets per batched Gram fill and screen


class CompileError(ValueError):
    """The model contains a term with no native-gate realization."""


@dataclass(frozen=True)
class CompiledProgram:
    """Gate sequence with stroboscopic checkpoints and the total phase it evolves by.

    checkpoints[k] is the number of gates executed after digital step
    k+1; the last checkpoint equals the sequence length. Every step
    evolves by theta / len(checkpoints).
    """

    sequence: GateSequence
    checkpoints: tuple
    theta: float

    def __post_init__(self):
        cps = tuple(int(c) for c in self.checkpoints)
        if any(b <= a for a, b in zip(cps, cps[1:])):
            raise ValueError("checkpoints must be strictly increasing")
        if cps and cps[-1] != len(self.sequence):
            raise ValueError("last checkpoint must equal the sequence length")
        object.__setattr__(self, "checkpoints", cps)

    def checkpoint_thetas(self) -> np.ndarray:
        """Accumulated phase at each checkpoint (uniform steps)."""
        k = np.arange(1, len(self.checkpoints) + 1)
        return self.theta * k / len(self.checkpoints)

    def checkpoint_states(self, psi0: StateVector) -> list:
        """Propagate psi0 and collect the state at every checkpoint."""
        states = []
        state = psi0
        cps = set(self.checkpoints)
        for i, g in enumerate(self.sequence.gates):
            state = apply_gate(state, g)
            if i + 1 in cps:
                states.append(state)
        return states


def _classify_terms(model: WeightedPauliSum):
    """Split a Pauli sum into field vectors, coupling matrices, and strings."""
    n = model.n
    fields = {ax: np.zeros(n) for ax in "XYZ"}
    couplings = {ax: np.zeros((n, n)) for ax in "XYZ"}
    many = []
    for coeff, p in model.terms:
        sites = [(j, c) for j, c in enumerate(p.ops) if c != "I"]
        if not sites:
            continue  # identity term: global phase only
        if len(sites) == 1:
            j, c = sites[0]
            fields[c][j] += coeff
        elif len(sites) == 2 and sites[0][1] == sites[1][1]:
            (i, c), (j, _) = sites
            couplings[c][i, j] += coeff
            couplings[c][j, i] += coeff
        else:
            many.append((coeff, p))
    return fields, couplings, many


def _is_uniform_all_pairs(J: np.ndarray) -> float | None:
    """The common coupling value if every pair has it, else None."""
    n = J.shape[0]
    off = J[np.triu_indices(n, 1)]
    if len(off) and np.all(np.abs(off - off[0]) < 1e-12) and off[0] != 0.0:
        return float(off[0])
    return None


# -- coupling-graph decomposition -------------------------------------------


@lru_cache(maxsize=None)
def _pattern_candidates(n: int):
    """Distinct realizable pair-weight patterns with their realizations.

    A sign vector s (s[0] fixed +1) yields two patterns over pairs i<j:
    a mask (1 + s_i s_j)/2, realized by a split entangling pulse with
    refocusing pulses on K = {k : s_k = -1}, and a signed pattern
    s_i s_j, realized by a refocus-conjugated full pulse. Returns the
    candidates and their read-only candidate x pair matrix.
    """
    iu = np.triu_indices(n, 1)
    seen = {}
    for bits in range(2 ** (n - 1)):
        s = np.ones(n)
        for k in range(1, n):
            if (bits >> (k - 1)) & 1:
                s[k] = -1.0
        outer = np.outer(s, s)[iu]
        for kind, vec in (("mask", (1 + outer) / 2), ("signed", outer)):
            key = tuple(vec)
            if key not in seen and np.any(vec != 0):
                vec.setflags(write=False)  # shared by every caller through the cache
                seen[key] = (kind, tuple(int(k) for k in range(n) if s[k] < 0), vec)
    cands = tuple(seen.values())
    pats = np.array([c[2] for c in cands])
    pats.setflags(write=False)
    return cands, pats


@lru_cache(maxsize=None)
def _subset_screen(n: int, L: int):
    """Every L-subset of the n-spin patterns with its inverse Gram block.

    Returns the subsets' pattern indices (subsets x L, in combinations
    order) and the inverse of each subset's Gram block (subsets x L x L),
    both read-only. None of it depends on the target, so a graph is
    screened with one gather and one batched product per chunk. Gram
    entries are integers, so a regular block has |det| >= 1; the few
    singular blocks (15 of 4495 at n=5, L=3) get their pseudo-inverse,
    which gives the minimum-norm least-squares fit that lstsq returns.
    """
    _, pats = _pattern_candidates(n)
    idx = np.fromiter(chain.from_iterable(combinations(range(len(pats)), L)), np.uint16)
    idx = idx.reshape(-1, L)
    gram_inv = np.empty((len(idx), L, L))
    for a in range(0, len(idx), _SCREEN_CHUNK):
        rows = pats[idx[a : a + _SCREEN_CHUNK]]  # subsets x L x pairs
        gram = rows @ rows.transpose(0, 2, 1)
        regular = np.abs(np.linalg.det(gram)) >= 0.5
        inv = gram_inv[a : a + _SCREEN_CHUNK]
        inv[regular] = np.linalg.inv(gram[regular])
        inv[~regular] = np.linalg.pinv(gram[~regular], rcond=1e-9, hermitian=True)
    idx.setflags(write=False)
    gram_inv.setflags(write=False)
    return idx, gram_inv


def _screened_subsets(n: int, target: np.ndarray, L: int):
    """L-subsets of the n-spin patterns that may fit target, in combinations order.

    The cached inverse Gram blocks give each subset's least-squares fit
    from its projections of target; a chunk at a time, subsets whose fit
    misses target or needs a negative weight are screened out. The bounds
    are far looser than the exact fit's, so every subset the exact fit
    accepts is yielded.
    """
    _, pats = _pattern_candidates(n)
    idx, gram_inv = _subset_screen(n, L)
    tt = float(target @ target)
    rhs = (pats @ target)[idx]  # subsets x L
    for a in range(0, len(idx), _SCREEN_CHUNK):
        chunk = slice(a, a + _SCREEN_CHUNK)
        w = np.einsum("kij,kj->ki", gram_inv[chunk], rhs[chunk])
        r2 = tt - np.einsum("kl,kl->k", rhs[chunk], w)
        hits = np.flatnonzero(r2 <= 1e-10 + 1e-9 * tt)
        hits = hits[w[hits].min(axis=1) >= -1e-6]
        for sub in idx[chunk][hits].tolist():
            yield tuple(sub)


def _decompose_graph(g: CouplingGraph, theta: float):
    """Express theta * J as a nonnegative combination of realizable patterns.

    The first subset of at most MAX_LAYERS patterns, in combinations
    order, whose least-squares fit is exact and nonnegative; failing
    that, a nonnegative least-squares fit over all patterns. Subsets are
    screened with the cached inverse Gram blocks of `_subset_screen`, and
    only those the screen passes get an exact lstsq fit. Signed couplings
    need no special case: signed patterns s_i s_j carry negative pairs.
    """
    iu = np.triu_indices(g.n, 1)
    target = theta * g.J[iu]
    if np.max(np.abs(target)) < 1e-15:
        return []
    cands, pats = _pattern_candidates(g.n)
    mat = pats.T  # pairs x candidates

    def try_subset(idx):
        sub = mat[:, idx]
        w, *_ = np.linalg.lstsq(sub, target, rcond=None)
        if np.min(w) < -1e-12:
            return None
        if np.linalg.norm(sub @ w - target) > DECOMP_TOL:
            return None
        return [(cands[i], float(max(wi, 0.0))) for i, wi in zip(idx, w) if wi > 1e-14]

    for L in range(1, MAX_LAYERS + 1):
        if len(cands) ** L > 10**6:
            break
        for idx in _screened_subsets(g.n, target, L):
            sol = try_subset(idx)
            if sol is not None:
                return sol
    from scipy.optimize import nnls

    w, resid = nnls(mat, target)
    if resid > DECOMP_TOL:
        residual = np.zeros((g.n, g.n))
        residual[iu] = mat @ w - target
        raise CompileError(
            f"no refocusing decomposition within layer budget; residual\n{residual + residual.T}"
        )
    return [(cands[i], float(wi)) for i, wi in enumerate(w) if wi > 1e-14]


def _layer_gates(layer, phi: float):
    (kind, K, _), w = layer
    refocus = [GateOp("O1", np.pi / 2, target=k) for k in K]
    if kind == "mask":
        if not K:
            return [GateOp("O4", w, phi)]
        half = GateOp("O4", w / 2, phi)
        return [half, *refocus, half, *refocus]
    return [*refocus, GateOp("O4", w, phi), *refocus]


def _graph_gates(g: CouplingGraph, theta: float):
    gates = []
    for layer in _decompose_graph(g, theta):
        gates.extend(_layer_gates(layer, g.phi))
    return gates


# -- many-body string construction ------------------------------------------


def _validate_many_body(p: PauliString):
    if not 3 <= p.n <= 6:
        raise CompileError(f"many-body construction supports 3..6 spins, got {p.n}")
    special = [(j, c) for j, c in enumerate(p.ops) if c in "YZ"]
    if len(special) != 1 or p.ops.count("X") != p.n - 1:
        raise CompileError(
            f"unsupported string {p.ops}: need exactly one Y-or-Z site, X elsewhere"
        )
    return special[0]


def _many_body_gates(p: PauliString, theta: float):
    """Entangle - address - entangle realization of exp(-i theta p).

    The collective entangling pulse O4(pi/4, 0) conjugates the addressed
    z rotation into a rotation generated by the full string; the
    residual collective factor is a global phase for odd n and a
    product of sigma_x rotations for even n, cancelled by an explicit
    O3(pi/2, 0). Signs and basis-change wraps below are fixed by oracle
    equivalence for every supported (n, site-operator) case.
    """
    n = p.n
    a, letter = _validate_many_body(p)
    natural = "Z" if n % 2 else "Y"
    if letter == natural:
        sign = 1.0 if (n - 1) % 4 in (0, 1) else -1.0
    else:
        sign = -1.0 if n % 4 in (0, 1) else 1.0
    entangle = GateOp("O4", np.pi / 4, 0.0)
    core = [entangle, GateOp("O1", sign * theta, target=a), entangle]
    if n % 2 == 0:
        core.append(GateOp("O3", np.pi / 2, 0.0))
    if letter != natural:
        core = [GateOp("O3", np.pi / 4, np.pi), *core, GateOp("O3", np.pi / 4, 0.0)]
    return core


# -- per-step block assembly -------------------------------------------------


def _uniform_pulse(w: float, phi: float) -> GateOp:
    """O4(w, phi), with a negative phase w folded into [0, pi).

    The generator sum_{i<j} sigma^i sigma^j has eigenvalue gaps
    2(k'-k)(n-k-k'), all even, so O4(w + pi) equals O4(w) up to a global
    phase. Nonnegative phases are emitted unchanged.
    """
    return GateOp("O4", w % np.pi if w < 0 else w, phi)


def _coupling_gates(n: int, couplings, many, dtheta: float):
    gates = []
    Jz = couplings["Z"]
    if np.any(Jz):
        uniform = _is_uniform_all_pairs(Jz)
        if uniform is None:
            raise CompileError("only uniform all-pairs ZZ couplings are compilable")
        # conjugate a y-axis entangling pulse into the z basis; the
        # trailing O3(pi/2, 0) cancels the residual collective rotation
        wrap = GateOp("O3", np.pi / 4, 0.0)
        gates.extend(
            [wrap, _uniform_pulse(uniform * dtheta, np.pi / 2), wrap, GateOp("O3", np.pi / 2, 0.0)]
        )
    for letter, phi in (("X", 0.0), ("Y", np.pi / 2)):
        J = couplings[letter]
        if not np.any(J):
            continue
        uniform = _is_uniform_all_pairs(J)
        if uniform is not None:
            gates.append(_uniform_pulse(uniform * dtheta, phi))
        else:
            gates.extend(_graph_gates(CouplingGraph(n, J, phi), dtheta))
    for coeff, p in many:
        gates.extend(_many_body_gates(p, coeff * dtheta))
    return gates


def _field_gates(fields, dtheta: float):
    gates = []
    z = fields["Z"]
    if np.any(z):
        if np.all(np.abs(z - z[0]) < 1e-12):
            gates.append(GateOp("O2", float(z[0]) * dtheta))
        else:
            gates.extend(
                GateOp("O1", float(bj) * dtheta, target=j) for j, bj in enumerate(z) if bj != 0.0
            )
    for letter, phi in (("X", 0.0), ("Y", np.pi / 2)):
        b = fields[letter]
        if not np.any(b):
            continue
        if not np.all(np.abs(b - b[0]) < 1e-12):
            raise CompileError(f"nonuniform {letter.lower()} fields have no native gate")
        gates.append(GateOp("O3", float(b[0]) * dtheta, phi))
    return gates


def _product_formula(
    model: WeightedPauliSum, theta: float, steps: int, order: int
) -> CompiledProgram:
    """`steps` identical split blocks of exp(-i theta model), a checkpoint after each.

    Order 1 is coupling block then field block; order 2 puts half field
    blocks on either side, and falls back to order 1 when either block is
    empty.
    """
    if steps < 1:
        raise CompileError("step count must be >= 1")
    dtheta = theta / steps
    fields, couplings, many = _classify_terms(model)
    cgates = _coupling_gates(model.n, couplings, many, dtheta)
    half = _field_gates(fields, dtheta / 2) if order == 2 and cgates else []
    block = half + cgates + half if half else cgates + _field_gates(fields, dtheta)
    if not block:
        raise CompileError("model has no nontrivial compilable terms")
    gates = tuple(block) * steps
    checkpoints = tuple(len(block) * (k + 1) for k in range(steps))
    return CompiledProgram(GateSequence(model.n, gates), checkpoints, theta)


def compile_first_order(model: WeightedPauliSum, theta: float, steps: int) -> CompiledProgram:
    """First-order splitting: `steps` identical coupling+field blocks."""
    return _product_formula(model, theta, steps, 1)


def compile_second_order(model: WeightedPauliSum, theta: float, steps: int) -> CompiledProgram:
    """Symmetric splitting: half field block, coupling block, half field block."""
    return _product_formula(model, theta, steps, 2)


_STEP_MODELS = {"ising": ising2, "xy": xy2, "xyz": xyz2}


def compile_model_steps(kind: str, resolution: float, steps: int) -> CompiledProgram:
    """First-order steps of the unit two-spin Ising, XY or XYZ model.

    Per step: ising = entangle + field (2 gates); xy adds a y-axis
    entangling pulse (3 gates); xyz additionally realizes the ZZ term by
    a basis-conjugated entangling pulse plus its residual-rotation
    cancellation (7 gates).
    """
    if kind not in _STEP_MODELS:
        raise CompileError(f"unknown step template {kind!r}")
    return compile_first_order(_STEP_MODELS[kind](1.0, 1.0), resolution * steps, steps)


def compile_time_dependent(ramp: RampSpec, steps: int) -> CompiledProgram:
    """Digitize a linear coupling ramp into counted entangling pulses.

    Each step applies floor(J(theta_k)) entangling pulses of phase
    dtheta followed by one field pulse, so the accumulated coupling
    phase tracks the ramp while using only a single pulse strength.
    """
    if steps < 1:
        raise CompileError("step count must be >= 1")
    dtheta = ramp.theta_t / steps
    gates = []
    checkpoints = []
    for k in range(1, steps + 1):
        d_count = int(np.floor(ramp.J_at(k * dtheta) + 1e-9))
        gates.extend([GateOp("O4", dtheta, 0.0)] * d_count)
        gates.append(GateOp("O2", ramp.B * dtheta))
        checkpoints.append(len(gates))
    return CompiledProgram(GateSequence(ramp.n, tuple(gates)), tuple(checkpoints), ramp.theta_t)


def compile_coupling_graph(g: CouplingGraph, theta: float) -> CompiledProgram:
    """Refocusing realization of an arbitrary coupling graph (one block)."""
    if not 2 <= g.n <= 6:
        raise CompileError("coupling-graph compilation supports 2..6 spins")
    gates = tuple(_graph_gates(g, theta))
    if not gates:
        raise CompileError("coupling graph has no nonzero couplings")
    return CompiledProgram(GateSequence(g.n, gates), (len(gates),), theta)


def compile_many_body(p: PauliString, theta: float) -> CompiledProgram:
    """Single-block realization of exp(-i theta p) for the X...X-string family."""
    _validate_many_body(p)
    return compile_first_order(many_body_model(p, 1.0), theta, 1)
