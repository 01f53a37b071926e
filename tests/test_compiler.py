"""Compiler tests: every construction is checked against the exact oracle."""
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import nnls

from trotterion.compiler import (
    DECOMP_TOL,
    CompileError,
    _layer_gates,
    _pattern_candidates,
    _screened_subsets,
    _subset_screen,
    compile_coupling_graph,
    compile_first_order,
    compile_many_body,
    compile_model_steps,
    compile_second_order,
    compile_time_dependent,
)
from trotterion.gates import apply_sequence, sequence_unitary
from trotterion.metrics import process_fidelity
from trotterion.models import (
    CouplingGraph,
    FieldSpec,
    RampSpec,
    coupling_graph_model,
    ising2,
    long_range_ising,
    many_body_model,
    xyz2,
)
from trotterion.oracle import Exact, propagator, sparse_evolution
from trotterion.pauli import PauliString, StateVector, WeightedPauliSum, hamming_histogram

THETA_A = np.pi / (2 * np.sqrt(2))


def aligned_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Max abs deviation after removing the global phase."""
    tr = np.trace(u.conj().T @ v) / u.shape[0]
    return float(np.max(np.abs(v * np.conj(tr) / abs(tr) - u)))


def test_first_order_step_structure():
    prog = compile_first_order(ising2(0.5, 1.0), THETA_A, 4)
    kinds = [g.kind for g in prog.sequence.gates]
    assert kinds == ["O4", "O2"] * 4
    assert prog.checkpoints == (2, 4, 6, 8)


def test_first_order_converges_to_oracle():
    h = ising2(0.5, 1.0)
    target = propagator(h, THETA_A)
    fids = [
        process_fidelity(target, sequence_unitary(compile_first_order(h, THETA_A, k).sequence))
        for k in (1, 4, 64)
    ]
    assert fids[0] < fids[1] < fids[2]
    assert fids[2] > 0.9999


def test_checkpoint_thetas_ascending():
    prog = compile_first_order(ising2(0.5, 1.0), THETA_A, 4)
    thetas = prog.checkpoint_thetas()
    assert np.all(np.diff(thetas) > 0)
    assert thetas[-1] == pytest.approx(THETA_A)


def test_checkpoint_states_match_prefix_products():
    prog = compile_first_order(ising2(0.5, 1.0), THETA_A, 3)
    psi0 = StateVector.all_up(2)
    states = prog.checkpoint_states(psi0)
    for cp, state in zip(prog.checkpoints, states):
        from trotterion.gates import GateSequence, apply_sequence

        prefix = GateSequence(2, prog.sequence.gates[:cp])
        want = apply_sequence(psi0, prefix)
        assert abs(state.overlap(want)) == pytest.approx(1.0, abs=1e-12)


def test_steps_zero_rejected():
    with pytest.raises(CompileError):
        compile_first_order(ising2(0.5, 1.0), 1.0, 0)


def test_second_order_matches_oracle_better_at_fine_steps():
    h = ising2(1.0, 1.0)
    target = propagator(h, 1.0)
    f1 = process_fidelity(target, sequence_unitary(compile_first_order(h, 1.0, 8).sequence))
    f2 = process_fidelity(target, sequence_unitary(compile_second_order(h, 1.0, 8).sequence))
    assert f2 > f1


def test_model_steps_gate_counts():
    assert len(compile_model_steps("ising", np.pi / 16, 12).sequence) == 24
    assert len(compile_model_steps("xy", np.pi / 16, 12).sequence) == 36
    assert len(compile_model_steps("xyz", np.pi / 16, 12).sequence) == 84
    assert len(compile_model_steps("xyz", np.pi / 16, 4).sequence) == 28


def test_model_steps_track_oracle():
    # one fine step of each template reproduces its model generator
    res = np.pi / 256
    for kind, model in (("ising", ising2(1, 1)), ("xyz", xyz2(1, 1))):
        prog = compile_model_steps(kind, res, 1)
        target = propagator(model, res)
        assert process_fidelity(target, sequence_unitary(prog.sequence)) > 1 - 1e-3


def uniform_terms(n: int, letter: str, coeff: float, weight: int):
    """coeff times every weight-1 (field) or weight-2 (pair) string of one letter."""
    sites = [(j,) for j in range(n)] if weight == 1 else list(combinations(range(n), 2))
    ops = ["".join(letter if k in s else "I" for k in range(n)) for s in sites]
    return WeightedPauliSum.from_terms(n, [(coeff, PauliString(n, o)) for o in ops])


coupling = st.one_of(st.just(0.0), st.floats(0.1, 2.0), st.floats(-2.0, -0.1))


@st.composite
def pair_group(draw, n: int, letter: str):
    """None, a uniform coupling of either sign, or a signed or nonnegative integer graph."""
    kind = draw(st.sampled_from(["none", "uniform", "graph"]))
    if kind == "none":
        return None
    if kind == "uniform":
        c = draw(coupling.filter(bool))
        return uniform_terms(n, letter, c, 2)
    low = draw(st.sampled_from([0, -2]))
    iu = np.triu_indices(n, 1)
    J = np.zeros((n, n))
    J[iu] = draw(st.lists(st.integers(low, low + 3), min_size=len(iu[0]), max_size=len(iu[0])))
    if not J.any():
        return None
    return coupling_graph_model(CouplingGraph(n, J + J.T, 0.0 if letter == "X" else np.pi / 2))


@st.composite
def block_groups(draw):
    """(n, the term groups of one first-order block, in block order)."""
    n = draw(st.integers(2, 6))
    jz = draw(coupling)
    groups = [uniform_terms(n, "Z", jz, 2) if jz else None]
    if n <= 4:
        groups += [uniform_terms(n, letter, c, 2) if c else None
                   for letter, c in (("X", draw(coupling)), ("Y", draw(coupling)))]
    else:  # nonuniform graphs and many-body strings at n = 5 and 6
        groups += [draw(pair_group(n, "X")), draw(pair_group(n, "Y"))]
        if draw(st.booleans()):
            site = draw(st.integers(0, n - 1))
            ops = "".join(draw(st.sampled_from("YZ")) if k == site else "X" for k in range(n))
            groups.append(many_body_model(PauliString(n, ops), draw(coupling.filter(bool))))
    b = draw(coupling)
    groups.append(uniform_terms(n, draw(st.sampled_from("XYZ")), b, 1) if b else None)
    return n, [g for g in groups if g is not None]


@settings(max_examples=40, deadline=None)
@given(block_groups(), st.floats(0.05, 1.5))
def test_first_order_block_is_ordered_product_of_group_exponentials(block, theta):
    # block order: ZZ, then XX, then YY, then many-body strings, then the field
    n, groups = block
    if not groups:
        return
    model = WeightedPauliSum(n, tuple(t for g in groups for t in g.terms))
    want = np.eye(2**n)
    for g in groups:
        want = propagator(g, theta) @ want
    got = sequence_unitary(compile_first_order(model, theta, 1).sequence)
    assert aligned_distance(want, got) < 1e-9


@pytest.mark.parametrize("n", range(2, 7))
def test_negative_uniform_coupling_is_one_folded_pulse(n):
    # O4(w + pi) equals O4(w) up to a global phase, so a negative uniform
    # XX phase is one pulse, not a refocused graph
    model, _ = long_range_ising(n, 0.5, -1.0)
    prog = compile_first_order(model, 1.0, 4)
    assert [g.kind for g in prog.sequence.gates] == ["O4", "O2"] * 4
    assert prog.sequence.gates[0].theta == np.pi - 0.25
    xx = uniform_terms(n, "X", -1.0, 2)
    block = compile_first_order(xx, 0.25, 1).sequence
    assert aligned_distance(propagator(xx, 0.25), sequence_unitary(block)) < 1e-9


def test_sign_fold_leaves_nonnegative_phases_and_folds_zz():
    prog = compile_first_order(xyz2(1.0, -1.0), 1.0, 1)
    thetas = [g.theta for g in prog.sequence.gates if g.kind == "O4"]
    assert thetas == [np.pi - 1.0] * 3  # ZZ, XX and YY
    assert compile_first_order(xyz2(1.0, 1.0), 1.0, 1).sequence.gates[1].theta == 1.0
    # a phase below -pi folds into [0, pi) as well
    big = compile_first_order(uniform_terms(3, "Y", -1.0, 2), 4.0, 1).sequence.gates
    assert len(big) == 1 and 0.0 <= big[0].theta < np.pi


def test_zz_coupling_block_is_exact():
    # uniform ZZ realized by conjugating YY with collective x rotations
    h = WeightedPauliSum.from_terms(2, [(1.0, PauliString(2, "ZZ"))])
    prog = compile_first_order(h, 0.77, 1)
    assert aligned_distance(propagator(h, 0.77), sequence_unitary(prog.sequence)) < 1e-9


def test_time_dependent_gate_count_and_accuracy():
    ramp = RampSpec(np.pi / 2, 0.0, 4.0, 1.0)
    prog = compile_time_dependent(ramp, 8)
    assert len(prog.sequence) == 24
    assert prog.checkpoints == (1, 3, 5, 8, 11, 15, 19, 24)
    psi0 = StateVector.all_down(2)
    out = prog.checkpoint_states(psi0)[-1]
    exact = Exact(ramp).propagator(ramp.theta_t) @ psi0.amps
    assert abs(np.vdot(exact, out.amps)) ** 2 > 0.97


def test_nearest_neighbor_chain_refocused_exactly():
    J = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], float)
    g = CouplingGraph(3, J, 0.0)
    theta = 0.41
    prog = compile_coupling_graph(g, theta)
    target = propagator(coupling_graph_model(g), theta)
    assert aligned_distance(target, sequence_unitary(prog.sequence)) < 1e-9


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_random_graphs_refocused_exactly(n, seed):
    rng = np.random.default_rng(seed)
    J = np.triu(rng.integers(0, 3, size=(n, n)).astype(float), 1)
    J = J + J.T
    if not J.any():
        J[0, 1] = J[1, 0] = 1.0
    g = CouplingGraph(n, J, 0.0)
    theta = float(rng.uniform(0.1, 1.2))
    prog = compile_coupling_graph(g, theta)
    target = propagator(coupling_graph_model(g), theta)
    assert aligned_distance(target, sequence_unitary(prog.sequence)) < 1e-9


def exhaustive_graph_gates(g: CouplingGraph, theta: float):
    """Reference search: one lstsq per subset of at most 3 patterns, then nnls."""
    iu = np.triu_indices(g.n, 1)
    target = theta * g.J[iu]
    cands, pats = _pattern_candidates(g.n)
    mat = pats.T

    def layers():
        for L in range(1, 4):
            if len(cands) ** L > 10**6:
                break
            for idx in combinations(range(len(cands)), L):
                sub = mat[:, idx]
                w, *_ = np.linalg.lstsq(sub, target, rcond=None)
                if np.min(w) >= -1e-12 and np.linalg.norm(sub @ w - target) <= DECOMP_TOL:
                    return [(cands[i], float(max(wi, 0.0))) for i, wi in zip(idx, w) if wi > 1e-14]
        w, resid = nnls(mat, target)
        assert resid <= DECOMP_TOL
        return [(cands[i], float(wi)) for i, wi in enumerate(w) if wi > 1e-14]

    return [gate for layer in layers() for gate in _layer_gates(layer, g.phi)]


def seeded_graph(n: int, seed: int, low: int, high: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    J = np.triu(rng.integers(low, high + 1, size=(n, n)).astype(float), 1)
    return J + J.T


def pattern_graph(n: int, terms) -> np.ndarray:
    """Integer sum of weight * s_i s_j (signed) or (1 + s_i s_j)/2 (mask) patterns."""
    J = np.zeros((n, n))
    for weight, kind, flipped in terms:
        s = np.array([-1.0 if k in flipped else 1.0 for k in range(n)])
        outer = np.outer(s, s)
        J += weight * ((1 + outer) / 2 if kind == "mask" else outer)
    np.fill_diagonal(J, 0.0)
    return J


def chain_graph(n: int) -> np.ndarray:
    return np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)


# chains, pattern sums and n=3 graphs decompose in at most 3 layers; the
# larger seeded graphs fall through to nnls
REFERENCE_GRAPHS = {
    "chain3": [chain_graph(3)],
    "chain4": [chain_graph(4)],
    "two_patterns5": [pattern_graph(5, [(1, "mask", (2, 3)), (2, "signed", (1, 4))])],
    "two_patterns6": [pattern_graph(6, [(2, "mask", (1, 5)), (1, "signed", (2, 3, 4))])],
    "n3_nonneg": [seeded_graph(3, s, 0, 3) for s in range(4)],
    "n3_signed": [seeded_graph(3, s, -2, 2) for s in range(4)],
    "n4_nonneg": [seeded_graph(4, s, 0, 3) for s in range(3)],
    "n4_signed": [seeded_graph(4, s, -2, 2) for s in range(3)],
    "n5_nonneg": [seeded_graph(5, 0, 0, 3)],
    "n5_signed": [seeded_graph(5, 1, -2, 2)],
    "n6_nonneg": [seeded_graph(6, 0, 0, 3)],
}


def gate_tuples(gates):
    return [(op.kind, op.theta, op.phi, op.target) for op in gates]


@pytest.mark.parametrize("name", sorted(REFERENCE_GRAPHS))
def test_graph_decomposition_matches_exhaustive_search(name):
    for J in REFERENCE_GRAPHS[name]:
        g = CouplingGraph(len(J), J, 0.0)
        theta = 0.41 + 0.05 * len(J)
        got = gate_tuples(compile_coupling_graph(g, theta).sequence.gates)
        assert got == gate_tuples(exhaustive_graph_gates(g, theta))


def test_graph_decomposition_fit_count(monkeypatch):
    calls = []
    lstsq = np.linalg.lstsq

    def counted(*args, **kwargs):
        calls.append(1)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    # no subset of at most 3 of the 63 patterns fits this graph, and the
    # screen fits singular Gram blocks too, so none of the 41,727 subsets
    # gets an exact fit before nnls; a two-pattern sum costs one exact fit
    for J, fits in ((seeded_graph(6, 3, 0, 3), 0), (REFERENCE_GRAPHS["two_patterns6"][0], 1)):
        calls.clear()
        g = CouplingGraph(6, J, 0.0)
        prog = compile_coupling_graph(g, 0.7)
        assert len(calls) == fits
        target = propagator(coupling_graph_model(g), 0.7)
        assert aligned_distance(target, sequence_unitary(prog.sequence)) < 1e-9


def screen_graphs(n: int, seed: int):
    """Signed and nonnegative integer graphs plus integer pattern sums, as pair vectors."""
    rng = np.random.default_rng(seed)
    _, pats = _pattern_candidates(n)
    pairs = pats.shape[1]
    for _ in range(2):
        yield rng.integers(0, 4, pairs).astype(float)
        yield rng.integers(-2, 3, pairs).astype(float)
        k = int(rng.integers(1, 4))
        yield rng.integers(-2, 4, k) @ pats[rng.choice(len(pats), k, replace=False)]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_screen_yields_every_subset_the_exact_fit_accepts(n):
    mat = _pattern_candidates(n)[1].T
    for L in (1, 2, 3):
        idx, gram_inv = _subset_screen(n, L)
        assert not idx.flags.writeable and not gram_inv.flags.writeable
        assert [tuple(s) for s in idx.tolist()] == list(combinations(range(mat.shape[1]), L))
    for seed, J in enumerate(screen_graphs(n, 17 + n)):
        if not J.any():
            continue
        target = (0.3 + 0.1 * seed) * J
        for L in (1, 2, 3):
            screened = set(_screened_subsets(n, target, L))
            for sub in combinations(range(mat.shape[1]), L):
                w, *_ = np.linalg.lstsq(mat[:, sub], target, rcond=None)
                if np.min(w) >= -1e-12 and np.linalg.norm(mat[:, sub] @ w - target) <= DECOMP_TOL:
                    assert sub in screened, (J, sub)


@pytest.mark.parametrize("n", [9, 10])
def test_graph_models_compile_beyond_six_spins(n):
    # 511 and 1023 patterns, so subset indices pass 255; at n=9 the sum of
    # patterns 300 and 510 is found among the 130,305 pattern pairs, and
    # the random graphs fall through to nnls
    rng = np.random.default_rng(n)
    _, pats = _pattern_candidates(n)
    iu = np.triu_indices(n, 1)
    for vec in (rng.integers(0, 4, len(iu[0])), 2 * pats[300] + pats[-1]):
        J = np.zeros((n, n))
        J[iu] = vec
        model = coupling_graph_model(CouplingGraph(n, J + J.T, 0.0))
        prog = compile_first_order(model, 0.7, 1)
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        psi0 = StateVector(n, amps / np.linalg.norm(amps))
        got = apply_sequence(psi0, prog.sequence).amps
        want = sparse_evolution(model, psi0, [0.0, 0.7])[:, -1]
        overlap = np.vdot(want, got)
        assert abs(overlap) > 1 - 1e-9
        assert np.max(np.abs(got * np.conj(overlap) / abs(overlap) - want)) < 1e-9


@pytest.mark.parametrize("ops", ["ZXX", "YXX", "ZXXX", "YXXX", "XXXZ", "XZXX", "XXXXY"])
def test_many_body_strings_exact(ops):
    p = PauliString.from_string(ops)
    theta = 0.37
    prog = compile_many_body(p, theta)
    target = propagator(many_body_model(p, 1.0), theta)
    assert aligned_distance(target, sequence_unitary(prog.sequence)) < 1e-9


def test_many_body_ghz_point():
    prog = compile_many_body(PauliString.from_string("YXXXXX"), np.pi / 4)
    out = prog.checkpoint_states(StateVector.all_up(6))[-1]
    hist = hamming_histogram(out)
    assert np.allclose(hist, [0.5, 0, 0, 0, 0, 0, 0.5], atol=1e-9)


def test_many_body_rejects_bad_strings():
    with pytest.raises(CompileError):
        compile_many_body(PauliString.from_string("ZZX"), 0.1)  # two special sites
    with pytest.raises(CompileError):
        compile_many_body(PauliString.from_string("XX"), 0.1)  # too few spins
    with pytest.raises(CompileError):
        compile_many_body(PauliString.from_string("XXXXXXX"), 0.1)  # too many spins


def test_many_body_with_field_tracks_oracle():
    p = PauliString.from_string("ZXX")
    model = many_body_model(p, 1.0, FieldSpec("y", 1.0))
    coarse = compile_first_order(model, np.pi, 4)
    fine = compile_first_order(model, np.pi, 16)
    target = propagator(model, np.pi)
    f_coarse = process_fidelity(target, sequence_unitary(coarse.sequence))
    f_fine = process_fidelity(target, sequence_unitary(fine.sequence))
    assert f_fine > f_coarse
    assert f_fine > 0.95


def test_nonuniform_transverse_field_rejected():
    terms = [(1.0, PauliString(2, "XI")), (0.5, PauliString(2, "IX"))]
    h = WeightedPauliSum.from_terms(2, terms)
    with pytest.raises(CompileError):
        compile_first_order(h, 0.5, 1)
