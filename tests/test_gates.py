"""Native gate set tests against matrix-exponential oracles."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from trotterion.gates import (
    DurationModel,
    GateOp,
    GateSequence,
    _evolve,
    apply_gate,
    apply_sequence,
    sequence_stats,
    sequence_unitary,
)
from trotterion.pauli import PauliString, StateVector

_X = np.array([[0, 1], [1, 0]], complex)
_Y = np.array([[0, -1j], [1j, 0]], complex)
_Z = np.array([[1, 0], [0, -1]], complex)


def _embed(op: np.ndarray, j: int, n: int) -> np.ndarray:
    m = np.array([[1.0 + 0j]])
    for k in range(n):
        m = np.kron(op if k == j else np.eye(2), m)
    return m


def _sigma_phi(phi: float) -> np.ndarray:
    return np.cos(phi) * _X + np.sin(phi) * _Y


def oracle_unitary(g: GateOp, n: int) -> np.ndarray:
    h = np.zeros((2**n, 2**n), complex)
    if g.kind == "O1":
        h = _embed(_Z, g.target, n)
    elif g.kind == "O2":
        for j in range(n):
            h = h + _embed(_Z, j, n)
    elif g.kind == "O3":
        for j in range(n):
            h = h + _embed(_sigma_phi(g.phi), j, n)
    else:
        for i in range(n):
            for j in range(i + 1, n):
                h = h + _embed(_sigma_phi(g.phi), i, n) @ _embed(_sigma_phi(g.phi), j, n)
    return expm(-1j * g.theta * h)


@st.composite
def gate_ops(draw):
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["O1", "O2", "O3", "O4"]))
    theta = draw(st.floats(-3.2, 3.2, allow_nan=False))
    phi = draw(st.floats(0, 6.28, allow_nan=False))
    target = draw(st.integers(0, n - 1)) if kind == "O1" else None
    return n, GateOp(kind, theta, phi, target)


@settings(max_examples=80, deadline=None)
@given(gate_ops())
def test_gate_unitary_matches_expm_oracle(case):
    n, g = case
    assert np.allclose(sequence_unitary(GateSequence(n, (g,))), oracle_unitary(g, n), atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(gate_ops(), st.integers(0, 500))
def test_apply_gate_matches_unitary(case, seed):
    n, g = case
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal((2**n, 3)) + 1j * rng.standard_normal((2**n, 3))
    amps /= np.linalg.norm(amps, axis=0)
    psi = StateVector(n, amps[:, 0])
    out = apply_gate(psi, g)
    assert np.allclose(out.amps, oracle_unitary(g, n) @ psi.amps, atol=1e-10)
    # a column batch with one phase per column: column k is apply_gate at theta_k
    thetas = g.theta + rng.uniform(-1.0, 1.0, size=3)
    batch = _evolve(amps, n, g, thetas)
    for k, theta in enumerate(thetas):
        want = apply_gate(StateVector(n, amps[:, k]), GateOp(g.kind, theta, g.phi, g.target))
        assert np.allclose(batch[:, k], want.amps, rtol=0, atol=1e-12)


def test_gate_op_validation():
    with pytest.raises(ValueError):
        GateOp("O5", 1.0)
    with pytest.raises(ValueError):
        GateOp("O2", 1.0, target=0)  # target only valid on O1
    with pytest.raises(ValueError):
        GateOp("O1", 1.0)  # O1 needs a target
    with pytest.raises(ValueError):
        GateOp("O3", np.inf)
    for phi in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="phi"):
            GateOp("O4", 0.1, phi)


def test_sequence_unitary_is_time_ordered_product():
    a = GateOp("O3", 0.3, 0.0)
    b = GateOp("O2", 0.7)
    seq = GateSequence(2, (a, b))
    want = oracle_unitary(b, 2) @ oracle_unitary(a, 2)  # a acts first
    assert np.allclose(sequence_unitary(seq), want, atol=1e-12)


@st.composite
def programs(draw):
    """A gate program with runs of diagonal gates at both ends, possibly empty."""
    n = draw(st.integers(1, 7))
    phis = st.one_of(st.just(0.0), st.just(np.pi / 2), st.floats(0, 2 * np.pi))

    def gates(kinds, max_size):
        out = []
        for kind in draw(st.lists(st.sampled_from(kinds), max_size=max_size)):
            theta = draw(st.floats(-3.2, 3.2))
            target = draw(st.integers(0, n - 1)) if kind == "O1" else None
            out.append(GateOp(kind, theta, draw(phis), target))
        return out

    diagonal = ("O1", "O2")
    body = gates(("O1", "O2", "O3", "O4"), 8)
    return GateSequence(n, tuple(gates(diagonal, 3) + body + gates(diagonal, 3)))


@settings(max_examples=80, deadline=None)
@given(programs())
def test_sequence_unitary_is_the_product_of_gate_kernels(seq):
    want = np.eye(2**seq.n, dtype=complex)
    for g in seq.gates:
        want = _evolve(want, seq.n, g, g.theta)
    assert np.allclose(sequence_unitary(seq), want, rtol=0, atol=1e-12)


def test_empty_sequence_unitary_is_the_identity():
    for n in range(1, 8):
        assert np.array_equal(sequence_unitary(GateSequence(n)), np.eye(2**n))


def test_o4_on_single_spin_is_identity():
    # no spin pairs exist, the entangling generator vanishes
    u = sequence_unitary(GateSequence(1, (GateOp("O4", 1.234, 0.7),)))
    assert np.allclose(u, np.eye(2), atol=1e-12)


def test_duration_model():
    model = DurationModel()
    assert model.duration(GateOp("O4", 0.01, 0.0)) == 30.0  # fixed cost
    assert model.duration(GateOp("O1", np.pi / 2, target=0)) == 30.0
    assert model.duration(GateOp("O3", np.pi / 2, 0.0)) == pytest.approx(10.0)
    assert model.duration(GateOp("O2", np.pi / 16)) == pytest.approx(10.0)


def test_sequence_stats():
    seq = GateSequence(2, (GateOp("O4", np.pi / 16, 0.0), GateOp("O2", np.pi / 16)))
    stats = sequence_stats(seq)
    assert stats["gate_count"] == 2
    assert stats["wall_time_us"] == pytest.approx(40.0)
    assert stats["kind_counts"]["O4"] == 1


def test_apply_sequence_preserves_norm():
    seq = GateSequence(2, (GateOp("O4", 0.4, 0.1), GateOp("O3", 0.2, 1.0)))
    out = apply_sequence(StateVector.all_up(2), seq)
    assert out.norm() == pytest.approx(1.0)


def test_o1_target_range_checked():
    with pytest.raises(Exception):
        GateSequence(2, (GateOp("O1", 0.1, target=5),))
