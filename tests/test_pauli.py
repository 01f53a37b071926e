"""Statevector engine tests against dense matrix oracles."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trotterion.gates import _phi_basis_change
from trotterion.pauli import (
    MAX_SPINS,
    DimensionError,
    PauliString,
    StateVector,
    WeightedPauliSum,
    _PAULI_MATS,
    _apply_single_spin,
    apply_pauli,
    expectation,
    hamiltonian_matrix,
    hamiltonian_sparse,
    hamming_histogram,
)

_SIGMA = {
    "I": np.eye(2),
    "X": np.array([[0, 1], [1, 0]], complex),
    "Y": np.array([[0, -1j], [1j, 0]], complex),
    "Z": np.array([[1, 0], [0, -1]], complex),
}


def dense_pauli(p: PauliString) -> np.ndarray:
    # spin 0 is the lowest bit, so it sits rightmost in the kron chain
    m = np.array([[1.0 + 0j]])
    for c in p.ops:
        m = np.kron(_SIGMA[c], m)
    return m


def random_state(n: int, seed: int) -> StateVector:
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return StateVector(n, amps / np.linalg.norm(amps))


@st.composite
def pauli_strings(draw):
    n = draw(st.integers(1, 5))
    ops = "".join(draw(st.sampled_from("IXYZ")) for _ in range(n))
    return PauliString(n, ops)


def test_pauli_string_validation():
    with pytest.raises(ValueError):
        PauliString(2, "XQ")
    with pytest.raises(DimensionError):
        PauliString(3, "XX")
    with pytest.raises(DimensionError):
        PauliString(MAX_SPINS + 1, "X" * (MAX_SPINS + 1))
    assert PauliString.from_string("ZXX").n == 3
    assert PauliString(2, "II").is_identity


@settings(max_examples=60, deadline=None)
@given(pauli_strings(), st.integers(0, 1000))
def test_apply_pauli_matches_dense_oracle(p, seed):
    psi = random_state(p.n, seed)
    out = apply_pauli(psi, p)
    want = dense_pauli(p) @ psi.amps
    assert np.allclose(out.amps, want, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(pauli_strings(), st.integers(0, 1000))
def test_expectation_matches_dense_oracle(p, seed):
    psi = random_state(p.n, seed)
    want = np.vdot(psi.amps, dense_pauli(p) @ psi.amps).real
    assert expectation(psi, p) == pytest.approx(want, abs=1e-12)


def tensordot_reference(amps, n, j, mat):
    """The earlier vector path of ``_apply_single_spin``, whose rounding the bundled CSVs carry."""
    a = np.moveaxis(amps.reshape([2] * n, order="F"), j, 0)
    a = np.tensordot(mat, a, axes=([1], [0]))
    return np.moveaxis(a, 0, j).reshape(amps.shape, order="F")


def single_spin_matrix(kind: str, rng) -> np.ndarray:
    """A 2x2 matrix as the engine passes it: random, a Pauli, or an O3/O4 rotation."""
    if kind in _PAULI_MATS:
        return _PAULI_MATS[kind]
    if kind == "random":
        return rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    phi = rng.uniform(-2 * np.pi, 2 * np.pi)
    if kind == "O3":  # c I - i s sigma_phi, built as gates._evolve builds it
        theta = np.asarray(rng.uniform(-2 * np.pi, 2 * np.pi))
        sig = np.array([[0, np.exp(-1j * phi)], [np.exp(1j * phi), 0]], dtype=complex)
        c, s = np.cos(theta)[..., None, None], np.sin(theta)[..., None, None]
        return c * np.eye(2) - 1j * s * sig
    v = _phi_basis_change(phi)
    return v.conj().T if kind == "O4 adjoint" else v


@pytest.mark.parametrize("n", range(1, 11))
@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(["random", "I", "X", "Y", "Z", "O3", "O4", "O4 adjoint"]),
       seed=st.integers(0, 2**32 - 1))
def test_single_spin_vector_path_equals_tensordot_bit_for_bit(n, kind, seed):
    rng = np.random.default_rng(seed)
    mat = single_spin_matrix(kind, rng)
    amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    batch = rng.standard_normal((2**n, 33)) + 1j * rng.standard_normal((2**n, 33))
    for j in range(n):
        vec = _apply_single_spin(amps, n, j, mat)
        assert np.array_equal(vec, tensordot_reference(amps, n, j, mat))
        # a batch of one column is the vector, bit for bit
        assert np.array_equal(_apply_single_spin(amps[:, None], n, j, mat)[:, 0], vec)
        # wider batches: each column is its own vector result, to rounding
        for k in (3, 33):
            got = _apply_single_spin(batch[:, :k], n, j, mat)
            for c in range(k):
                assert np.max(np.abs(got[:, c] - _apply_single_spin(batch[:, c], n, j, mat))) < 1e-14


def test_state_labels_little_endian():
    # 'du' = spin 0 down, spin 1 up -> bit 0 set -> basis index 1
    assert np.argmax(np.abs(StateVector.from_label("du").amps)) == 1
    assert np.argmax(np.abs(StateVector.from_label("ud").amps)) == 2
    assert np.allclose(StateVector.all_up(3).amps[0], 1.0)
    assert np.allclose(StateVector.all_down(3).amps[-1], 1.0)


def test_spin_z_sign_convention():
    # up (bit clear) is the +1 eigenstate of sigma z
    up = StateVector.from_label("u")
    down = StateVector.from_label("d")
    z = PauliString(1, "Z")
    assert expectation(up, z) == pytest.approx(1.0)
    assert expectation(down, z) == pytest.approx(-1.0)


def test_hamming_histogram():
    psi = StateVector(2, np.array([1, 1, 0, 1], complex) / np.sqrt(3))
    hist = hamming_histogram(psi)
    assert hist.shape == (3,)
    assert np.allclose(hist, [1 / 3, 2 / 3 * 0.5 * 2 / 2, 1 / 3], atol=1e-12)
    assert hist.sum() == pytest.approx(1.0)


def test_hamiltonian_matrix_hermitian_and_linear():
    h = WeightedPauliSum.from_terms(
        2, [(0.5, PauliString(2, "ZI")), (1.5, PauliString(2, "XX"))]
    )
    m = hamiltonian_matrix(h)
    assert np.allclose(m, m.conj().T)
    want = 0.5 * dense_pauli(PauliString(2, "ZI")) + 1.5 * dense_pauli(PauliString(2, "XX"))
    assert np.allclose(m, want)


@st.composite
def pauli_sums(draw):
    n = draw(st.integers(1, 6))
    letters = st.text("IXYZ", min_size=n, max_size=n)
    coeffs = st.floats(-3.0, 3.0, allow_nan=False)
    terms = draw(st.lists(st.tuples(coeffs, letters), max_size=8))
    return WeightedPauliSum.from_terms(n, [(c, PauliString(n, ops)) for c, ops in terms])


@settings(max_examples=80, deadline=None)
@given(pauli_sums())
def test_hamiltonian_matrix_equals_kron_sum_in_term_order(h):
    want = np.zeros((2**h.n, 2**h.n), dtype=complex)
    for coeff, p in h.terms:
        want += coeff * p.matrix()
    assert np.array_equal(hamiltonian_matrix(h), want)


@settings(max_examples=80, deadline=None)
@given(pauli_sums())
def test_hamiltonian_sparse_equals_dense(h):
    sparse = hamiltonian_sparse(h)
    assert sparse.format == "csr" and sparse.shape == (2**h.n, 2**h.n)
    assert np.max(np.abs(sparse.toarray() - hamiltonian_matrix(h)), initial=0.0) <= 1e-12


def test_weighted_sum_validation():
    with pytest.raises(DimensionError):
        WeightedPauliSum.from_terms(2, [(1.0, PauliString(3, "XXX"))])
    with pytest.raises(ValueError):
        WeightedPauliSum.from_terms(1, [(np.nan, PauliString(1, "X"))])


def test_overlap_and_probabilities():
    a = random_state(3, 1)
    b = random_state(3, 2)
    assert a.overlap(a) == pytest.approx(1.0)
    assert abs(a.overlap(b)) <= 1.0 + 1e-12
    assert a.probabilities().sum() == pytest.approx(1.0)
