"""Exact-propagation oracle tests."""
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import trotterion
from trotterion.models import (
    CouplingGraph,
    _ising2_terms,
    FieldSpec,
    RampSpec,
    coupling_graph_model,
    ising2,
    long_range_ising,
    many_body_model,
)
from trotterion.oracle import (
    DENSE_MAX_SPINS,
    RAMP_SLICES,
    Exact,
    level_populations,
    propagator,
    ramp_evolution,
    sparse_evolution,
    spectrum,
    time_ordered_propagator,
)
from trotterion.pauli import DimensionError, PauliString, StateVector, WeightedPauliSum, _stacked_matrices, hamiltonian_matrix


def test_propagator_matches_expm():
    h = ising2(0.5, 1.0)
    theta = 0.83
    want = expm(-1j * theta * hamiltonian_matrix(h))
    assert np.allclose(propagator(h, theta), want, atol=1e-10)


def test_propagator_unitary_and_composes():
    h = ising2(1.0, 1.0)
    u1 = propagator(h, 0.4)
    u2 = propagator(h, 0.6)
    assert np.allclose(u1 @ u1.conj().T, np.eye(4), atol=1e-12)
    assert np.allclose(u2 @ u1, propagator(h, 1.0), atol=1e-10)


def test_spectrum_propagator_is_the_oracle_product():
    model, _ = long_range_ising(5, 0.5, 1.0)
    spec = spectrum(model)
    w, v = np.linalg.eigh(hamiltonian_matrix(model))
    for theta in (0.0, 0.37, 2.2, 0.37):  # repeat: the cached adjoint is reused
        got = spec.propagator(theta)
        assert np.array_equal(got, propagator(model, theta))
        assert np.array_equal(got, (v * np.exp(-1j * theta * w)) @ v.conj().T)


def test_spectrum_groups_degenerate_levels():
    model, _ = long_range_ising(4, 0.5, 1.0)
    spec = spectrum(model)
    assert len(spec.levels) == 9
    # level multiplicities cover the whole 16-dimensional space
    assert sum(sl.stop - sl.start for _, sl in spec.levels) == 16


def test_level_populations_sum_to_one():
    model, _ = long_range_ising(4, 0.5, 1.0)
    spec = spectrum(model)
    pops = level_populations(StateVector.all_up(4), spec)
    assert pops.sum() == pytest.approx(1.0)
    assert np.count_nonzero(pops > 1e-9) == 3


def test_eigenstate_is_stationary():
    h = ising2(0.7, 0.3)
    spec = spectrum(h)
    vec = spec.eigenvectors[:, 0]
    out = propagator(h, 1.3) @ vec
    assert abs(np.vdot(vec, out)) == pytest.approx(1.0, abs=1e-12)


def test_time_ordered_constant_ramp_matches_propagator():
    ramp = RampSpec(1.0, 2.0, 2.0, 1.0)  # J constant: ordering is trivial
    u = time_ordered_propagator(ramp, 50)
    want = propagator(ising2(1.0, 2.0), 1.0)
    assert np.allclose(u, want, atol=1e-8)


def test_time_ordered_converges():
    ramp = RampSpec(np.pi / 2, 0.0, 4.0, 1.0)
    u1 = time_ordered_propagator(ramp, 1000)
    u2 = time_ordered_propagator(ramp, 2000)
    assert np.max(np.abs(u1 - u2)) < 1e-6


def test_ramp_evolution_endpoint_matches_propagator_product():
    ramp = RampSpec(np.pi / 2, 0.0, 4.0, 1.0)
    psi0 = StateVector.all_down(2)
    states = ramp_evolution(ramp, psi0, np.array([0.0, np.pi / 4, np.pi / 2]))
    final = time_ordered_propagator(ramp, 2000) @ psi0.amps
    assert abs(np.vdot(final, states[:, -1])) == pytest.approx(1.0, abs=1e-6)
    assert abs(np.vdot(states[:, 0], psi0.amps)) == pytest.approx(1.0)


def _per_slice_steps(ramp, start, stop, slices):
    """The ramp's slice propagators one at a time, as the oracle once built them."""
    d = (stop - start) / slices
    for k in range(slices):
        yield propagator(ising2(ramp.B, ramp.J_at(start + (k + 0.5) * d)), d)


def _per_slice_evolution(ramp, psi0, thetas):
    states, psi, prev = [], psi0.amps, 0.0
    for th in thetas:
        span = th - prev
        if span > 0:
            steps = max(1, int(np.ceil(RAMP_SLICES * span / ramp.theta_t)))
            for step in _per_slice_steps(ramp, prev, th, steps):
                psi = step @ psi
        prev = th
        states.append(psi)
    return np.stack(states, axis=1)


def _per_slice_propagator(ramp, fine_steps, theta_end):
    u = np.eye(4, dtype=complex)
    for step in _per_slice_steps(ramp, 0.0, theta_end, fine_steps):
        u = step @ u
    return u


FIG1B_RAMP = RampSpec(np.pi / 2, 0.0, 4.0, 1.0)


@pytest.mark.parametrize(
    "thetas",
    [
        np.linspace(0.0, np.pi / 2, 33),  # fig1b's exact-row grid
        np.array([0.0, 0.3, 0.3, 0.9, 0.9, np.pi / 2]),
        np.linspace(0.2, np.pi / 2, 9),
        np.linspace(0.0, 3.0, 7),  # runs past theta_t, where J_at clips
    ],
    ids=["fig1b", "repeated", "starts_above_zero", "past_theta_t"],
)
def test_stacked_ramp_evolution_is_bit_identical_to_per_slice(thetas):
    psi0 = StateVector.all_down(2)
    assert np.array_equal(ramp_evolution(FIG1B_RAMP, psi0, thetas), _per_slice_evolution(FIG1B_RAMP, psi0, thetas))


@pytest.mark.parametrize("fine_steps", [1, 50, 2000])
@pytest.mark.parametrize("theta_end", [None, 0.9])
def test_stacked_time_ordered_propagator_is_bit_identical_to_per_slice(fine_steps, theta_end):
    want = _per_slice_propagator(FIG1B_RAMP, fine_steps, FIG1B_RAMP.theta_t if theta_end is None else theta_end)
    assert np.array_equal(time_ordered_propagator(FIG1B_RAMP, fine_steps, theta_end), want)


@pytest.mark.parametrize("ramp", [FIG1B_RAMP, RampSpec(1.3, -2.5, 0.75, -0.6)])
def test_stacked_ramp_slices_equal_lone_hamiltonian_matrices(ramp):
    mids = np.linspace(-0.1, 1.2 * ramp.theta_t, 41)
    stack = _stacked_matrices(2, _ising2_terms(ramp.B, ramp.J_at(mids)[:, None]))
    assert stack.shape == (41, 4, 4)
    for m, mid in zip(stack, mids):
        assert np.array_equal(m, hamiltonian_matrix(ising2(ramp.B, ramp.J_at(mid))))


def test_stacked_matrices_match_lone_builds_with_every_letter():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        strings = [PauliString(n, "".join(rng.choice(list("IXYZ"), n))) for _ in range(int(rng.integers(1, 6)))]
        coeffs = rng.normal(size=(len(strings), 5, 1))
        stack = _stacked_matrices(n, list(zip(coeffs, strings)))
        for k in range(5):
            lone = WeightedPauliSum.from_terms(n, list(zip(coeffs[:, k, 0], strings)))
            assert stack[k].tobytes() == hamiltonian_matrix(lone).tobytes()


@pytest.mark.parametrize("thetas", [[-0.5, 0.5], [0.0, 0.6, 0.4]], ids=["negative", "decreasing"])
def test_ramp_evolution_rejects_a_bad_grid(thetas):
    with pytest.raises(ValueError, match="nonnegative and nondecreasing"):
        ramp_evolution(FIG1B_RAMP, StateVector.all_down(2), thetas)


@st.composite
def oracle_models(draw):
    """Random long_range, graph and many_body models on 2..8 spins."""
    n = draw(st.integers(2, 8))
    strength = st.floats(-2.0, 2.0, allow_nan=False)
    field = draw(st.none() | st.builds(FieldSpec, st.sampled_from("xyz"), strength))
    preset = draw(st.sampled_from(["long_range", "graph", "many_body"]))
    if preset == "long_range":
        return long_range_ising(n, draw(strength), draw(strength))[0]
    if preset == "graph":
        J = np.zeros((n, n))
        J[np.triu_indices(n, 1)] = draw(st.lists(strength, min_size=n * (n - 1) // 2,
                                                 max_size=n * (n - 1) // 2))
        phi = draw(st.sampled_from([0.0, np.pi / 2]))
        return coupling_graph_model(CouplingGraph(n, J + J.T, phi), field)
    ops = draw(st.text("IXYZ", min_size=n, max_size=n).filter(lambda ops: ops != "I" * n))
    return many_body_model(PauliString.from_string(ops), draw(strength), field)


@st.composite
def theta_grids(draw):
    """Uniform grids (from linspace) and free ones: unsorted, repeated, negative."""
    if draw(st.booleans()):
        theta_min = draw(st.sampled_from([0.0, 0.0, 0.4, 2.5]))
        span = draw(st.floats(-1.0, 3.0, allow_nan=False))
        return np.linspace(theta_min, theta_min + span, draw(st.sampled_from([1, 2, 5, 33])))
    return np.array(draw(st.lists(st.floats(-3.0, 3.0, allow_nan=False), min_size=1, max_size=12)))


def _random_state(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return StateVector(n, amps / np.linalg.norm(amps))


def _dense_states(h, psi0, thetas):
    spec = spectrum(h)
    v = spec.eigenvectors  # V exp(-i theta w) V^dag psi0, O(d^2) per theta
    return v @ (np.exp(-1j * np.outer(spec.eigenvalues, thetas)) * (v.conj().T @ psi0.amps)[:, None])


@settings(max_examples=40, deadline=None)
@given(oracle_models(), theta_grids(), st.integers(0, 1000))
def test_sparse_evolution_matches_dense_propagators(h, thetas, seed):
    psi0 = _random_state(h.n, seed)
    got = sparse_evolution(h, psi0, thetas)
    assert got.shape == (2**h.n, len(thetas))
    assert np.max(np.abs(got - _dense_states(h, psi0, thetas))) <= 1e-10


def test_sparse_evolution_at_zero_is_the_initial_state():
    model, _ = long_range_ising(8, 0.5, 1.0)
    psi0 = StateVector.from_label("ud" * 4)
    assert np.array_equal(sparse_evolution(model, psi0, [0.0])[:, 0], psi0.amps)
    assert np.array_equal(sparse_evolution(model, psi0, np.linspace(0.0, 1.0, 3))[:, 0], psi0.amps)


@pytest.mark.parametrize("span", [5e-324, -5e-324, 1e-323])
def test_sparse_evolution_over_a_subnormal_span_is_the_initial_state(span):
    # scipy's interval mode divides by zero on such spans
    h = WeightedPauliSum(7, ((1.0, PauliString(7, "IIIIIIX")),))
    psi0 = StateVector.all_up(7)
    got = sparse_evolution(h, psi0, np.linspace(0.0, span, 5))
    assert np.array_equal(got, np.repeat(psi0.amps[:, None], 5, axis=1))


def _assert_dense_and_unitary(h, psi0, thetas):
    got = sparse_evolution(h, psi0, thetas)
    want = np.stack([propagator(h, th) @ psi0.amps for th in thetas], axis=1)
    assert np.max(np.abs(got - want)) <= 1e-10
    assert np.max(np.abs(np.linalg.norm(got, axis=0) - 1.0)) <= 1e-12
    return got


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
@pytest.mark.parametrize(
    "thetas",
    [[0.0, 0.1, 0.3, 1.7, 1.75, 4.0], [2.5, 1.0, 0.4, 0.0, -0.2], [-3.0, -0.01, -1.2], [0.9, -0.9, 0.9, 0.0]],
    ids=["nonuniform", "descending", "negative", "unsorted"],
)
def test_sparse_evolution_on_any_grid_matches_dense_propagator_columns(n, thetas):
    model, _ = long_range_ising(n, 0.5, 1.0)
    _assert_dense_and_unitary(model, _random_state(n, n), thetas)


def test_sparse_evolution_at_the_edge_of_the_spectral_bound():
    # sum_j Z_j has radius n, and the all-up state sits on the top eigenvalue n
    n = 6
    h = WeightedPauliSum.from_terms(n, [(1.0, PauliString(n, "I" * j + "Z" + "I" * (n - 1 - j))) for j in range(n)])
    psi0 = StateVector.all_up(n)
    thetas = np.linspace(0.0, 50.0, 21)
    got = _assert_dense_and_unitary(h, psi0, thetas)
    assert np.max(np.abs(got - np.exp(-1j * n * thetas) * psi0.amps[:, None])) <= 1e-10


def test_sparse_evolution_of_an_identity_only_sum_is_its_phase():
    # radius 0: the series is its first term, exp(-i theta shift) psi0
    n = 4
    h = WeightedPauliSum.from_terms(n, [(1.5, PauliString(n, "IIII")), (-0.25, PauliString(n, "IIII"))])
    psi0 = _random_state(n, 1)
    thetas = np.array([0.0, 0.3, -2.0, 40.0])
    got = _assert_dense_and_unitary(h, psi0, thetas)
    assert np.array_equal(got[:, 0], psi0.amps)
    assert np.max(np.abs(got - np.exp(-1.25j * thetas) * psi0.amps[:, None])) <= 1e-12


def test_sparse_evolution_takes_an_identity_term_as_the_shift():
    n = 5
    model, _ = long_range_ising(n, 0.5, 1.0)
    shifted = model + WeightedPauliSum.from_terms(n, [(3.0, PauliString(n, "I" * n))])
    psi0 = _random_state(n, 2)
    thetas = np.linspace(-1.0, 3.0, 9)
    got = _assert_dense_and_unitary(shifted, psi0, thetas)
    assert np.max(np.abs(got - np.exp(-3j * thetas) * sparse_evolution(model, psi0, thetas))) <= 1e-10


def test_sparse_evolution_over_a_long_phase():
    model, _ = long_range_ising(8, 0.5, 1.0)
    radius = sum(abs(c) for c, _ in model.terms)  # 8 * 0.5 + 28 = 32
    thetas = np.array([0.5, 31.25, 40.0, -35.0])
    assert np.max(np.abs(thetas)) * radius >= 1000
    _assert_dense_and_unitary(model, _random_state(8, 3), thetas)


def test_sparse_evolution_leaves_the_global_rng_alone():
    # theta * H has a one-norm far above 63, where scipy's norm estimate draws random numbers
    model, _ = long_range_ising(9, 0.5, 1.0)
    psi0 = StateVector.from_label("ud" * 4 + "u")
    thetas = np.linspace(0.0, 8.0, 33)
    runs = []
    for seed in (1, 2):
        np.random.seed(seed)
        before = np.random.get_state()
        runs.append(sparse_evolution(model, psi0, thetas))
        after = np.random.get_state()
        assert after[2] == before[2] and np.array_equal(after[1], before[1])
    assert np.array_equal(runs[0], runs[1])


def test_exact_routes_a_ramp_to_the_time_ordered_functions():
    ramp = RampSpec(np.pi / 2, 0.0, 4.0, 1.0)
    psi0 = StateVector.all_down(2)
    thetas = np.linspace(0.0, np.pi / 2, 5)
    exact = Exact(ramp)
    assert np.array_equal(exact.states(psi0, thetas), ramp_evolution(ramp, psi0, thetas))
    assert np.array_equal(exact.propagator(0.9), time_ordered_propagator(ramp, RAMP_SLICES, 0.9))


@pytest.mark.parametrize("n", [DENSE_MAX_SPINS, DENSE_MAX_SPINS + 1])
def test_exact_routes_by_spin_count(n):
    model, _ = long_range_ising(n, 0.5, 1.0)
    psi0 = StateVector.from_label("ud" * (n // 2) + "u" * (n % 2))
    thetas = np.linspace(0.0, 1.2, 9)
    exact = Exact(model)
    got = exact.states(psi0, thetas)
    if n > DENSE_MAX_SPINS:
        assert np.array_equal(got, sparse_evolution(model, psi0, thetas))
    else:
        spec = spectrum(model)
        assert np.array_equal(got, np.stack([spec.propagator(th) @ psi0.amps for th in thetas], axis=1))
    want = np.stack([propagator(model, th) @ psi0.amps for th in thetas], axis=1)
    assert np.max(np.abs(got - want)) <= 1e-10
    assert np.array_equal(exact.propagator(0.7), propagator(model, 0.7))


def route_model(route: str):
    """A model that ``Exact.states`` sends down the named route, and its spin count."""
    n = {"dense": DENSE_MAX_SPINS, "sparse": DENSE_MAX_SPINS + 1, "ramp": 2}[route]
    return (FIG1B_RAMP if route == "ramp" else long_range_ising(n, 0.5, 1.0)[0]), n


EXACT_ROUTES = pytest.mark.parametrize("route", ["dense", "sparse", "ramp"])


@pytest.mark.parametrize("theta", [np.nan, np.inf, -np.inf])
@EXACT_ROUTES
def test_exact_states_rejects_a_non_finite_theta(route, theta):
    model, n = route_model(route)
    with pytest.raises(ValueError, match="theta grid must be finite"):
        Exact(model).states(StateVector.all_up(n), [0.0, theta, 1.0])


@EXACT_ROUTES
def test_exact_states_on_an_empty_grid_is_empty(route):
    model, n = route_model(route)
    out = Exact(model).states(StateVector.all_up(n), [])
    assert out.shape == (2**n, 0) and out.dtype == complex


@pytest.mark.parametrize("grid", [[0.0], [0.0, 0.5, 1.0]])
@pytest.mark.parametrize("offset", [-1, 1])
@EXACT_ROUTES
def test_exact_states_rejects_a_state_of_another_size(route, offset, grid):
    model, n = route_model(route)
    exact = Exact(model)
    with pytest.raises(DimensionError, match=f"{n + offset}-spin state for a {n}-spin model"):
        exact.states(StateVector.all_up(n + offset), grid)
    assert "spectrum" not in vars(exact)  # refused before any work


# Fresh-process cases that need no scipy.linalg, scipy.optimize, scipy.special or
# scipy.sparse.linalg, and so must not pay for importing them.
START_UP_CASES = {
    "bare_import": "import trotterion\n",
    "bundled": (
        "from trotterion import cli\n"
        "assert len(cli.bundled_scenarios()) == 18\n"
        "for name in cli.bundled_scenarios():\n"
        "    cli.run_scenario(name, sys.argv[1])\n"
    ),
    "sparse_route": (
        "import numpy as np\n"
        "from trotterion.models import long_range_ising\n"
        "from trotterion.oracle import Exact\n"
        "from trotterion.pauli import StateVector\n"
        "Exact(long_range_ising(9, 0.5, 1.0)[0]).states(StateVector.all_up(9), np.linspace(0.0, 2.3, 33))\n"
    ),
}


@pytest.mark.parametrize("case", list(START_UP_CASES))
def test_loads_no_scipy_linalg_optimize_or_special(case, tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(trotterion.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    unwanted = {"scipy.linalg", "scipy.optimize", "scipy.special", "scipy.sparse.linalg"}
    script = f"import sys\n{START_UP_CASES[case]}print(sorted({unwanted!r} & set(sys.modules)))\n"
    out = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    assert out.split() == ["[]"]
