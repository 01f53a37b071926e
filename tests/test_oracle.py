"""Exact-propagation oracle tests."""
import numpy as np
import pytest
from scipy.linalg import expm

from trotterion.models import RampSpec, ising2, long_range_ising
from trotterion.oracle import (
    DegenerateGroundState,
    instantaneous_ground_state,
    level_populations,
    propagator,
    ramp_evolution,
    ramp_hamiltonian,
    spectrum,
    time_ordered_propagator,
)
from trotterion.pauli import PauliString, StateVector, WeightedPauliSum, hamiltonian_matrix


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


def test_instantaneous_ground_state_field_only():
    # +B sum Z with B > 0: the all-down state minimizes the energy
    h = WeightedPauliSum.from_terms(
        2, [(1.0, PauliString(2, "ZI")), (1.0, PauliString(2, "IZ"))]
    )
    gs = instantaneous_ground_state(h)
    assert abs(gs.overlap(StateVector.all_down(2))) == pytest.approx(1.0)


def test_degenerate_ground_state_raises():
    h = WeightedPauliSum.from_terms(2, [(1.0, PauliString(2, "ZZ"))])
    with pytest.raises(DegenerateGroundState):
        instantaneous_ground_state(h)


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
    assert abs(np.vdot(final, states[-1].amps)) == pytest.approx(1.0, abs=1e-6)
    assert abs(states[0].overlap(psi0)) == pytest.approx(1.0)


def test_ramp_hamiltonian_interpolates():
    ramp = RampSpec(2.0, 0.0, 4.0, 1.0)
    h = ramp_hamiltonian(ramp, 1.0)
    coeffs = {p.ops: c for c, p in h.terms}
    assert coeffs["XX"] == pytest.approx(2.0)
