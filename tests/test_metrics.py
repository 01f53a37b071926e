"""Fidelity, tomography, Hofmann-bound and GHZ-fidelity metric tests."""
import numpy as np
import pytest
from scipy.stats import unitary_group

from trotterion.compiler import compile_first_order
from trotterion.gates import GateOp, GateSequence, apply_gate, sequence_unitary
from trotterion.metrics import (
    GhzMeasurementRecord,
    ProcessMatrix,
    chi_overlap,
    ghz_fidelity,
    hofmann_bounds,
    process_fidelity,
    simulate_qpt,
    tangle2,
    unitary_chi,
)
from trotterion.models import ising2
from trotterion.oracle import propagator
from trotterion.pauli import DimensionError, PauliString, StateVector, expectation


def bell_state() -> StateVector:
    return StateVector(2, np.array([1, 0, 0, 1], complex) / np.sqrt(2))


def ghz_state(n: int, theta: float = np.pi / 4) -> StateVector:
    amps = np.zeros(2**n, complex)
    amps[0] = np.cos(theta)
    amps[-1] = np.sin(theta)
    return StateVector(n, amps)


def test_process_fidelity_phase_invariant():
    u = unitary_group.rvs(4, random_state=0)
    assert process_fidelity(u, u) == pytest.approx(1.0)
    assert process_fidelity(u, np.exp(1j * 0.7) * u) == pytest.approx(1.0)
    v = unitary_group.rvs(4, random_state=1)
    f = process_fidelity(u, v)
    assert 0.0 <= f < 1.0


def test_tangle():
    assert tangle2(bell_state()) == pytest.approx(1.0)
    assert tangle2(StateVector.all_up(2)) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(DimensionError):
        tangle2(StateVector.all_up(3))


def test_unitary_chi_identity():
    chi = unitary_chi(np.eye(2), 1)
    chi.validate()
    assert chi.chi[0, 0] == pytest.approx(1.0)
    assert np.max(np.abs(chi.chi[1:, 1:])) < 1e-12


def test_qpt_identity_program():
    prog = GateSequence(1, ())
    chi = simulate_qpt(prog)
    chi.validate()
    assert abs(chi.chi[0, 0] - 1.0) < 1e-9


def test_qpt_roundtrip_single_gate():
    seq = GateSequence(2, (GateOp("O4", 0.37, 0.2), GateOp("O3", 0.51, 1.1)))
    chi = simulate_qpt(seq)
    want = unitary_chi(sequence_unitary(seq), 2)
    assert chi_overlap(chi, want) > 0.999999


def test_qpt_sampled_converges():
    seq = GateSequence(1, (GateOp("O3", 0.4, 0.0),))
    want = unitary_chi(sequence_unitary(seq), 1)
    got = simulate_qpt(seq, shots=20000, seed=3)
    got.validate()
    assert chi_overlap(got, want) > 0.98


def test_qpt_matches_trotter_fidelity():
    # tomography of the compiled program agrees with the direct unitary overlap
    h = ising2(0.5, 1.0)
    theta = np.pi / (2 * np.sqrt(2))
    prog = compile_first_order(h, theta, 4)
    chi = simulate_qpt(prog)
    want = unitary_chi(propagator(h, theta), 2)
    direct = process_fidelity(propagator(h, theta), sequence_unitary(prog.sequence))
    assert chi_overlap(chi, want) == pytest.approx(direct, abs=1e-6)


def test_hofmann_bounds_formula():
    b = hofmann_bounds(0.9, 0.8, 0.01, 0.02)
    assert set(b) == {"lower", "upper", "lower_unc", "upper_unc"}
    assert b["lower"] == pytest.approx(0.7)
    assert b["upper"] == pytest.approx(0.8)
    assert b["upper_unc"] == pytest.approx(0.02)
    assert b["lower_unc"] == pytest.approx(np.hypot(0.01, 0.02))
    for bad in (1.2, -0.1, float("nan")):
        with pytest.raises(ValueError):
            hofmann_bounds(bad, 0.5)


def ghz_record(state: StateVector, theta: float) -> GhzMeasurementRecord:
    """The populations and the n parities of a state that ``ghz_fidelity`` reads.

    Each parity is <Z...Z> after the collective analysis rotation
    O3(pi/4, phi), at phases spaced by pi/n from -pi/2 with alternating
    signs. For cos(theta)|0..0> + sin(theta)|1..1> the parity oscillates as
    2 cos(theta) sin(theta) cos(n phi + n pi/2), so these phases sit on its
    extrema.
    """
    n = state.n
    zz = PauliString(n, "Z" * n)
    phis = [i * np.pi / n - np.pi / 2 for i in range(n)]
    parities = tuple(expectation(apply_gate(state, GateOp("O3", np.pi / 4, phi)), zz) for phi in phis)
    probs = state.probabilities()
    signs = tuple((-1) ** i for i in range(n))
    return GhzMeasurementRecord(theta, float(probs[0]), float(probs[-1]), parities, signs)


def test_ghz_record_matches_state_fidelity():
    for n in (3, 6):
        for theta in (np.pi / 4, 0.6):
            target = ghz_state(n, theta)
            assert ghz_fidelity(ghz_record(target, theta)) == pytest.approx(1.0, abs=1e-10)
            # a partly depolarized version: formula tracks the true overlap
            other = ghz_state(n, theta + 0.3)
            assert ghz_fidelity(ghz_record(other, theta)) == pytest.approx(
                abs(np.vdot(target.amps, other.amps)) ** 2, abs=1e-10
            )


def test_ghz_record_validation():
    with pytest.raises(ValueError):
        GhzMeasurementRecord(0.5, 0.5, 0.5, (0.9, 0.9), (1,))
    with pytest.raises(ValueError):
        GhzMeasurementRecord(0.5, 0.5, 0.5, (0.9,), (2,))


def test_process_matrix_validation():
    with pytest.raises(Exception):
        ProcessMatrix(1, np.eye(3))
    bad = ProcessMatrix(1, np.diag([0.5, 0.5, 0.5, -0.5]).astype(complex))
    with pytest.raises(ValueError):
        bad.validate()
