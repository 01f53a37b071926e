"""Coupling-fluctuation noise model tests."""
import csv
import json

import numpy as np
import pytest

from trotterion.cli import parse_observable, run_scenario
from trotterion.compiler import compile_first_order, compile_many_body
from trotterion.gates import GateOp, GateSequence, apply_sequence
from trotterion.models import FieldSpec, ising2, many_body_model, xyz2
from trotterion.noise import (
    NoiseParams,
    apply_miscalibration,
    perturb_sequence,
    sample_checkpoints,
    shot_states,
)
from trotterion.pauli import PauliString, StateVector, columnwise, expectation

THETA_A = np.pi / (2 * np.sqrt(2))


def small_program():
    return compile_first_order(ising2(0.5, 1.0), THETA_A, 4)


def test_perturb_scaling_powers():
    seq = GateSequence(
        2,
        (
            GateOp("O1", 1.0, target=0),
            GateOp("O2", 1.0),
            GateOp("O3", 1.0, 0.0),
            GateOp("O4", 1.0, 0.0),
        ),
    )
    out = perturb_sequence(seq, 0.1)
    thetas = [g.theta for g in out.gates]
    # phases from the light-shift family scale with intensity (quadratic
    # in coupling), the collective rotation with amplitude (linear)
    assert thetas == pytest.approx([1.21, 1.21, 1.1, 1.21])


def test_perturb_rejects_unphysical_eps():
    seq = GateSequence(2, (GateOp("O2", 1.0),))
    with pytest.raises(ValueError):
        perturb_sequence(seq, -1.0)


def test_miscalibration_targets_one_kind():
    prog = small_program()
    out = apply_miscalibration(prog, "O4", 0.01)
    for g0, g1 in zip(prog.sequence.gates, out.sequence.gates):
        if g0.kind == "O4":
            assert g1.theta == pytest.approx(g0.theta * 1.01)
        else:
            assert g1.theta == g0.theta
    with pytest.raises(ValueError):
        apply_miscalibration(prog, "O4", 0.2)


O3_PROGRAMS = {
    "xyz2": lambda: compile_first_order(xyz2(0.7, 1.1), 2.0, 5),
    "ZXX_y_field": lambda: compile_first_order(
        many_body_model(PauliString.from_string("ZXX"), 1.0, FieldSpec("y", 0.6)), 1.3, 3
    ),
    "YXXX": lambda: compile_many_body(PauliString.from_string("YXXX"), 0.9),
}


@pytest.mark.parametrize("name", sorted(O3_PROGRAMS))
def test_shot_states_match_each_perturbed_sequence(name):
    # every program holds O3 gates, which shot_states runs with one phase per column
    prog = O3_PROGRAMS[name]()
    n = prog.sequence.n
    assert any(g.kind == "O3" for g in prog.sequence.gates)
    rng = np.random.default_rng(7)
    amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    psi0 = StateVector(n, amps / np.linalg.norm(amps))
    eps = [-0.3, 0.0, 0.05, 0.2]
    got = list(shot_states(prog.sequence, psi0, eps, prog.checkpoints))
    assert len(got) == len(prog.checkpoints)
    for cp, batch in zip(prog.checkpoints, got):
        for k, e in enumerate(eps):
            noisy = perturb_sequence(prog.sequence, e)
            want = apply_sequence(psi0, GateSequence(n, noisy.gates[:cp])).amps
            assert np.max(np.abs(batch[:, k] - want)) < 1e-12


def pop_up(state):
    return float(abs(state.amps[0]) ** 2)


def pauli_batch(p):
    return columnwise(lambda s: expectation(s, p)), False


def test_noise_params_validation():
    with pytest.raises(ValueError):
        NoiseParams(sigma_rel=-0.1)
    with pytest.raises(ValueError):
        NoiseParams(shots=0)
    with pytest.raises(ValueError):
        NoiseParams(miscal={"O9": 0.01})
    with pytest.raises(ValueError):
        NoiseParams(miscal={"O4": 0.5})
    # a NaN width would make the sampler redraw epsilon forever
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            NoiseParams(sigma_rel=bad)
    with pytest.raises(ValueError):
        NoiseParams(miscal={"O4": float("nan")})
    for bad in (True, 2.0, None):
        with pytest.raises(ValueError):
            NoiseParams(shots=bad)
    assert NoiseParams().shots == 200


def reference_shots(seq, psi0, outcomes, checkpoints, params):
    """One shot at a time, in the documented draw order.

    Shot k's stream gives epsilon first, then one uniform per
    (checkpoint, observable) in row-major order; outcomes are
    (value function, is_probability) pairs.
    """
    for kind, err in params.miscal.items():
        seq = apply_miscalibration(seq, kind, err)
    hits = np.zeros((len(checkpoints), len(outcomes)))
    for shot in range(params.shots):
        rng = np.random.default_rng(np.random.SeedSequence(params.seed, spawn_key=(shot,)))
        eps = -1.0
        while eps <= -1:
            eps = params.sigma_rel * rng.standard_normal()
        noisy = perturb_sequence(seq, eps)
        for ci, cp in enumerate(checkpoints):
            state = apply_sequence(psi0, GateSequence(seq.n, noisy.gates[:cp]))
            for j, (fn, is_prob) in enumerate(outcomes):
                prob = fn(state) if is_prob else (1 + fn(state)) / 2
                hits[ci, j] += rng.random() < prob
    p = hits / params.shots
    err = np.sqrt(np.clip(p * (1 - p), 1e-12, None) / params.shots)
    pauli = [not is_prob for _, is_prob in outcomes]
    return np.where(pauli, 2 * p - 1, p), np.where(pauli, 2 * err, err)


def test_engine_matches_per_shot_reference(tmp_path):
    prog = compile_first_order(ising2(0.5, 1.0), THETA_A, 2)
    psi0 = StateVector.all_up(2)
    params = NoiseParams(sigma_rel=0.05, miscal={"O4": 0.02}, shots=60, seed=4)

    zz = PauliString(2, "ZZ")
    checkpoints = (len(prog.sequence),)
    est, err = reference_shots(
        prog.sequence, psi0, [(lambda s: expectation(s, zz), False), (pop_up, True)], checkpoints, params,
    )
    got, got_err = sample_checkpoints(
        prog.sequence, psi0, [pauli_batch(zz), (columnwise(pop_up), True)], checkpoints, params,
    )
    assert np.array_equal(got, est)
    assert np.array_equal(got_err, err)

    # the CLI's noisy rows: every checkpoint, written at 9 significant digits
    specs = ["pauli:ZZ", "pop:z:uu"]
    scenario = {
        "schema": 1, "name": "noisy_ref", "seed": params.seed,
        "model": {"preset": "ising2", "B": 0.5, "J": 1.0},
        "compile": {"method": "first_order", "theta": THETA_A, "steps": 2},
        "initial_state": "uu", "observables": specs,
        "noise": {"sigma_rel": params.sigma_rel, "miscal": params.miscal, "shots": params.shots},
    }
    path = tmp_path / "noisy_ref.json"
    path.write_text(json.dumps(scenario))
    with open(run_scenario(str(path), str(tmp_path))) as f:
        rows = [r for r in csv.DictReader(f) if r["variant"] == "noisy"]
    outcomes = [
        (lambda s, fn=fn: fn(s.amps[:, None])[0], is_prob)
        for _, fn, is_prob in (parse_observable(spec, 2) for spec in specs)
    ]
    est, err = reference_shots(prog.sequence, psi0, outcomes, prog.checkpoints, params)
    got = np.array([[float(r[s]) for s in specs] for r in rows])
    got_err = np.array([[float(r[s + "_err"]) for s in specs] for r in rows])
    assert len(rows) == len(prog.checkpoints) == 2
    assert np.array_equal(got, [[float(f"{x:.9g}") for x in row] for row in est])
    assert np.array_equal(got_err, [[float(f"{x:.9g}") for x in row] for row in err])


def test_sampled_mode_is_deterministic_per_seed():
    prog = small_program()
    psi0 = StateVector.all_up(2)
    outcomes = [pauli_batch(PauliString(2, "ZI"))]

    def sample(seed):
        est, _ = sample_checkpoints(prog.sequence, psi0, outcomes, prog.checkpoints, NoiseParams(0.02, seed=seed))
        return est

    assert np.array_equal(sample(5), sample(5))
    assert not np.array_equal(sample(5), sample(6))


def test_sampled_mode_converges_to_exact_at_zero_sigma():
    prog = small_program()
    psi0 = StateVector.all_up(2)
    exact = pop_up(apply_sequence(psi0, prog.sequence))
    (est,), (err,) = sample_checkpoints(
        prog.sequence, psi0, [(columnwise(pop_up), True)], (len(prog.sequence),),
        NoiseParams(0.0, shots=4000, seed=1),
    )
    assert est[0] == pytest.approx(exact, abs=5 * err[0])
    assert 0 < err[0] < 0.02
