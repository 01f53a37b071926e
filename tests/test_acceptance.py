"""Acceptance gate: one test per numbered criterion, one line per result.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail
line per criterion. Tolerances are pinned in the assertions.
"""
import csv
import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from trotterion.cli import bound_from_fixtures, bundled_fixture, run_scenario
from trotterion.compiler import (
    compile_coupling_graph,
    compile_first_order,
    compile_many_body,
    compile_model_steps,
    compile_second_order,
)
from trotterion.gates import GateOp, GateSequence, sequence_unitary
from trotterion.metrics import (
    GhzMeasurementRecord,
    chi_overlap,
    ghz_fidelity,
    process_fidelity,
    simulate_qpt,
    unitary_chi,
)
from trotterion.models import (
    CouplingGraph,
    coupling_graph_model,
    ising2,
    long_range_ising,
    xy2,
    xyz2,
)
from trotterion.noise import apply_miscalibration, shot_states
from trotterion.oracle import propagator, spectrum
from trotterion.pauli import PauliString, StateVector, hamming_histogram
from trotterion.spectral import (
    ObservableTrace,
    dominant_frequency,
    predicted_gaps,
    spectrum_of_trace,
)

THETA_A = np.pi / (2 * np.sqrt(2))


@contextmanager
def criterion(num: int, name: str):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} ({name}): FAIL [{time.time() - t0:.1f}s]")
        raise
    print(f"criterion {num:2d} ({name}): PASS [{time.time() - t0:.1f}s]")


def aligned_distance(u: np.ndarray, v: np.ndarray) -> float:
    tr = np.trace(u.conj().T @ v) / u.shape[0]
    return float(np.max(np.abs(v * np.conj(tr) / abs(tr) - u)))


def digital_fidelity(model, theta: float, steps: int, order: int = 1) -> float:
    compiled = (compile_first_order if order == 1 else compile_second_order)(
        model, theta, steps
    )
    return process_fidelity(propagator(model, theta), sequence_unitary(compiled.sequence))


def test_criterion_01_trotter_convergence():
    with criterion(1, "two-spin Trotter convergence"):
        h = ising2(0.5, 1.0)
        assert digital_fidelity(h, THETA_A, 1) == pytest.approx(0.61, abs=0.01)
        assert digital_fidelity(h, THETA_A, 4) == pytest.approx(0.98, abs=0.01)


def test_criterion_02_model_step_trotter_error():
    with criterion(2, "model-step fidelity at 4 steps"):
        theta = 4 * np.pi / 16
        models = {"ising": ising2(1, 1), "xy": xy2(1, 1), "xyz": xyz2(1, 1)}
        for kind, model in models.items():
            prog = compile_model_steps(kind, np.pi / 16, 4)
            fid = process_fidelity(propagator(model, theta), sequence_unitary(prog.sequence))
            assert fid >= 0.99, f"{kind} step program fidelity {fid:.6f} < 0.99"


def test_criterion_03_order_scaling():
    with criterion(3, "second order beats first order"):
        h = ising2(1.0, 1.0)
        ns = (2, 4, 8)
        inf1 = [1 - digital_fidelity(h, np.pi, n, order=1) for n in ns]
        inf2 = [1 - digital_fidelity(h, np.pi, n, order=2) for n in ns]
        for n, a, b in zip(ns, inf1, inf2):
            assert b < a, f"second order not better at {n} steps: {b:.6f} vs {a:.6f}"
        s1 = np.polyfit(np.log(ns), np.log(inf1), 1)[0]
        s2 = np.polyfit(np.log(ns), np.log(inf2), 1)[0]
        assert abs(s2 - s1) >= 0.8, f"slope gap {abs(s2 - s1):.3f} < 0.8"


def test_criterion_04_hofmann_bounds_on_fixtures():
    with criterion(4, "fidelity bounds from fixtures"):
        three = bound_from_fixtures(
            [
                bundled_fixture("truth_table_3spin_eigen.csv"),
                bundled_fixture("truth_table_3spin_ghz.csv"),
            ]
        )
        assert three["lower"] == pytest.approx(0.850, abs=0.002)
        assert three["upper"] == pytest.approx(0.908, abs=0.002)
        six = bound_from_fixtures(
            [
                bundled_fixture("truth_table_6spin_eigen_a.csv"),
                bundled_fixture("truth_table_6spin_eigen_b.csv"),
                bundled_fixture("truth_table_6spin_ghz_a.csv"),
                bundled_fixture("truth_table_6spin_ghz_b.csv"),
            ]
        )
        assert six["lower"] == pytest.approx(0.559, abs=0.005)
        assert six["upper"] == pytest.approx(0.767, abs=0.005)


def test_criterion_05_ghz_fidelity_formula_on_fixture():
    with criterion(5, "parity-table row fidelities recomputed"):
        with open(bundled_fixture("truth_table_3spin_ghz.csv")) as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 8
        for row in rows:
            parities = tuple(float(row[f"parity{k}"]) for k in (1, 2, 3))
            rec = GhzMeasurementRecord(
                np.pi / 4,
                float(row["population1"]),
                float(row["population2"]),
                parities,
                (1, -1, 1),
            )
            got = ghz_fidelity(rec)
            want = float(row["fidelity"])
            assert got == pytest.approx(want, abs=0.01), f"{row['input']}: {got} vs {want}"
        first = [r for r in rows if r["input"] == "+++y"][0]
        assert float(first["fidelity"]) == pytest.approx(0.92, abs=1e-9)


def test_criterion_06_many_body_compilation():
    with criterion(6, "many-body string constructions"):
        p = PauliString.from_string("ZXX")
        rng = np.random.default_rng(0)
        from trotterion.models import many_body_model

        for theta in rng.uniform(-np.pi, np.pi, size=20):
            prog = compile_many_body(p, float(theta))
            target = propagator(many_body_model(p, 1.0), float(theta))
            assert aligned_distance(target, sequence_unitary(prog.sequence)) < 1e-9
        ghz = compile_many_body(PauliString.from_string("YXXXXX"), np.pi / 4)
        out = ghz.checkpoint_states(StateVector.all_up(6))[-1]
        want = [0.5, 0, 0, 0, 0, 0, 0.5]
        assert np.allclose(hamming_histogram(out), want, atol=1e-9)


def test_criterion_07_refocusing():
    with criterion(7, "coupling-graph refocusing"):
        chain = CouplingGraph(3, np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], float), 0.0)
        theta = 0.63
        prog = compile_coupling_graph(chain, theta)
        target = propagator(coupling_graph_model(chain), theta)
        assert aligned_distance(target, sequence_unitary(prog.sequence)) < 1e-9
        rng = np.random.default_rng(7)
        for n in (3, 4):
            for _ in range(5):
                J = np.triu(rng.integers(0, 3, size=(n, n)).astype(float), 1)
                J = J + J.T
                if not J.any():
                    J[0, 1] = J[1, 0] = 1.0
                g = CouplingGraph(n, J, 0.0)
                th = float(rng.uniform(0.1, 1.0))
                got = sequence_unitary(compile_coupling_graph(g, th).sequence)
                want = propagator(coupling_graph_model(g), th)
                assert aligned_distance(want, got) < 1e-9


def test_criterion_08_spectrum_of_digitized_trace():
    with criterion(8, "four-spin gap from digitized trace"):
        model, _ = long_range_ising(4, 0.5, 1.0)
        spec = spectrum(model)
        assert len(spec.levels) == 9
        gaps = predicted_gaps(model, StateVector.all_up(4))
        assert len(gaps) == 3  # three levels populated above 1e-9
        prog = compile_first_order(model, 48 * np.pi / 16, 48)
        states = prog.checkpoint_states(StateVector.all_up(4))
        vals = np.array([hamming_histogram(s)[2] for s in states])
        trace = ObservableTrace(prog.checkpoint_thetas(), vals, "P2")
        freqs, _ = spectrum_of_trace(trace)
        bin_width = freqs[1] - freqs[0]
        e2 = gaps[0][0]  # dominant-weight gap
        assert abs(dominant_frequency(trace) - e2) <= bin_width


def _mean_population_trace(prog, sigma: float, z: np.ndarray):
    """Fluctuation-averaged P(all up) at each checkpoint, shared draws."""
    eps = [max(sigma * zk, -1 + 1e-12) for zk in z]
    states = shot_states(prog.sequence, StateVector.all_up(2), eps, prog.checkpoints)
    return np.array([np.mean(np.abs(amps[0]) ** 2) for amps in states])


def test_criterion_09_noise_damps_oscillation():
    with criterion(9, "fluctuation noise damps oscillation"):
        prog = compile_first_order(ising2(0.5, 1.0), THETA_A, 4)
        z = np.random.default_rng(42).standard_normal(10_000)
        amps = []
        for sigma in (0.0, 0.01, 0.02):
            trace = _mean_population_trace(prog, sigma, z)
            full = np.concatenate(([1.0], trace))  # include the theta=0 point
            amps.append(float(full.max() - full.min()))
        assert amps[2] < amps[1] < amps[0]


def test_criterion_10_miscalibration_shifts_frequency():
    with criterion(10, "one-percent miscalibration visible in spectrum"):
        model, _ = long_range_ising(3, 0.5, 1.0)
        prog = compile_first_order(model, 3 * np.pi, 48)

        def p2_trace(p):
            states = p.checkpoint_states(StateVector.all_up(3))
            vals = np.array([hamming_histogram(s)[2] for s in states])
            return ObservableTrace(p.checkpoint_thetas(), vals)

        ideal = p2_trace(prog)
        shifted = p2_trace(apply_miscalibration(prog, "O4", 0.01))
        # peak located on a 64x zero-padded frequency grid; the shift must
        # exceed one bin of that grid
        zero_pad = 64
        freqs, _ = spectrum_of_trace(ideal, zero_pad)
        bin_width = freqs[1] - freqs[0]
        f0 = dominant_frequency(ideal, zero_pad)
        f1 = dominant_frequency(shifted, zero_pad)
        assert abs(f1 - f0) >= bin_width


def test_criterion_11_qpt_roundtrip():
    with criterion(11, "process tomography roundtrip"):
        rng = np.random.default_rng(11)
        kinds = ["O1", "O2", "O3", "O4"]
        for _ in range(50):
            gates = []
            for _ in range(6):
                kind = kinds[rng.integers(4)]
                theta = float(rng.uniform(-1.5, 1.5))
                phi = float(rng.uniform(0, 2 * np.pi))
                target = int(rng.integers(2)) if kind == "O1" else None
                gates.append(GateOp(kind, theta, phi, target))
            seq = GateSequence(2, tuple(gates))
            chi = simulate_qpt(seq)
            want = unitary_chi(sequence_unitary(seq), 2)
            assert chi_overlap(chi, want) >= 0.999


def test_criterion_12_scenario_outputs_match_library(tmp_path):
    with criterion(12, "scenario checkpoints match direct computation"):
        # Fig 1A: digital checkpoint populations equal the compiled states
        path = run_scenario("fig1a_n4", str(tmp_path))
        with open(path) as f:
            rows = [r for r in csv.DictReader(f) if r["variant"] == "digital"]
        prog = compile_first_order(ising2(0.5, 1.0), THETA_A, 4)
        states = prog.checkpoint_states(StateVector.all_up(2))
        for row, state in zip(rows, states):
            assert float(row["pop:z:uu"]) == pytest.approx(
                abs(state.amps[0]) ** 2, abs=1e-8
            )
        # Figs 3C / 4B: single-block sweeps are exact, so the digital curve
        # must coincide with the oracle curve point by point
        for name, cols in (("fig3c", ["ham:0", "ham:3"]), ("fig4b", ["ham:0", "ham:6"])):
            p = run_scenario(name, str(tmp_path))
            with open(p) as f:
                all_rows = list(csv.DictReader(f))
            exact = [r for r in all_rows if r["variant"] == "exact"]
            digital = [r for r in all_rows if r["variant"] == "digital"]
            assert len(exact) == len(digital) > 0
            for e, d in zip(exact, digital):
                assert float(e["theta"]) == pytest.approx(float(d["theta"]))
                for col in cols:
                    assert float(e[col]) == pytest.approx(float(d[col]), abs=1e-9)
        # Fig 4B: the GHZ point sits at theta = pi/4 with P0 = P6 = 0.5
        with open(str(tmp_path / "fig4b.csv")) as f:
            dig = [r for r in csv.DictReader(f) if r["variant"] == "digital"]
        ghz_row = min(dig, key=lambda r: abs(float(r["theta"]) - np.pi / 4))
        assert float(ghz_row["theta"]) == pytest.approx(np.pi / 4, abs=1e-6)
        assert float(ghz_row["ham:0"]) == pytest.approx(0.5, abs=1e-9)
        assert float(ghz_row["ham:6"]) == pytest.approx(0.5, abs=1e-9)
