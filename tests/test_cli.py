"""Command line front end tests."""
import concurrent.futures
import csv
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trotterion
from trotterion.cli import (
    _KEYS,
    Scenario,
    bound_from_fixtures,
    bundled_fixture,
    bundled_scenarios,
    load_scenario,
    main,
    parse_observable,
    parse_state,
    run_scenario,
)
from trotterion.compiler import compile_many_body
from trotterion.noise import sample_checkpoints
from trotterion.metrics import tangle2
from trotterion.pauli import MAX_SPINS, PauliString, StateVector, expectation, hamming_histogram

EXPECTED_SCENARIOS = {
    "fig1a_n1", "fig1a_n2", "fig1a_n3", "fig1a_n4", "fig1b",
    "fig2_ising", "fig2_xy", "fig2_xyz", "fig3a", "fig3b", "fig3c",
    "fig4a", "fig4b", "figs3", "figs6", "figs7", "figs8", "figs9",
}


# SHA-256 of every bundled scenario's CSV as written at commit e916c05
BUNDLED_SHA256 = {
    "fig1a_n1": "2f436dc43c63943c3204200ca510802f2295a828ab571c9ac7aa39926cdcb11f",
    "fig1a_n2": "2dc5f45951850aaefa76b3275b98f644314c34d829c75a8c36f939a3cc049807",
    "fig1a_n3": "df64b96804cd6773511acd000bc565ba92d3e8aaec4ee3f597deb2230e8089d4",
    "fig1a_n4": "2ad06d33b88178ed637c9d5a27d71560abaabad756123c54ada048d2da923b10",
    "fig1b": "94824c6936d3d98b2896db71f016a8a6a5bcd8f456ab1d2cf6e13ca6c4c7d688",
    "fig2_ising": "e4bc050921f64a05f0460e8fee95172ae7bcbea0106a253114cdf46810a33de9",
    "fig2_xy": "13e52973822e6abcc546d90b06851f974ff7369152417511b37eee528e8aed13",
    "fig2_xyz": "acb782e6d9a2789b48ceae81ef7813c006b98c9b254e234362362e3222a4e58d",
    "fig3a": "869ac7b5185391a966744e037ba89f3e18857f8bc7263c5e7cacf60abd127686",
    "fig3b": "59fee1a08a6452795863d5fa7a0a29905933ca57ff14c034a7573529d979830b",
    "fig3c": "67f51f4337baf768cc221e659c81f19039f575ffe6edc1f100af5db1099641ac",
    "fig4a": "455a7e5da1cdfba07f860df8a4fbb0c6e0bf393194e088c8d1882f93f5dc8268",
    "fig4b": "9aece2a88db816234ef1f147611da4aa3da7c5a5ee9c142c5f1bb13b1b31c653",
    "figs3": "291f0834589ae26520b6f7a9e1f747c9acf46939eea17d372e272cb8fe0b9be1",
    "figs6": "e053b51bbb895da9abcf6f4144a4af1a6ac4583cb1542894bb384fe58590eac2",
    "figs7": "f1c6eed4a0dffaa193711f2c580b732c62fc6bf2de13f5ee76280e2391300b2f",
    "figs8": "cde6c1401e5956246850f0a894da0b3b9c990b7eb50b9d48b0dc60657a978eb8",
    "figs9": "596b810d5c2c47f0afbe89f91dc5129986664b128492ef574cc2cb04328b5313",
}

# SHA-256 of `trotterion compile <name>` for every bundled scenario, as printed at commit 34b69de
BUNDLED_COMPILE_SHA256 = {
    "fig1a_n1": "73b7b995a45d374861b0e2a347aa2247eccba7861d817573c8d217583959845c",
    "fig1a_n2": "1518126560db4d84f93f610417800488ee84b5a989473810c28aa3f8ef47810b",
    "fig1a_n3": "516aa45e5f757b23828dd21a6e224ec194bed988602aec0c0e2d5d7e2615daba",
    "fig1a_n4": "e20ce24d4a78c95fc39835eaa22d6ecd8c9559624137dfb55cdbb531afe07a43",
    "fig1b": "bbb46795f1997f22f6ed8e560559f4476ffbe8fd198baa441e3c6882e9d3fba0",
    "fig2_ising": "16476b2401fb76b8fd4c0e29b08257c4e3d42f01e7bad907e5302e409f16eef9",
    "fig2_xy": "1a2e47de175f2a24fac2c162f11a6f631797c392f5aaf17a7b08c282271f1aa3",
    "fig2_xyz": "8cd9624787782e5725f2a4cde353705ffb6b5a8c3891956ab25fbc1aa4089d7c",
    "fig3a": "cf06d3edbd8af2cbc52b66f0898f30107dc44a68db17efc5c79723d6e43681fc",
    "fig3b": "ea6bb942c24c944f05b29cd57446a4e9a9d4c0c2388daf5d850593087fa2ddea",
    "fig3c": "24d576e1d8ce4eaed9c2b1a328a066035511355c6698b7630ac507ea8705d32a",
    "fig4a": "cf06d3edbd8af2cbc52b66f0898f30107dc44a68db17efc5c79723d6e43681fc",
    "fig4b": "fcb5827a23bce52f061f5b4008d350929078ba3efe27bc01b740faa5fdbb89c8",
    "figs3": "53cd14ca2b682c16e02496a6ecfc57249d5bf5c58740b35d31ce7c45e4ccb6ba",
    "figs6": "069972325171e563643b953fbe277472a8a64cba77ce46a7a831df0e73eece84",
    "figs7": "d813eaca372d64a6c6e8eb704f4fc19859d772fe539ff7135e3e151885f35c58",
    "figs8": "fdec687fbba3e931f7798d5aa634cf1f0e73f1e5972761a13c2ea45cf83f4b75",
    "figs9": "c0ce07061853120a4a871ff98029b8da3ee3267e617cbe95d3c760e3e4f01491",
}


def read_csv(path):
    with open(path) as f:
        return list(csv.DictReader(f))


def test_bundle_contract():
    names = set(bundled_scenarios())
    assert names == EXPECTED_SCENARIOS
    assert len(names) >= 12


def test_list_subcommand(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out.split()
    assert set(out) == EXPECTED_SCENARIOS


def test_parse_state():
    assert np.argmax(np.abs(parse_state("du", 2).amps)) == 1
    plus = parse_state("x:+", 1)
    assert np.allclose(plus.amps, [1 / np.sqrt(2), 1 / np.sqrt(2)])
    with pytest.raises(Exception):
        parse_state("uu", 3)
    with pytest.raises(Exception):
        parse_state("q:++", 2)


def test_parse_observable():
    psi = StateVector.all_up(2)
    for spec, want in [("pauli:ZI", 1.0), ("pop:z:uu", 1.0), ("ham:0", 1.0), ("tangle", 0.0)]:
        _, fn, _ = parse_observable(spec, 2)
        assert fn(psi.amps[:, None])[0] == pytest.approx(want, abs=1e-12)
    with pytest.raises(Exception):
        parse_observable("ham:7", 2)
    with pytest.raises(Exception):
        parse_observable("nonsense", 2)


def random_batch(n, k, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=(2**n, k)) + 1j * rng.normal(size=(2**n, k))
    return amps / np.linalg.norm(amps, axis=0)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 5), st.integers(0, 1000), st.data())
def test_observable_batch_equals_per_state_formula(n, k, seed, data):
    amps = random_batch(n, k, seed)
    states = [StateVector(n, col) for col in amps.T]
    basis = data.draw(st.sampled_from("xyz"))
    labels = data.draw(st.text("+-" if basis != "z" else "ud", min_size=n, max_size=n))
    target = parse_state(f"{basis}:{labels}", n)
    weight = data.draw(st.integers(0, n))
    ops = data.draw(st.text("IXYZ", min_size=n, max_size=n))
    cases = [
        (f"pop:{basis}:{labels}", lambda s: abs(np.vdot(target.amps, s.amps)) ** 2),
        (f"ham:{weight}", lambda s: hamming_histogram(s)[weight]),
        (f"pauli:{ops}", lambda s: expectation(s, PauliString(n, ops))),
    ]
    if n == 2:
        cases.append(("tangle", tangle2))
    for spec, formula in cases:
        got = parse_observable(spec, n)[1](amps)
        assert got.shape == (k,)
        assert np.allclose(got, [formula(s) for s in states], rtol=0, atol=1e-12), spec


def test_run_writes_expected_columns(tmp_path):
    path = run_scenario("fig1a_n4", str(tmp_path))
    rows = read_csv(path)
    variants = {r["variant"] for r in rows}
    assert variants == {"exact", "digital"}
    digital = [r for r in rows if r["variant"] == "digital"]
    assert len(digital) == 4
    thetas = [float(r["theta"]) for r in digital]
    assert thetas == sorted(thetas)
    for r in rows:
        assert 0.0 <= float(r["pop:z:uu"]) <= 1.0


def test_bundled_outputs_byte_identical(tmp_path):
    assert set(BUNDLED_SHA256) == EXPECTED_SCENARIOS
    for name, want in BUNDLED_SHA256.items():
        with open(run_scenario(name, str(tmp_path)), "rb") as f:
            assert hashlib.sha256(f.read()).hexdigest() == want, name


def test_fig2_ising_runs_without_numpy_axis_helpers(tmp_path, monkeypatch):
    # every rotation and pauli: value goes through _apply_single_spin, whose
    # vector path is one np.dot on a two-row view
    def refuse(*args, **kwargs):
        raise AssertionError("np.tensordot/np.moveaxis called on the statevector path")

    monkeypatch.setattr(np, "tensordot", refuse)
    monkeypatch.setattr(np, "moveaxis", refuse)
    with open(run_scenario("fig2_ising", str(tmp_path)), "rb") as f:
        assert hashlib.sha256(f.read()).hexdigest() == BUNDLED_SHA256["fig2_ising"]


def test_bundled_programs_identical(capsys):
    assert set(BUNDLED_COMPILE_SHA256) == EXPECTED_SCENARIOS
    for name, want in BUNDLED_COMPILE_SHA256.items():
        assert main(["compile", name]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == want, name


def test_run_is_deterministic(tmp_path):
    cfg = json.loads((bundled_scenarios()["figs8"]).read_text())
    cfg["noise"]["shots"] = 40  # keep the repeat cheap
    p = tmp_path / "noisy.json"
    p.write_text(json.dumps(cfg))
    a = run_scenario(str(p), str(tmp_path / "a"))
    b = run_scenario(str(p), str(tmp_path / "b"))
    with open(a, "rb") as fa, open(b, "rb") as fb:
        assert fa.read() == fb.read()


def test_seed_env_override(tmp_path, monkeypatch):
    cfg = json.loads((bundled_scenarios()["figs8"]).read_text())
    cfg["noise"]["shots"] = 40
    p = tmp_path / "noisy.json"
    p.write_text(json.dumps(cfg))
    a = run_scenario(str(p), str(tmp_path / "a"))
    monkeypatch.setenv("TROTTERION_SEED", "12345")
    assert main(["run", str(p), "--out", str(tmp_path / "c")]) == 0
    c = tmp_path / "c" / (cfg["name"] + ".csv")
    noisy_a = [r for r in read_csv(a) if r["variant"] == "noisy"]
    noisy_c = [r for r in read_csv(c) if r["variant"] == "noisy"]
    assert any(x != y for x, y in zip(noisy_a, noisy_c))


def test_exit_code_unknown_scenario():
    assert main(["run", "no_such_scenario"]) == 2


@pytest.mark.parametrize("command", ["run", "compile"])
@pytest.mark.parametrize("kind", ["directory", "not_utf8"])
def test_exit_code_unreadable_scenario(tmp_path, capsys, command, kind):
    p = tmp_path / "scenario.json"
    if kind == "directory":
        p.mkdir()
    else:
        p.write_bytes(b'{"schema": 1, "name": "caf\xe9"}')
    assert main([command, str(p)]) == 2
    assert capsys.readouterr().err.startswith("configuration error:")


def test_exit_code_schema_violation(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"schema": 1, "name": "bad"}))
    assert main(["run", str(p)]) == 2
    p.write_text(json.dumps([{"schema": 1, "name": "bad"}]))  # not an object
    assert main(["run", str(p)]) == 2


def test_exit_code_noise_without_seed(tmp_path):
    cfg = json.loads((bundled_scenarios()["figs8"]).read_text())
    del cfg["seed"]
    p = tmp_path / "noseed.json"
    p.write_text(json.dumps(cfg))
    assert main(["run", str(p)]) == 2


def test_exit_code_compile_failure(tmp_path):
    cfg = json.loads((bundled_scenarios()["fig1a_n1"]).read_text())
    cfg["compile"]["steps"] = 0
    p = tmp_path / "zerosteps.json"
    p.write_text(json.dumps(cfg))
    assert main(["run", str(p), "--out", str(tmp_path)]) == 3


def test_exit_code_verification_failure(tmp_path):
    cfg = json.loads((bundled_scenarios()["fig1a_n4"]).read_text())
    cfg["verify"] = {"process_fidelity": 0.5, "tol": 0.01}
    p = tmp_path / "badverify.json"
    p.write_text(json.dumps(cfg))
    assert main(["run", str(p), "--out", str(tmp_path)]) == 4


def test_compile_subcommand(capsys):
    assert main(["compile", "fig2_xyz", "--steps", "12"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 84
    assert all(line.split()[0] in ("O1", "O2", "O3", "O4") for line in lines)


def test_inspect_subcommand(capsys):
    assert main(["inspect", "fig1b"]) == 0
    out = capsys.readouterr().out
    assert "gates: 24" in out


def test_sweep_scenario_compiles_at_theta_max(capsys):
    gates = len(compile_many_body(PauliString.from_string("ZXX"), np.pi / 2).sequence)
    assert main(["inspect", "fig3c"]) == 0
    assert f"gates: {gates}" in capsys.readouterr().out
    assert main(["compile", "fig3c"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == gates


@pytest.mark.parametrize("name", ["../escaped", "sub/x", "..", ".", ""])
def test_exit_code_name_outside_out_dir(tmp_path, name):
    cfg = json.loads((bundled_scenarios()["fig1a_n1"]).read_text())
    cfg["name"] = name
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    out.mkdir()
    assert main(["run", str(p), "--out", str(out)]) == 2
    assert sorted(os.listdir(tmp_path)) == ["out", "scenario.json"]
    assert os.listdir(out) == []


@pytest.mark.parametrize("value", ["abc", "-1", "1.5"])
def test_exit_code_bad_seed_env(tmp_path, monkeypatch, capsys, value):
    monkeypatch.setenv("TROTTERION_SEED", value)
    assert main(["run", "fig1a_n1", "--out", str(tmp_path)]) == 2
    assert "configuration error:" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "key, value",
    [("seed", -1), ("seed", None), ("seed", 1.5), ("seed", "7"), ("seed", True),
     ("shots", None), ("shots", 0), ("shots", -3), ("shots", 2.5), ("shots", "100")],
)
def test_exit_code_bad_seed_or_shots(tmp_path, capsys, key, value):
    cfg = json.loads((bundled_scenarios()["figs8"]).read_text())
    if key == "seed":
        cfg["seed"] = value
    else:
        cfg["noise"]["shots"] = value
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["run", str(p), "--out", str(out)]) == 2
    assert "configuration error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value",
    [("miscal", {"O4": 0.2}), ("miscal", {"O9": 0.01}), ("miscal", {"O4": "0.01"}),
     ("miscal", {"O4": True}), ("miscal", [0.01]),
     ("sigma_rel", -0.1), ("sigma_rel", "0.1"), ("sigma_rel", True), ("sigma_rel", None)],
)
def test_exit_code_bad_noise_block(tmp_path, capsys, key, value):
    cfg = json.loads((bundled_scenarios()["figs8"]).read_text())
    cfg["noise"][key] = value
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["run", str(p), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "base, observables",
    [("fig2_ising", ["pauli:ZZZ"]), ("fig2_ising", ["pauli:QQ"]), ("fig3a", ["ham:x"]),
     ("fig3a", ["ham:-1"]), ("fig3a", ["tangle"]), ("fig2_ising", [3]),
     ("fig2_ising", ["pauli:XI", None]), ("fig2_ising", "pauli:ZZ")],
)
def test_exit_code_bad_observable(tmp_path, capsys, base, observables):
    cfg = json.loads((bundled_scenarios()[base]).read_text())
    cfg["observables"] = observables
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    out.mkdir()
    assert main(["run", str(p), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "Traceback" not in err
    assert "observable" in err
    assert os.listdir(out) == []


def test_empty_observable_list_writes_theta_only_rows(tmp_path):
    cfg = json.loads((bundled_scenarios()["figs8"]).read_text())
    cfg["observables"] = []
    cfg["noise"]["shots"] = 40
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(cfg))
    assert main(["run", str(p), "--out", str(tmp_path)]) == 0
    with open(tmp_path / "figs8.csv") as f:
        lines = f.read().splitlines()
    assert lines[0] == "variant,theta"
    variants = [line.split(",")[0] for line in lines[1:]]
    assert variants.count("noisy") == variants.count("digital") == 24
    assert all(len(line.split(",")) == 2 for line in lines[1:])


@pytest.mark.parametrize("name", ["figs8", "figs9"])
def test_noisy_rows_score_pop_and_ham_without_state_objects(tmp_path, monkeypatch, name):
    cfg = json.loads((bundled_scenarios()[name]).read_text())
    cfg["noise"]["shots"] = 50
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(cfg))
    created = {"inside": 0, "outside": 0}
    where = ["outside"]
    post_init = StateVector.__post_init__

    def counted_post_init(self):
        created[where[0]] += 1
        post_init(self)

    def counted_sample(*args, **kwargs):
        where[0] = "inside"
        try:
            return sample_checkpoints(*args, **kwargs)
        finally:
            where[0] = "outside"

    monkeypatch.setattr(StateVector, "__post_init__", counted_post_init)
    monkeypatch.setattr(trotterion.cli, "sample_checkpoints", counted_sample)
    rows = read_csv(run_scenario(str(p), str(tmp_path)))
    assert len([r for r in rows if r["variant"] == "noisy"]) == (24 if name == "figs8" else 48)
    assert created["inside"] == 0
    assert created["outside"] > 0  # the counter sees the exact and digital states


def _drop_steps(cfg):
    del cfg["compile"]["steps"]


def _wrong_shape_J(cfg):
    cfg["model"]["J"] = [[0, 1], [1, 0]]


def _thirteen_spins(cfg):
    cfg["model"] = {"preset": "long_range", "n": 13, "B": 0.5, "J": 1.0}
    cfg["initial_state"] = "u" * 13


def _nan_theta(cfg):
    cfg["compile"]["theta"] = float("nan")


@pytest.mark.parametrize("edit", [_drop_steps, _wrong_shape_J, _thirteen_spins, _nan_theta])
def test_exit_code_malformed_model_or_compile(tmp_path, capsys, edit):
    cfg = json.loads((bundled_scenarios()["fig3b"]).read_text())
    edit(cfg)
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    out.mkdir()
    assert main(["run", str(p), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "Traceback" not in err
    assert os.listdir(out) == []


def test_rejected_scenario_creates_no_out_dir(tmp_path, capsys):
    cfg = json.loads((bundled_scenarios()["fig2_ising"]).read_text())
    cfg["observables"] = ["pauli:QQ"]
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["run", str(p), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("configuration error:")
    assert not out.exists()


def _set(block, key, value):
    def edit(cfg):
        cfg[block][key] = value

    return edit


def _rename(block, key, new_key):
    def edit(cfg):
        cfg[block][new_key] = cfg[block].pop(key)

    return edit


def _rename_noise(cfg):
    cfg["nosie"] = cfg.pop("noise")


def _coupling_graph_method(cfg):
    cfg["compile"] = {"method": "coupling_graph", "theta": 0.5}


MALFORMED = {
    "string_theta": ("fig1a_n1", _set("compile", "theta", "1.1")),
    "thirteen_spin_ops": ("fig3c", _set("model", "ops", "Z" + "X" * 12)),
    "string_process_fidelity": ("fig1a_n4", _set("verify", "process_fidelity", "0.98")),
    "nosie_typo": ("figs8", _rename_noise),
    "boolean_B": ("fig2_ising", _set("model", "B", True)),
    # the compile block no longer restates the model: its old keys and methods are unknown
    "leftover_kind": ("fig2_xyz", _set("compile", "kind", "xyz")),
    "leftover_resolution": ("fig2_ising", _set("compile", "resolution", 0.19634954084936207)),
    "leftover_ops": ("figs7", _set("compile", "ops", "ZXX")),
    "coupling_graph_method": ("figs6", _coupling_graph_method),
    "sweep_not_object": ("fig3c", _set("compile", "sweep", [25])),
    "initial_state_not_string": ("fig1a_n1", lambda cfg: cfg.update(initial_state=5)),
    "noise_sigma_typo": ("figs8", _rename("noise", "sigma_rel", "sigma")),
    "compile_stpes_typo": ("fig1b", _rename("compile", "steps", "stpes")),
    "model_strenght_typo": ("fig3c", _set("model", "strenght", 2.0)),
    "sweep_theta_mx_typo": ("fig3c", lambda cfg: cfg["compile"]["sweep"].update(theta_mx=1.0)),
    "field_axs_typo": ("figs7", lambda cfg: cfg["model"]["field"].update(axs="x")),
    "name_control_character": ("fig1a_n1", lambda cfg: cfg.update(name="fig\u0000a")),
    "method_not_string": ("fig1a_n1", _set("compile", "method", ["first_order"])),
    "preset_not_string": ("fig1a_n1", _set("model", "preset", ["ising2"])),
    "empty_verify": ("fig1a_n4", lambda cfg: cfg.update(verify={})),
    "sweep_with_verify": ("fig3c", lambda cfg: cfg.update(verify={"process_fidelity": 1.0})),
    "graph_nonzero_diagonal": ("fig3b", lambda cfg: cfg["model"]["J"][1].__setitem__(1, 0.5)),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_exit_code_malformed_scenario(tmp_path, capsys, case):
    base, edit = MALFORMED[case]
    cfg = json.loads((bundled_scenarios()[base]).read_text())
    edit(cfg)
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["run", str(p), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "compile", "inspect"])
@pytest.mark.parametrize(
    "base, edit",
    [("fig2_ising", lambda cfg: cfg.update(observables=["pauli:QQ"])),
     ("fig2_ising", lambda cfg: cfg.update(initial_state="uuu")),
     ("fig3c", lambda cfg: cfg["compile"]["sweep"].update(points=0))],
)
def test_every_command_checks_the_whole_scenario(tmp_path, capsys, command, base, edit):
    cfg = json.loads((bundled_scenarios()[base]).read_text())
    edit(cfg)
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    argv = [command, str(p)] + (["--out", str(out)] if command == "run" else [])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error:") and captured.out == ""
    assert not out.exists()


def test_missing_required_key_names_its_block(tmp_path, capsys):
    cfg = json.loads((bundled_scenarios()["fig1a_n4"]).read_text())
    del cfg["verify"]["process_fidelity"]
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(cfg))
    assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert "verify" in err and "process_fidelity" in err


def test_removed_compile_method_names_the_allowed_ones(tmp_path, capsys):
    cfg = json.loads((bundled_scenarios()["fig2_ising"]).read_text())
    cfg["compile"]["method"] = "model_steps"
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(cfg))
    assert main(["compile", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: unknown compile method 'model_steps'")
    assert "['first_order', 'second_order', 'time_dependent']" in err


@pytest.mark.parametrize("command", ["compile", "inspect"])
def test_steps_flag_repeats_the_block_of_a_sweep_scenario(capsys, command):
    block = compile_many_body(PauliString.from_string("ZXX"), np.pi / 6).sequence
    assert main([command, "fig3c", "--steps", "3"]) == 0
    out = capsys.readouterr().out
    if command == "compile":
        assert out == "\n".join([block.to_text()] * 3) + "\n"
    else:
        assert f"gates: {3 * len(block)}" in out


def test_programs_compile_through_the_module_names(monkeypatch, capsys):
    seen = []
    for name in ("compile_first_order", "compile_second_order", "compile_time_dependent"):
        fn = getattr(trotterion.cli, name)
        monkeypatch.setattr(trotterion.cli, name, lambda *args, fn=fn, name=name: seen.append(name) or fn(*args))
    for scenario in ("fig2_ising", "fig3c", "figs3", "fig1b"):
        assert main(["inspect", scenario]) == 0
    assert seen == ["compile_first_order", "compile_first_order", "compile_second_order", "compile_time_dependent"]


def test_load_scenario_returns_frozen_spec(tmp_path):
    sc = load_scenario("figs8")
    assert isinstance(sc, Scenario)
    assert (sc.name, sc.psi0.n, sc.sweep, sc.verify) == ("figs8", 2, None, None)
    assert (sc.noise.sigma_rel, sc.noise.shots, sc.noise.seed) == (0.02, 2000, 7)
    # a noise block without shots takes NoiseParams' default
    cfg = json.loads(bundled_scenarios()["figs8"].read_text())
    del cfg["noise"]["shots"]
    path = tmp_path / "no_shots.json"
    path.write_text(json.dumps(cfg))
    assert load_scenario(str(path)).noise.shots == 200
    assert [label for label, _, _ in sc.observables] == ["pop:z:uu", "pop:z:dd"]
    assert len(sc.program().checkpoints) == 24 and len(sc.program(steps=3).checkpoints) == 3
    with pytest.raises(FrozenInstanceError):
        sc.name = "other"


# One-key edits of a bundled scenario: a fixed set of values keeps every
# mutant small (no value asks for more than 13 steps, shots or points).
MUTANT_VALUES = (None, True, "x", -1, 0, 0.5, 13, [], {}, float("nan"), [[0, 1], [1]])


def _key_paths(node, prefix=()):
    """The path to every object key and list element of a parsed JSON value."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _key_paths(value, prefix + (key,))


@st.composite
def scenario_mutants(draw):
    cfg = json.loads(bundled_scenarios()[draw(st.sampled_from(sorted(EXPECTED_SCENARIOS)))].read_text())
    *parents, key = draw(st.sampled_from(list(_key_paths(cfg))))
    block = cfg
    for k in parents:
        block = block[k]
    edit = draw(st.sampled_from(["drop", "set"] + (["rename"] if isinstance(key, str) else [])))
    if edit == "set":
        block[key] = draw(st.sampled_from(MUTANT_VALUES))
    elif edit == "rename":
        block[key + "_x"] = block.pop(key)
    else:
        del block[key]
    return cfg


@settings(max_examples=100, deadline=None)
@given(scenario_mutants())
def test_mutated_scenario_ends_with_documented_exit_code(mutant):
    with tempfile.TemporaryDirectory() as d:
        p = os.path.join(d, "scenario.json")
        with open(p, "w") as f:
            json.dump(mutant, f)
        code = main(["run", p, "--out", os.path.join(d, "out")])
        assert code in (0, 2, 3, 4)
        assert sorted(os.listdir(d)) == (["out", "scenario.json"] if code == 0 else ["scenario.json"])


def test_exit_code_zero_steps_with_field(tmp_path, capsys):
    cfg = json.loads((bundled_scenarios()["figs7"]).read_text())
    cfg["compile"]["steps"] = 0
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["run", str(p), "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("compilation error:")
    assert not out.exists()


@pytest.mark.parametrize(
    "base, compile_block",
    [("figs6", {"method": "first_order", "theta": 0.5, "steps": 1}),
     ("fig3c", {"method": "first_order", "theta": 0.5, "steps": 1})],
)
def test_single_block_methods_compile_the_model(tmp_path, base, compile_block):
    cfg = json.loads((bundled_scenarios()[base]).read_text())
    cfg["compile"] = compile_block
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(cfg))
    rows = read_csv(run_scenario(str(p), str(tmp_path)))
    (digital,) = [r for r in rows if r["variant"] == "digital"]
    exact = [r for r in rows if r["variant"] == "exact"][-1]
    assert float(digital["theta"]) == float(exact["theta"]) == 0.5
    for label in cfg["observables"]:
        assert float(digital[label]) == pytest.approx(float(exact[label]), abs=1e-8)


def test_exit_code_sweep_over_ramp(tmp_path):
    cfg = json.loads((bundled_scenarios()["fig3c"]).read_text())
    cfg["model"] = json.loads((bundled_scenarios()["fig1b"]).read_text())["model"]
    cfg["initial_state"] = "uu"
    cfg["observables"] = ["pop:z:uu"]
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["run", str(p), "--out", str(out)]) == 2
    assert not out.exists()


def _count_oracle_calls(monkeypatch) -> dict:
    """Counts of np.linalg.eigh calls and of the oracle's dense Hamiltonian builds."""
    calls = {"eigh": 0, "build": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    build = counted("build", trotterion.oracle.hamiltonian_matrix)
    monkeypatch.setattr(trotterion.oracle, "hamiltonian_matrix", build)
    return calls


def test_ramp_run_diagonalises_all_slices_at_once(tmp_path, monkeypatch):
    calls = _count_oracle_calls(monkeypatch)
    lone = []
    propagator = trotterion.oracle.propagator
    monkeypatch.setattr(trotterion.oracle, "propagator", lambda *args: lone.append(args) or propagator(*args))
    rows = read_csv(run_scenario("fig1b", str(tmp_path)))
    assert len([r for r in rows if r["variant"] == "exact"]) == 33  # 2016 ramp slices
    assert calls == {"eigh": 1, "build": 0}
    assert lone == []


def _long_range_scenario(tmp_path, n: int, **extra) -> str:
    cfg = {
        "schema": 1,
        "name": f"lr{n}",
        "model": {"preset": "long_range", "n": n, "B": 0.5, "J": 1.0},
        "compile": {"method": "first_order", "theta": 1.2, "steps": 4},
        "initial_state": "u" * n,
        "observables": ["ham:0", "ham:3", "pauli:Z" + "I" * (n - 1)],
        **extra,
    }
    p = tmp_path / f"lr{n}.json"
    p.write_text(json.dumps(cfg))
    return str(p)


def test_run_diagonalises_the_hamiltonian_once(tmp_path, monkeypatch):
    calls = _count_oracle_calls(monkeypatch)
    verify = {"process_fidelity": 1.0, "tol": 1.0}  # runs the check, never fails it
    rows = read_csv(run_scenario(_long_range_scenario(tmp_path, 6, verify=verify), str(tmp_path)))
    assert len([r for r in rows if r["variant"] == "exact"]) == 33
    assert calls == {"eigh": 1, "build": 1}


def test_run_above_the_dense_cutoff_builds_no_dense_matrix(tmp_path, monkeypatch):
    calls = _count_oracle_calls(monkeypatch)
    rows = read_csv(run_scenario(_long_range_scenario(tmp_path, 8), str(tmp_path)))
    assert len([r for r in rows if r["variant"] == "exact"]) == 33
    assert calls == {"eigh": 0, "build": 0}


def test_verify_above_the_dense_cutoff_diagonalises_once(tmp_path, monkeypatch):
    calls = _count_oracle_calls(monkeypatch)
    verify = {"process_fidelity": 1.0, "tol": 1.0}  # runs the check, never fails it
    run_scenario(_long_range_scenario(tmp_path, 8, verify=verify), str(tmp_path))
    assert calls == {"eigh": 1, "build": 1}


def test_one_point_sweep_above_the_dense_cutoff(tmp_path, monkeypatch):
    calls = _count_oracle_calls(monkeypatch)
    # the many-body construction compiles 3..6 spins only, so the sweep is over first order
    sweep = {"points": 1, "theta_min": 0.6, "theta_max": 0.9}
    p = _long_range_scenario(tmp_path, 8, compile={"method": "first_order", "steps": 40, "sweep": sweep})
    out = tmp_path / "out"
    assert main(["run", p, "--out", str(out)]) == 0
    rows = read_csv(out / "lr8.csv")
    assert [(r["variant"], r["theta"]) for r in rows] == [("exact", "0.6"), ("digital", "0.6")]
    assert float(rows[0]["ham:0"]) == pytest.approx(float(rows[1]["ham:0"]), abs=0.02)
    assert calls == {"eigh": 0, "build": 0}


def test_twelve_spin_run_end_to_end(tmp_path, monkeypatch):
    written = []

    def write_csv(sc, out_dir, rows):  # keeps the rows before they are rounded to text
        written.extend(rows)
        return write(sc, out_dir, rows)

    write = trotterion.cli._write_csv
    monkeypatch.setattr(trotterion.cli, "_write_csv", write_csv)
    n = MAX_SPINS
    labels = [f"ham:{k}" for k in range(n + 1)]
    state = "x:" + "+" * n
    run_scenario(_long_range_scenario(tmp_path, n, initial_state=state, observables=labels), str(tmp_path))
    exact = [vals for variant, _, vals, _ in written if variant == "exact"]
    assert len(exact) == 33
    psi0 = parse_state(state, n).amps[:, None]
    assert exact[0] == pytest.approx([parse_observable(label, n)[1](psi0)[0] for label in labels], abs=1e-12)
    for vals in exact:
        assert sum(vals) == pytest.approx(1.0, abs=1e-9)


def test_python_m_lists_bundled_scenarios():
    src = os.path.dirname(os.path.dirname(os.path.abspath(trotterion.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-m", "trotterion", "list"], env=env, capture_output=True, text=True,
        timeout=60, check=True,
    ).stdout
    assert sorted(out.split()) == sorted(EXPECTED_SCENARIOS)


def test_jobs_flag(tmp_path):
    assert main(["run", "fig1a_n1", "fig1a_n2", "--jobs", "2", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "fig1a_n1.csv").exists()
    assert (tmp_path / "fig1a_n2.csv").exists()


def test_jobs_flag_starts_no_more_workers_than_scenarios(tmp_path, monkeypatch):
    started = []

    class InProcessPool:  # records the pool size and starts no process
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    assert main(["run", "fig1a_n1", "fig1a_n2", "--jobs", "5000", "--out", str(tmp_path)]) == 0
    assert started == [2]
    assert sorted(os.listdir(tmp_path)) == ["fig1a_n1.csv", "fig1a_n2.csv"]


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_exit_code_jobs_below_one(tmp_path, capsys, jobs):
    out = tmp_path / "out"
    assert main(["run", "fig1a_n1", "fig1a_n2", f"--jobs={jobs}", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("configuration error: --jobs")
    assert not out.exists()


def test_bound_subcommand(capsys):
    tables = [bundled_fixture("truth_table_3spin_eigen.csv"),
              bundled_fixture("truth_table_3spin_ghz.csv")]
    assert main(["bound", "--tables", *tables, "--theta", "0.7854"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["lower"] <= report["upper"]
    assert report["lower"] == pytest.approx(report["F1"] + report["F2"] - 1, abs=1e-9)


_GHZ_HEADER = "input,parity1,parity2,population1,population2,fidelity,parity1_unc\n"


@pytest.mark.parametrize(
    "eigen_table, ghz_table",
    [
        ("directory", None),
        ("input,fidelity,fidelity_unc\nzz,high,0.01\n", None),
        ("input,fidelity,fidelity_unc\nzz,1.5,0.01\n", None),
        ("input,fidelity,fidelity_unc\nzz,1.5,0.01\nzu,0.3,0.01\n", None),
        ("input,fidelity,fidelity_unc\nzz,nan,0.01\n", None),
        ("input,fidelity,fidelity_unc\nzz,inf,0.01\n", None),
        ("input,fidelity,fidelity_unc\nzz,0.9,nan\n", None),
        ("input,fidelity,fidelity_unc\nzz,0.9,inf\n", None),
        ("input,fidelity,fidelity_unc\nzz,0.9,-5\n", None),
        ("input,fidelity,fidelity_unc\nzz,0.9,-0.01\nzu,0.9,0.01\n", None),
        (None, _GHZ_HEADER + "+y,nan,-0.9,0.5,0.4,0.9,0.04\n"),
        (None, _GHZ_HEADER + "+y,0.9,-inf,0.5,0.4,0.9,0.04\n"),
        (None, _GHZ_HEADER + "+y,0.9,-0.9,nan,0.4,0.9,0.04\n"),
        (None, _GHZ_HEADER + "+y,0.9,-0.9,0.5,inf,0.9,0.04\n"),
        (None, _GHZ_HEADER + "+y,0.9,-0.9,0.5,0.4,0.9,nan\n"),
        (None, _GHZ_HEADER + "+y,0.9,-0.9,0.5,0.4,0.9,-0.04\n"),
    ],
    ids=["directory", "non_numeric_cell", "fidelity_above_one", "fidelity_above_one_in_a_valid_mean",
         "nan_fidelity", "inf_fidelity", "nan_uncertainty", "inf_uncertainty", "negative_uncertainty",
         "negative_uncertainty_in_a_valid_mean", "nan_parity", "inf_parity", "nan_population",
         "inf_population", "nan_parity_uncertainty", "negative_parity_uncertainty"],
)
def test_exit_code_bad_tables(tmp_path, capsys, eigen_table, ghz_table):
    # None stands for the bundled three-spin table of that kind
    tables = []
    for name, table in [("eigen", eigen_table), ("ghz", ghz_table)]:
        path = tmp_path / f"{name}.csv"
        if table is None:
            path = bundled_fixture(f"truth_table_3spin_{name}.csv")
        elif table == "directory":
            path.mkdir()
        else:
            path.write_text(table)
        tables.append(str(path))
    assert main(["bound", "--tables", *tables]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error:")
    assert captured.out == ""


@pytest.mark.parametrize("theta", ["nan", "inf", "-inf"])
def test_exit_code_non_finite_bound_theta(capsys, theta):
    tables = [bundled_fixture("truth_table_3spin_eigen.csv"), bundled_fixture("truth_table_3spin_ghz.csv")]
    assert main(["bound", "--tables", *tables, f"--theta={theta}"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error: theta must be finite")
    assert captured.out == ""


@pytest.mark.parametrize(
    "eigen_table",
    ["input,fidelity,fidelity_unc\nzz,0.9\n", "input,fidelity,fidelity_unc\nzu,0.95,0.01,7\n"],
    ids=["missing_cell", "extra_cell"],
)
def test_exit_code_ragged_table_row(tmp_path, capsys, eigen_table):
    eigen = tmp_path / "eigen.csv"
    eigen.write_text(eigen_table)
    assert main(["bound", "--tables", str(eigen), bundled_fixture("truth_table_3spin_ghz.csv")]) == 2
    assert capsys.readouterr().err.startswith("configuration error: bad truth table:")


def test_bound_requires_both_table_kinds():
    with pytest.raises(Exception):
        bound_from_fixtures([bundled_fixture("truth_table_3spin_eigen.csv")])


def test_load_scenario_rejects_wrong_schema(tmp_path):
    p = tmp_path / "v2.json"
    p.write_text(json.dumps({"schema": 2, "name": "x"}))
    with pytest.raises(Exception):
        load_scenario(str(p))


def _readme_key_table() -> dict:
    """Block (with its preset or method) -> (required, optional) keys, from the README's table."""
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme) as f:
        text = f.read()
    table = text[text.index("| block | keys |"):].split("\n\n", 1)[0].splitlines()[2:]
    rows = {}
    for line in table:
        block, keys = line.strip("|").split("|")
        name, *selected = re.findall(r"`(\w+)`", block) or ["scenario"]  # the "top level" row
        keys = re.findall(r"(\*\*)?`(\w+)`", re.sub(r"\([^)]*\)", "", keys))
        entry = (sorted(k for bold, k in keys if bold), sorted(k for bold, k in keys if not bold))
        for selector in selected or [None]:
            assert (name, selector) not in rows, line
            rows[name, selector] = entry
    return rows


def test_readme_key_table_matches_the_schema():
    want = {}
    for block, keys in _KEYS.items():
        for selector, (required, optional) in (keys.items() if isinstance(keys, dict) else [(None, keys)]):
            want[block, selector] = (sorted(required), sorted(optional))
    assert _readme_key_table() == want
