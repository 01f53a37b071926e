"""Tests of the benchmark itself: its checks catch wrong outputs, its inputs
are reproducible, and its span bookkeeping adds up.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def bench_for(tmp_path):
    """A set-up Bench for one workload whose pass is cut to the given items."""
    made = []

    def make(workload, keep):
        work = tmp_path / f"{workload}-{len(made)}"
        work.mkdir()
        bench = run.setup(workload, 1, str(work))
        bench.items = [it for it in bench.items if keep(it)]
        made.append(bench)
        return bench

    yield make
    for bench in made:
        bench.rebinder.restore()


def _fail_ratio(result):
    return len(result.failures) / len(result.item_s)


def test_corrupted_bundled_csv_raises_fail_ratio(bench_for, monkeypatch):
    bench = bench_for("bundled", lambda it: it.name in ("fig1a_n2", "fig2_ising", "figs3"))
    clean = run.one_pass(bench)
    assert _fail_ratio(clean) == 0 and clean.identical == 3

    original = bench.tr.cli.run_scenario

    def corrupting(ref, out_dir="."):
        path = original(ref, out_dir)
        if ref == "fig2_ising":
            with open(path) as f:
                lines = f.read().splitlines()
            cells = lines[5].split(",")
            cells[2] = repr(float(cells[2]) + 1e-4)
            lines[5] = ",".join(cells)
            with open(path, "w") as f:
                f.write("\n".join(lines) + "\n")
        return path

    monkeypatch.setattr(bench.tr.cli, "run_scenario", corrupting)
    bad = run.one_pass(bench)
    assert [name for name, _ in bad.failures] == ["fig2_ising"]
    assert _fail_ratio(bad) == pytest.approx(1 / 3)
    assert bad.identical == 2


def test_csv_within_tolerance_is_accepted_but_not_identical(tmp_path):
    manifest = checks.load_bundled_reference(str(BENCH / "reference"))
    ref = BENCH / "reference" / "bundled" / "figs8.csv"
    lines = ref.read_text().splitlines()
    cells = lines[3].split(",")
    cells[2] = repr(float(cells[2]) + manifest["abs_tol"] / 10)
    lines[3] = ",".join(cells)
    got = tmp_path / "figs8.csv"
    got.write_text("\n".join(lines) + "\n")
    assert checks.compare_csv(str(ref), str(ref), manifest["abs_tol"]) == (True, True, "")
    assert checks.compare_csv(str(got), str(ref), manifest["abs_tol"]) == (True, False, "")
    cells[2] = repr(float(cells[2]) + manifest["abs_tol"] * 10)
    lines[3] = ",".join(cells)
    got.write_text("\n".join(lines) + "\n")
    assert checks.compare_csv(str(got), str(ref), manifest["abs_tol"])[0] is False


def test_wrong_unitary_raises_fail_ratio(bench_for, monkeypatch):
    bench = bench_for("graphs", lambda it: it.n == 4)
    assert _fail_ratio(run.one_pass(bench)) == 0

    original = bench.tr.gates.sequence_unitary

    def dropping_last_gate(seq):
        return original(type(seq)(seq.n, seq.gates[:-1]))

    monkeypatch.setattr(bench.tr.gates, "sequence_unitary", dropping_last_gate)
    assert _fail_ratio(run.one_pass(bench)) == 1.0


def test_graph_check_rejects_a_wrong_phase_or_coupling():
    rng = np.random.default_rng(5)
    J = workloads.random_couplings(rng, 4)
    target = checks.xbasis_target(J, 0.7)
    assert checks.check_graph(target * np.exp(0.3j), 1.0, J, 0.7) == ""
    assert checks.check_graph(target, 1.0, J, 0.7 + 1e-7) != ""
    J2 = J.copy()
    J2[0, 1] = J2[1, 0] = J[0, 1] + 1
    assert checks.check_graph(checks.xbasis_target(J2, 0.7), 1.0, J, 0.7) != ""
    assert checks.check_graph(target, 1.0 - 1e-6, J, 0.7) != ""


@pytest.mark.parametrize("state", ["u", "d", "x:+", "x:-", "y:+", "y:-"])
def test_wide_reference_matches_the_package_and_rejects_a_changed_row(tmp_path, state):
    tr = run.import_package()
    spec = workloads.wide_scenario("w", 4, np.random.default_rng(3))
    spec["initial_state"] = workloads.symmetric_state(state, 4)
    path = workloads.write_scenarios([workloads.Item("w", 4, spec)], str(tmp_path))["w"]
    csv_path = tr.cli.run_scenario(path, str(tmp_path))
    assert checks.check_wide_csv(csv_path, spec) == ""
    lines = Path(csv_path).read_text().splitlines()
    cells = lines[-1].split(",")
    cells[3] = repr(float(cells[3]) + 1e-7)
    lines[-1] = ",".join(cells)
    Path(csv_path).write_text("\n".join(lines) + "\n")
    assert "digital rows differ" in checks.check_wide_csv(csv_path, spec)


@pytest.mark.parametrize("workload", ["wide", "graphs"])
def test_same_seed_same_inputs(workload):
    a = workloads.generate(workload, 11, ())
    assert a == workloads.generate(workload, 11, ())
    assert a != workloads.generate(workload, 12, ())


def test_bundled_inputs_are_the_shipped_scenarios_for_every_seed():
    names = list(checks.load_bundled_reference(str(BENCH / "reference"))["csv"])
    items, warm = workloads.generate("bundled", 1, names)
    assert sorted(it.name for it in items) == sorted(names) and len(names) == 18
    order = [it.name for it in items]
    assert (order.index("figs8"), order.index("figs9")) == (6, 12)
    assert (items, warm) == workloads.generate("bundled", 2, names)


def test_graph_counts_keep_both_percentiles_inside_the_n5_block():
    per_pass = sum(workloads.GRAPH_COUNTS.values())
    lo = workloads.GRAPH_COUNTS[4]
    hi = lo + workloads.GRAPH_COUNTS[5] - 1
    third = per_pass // 3
    assert lo + 3 <= third and per_pass - third - 1 <= hi - 3  # item_s_p50's items
    for passes in range(1, 6):
        tail = (per_pass - run.TAIL_BEYOND) * passes - 1
        assert (lo + 3) * passes <= tail <= (hi - 3) * passes


def test_median_is_the_middle_third_of_the_item_means():
    fast = run.PassResult(1.0, [0.1 * k for k in range(1, 13)], [], 0, 0, 0.0)
    slow = run.PassResult(2.0, [0.3 * k for k in range(1, 13)], [], 0, 0, 0.0)
    stats = run.item_stats([fast, slow])
    assert stats["p50"] == pytest.approx(0.2 * 6.5) and stats["p50_items"] == 4
    # 24 timings pooled, twenty beyond the tail: the fourth smallest
    assert stats["tail"] == pytest.approx(0.3)
    assert stats["samples"] == 24 and stats["tail_items_beyond"] == 20
    three = run.PassResult(3.0, [2.0, 1.0, 9.0], [], 0, 0, 0.0)
    assert run.item_stats([three, three])["p50"] == pytest.approx(2.0)


def test_self_times_add_up_to_root_durations():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return 1

    def middle():
        return wrapped_leaf() + wrapped_leaf()

    wrapped_leaf = tracer.wrap(leaf, "leaf")
    wrapped_middle = tracer.wrap(middle, "middle")
    wrapped_middle()
    wrapped_leaf()
    summary = tracer.summary()
    assert summary["leaf"] == (3, 3.0)
    assert summary["middle"] == (1, 3.0)  # 5 ticks long, 2 of them in children
    assert summary["<roots>"] == (2, 6.0)


def test_rebinder_restores_every_binding():
    tr = run.import_package()
    original = tr.gates.apply_gate
    rebinder = tracing.Rebinder()
    tracer = tracing.Tracer()
    tracer.install(tr, rebinder)
    assert tr.compiler.apply_gate is not original and tr.gates.apply_gate is not original
    rebinder.restore()
    assert tr.compiler.apply_gate is original and tr.gates.apply_gate is original
    assert tr.package.apply_gate is original


def test_exits_nonzero_without_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bundled", "--seed", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0 and proc.stdout == ""
