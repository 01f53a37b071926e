"""trotterion benchmark: one workload per process, outputs checked, one JSON result.

Run from the repository root:

    python3 perfbench/run.py --workload bundled --seed 1 --seconds 40 --trace 0

With ``--trace 0`` the last line of standard output carries the
end-to-end metrics; with ``--trace 1`` untraced passes for half the
time are followed by as many traced passes, and the line carries the
per-layer metrics. The line before it holds the run record (environment, sample
counts, failures). Both are also written, with the spans of a traced
run, under ``.perfbench_out/`` in the repository root. See README.md.
"""
from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import types
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference"

# Fresh processes timed for setup_s; the metric is their median.
SETUP_PROBES = 3
# Items that must lie beyond the tail percentile within one pass.
TAIL_BEYOND = 10
SUM_CHECK_TOL = 0.05

clock = time.perf_counter


def import_package():
    """The package modules, imported from this checkout's src/."""
    sys.path.insert(0, str(SRC))
    import trotterion
    from trotterion import cli, compiler, gates, metrics, models, noise, oracle, pauli

    if Path(trotterion.__file__).resolve().parent != SRC / "trotterion":
        raise RuntimeError(f"imported trotterion from {trotterion.__file__}, not from {SRC}")
    return types.SimpleNamespace(
        package=trotterion, cli=cli, compiler=compiler, gates=gates, metrics=metrics,
        models=models, noise=noise, oracle=oracle, pauli=pauli,
    )


@dataclass
class Bench:
    workload: str
    tr: types.SimpleNamespace
    items: list
    refs: dict
    out_dir: str
    log: tracing.CompileLog
    rebinder: tracing.Rebinder
    manifest: dict


@dataclass
class PassResult:
    pass_s: float
    item_s: list
    failures: list
    identical: int
    gates: int
    pulse_ms: float


def setup(workload: str, seed: int, workdir: str) -> Bench:
    """Everything before the first timed pass, ending with one warm-up item."""
    tr = import_package()
    manifest = checks.load_bundled_reference(str(REFERENCE))
    items, warm = workloads.generate(workload, seed, manifest["csv"])
    log, rebinder = tracing.CompileLog(), tracing.Rebinder()
    log.install(tr, rebinder)
    if workload == "wide":
        refs = workloads.write_scenarios(items + [warm], workdir)
    else:
        refs = {it.name: it.spec.get("ref") for it in items + [warm]}
    warm_dir = os.path.join(workdir, "warmup")
    os.makedirs(warm_dir)
    workloads.run_item(tr, workload, warm, refs[warm.name], warm_dir)
    log.take()
    out_dir = os.path.join(workdir, "out")
    os.makedirs(out_dir)
    return Bench(workload, tr, items, refs, out_dir, log, rebinder, manifest)


def check_outputs(bench: Bench, outputs) -> tuple:
    """(failures as (item, message), byte-identical CSV count); untimed."""
    failures, identical = [], 0
    for item, out in zip(bench.items, outputs):
        if isinstance(out, Exception):
            failures.append((item.name, f"{type(out).__name__}: {out}"))
            continue
        if bench.workload == "bundled":
            ref = str(REFERENCE / "bundled" / f"{item.name}.csv")
            ok, same, msg = checks.compare_csv(out, ref, bench.manifest["abs_tol"])
            identical += same
        elif bench.workload == "wide":
            msg = checks.check_wide_csv(out, item.spec)
            ok = not msg
        else:
            _, u, fid = out
            msg = checks.check_graph(u, fid, item.spec["J"], item.spec["theta"])
            ok = not msg
        if not ok:
            failures.append((item.name, msg))
    return failures, identical


def one_pass(bench: Bench) -> PassResult:
    """Every item once, timed; then the untimed output checks and counts."""
    outputs, item_s = [], []
    gc.collect()  # garbage left by set-up or the previous pass is not this pass's cost
    t_pass = clock()
    for item in bench.items:
        t = clock()
        try:
            out = workloads.run_item(bench.tr, bench.workload, item, bench.refs[item.name], bench.out_dir)
        except Exception as e:  # an item that raises is a failure, the run goes on
            out = e
        item_s.append(clock() - t)
        outputs.append(out)
    pass_s = clock() - t_pass
    programs = bench.log.take()
    failures, identical = check_outputs(bench, outputs)
    model = bench.tr.gates.DurationModel()
    stats = [bench.tr.gates.sequence_stats(p.sequence, model) for p in programs]
    return PassResult(
        pass_s, item_s, failures, identical,
        sum(s["gate_count"] for s in stats), sum(s["wall_time_us"] for s in stats) / 1000,
    )


def timed_passes(bench: Bench, seconds: float, at_least: int) -> list:
    """Whole passes until another one would run past ``seconds``, and at
    least ``at_least`` of them."""
    results = []
    t_begin = clock()
    while len(results) < at_least or (
        clock() - t_begin + statistics.median(r.pass_s for r in results) <= seconds
    ):
        results.append(one_pass(bench))
    return results


def probe_setup(workload: str, seed: int) -> list:
    """Wall time from process start to ready, in fresh processes run one at a time."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = clock()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = clock()
            proc.stdout.read()
            code = proc.wait()
        if line.strip() != "READY" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        times.append(t1 - t0)
    return times


# -- environment record -----------------------------------------------------


def _blas_threads():
    """Thread counts reported by each loaded OpenBLAS library."""
    found = {}
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower() and "/" in line}
    except OSError:
        return found
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    return res.stdout.strip() or None


def _source_digest():
    """SHA-256 over the package sources and scenarios, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "trotterion").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json", ".csv"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_version = None
    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads": _blas_threads(),
    }


# -- metrics ----------------------------------------------------------------


def item_stats(results: list) -> dict:
    """Median over the items of a pass, and tail over every item timed.

    The machine's speed drifts by up to 2x over a few seconds. Each item is
    therefore timed by its mean over the run's passes, which lie across the
    whole run, and the median is estimated as the mean of the middle third
    of those item times (the middle item when a pass has three): a plain
    median rests on one or two items, timed in the same few seconds, while
    the middle third of a bundled pass runs in all of its three stretches.
    The tail pools every timing; its percentile is fixed by the pass size
    (ten items of every pass beyond it), so that it does not drift when more
    passes fit in a run.
    """
    per_item = sorted(statistics.fmean(ts) for ts in zip(*(r.item_s for r in results)))
    pooled = sorted(t for r in results for t in r.item_s)
    per_pass = len(per_item)
    third = per_pass // 3
    beyond = TAIL_BEYOND if per_pass > TAIL_BEYOND else 0
    return {
        "p50": statistics.fmean(per_item[third : per_pass - third]),
        "p50_items": per_pass - 2 * third,
        "tail": pooled[len(pooled) - beyond * len(results) - 1],
        "tail_percentile": 100.0 * (per_pass - beyond) / per_pass,
        "tail_items_beyond": beyond * len(results),
        "samples": len(pooled),
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def untraced_metrics(results, setup_s) -> tuple:
    stats = item_stats(results)
    metrics = {
        "setup_s": _metric(statistics.median(setup_s), "s"),
        "pass_s": _metric(statistics.median(r.pass_s for r in results), "s"),
        "item_s_p50": _metric(stats["p50"], "s"),
        "item_s_tail": _metric(stats["tail"], "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "gates": _metric(results[-1].gates, "count"),
        "pulse_ms": _metric(results[-1].pulse_ms, "modelled_ms"),
    }
    return metrics, stats


def traced_metrics(bench: Bench, untraced: list, seed: int) -> tuple:
    """Per-layer metrics from as many traced passes as the untraced run made."""
    tracer = tracing.Tracer()
    rebinder = tracing.Rebinder()
    tracer.install(bench.tr, rebinder)
    try:
        traced = [one_pass(bench) for _ in untraced]
    finally:
        rebinder.restore()
    tracer.save(str(OUT / f"spans-{bench.workload}-seed{seed}.npz"))
    k = len(traced)
    summary = tracer.summary()
    layers = tracing.layer_metrics(summary, k)
    metrics = {name: _metric(v, unit) for name, (v, unit) in layers.items()}
    traced_pass = statistics.median(r.pass_s for r in traced)
    metrics["compiler.gates_out"] = _metric(statistics.median(r.gates for r in traced), "count")
    for name in bench.manifest["csv"]:
        times = [r.item_s[i] for r in traced for i, it in enumerate(bench.items) if it.name == name]
        metrics[f"cli.scenario_s.{name}"] = _metric(statistics.median(times) if times else 0.0, "s")
    metrics["trace.spans"] = _metric(len(tracer) / k, "count")
    metrics["trace.overhead_s"] = _metric(traced_pass - statistics.median(r.pass_s for r in untraced), "s")
    layer_sum = sum(layers[n][0] for n in tracing.SELF_TIME_METRICS)
    mean_traced = sum(r.pass_s for r in traced) / k
    check = {
        "layers_self_sum_s": layer_sum,
        "traced_pass_s_mean": mean_traced,
        "uncovered_s": mean_traced - summary["<roots>"][1] / k,
        "ratio": layer_sum / mean_traced,
    }
    check["ok"] = abs(check["ratio"] - 1) <= SUM_CHECK_TOL
    return metrics, traced, check


# -- entry point ------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("bundled", "wide", "graphs"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "trotterion" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC / 'trotterion'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{args.workload}-") as workdir:
        if args.setup_probe:
            setup(args.workload, args.seed, workdir)
            print("READY", flush=True)
            return 0
        setup_s = probe_setup(args.workload, args.seed) if not args.trace else []
        t0 = clock()
        bench = setup(args.workload, args.seed, workdir)
        own_setup_s = clock() - t0
        # A timed run makes at least two passes, so that each item's mean is
        # taken over passes some time apart; a traced run spends half its
        # time untraced, to measure the overhead.
        if args.trace:
            untraced = timed_passes(bench, args.seconds / 2, at_least=1)
        else:
            untraced = timed_passes(bench, args.seconds, at_least=2)
        results = list(untraced)
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "environment": environment(args.seed),
            "items_per_pass": len(bench.items),
            "passes": len(untraced),
            "pass_s_values": [r.pass_s for r in untraced],
            "item_names": [it.name for it in bench.items],
            "item_s_values": [r.item_s for r in untraced],
            "setup_s_samples": setup_s,
            "main_setup_s_after_interpreter_start": own_setup_s,
        }
        if args.trace:
            metrics, traced, check = traced_metrics(bench, untraced, args.seed)
            results += traced
            record["traced_pass_s_values"] = [r.pass_s for r in traced]
            record["self_time_check"] = check
            consistent = check["ok"]
        else:
            metrics, stats = untraced_metrics(untraced, setup_s)
            record["item_stats"] = stats
            consistent = True
    gates_seen = {r.gates for r in results}
    failures = [f for r in results for f in r.failures]
    attempted = sum(len(r.item_s) for r in results)
    record.update({
        "gates_per_pass_values": sorted(gates_seen),
        "attempted": attempted,
        "failed": len(failures),
        "fail_ratio": len(failures) / attempted,
        "failures": failures[:20],
    })
    if args.workload == "bundled":
        record["bundled_byte_identical"] = [r.identical for r in results]
        record["bundled_csvs"] = len(bench.items)
    result = {
        "correct": not failures and len(gates_seen) == 1 and consistent,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as f:
        json.dump({"record": record, "result": result}, f, indent=2)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
