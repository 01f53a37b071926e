"""Scenario-driven command line front end.

Scenarios are JSON files (schema 1) naming a model preset, a
compilation method, an initial state, and observables; running one
writes a CSV with the exact-oracle curve, the ideal-digitized values at
the stroboscopic checkpoints, and optionally noisy estimates. Exit
codes: 0 success, 2 configuration error, 3 compilation error, 4
numerical verification failure.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import partial
from importlib import resources

import numpy as np

from .compiler import (
    CompileError,
    CompiledProgram,
    compile_first_order,
    compile_second_order,
    compile_time_dependent,
)
from .gates import DurationModel, apply_sequence, sequence_stats, sequence_unitary
from .metrics import GhzMeasurementRecord, ghz_fidelity, hofmann_bounds, process_fidelity, tangles
from .models import (
    CouplingGraph,
    FieldSpec,
    RampSpec,
    coupling_graph_model,
    ising2,
    long_range_ising,
    many_body_model,
    xy2,
    xyz2,
)
from .noise import NoiseParams, sample_checkpoints
from .oracle import Exact
from .pauli import MAX_SPINS, PauliString, StateVector, WeightedPauliSum, _popcounts, expectations

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Scenario file violates the schema."""


class VerificationError(RuntimeError):
    """Compiled program disagrees with the oracle beyond tolerance."""


def _fmt(x: float) -> str:
    return f"{x:.9g}"


@dataclass(frozen=True)
class Scenario:
    """A scenario file, parsed and checked once; every command runs from this."""

    name: str
    model: WeightedPauliSum | RampSpec
    program: Callable[..., CompiledProgram]  # (steps=None, theta=None), see _program
    psi0: StateVector
    observables: tuple  # (label, fn, is_probability) per observable, see parse_observable
    sweep: np.ndarray | None  # theta grid of a sweep scenario
    noise: NoiseParams | None  # seed already set
    verify: tuple | None  # (process_fidelity, tol)


# -- scenario loading --------------------------------------------------------


def bundled_scenarios() -> dict:
    """Name -> path for every scenario shipped with the package."""
    base = resources.files("trotterion") / "scenarios"
    return {p.name[: -len(".json")]: p for p in sorted(base.iterdir(), key=lambda p: p.name)
            if p.name.endswith(".json")}


def _is_count(value, least: int) -> bool:
    """A JSON integer (not a boolean) no smaller than least."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


def _is_plain(value) -> bool:
    """No NaN, infinity or boolean anywhere in a parsed JSON value.

    json accepts NaN and Infinity, and a boolean would pass as 0 or 1
    wherever a number is read; no schema-1 key takes a boolean.
    """
    if isinstance(value, bool):
        return False
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return all(_is_plain(v) for v in value)
    return True


def _real(block: dict, key: str, default=None):
    """block[key], or default when the key is absent, checked to be a number."""
    value = block[key] if default is None else block.get(key, default)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    return value


# The keys each scenario block may hold, as (required, optional). Model
# blocks are looked up by their preset and compile blocks by their method.
_KEYS = {
    "scenario": (("schema", "name", "model", "compile", "initial_state", "observables"),
                 ("noise", "seed", "verify")),
    "model": {
        "ising2": (("B", "J"), ()),
        "xy2": (("B", "J"), ()),
        "xyz2": (("B", "J"), ()),
        "long_range": (("n", "B", "J"), ()),
        "graph": (("n", "J"), ("phi", "field")),
        "many_body": (("ops",), ("strength", "field")),
        "ramp": (("theta_t", "J_start", "J_end", "B"), ()),
    },
    "field": (("axis", "strength"), ()),
    "compile": {
        "first_order": (("steps",), ("theta", "sweep")),
        "second_order": (("steps",), ("theta", "sweep")),
        "time_dependent": ((), ("steps",)),
    },
    "sweep": (("points", "theta_max"), ("theta_min",)),
    "noise": ((), ("sigma_rel", "miscal", "shots")),
    "verify": (("process_fidelity",), ("tol",)),
}


def _block(raw, name: str, selector: str | None = None) -> dict:
    """raw, checked to be an object with every key _KEYS[name] requires and no other.

    With a selector ("preset", "method"), raw[selector] names the entry of
    _KEYS[name] that applies.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"the {name} block must be an object, got {raw!r}")
    keys = _KEYS[name]
    if selector is not None:
        kind = raw.get(selector)
        if not isinstance(kind, str) or kind not in keys:
            raise ConfigError(f"unknown {name} {selector} {kind!r}; allowed are {sorted(keys)}")
        keys, name = keys[kind], f"{kind} {name}"
    required, optional = keys
    for key in required:
        if key not in raw:
            raise ConfigError(f"the {name} block is missing required key {key!r}")
    unknown = sorted(set(raw) - {selector, *required, *optional})
    if unknown:
        allowed = [*required, *optional]
        raise ConfigError(f"unknown keys {unknown} in the {name} block; allowed are {allowed}")
    return raw


def load_scenario(ref: str) -> Scenario:
    """Read and check a scenario file or bundled name; a malformed one is a ConfigError."""
    if os.path.exists(ref):
        with open(ref) as f:
            cfg = json.load(f)
    else:
        names = bundled_scenarios()
        if ref not in names:
            raise ConfigError(f"unknown scenario {ref!r}; try 'trotterion list'")
        cfg = json.loads(names[ref].read_text())
    _block(cfg, "scenario")
    if cfg["schema"] != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema version {cfg['schema']!r}")
    if not _is_plain(cfg):
        raise ConfigError("scenario contains a NaN, infinite or boolean number")
    name = cfg["name"]
    if (not isinstance(name, str) or name in ("", ".", "..") or "/" in name or "\\" in name
            or any(c < " " for c in name)):
        raise ConfigError(f"scenario name {name!r} is not a plain file stem")
    if "seed" in cfg and not _is_count(cfg["seed"], 0):
        raise ConfigError(f"seed must be a nonnegative integer, got {cfg['seed']!r}")
    model_cfg = _block(cfg["model"], "model", "preset")
    model = _build_model(model_cfg)
    n = model.n
    program, sweep = _program(_block(cfg["compile"], "compile", "method"), model, model_cfg["preset"])
    if sweep is not None and ("noise" in cfg or "verify" in cfg):
        raise ConfigError("a sweep scenario takes no noise or verify block")
    if not isinstance(cfg["observables"], list):
        raise ConfigError(f"observables must be a list, got {cfg['observables']!r}")
    verify = None
    if "verify" in cfg:
        block = _block(cfg["verify"], "verify")
        verify = (_real(block, "process_fidelity"), _real(block, "tol", 0.01))
    return Scenario(
        name, model, program, parse_state(cfg["initial_state"], n),
        tuple(parse_observable(o, n) for o in cfg["observables"]), sweep, _noise(cfg), verify,
    )


def _noise(cfg: dict) -> NoiseParams | None:
    if "noise" not in cfg:
        return None
    if "seed" not in cfg:
        raise ConfigError("a seed is mandatory when noise is requested")
    block = _block(cfg["noise"], "noise")
    try:
        return NoiseParams(**block, seed=cfg["seed"])
    except (TypeError, ValueError) as e:  # NoiseParams' own bounds
        raise ConfigError(f"bad noise block: {e}") from e


def _spin_count(cfg: dict) -> int:
    n = cfg["n"]
    if not _is_count(n, 2) or n > MAX_SPINS:
        raise ConfigError(f"spin count n must be an integer in 2..{MAX_SPINS}, got {n!r}")
    return n


def _coupling_graph(cfg: dict) -> CouplingGraph:
    J = np.asarray(cfg["J"])
    if J.dtype.kind not in "if":
        raise ConfigError(f"coupling matrix J must hold numbers, got {cfg['J']!r}")
    if J.ndim == 2 and np.diagonal(J).any():  # CouplingGraph would zero it
        raise ConfigError(f"coupling matrix J must have a zero diagonal, got {np.diagonal(J).tolist()}")
    return CouplingGraph(_spin_count(cfg), J.astype(float), _real(cfg, "phi", 0.0))


def _field(cfg: dict) -> FieldSpec | None:
    if "field" not in cfg:
        return None
    fld = _block(cfg["field"], "field")
    return FieldSpec(fld["axis"], _real(fld, "strength"))


_TWO_SPIN_PRESETS = {"ising2": ising2, "xy2": xy2, "xyz2": xyz2}


def _build_model(cfg: dict) -> WeightedPauliSum | RampSpec:
    """The model block's Pauli sum, or its ramp."""
    preset = cfg["preset"]
    try:
        if preset in _TWO_SPIN_PRESETS:
            return _TWO_SPIN_PRESETS[preset](_real(cfg, "B"), _real(cfg, "J"))
        if preset == "long_range":
            return long_range_ising(_spin_count(cfg), _real(cfg, "B"), _real(cfg, "J"))[0]
        if preset == "graph":
            return coupling_graph_model(_coupling_graph(cfg), _field(cfg))
        if preset == "many_body":
            p = PauliString.from_string(cfg["ops"])
            return many_body_model(p, _real(cfg, "strength", 1.0), _field(cfg))
        return RampSpec(*(_real(cfg, k) for k in ("theta_t", "J_start", "J_end", "B")))
    except ConfigError:
        raise
    except (TypeError, ValueError) as e:  # the model constructors' own input checks
        raise ConfigError(f"bad {preset} model: {e}") from e


def _steps(method: str, steps):
    """steps, checked to be an integer >= 0."""
    if not _is_count(steps, 0):
        raise ConfigError(f"compile method {method!r} needs integer steps, got {steps!r}")
    return steps


def _program(comp: dict, model, preset: str):
    """(program, sweep grid or None) of a compile block.

    program(steps=None, theta=None) compiles the model as the block says,
    steps and theta replacing the block's; a sweep without an explicit
    theta compiles at theta_max.
    """
    method = comp["method"]
    if (method == "time_dependent") != isinstance(model, RampSpec):
        raise ConfigError(f"compile method {method!r} does not fit a {preset} model")
    sweep = block_theta = None
    if "sweep" in comp:
        sw = _block(comp["sweep"], "sweep")
        if not _is_count(sw["points"], 1):
            raise ConfigError(f"sweep points must be a positive integer, got {sw['points']!r}")
        block_theta = _real(sw, "theta_max")
        sweep = np.linspace(_real(sw, "theta_min", 0.0), block_theta, sw["points"])
    if "theta" in comp:
        block_theta = _real(comp, "theta")
    if block_theta is None and method != "time_dependent":
        raise ConfigError(f"the {method} compile block needs a theta or a sweep")
    block_steps = _steps(method, comp.get("steps", 8))  # the default is time_dependent's

    def program(steps=None, theta=None) -> CompiledProgram:
        # compile functions are looked up by module name per call, so code that
        # rebinds those names (tracing, profiling) sees every compile
        steps = block_steps if steps is None else _steps(method, steps)
        theta = block_theta if theta is None else theta
        if method == "first_order":
            return compile_first_order(model, theta, steps)
        if method == "second_order":
            return compile_second_order(model, theta, steps)
        return compile_time_dependent(model, steps)

    return program, sweep


# -- initial states and observables -----------------------------------------

_BASIS_VECS = {
    ("x", "+"): np.array([1, 1], complex) / np.sqrt(2),
    ("x", "-"): np.array([1, -1], complex) / np.sqrt(2),
    ("y", "+"): np.array([1, 1j], complex) / np.sqrt(2),
    ("y", "-"): np.array([1, -1j], complex) / np.sqrt(2),
    ("z", "u"): np.array([1, 0], complex),
    ("z", "d"): np.array([0, 1], complex),
}


def parse_state(spec: str, n: int) -> StateVector:
    """'uud' is a z product state; 'x:+-' and 'y:-+' rotate the basis."""
    if not isinstance(spec, str):
        raise ConfigError(f"initial state {spec!r} is not a string")
    if ":" in spec:
        basis, labels = spec.split(":", 1)
    else:
        basis, labels = "z", spec
    if basis not in "xyz" or len(labels) != n:
        raise ConfigError(f"bad initial state {spec!r} for {n} spins")
    amps = np.array([1.0 + 0j])
    for c in labels:  # spin 0 first = lowest bit, so it stays innermost
        key = (basis, c)
        if key not in _BASIS_VECS:
            raise ConfigError(f"bad spin label {c!r} in state {spec!r}")
        amps = np.kron(_BASIS_VECS[key], amps)
    return StateVector(n, amps)


def parse_observable(spec, n: int):
    """Return (label, fn, is_probability); fn maps amplitudes (2^n, k) to values (k,).

    A single state is the batch ``state.amps[:, None]``.
    """
    if not isinstance(spec, str):
        raise ConfigError(f"observable {spec!r} is not a string")
    parts = spec.split(":")
    if parts[0] == "pauli" and len(parts) == 2:
        try:
            p = PauliString(n, parts[1])
        except ValueError as e:
            raise ConfigError(f"observable {spec!r} on {n} spins: {e}") from e
        return spec, partial(expectations, p=p), False
    if parts[0] == "pop" and len(parts) == 3:
        bra = parse_state(f"{parts[1]}:{parts[2]}", n).amps.conj()
        return spec, lambda amps: np.abs(np.einsum("i,ik->k", bra, amps)) ** 2, True
    if parts[0] == "ham" and len(parts) == 2:
        if not parts[1].isdecimal() or int(parts[1]) > n:
            raise ConfigError(f"observable {spec!r}: hamming weight must be an integer in 0..{n}")
        mask = _popcounts(n) == int(parts[1])
        return spec, lambda amps: (np.abs(amps[mask]) ** 2).sum(axis=0), True
    if spec == "tangle":
        if n != 2:
            raise ConfigError(f"observable 'tangle' needs exactly 2 spins, not {n}")
        return spec, tangles, True
    raise ConfigError(f"unknown observable {spec!r}")


def _rows(variant: str, thetas, observables, amps: np.ndarray) -> list:
    """One CSV row per theta, scoring the states in the columns of amps."""
    vals = np.array([fn(amps) for _, fn, _ in observables]).reshape(len(observables), len(thetas))
    return [(variant, th, list(v), None) for th, v in zip(thetas, vals.T)]


def _columns(states) -> np.ndarray:
    return np.stack([s.amps for s in states], axis=1)


# -- scenario execution ------------------------------------------------------


def _run_sweep(sc: Scenario, out_dir: str) -> str:
    """Sweep-mode execution: recompile a single-block program per point."""
    digital = _columns(
        apply_sequence(sc.psi0, sc.program(theta=float(th)).sequence) for th in sc.sweep
    )
    exact = Exact(sc.model).states(sc.psi0, sc.sweep)
    pairs = zip(_rows("exact", sc.sweep, sc.observables, exact),
                _rows("digital", sc.sweep, sc.observables, digital))
    return _write_csv(sc, out_dir, [row for pair in pairs for row in pair])


def _write_csv(sc: Scenario, out_dir, rows) -> str:
    labels = [o[0] for o in sc.observables]
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, sc.name + ".csv")
    with open(path, "w", newline="") as f:
        header = ["variant", "theta"] + labels + [f"{l}_err" for l in labels]
        f.write(",".join(header) + "\n")
        for variant, th, vals, errs in rows:
            errs = errs if errs is not None else [0.0] * len(vals)
            f.write(",".join([variant, _fmt(th)] + [_fmt(v) for v in vals] + [_fmt(e) for e in errs]) + "\n")
    return path


def run_scenario(ref: str, out_dir: str = ".", seed_override: int | None = None) -> str:
    """Execute one scenario and return the written CSV path."""
    sc = load_scenario(ref)
    if sc.sweep is not None:
        return _run_sweep(sc, out_dir)
    prog = sc.program()
    cp_thetas = prog.checkpoint_thetas()
    exact = Exact(sc.model)
    fine = np.linspace(0.0, cp_thetas[-1], max(4 * len(cp_thetas), 32) + 1)
    rows = _rows("exact", fine, sc.observables, exact.states(sc.psi0, fine))
    rows += _rows("digital", cp_thetas, sc.observables, _columns(prog.checkpoint_states(sc.psi0)))
    if sc.verify is not None:
        _verify(sc, exact, prog)
    if sc.noise is not None:
        noise = sc.noise if seed_override is None else replace(sc.noise, seed=seed_override)
        outcomes = [(fn, is_prob) for _, fn, is_prob in sc.observables]
        est, err = sample_checkpoints(prog.sequence, sc.psi0, outcomes, prog.checkpoints, noise)
        for th, vals, errs in zip(cp_thetas, est, err):
            rows.append(("noisy", th, list(vals), list(errs)))
    return _write_csv(sc, out_dir, rows)


def _verify(sc: Scenario, exact: Exact, prog) -> None:
    want, tol = sc.verify
    target = exact.propagator(prog.checkpoint_thetas()[-1])
    got = process_fidelity(target, sequence_unitary(prog.sequence))
    if abs(got - want) > tol:
        raise VerificationError(
            f"process fidelity {got:.6f} differs from expected {want} by more than {tol}"
        )


# -- fixture-based fidelity bounds ------------------------------------------


def _cell_range(column: str) -> tuple | None:
    """The [low, high] a truth-table column's values must lie in; None for a label column.

    Fidelities and populations are probabilities and parities expectations of
    a +-1 observable; the standard error of either is at most 1.
    """
    if column.endswith("_unc") or column == "fidelity" or column.startswith("population"):
        return 0.0, 1.0
    if column.startswith("parity"):
        return -1.0, 1.0
    return None


def _read_fixture(path: str):
    """(header, rows) of a truth-table CSV, each row a dict of its cells.

    This is where every value cell is parsed to a float and checked to lie in
    its column's range; a NaN or infinite cell lies in none.
    """
    with open(path) as f:
        header = f.readline().strip().split(",")
        if "fidelity" not in header:
            raise ConfigError(f"fixture {path} has no fidelity column")
        rows = []
        for line in f:
            if not line.strip():
                continue
            cells = line.strip().split(",")
            if len(cells) != len(header):
                raise ConfigError(f"fixture {path} has a row of {len(cells)} cells, not {len(header)}")
            row = dict(zip(header, cells))
            for column, cell in row.items():
                bounds = _cell_range(column)
                if bounds is not None:
                    row[column] = float(cell)
                    if not bounds[0] <= row[column] <= bounds[1]:
                        raise ConfigError(f"fixture {path}: {column} {cell} outside [{bounds[0]:g}, {bounds[1]:g}]")
            rows.append(row)
    return header, rows


def _mean(entries: list) -> tuple:
    """Mean fidelity of (fidelity, uncertainty) pairs and its quadrature-propagated uncertainty."""
    fids = np.array([f for f, _ in entries])
    uncs = np.array([u for _, u in entries])
    return float(fids.mean()), float(np.sqrt(np.sum(uncs**2)) / len(entries))


def bound_from_fixtures(paths, theta: float = np.pi / 4) -> dict:
    """Two-sided process fidelity bound from truth-table fixture CSVs.

    Fixtures with parity columns form the entangling-basis group, the
    rest the eigenbasis group; per-group fidelity averages feed the
    complementary-bases inequality. Parity-table fidelities are also
    recomputed from parities and populations at the given target angle
    as a cross-check.
    """
    if not math.isfinite(theta):
        raise ConfigError(f"theta must be finite, got {theta}")
    eigen, entangling, recomputed = [], [], []
    try:
        for path in paths:
            header, rows = _read_fixture(path)
            parity_cols = sorted(
                (h for h in header if h.startswith("parity") and not h.endswith("_unc")),
                key=lambda h: int(h[len("parity"):]),
            )
            signs = tuple((-1) ** i for i in range(len(parity_cols)))
            for row in rows:
                (entangling if parity_cols else eigen).append((row["fidelity"], row.get("fidelity_unc", 0.0)))
                if parity_cols:
                    parities = tuple(row[c] for c in parity_cols)
                    rec = GhzMeasurementRecord(theta, row["population1"], row["population2"], parities, signs)
                    recomputed.append(ghz_fidelity(rec))
    except ValueError as e:  # a non-numeric cell or one outside its range; ConfigError too
        raise ConfigError(f"bad truth table: {e}") from e
    if not eigen or not entangling:
        raise ConfigError("need at least one eigenbasis and one parity fixture")
    (F1, u1), (F2, u2) = _mean(eigen), _mean(entangling)
    return {
        "F1": F1, "F1_unc": u1, "F2": F2, "F2_unc": u2,
        **hofmann_bounds(F1, F2, u1, u2),
        "F2_recomputed": float(np.mean(recomputed)),
    }


def bundled_fixture(name: str) -> str:
    return str(resources.files("trotterion") / "fixtures" / name)


# -- command line ------------------------------------------------------------


def _cmd_run(args) -> int:
    raw = os.environ.get("TROTTERION_SEED")
    if raw is not None and not raw.strip().isdecimal():
        raise ConfigError(f"TROTTERION_SEED must be a nonnegative integer, got {raw!r}")
    seed = None if raw is None else int(raw)
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be an integer >= 1, got {args.jobs}")
    refs = args.scenario
    if args.jobs > 1 and len(refs) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(args.jobs, len(refs))) as pool:
            paths = list(pool.map(run_scenario, refs, [args.out] * len(refs), [seed] * len(refs)))
    else:
        paths = [run_scenario(ref, args.out, seed) for ref in refs]
    for p in paths:
        print(p)
    return 0


def _cmd_compile(args) -> int:
    print(load_scenario(args.scenario).program(steps=args.steps).sequence.to_text())
    return 0


def _cmd_inspect(args) -> int:
    sc = load_scenario(args.scenario)
    prog = sc.program(steps=args.steps)
    stats = sequence_stats(prog.sequence, DurationModel())
    print(f"scenario: {sc.name}")
    print(f"gates: {stats['gate_count']}")
    print(f"wall_time_us: {_fmt(stats['wall_time_us'])}")
    print(f"checkpoints: {len(prog.checkpoints)}")
    return 0


def _cmd_list(_args) -> int:
    for name in bundled_scenarios():
        print(name)
    return 0


def _cmd_bound(args) -> int:
    report = bound_from_fixtures(args.tables, args.theta)
    print(json.dumps({k: round(v, 9) for k, v in report.items()}, indent=2))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="trotterion")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute scenarios and write CSV results")
    p.add_argument("scenario", nargs="+")
    p.add_argument("--out", default=".")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("compile", help="print the gate program of a scenario")
    p.add_argument("scenario")
    p.add_argument("--steps", type=int, default=None)
    p.set_defaults(fn=_cmd_compile)

    p = sub.add_parser("inspect", help="gate count and wall time of a scenario")
    p.add_argument("scenario")
    p.add_argument("--steps", type=int, default=None)
    p.set_defaults(fn=_cmd_inspect)

    p = sub.add_parser("list", help="enumerate bundled scenarios")
    p.set_defaults(fn=_cmd_list)

    p = sub.add_parser("bound", help="fidelity bound from truth-table fixtures")
    p.add_argument("--tables", nargs="+", required=True)
    p.add_argument("--theta", type=float, default=np.pi / 4)
    p.set_defaults(fn=_cmd_bound)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, json.JSONDecodeError, UnicodeDecodeError, OSError, KeyError) as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    except CompileError as e:
        print(f"compilation error: {e}", file=sys.stderr)
        return 3
    except VerificationError as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
