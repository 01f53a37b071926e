"""Seeded inputs of the three benchmark workloads and the code that runs one item.

An item is one scenario (``bundled``, ``wide``) or one coupling graph
(``graphs``). Inputs depend only on the workload seed; the package sees
only the generated scenario files and graphs.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("bundled", "wide", "graphs")

# The cheapest bundled scenario; running it once before timing moves
# first-call costs into set-up.
BUNDLED_WARMUP = "fig1a_n1"
# The two noisy ensembles take ~90% of a bundled pass. They split it into
# three stretches seconds apart, and the sixteen short scenarios, which set
# item_s_p50 and item_s_tail, are dealt out over the three in turn (in name
# order); the scenarios near the median (fig2_*, fig3*, figs6) then run in
# all three stretches, so a few seconds of machine slowdown moves only part
# of them.
BUNDLED_SPACERS = ("figs8", "figs9")

# Spin counts of one wide pass: two n=8 scenarios and one n=9 scenario,
# about 15 s at the seed commit, 95% of it in the dense oracle.
WIDE_SPINS = (8, 8, 9)
WIDE_STEPS = 6  # few enough that the oracle's fine grid keeps its 33 points

# Graphs per spin count in one pass. Sorted by time the items form three
# blocks (n=4 ~0.02 s, n=5 ~0.15 s, n=6 ~1.3 s); with these counts both
# the middle third of the items (item_s_p50) and the tail percentile lie
# inside the n=5 block, away from its edges.
GRAPH_COUNTS = {4: 8, 5: 24, 6: 3}

_SPIN_STATES = ("u", "d", "x:+", "x:-", "y:+", "y:-")


@dataclass(frozen=True)
class Item:
    """One unit of work: a bundled name, a generated scenario, or a graph."""

    name: str
    n: int
    spec: dict


def _rng(seed: int, workload: str, stream: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload), stream])


def symmetric_state(label: str, n: int) -> str:
    """Scenario initial-state string with every spin in the same state."""
    if ":" in label:
        basis, c = label.split(":")
        return f"{basis}:{c * n}"
    return label * n


def wide_scenario(name: str, n: int, rng: np.random.Generator) -> dict:
    """Long-range Ising scenario (schema 1) with drawn couplings and phase."""
    return {
        "schema": 1,
        "name": name,
        "model": {
            "preset": "long_range",
            "n": n,
            "B": float(rng.uniform(0.45, 0.55)),
            "J": float(rng.uniform(0.5, 1.5)),
        },
        "compile": {
            "method": "first_order",
            "theta": float(rng.uniform(2.1, 2.4)),
            "steps": WIDE_STEPS,
        },
        "initial_state": symmetric_state(_SPIN_STATES[rng.integers(len(_SPIN_STATES))], n),
        "observables": [f"ham:{k}" for k in range(n + 1)],
    }


def random_couplings(rng: np.random.Generator, n: int) -> np.ndarray:
    """Symmetric integer couplings in 0..3 with at least one nonzero pair."""
    iu = np.triu_indices(n, 1)
    while True:
        J = np.zeros((n, n))
        J[iu] = rng.integers(0, 4, len(iu[0]))
        if J.any():
            return J + J.T


def _graph_item(name: str, n: int, rng: np.random.Generator) -> Item:
    J = random_couplings(rng, n)
    return Item(name, n, {"J": J.tolist(), "theta": float(rng.uniform(0.2, 1.6))})


def bundled_order(names) -> list:
    """The spacers between three stretches of the other names, dealt out in turn."""
    rest = sorted(n for n in names if n not in BUNDLED_SPACERS)
    spacers = [n for n in BUNDLED_SPACERS if n in names]
    stretches = len(spacers) + 1
    order = []
    for k in range(stretches):
        order += rest[k::stretches] + spacers[k : k + 1]
    return order


def generate(workload: str, seed: int, bundled_names) -> tuple:
    """(items of one pass, warm-up item); the same seed gives the same inputs.

    ``bundled`` does not depend on the seed: its scenarios and their noise
    seeds stay as shipped, so that every CSV can be compared with the seed
    commit's bytes, and its order is fixed (see BUNDLED_SPACERS).
    """
    rng = _rng(seed, workload)
    warm_rng = _rng(seed, workload, stream=1)
    if workload == "bundled":
        return [Item(name, 0, {"ref": name}) for name in bundled_order(bundled_names)], Item(
            BUNDLED_WARMUP, 0, {"ref": BUNDLED_WARMUP}
        )
    if workload == "wide":
        items = [
            Item(f"wide{k}_n{n}", n, wide_scenario(f"wide{k}_n{n}", n, rng))
            for k, n in enumerate(WIDE_SPINS)
        ]
        return items, Item("wide_warmup_n4", 4, wide_scenario("wide_warmup_n4", 4, warm_rng))
    if workload == "graphs":
        items = [
            _graph_item(f"g{n}_{k}", n, rng) for n, count in GRAPH_COUNTS.items() for k in range(count)
        ]
        return [items[i] for i in rng.permutation(len(items))], _graph_item("g4_warmup", 4, warm_rng)
    raise ValueError(f"unknown workload {workload!r}")


def write_scenarios(items, directory: str) -> dict:
    """Write generated scenarios as JSON files; returns name -> path."""
    paths = {}
    for item in items:
        path = os.path.join(directory, item.name + ".json")
        with open(path, "w") as f:
            json.dump(item.spec, f, indent=2)
        paths[item.name] = path
    return paths


def run_item(tr, workload: str, item: Item, ref: str, out_dir: str):
    """Run one item through the package's public entry points.

    ``tr`` holds the package modules; functions are looked up on them at
    call time so that rebound (traced) versions are the ones called.
    Scenario items return the CSV path; graph items return
    (program, compiled unitary, process fidelity against the oracle).
    """
    if workload in ("bundled", "wide"):
        return tr.cli.run_scenario(ref, out_dir)
    g = tr.models.CouplingGraph(item.n, np.array(item.spec["J"]))
    theta = item.spec["theta"]
    prog = tr.compiler.compile_coupling_graph(g, theta)
    u = tr.gates.sequence_unitary(prog.sequence)
    fid = tr.metrics.process_fidelity(tr.oracle.propagator(tr.models.coupling_graph_model(g), theta), u)
    return prog, u, fid
