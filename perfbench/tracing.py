"""Spans around the package's public functions, installed from benchmark code.

A function is wrapped by rebinding every name that refers to it in the
package's modules (``gates.apply_gate`` and ``compiler.apply_gate`` alike),
so the package itself is not edited. Spans (name, start, end, parent)
stay in memory until the run writes them out.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

PACKAGE = "trotterion"

# span name -> (module, attribute); a dotted attribute names a method.
TRACED = {
    "cli.run_scenario": ("cli", "run_scenario"),
    "cli.load_scenario": ("cli", "load_scenario"),
    "gates.apply_gate": ("gates", "apply_gate"),
    "gates.sequence_unitary": ("gates", "sequence_unitary"),
    "noise.perturb_sequence": ("noise", "perturb_sequence"),
    "noise.apply_miscalibration": ("noise", "apply_miscalibration"),
    "noise.run_noisy_ensemble": ("noise", "run_noisy_ensemble"),
    "oracle.propagator": ("oracle", "propagator"),
    "oracle.ramp_evolution": ("oracle", "ramp_evolution"),
    "oracle.time_ordered_propagator": ("oracle", "time_ordered_propagator"),
    "pauli.hamiltonian_matrix": ("pauli", "hamiltonian_matrix"),
    "pauli.expectation": ("pauli", "expectation"),
    "pauli.hamming_histogram": ("pauli", "hamming_histogram"),
    "pauli.StateVector.overlap": ("pauli", "StateVector.overlap"),
    "metrics.process_fidelity": ("metrics", "process_fidelity"),
    "metrics.tangle2": ("metrics", "tangle2"),
}

GATE_KINDS = ("O1", "O2", "O3", "O4")


def compile_functions(compiler_module) -> dict:
    """Every public ``compile_*`` function defined in the compiler module."""
    return {
        name: fn
        for name, fn in vars(compiler_module).items()
        if name.startswith("compile_") and callable(fn)
        and getattr(fn, "__module__", None) == compiler_module.__name__
    }


class Rebinder:
    """Replaces functions under every name the package binds them to."""

    def __init__(self):
        self._undo = []

    def replace(self, original, replacement) -> int:
        count = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))
                    count += 1
        return count

    def replace_method(self, cls, name: str, replacement) -> None:
        self._undo.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, replacement)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class CompileLog:
    """Keeps the programs returned by outermost compile calls (tracing off too)."""

    def __init__(self):
        self.programs = []
        self._depth = 0

    def wrap(self, fn):
        @functools.wraps(fn)
        def logged(*args, **kwargs):
            self._depth += 1
            try:
                prog = fn(*args, **kwargs)
            finally:
                self._depth -= 1
            if self._depth == 0:
                self.programs.append(prog)
            return prog

        return logged

    def install(self, tr, rebinder: Rebinder) -> None:
        for fn in compile_functions(tr.compiler).values():
            rebinder.replace(fn, self.wrap(fn))

    def take(self) -> list:
        out, self.programs = self.programs, []
        return out


class Tracer:
    """In-memory span recorder; self time = duration minus child spans."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, label=None):
        """Traced version of fn; label(args) may pick the span name per call."""
        nid = self.name_id(name)
        names, parents, starts, ends, stack, clock = (
            self.name, self.parent, self.start, self.end, self._stack, self.clock
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(label(args) if label is not None else nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def install(self, tr, rebinder: Rebinder) -> None:
        """Wrap the TRACED functions and every compile_* function."""
        kind_ids = {k: self.name_id(f"gates.apply_gate.{k}") for k in GATE_KINDS}
        labels = {"gates.apply_gate": lambda args: kind_ids[args[1].kind]}
        for span, (module, attr) in TRACED.items():
            mod = getattr(tr, module)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                if meth in cls.__dict__:
                    rebinder.replace_method(cls, meth, self.wrap(cls.__dict__[meth], span))
            elif hasattr(mod, attr):
                fn = getattr(mod, attr)
                rebinder.replace(fn, self.wrap(fn, span, labels.get(span)))
        for name in compile_functions(tr.compiler):
            fn = getattr(tr.compiler, name)
            rebinder.replace(fn, self.wrap(fn, f"compiler.{name}"))

    def __len__(self) -> int:
        return len(self.start)

    def summary(self, lo: int = 0, hi: int | None = None) -> dict:
        """name -> (calls, self seconds) over spans lo..hi, plus root seconds.

        Spans lo..hi must form whole trees (their parents are -1 or inside).
        """
        hi = len(self) if hi is None else hi
        name, parent, start, end = (a[lo:hi] for a in self.arrays())
        parent = parent - lo
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        calls = np.bincount(name, minlength=len(self.names))
        self_s = np.bincount(name, weights=self_time, minlength=len(self.names))
        out = {n: (int(calls[i]), float(self_s[i])) for i, n in enumerate(self.names)}
        out["<roots>"] = (int(np.sum(~has_parent)), float(np.sum(dur[~has_parent])))
        return out

    def arrays(self):
        """Copies of the span columns: name id, parent index, start, end."""
        return (
            np.array(self.name, np.int32),
            np.array(self.parent, np.int32),
            np.array(self.start, np.float64),
            np.array(self.end, np.float64),
        )

    def save(self, path: str) -> None:
        name, parent, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name, parent=parent, start=start, end=end)


def layer_metrics(summary: dict, passes: int) -> dict:
    """Per-pass per-layer metrics (name -> (value, unit)) from a span summary."""

    def calls(*names):
        return sum(summary.get(n, (0, 0.0))[0] for n in names) / passes

    def secs(*names):
        return sum(summary.get(n, (0, 0.0))[1] for n in names) / passes

    compiler = [n for n in summary if n.startswith("compiler.")]
    apply_kinds = [f"gates.apply_gate.{k}" for k in GATE_KINDS]
    noise = ["noise.perturb_sequence", "noise.apply_miscalibration", "noise.run_noisy_ensemble"]
    ramp = ["oracle.ramp_evolution", "oracle.time_ordered_propagator"]
    observables = ["pauli.expectation", "pauli.hamming_histogram", "pauli.StateVector.overlap"]
    metric_fns = ["metrics.process_fidelity", "metrics.tangle2"]
    apply_calls = calls(*apply_kinds)
    m = {
        "cli.load_calls": (calls("cli.load_scenario"), "count"),
        "cli.load_s": (secs("cli.load_scenario"), "s"),
        "cli.self_s": (secs("cli.run_scenario"), "s"),
        "compiler.calls": (calls(*compiler), "count"),
        "compiler.busy_s": (secs(*compiler), "s"),
        "compiler.graph_calls": (calls("compiler.compile_coupling_graph"), "count"),
        "compiler.graph_s": (secs("compiler.compile_coupling_graph"), "s"),
        "gates.apply_calls": (apply_calls, "count"),
        "gates.apply_s": (secs(*apply_kinds), "s"),
        "gates.apply_us_per_call": (1e6 * secs(*apply_kinds) / apply_calls if apply_calls else 0.0, "us"),
    }
    for k in GATE_KINDS:
        m[f"gates.apply_calls.{k}"] = (calls(f"gates.apply_gate.{k}"), "count")
        m[f"gates.apply_s.{k}"] = (secs(f"gates.apply_gate.{k}"), "s")
    m.update({
        "gates.unitary_calls": (calls("gates.sequence_unitary"), "count"),
        "gates.unitary_s": (secs("gates.sequence_unitary"), "s"),
        "noise.calls": (calls(*noise), "count"),
        "noise.busy_s": (secs(*noise), "s"),
        "oracle.propagator_calls": (calls("oracle.propagator"), "count"),
        "oracle.self_s": (secs("oracle.propagator"), "s"),
        "oracle.ramp_s": (secs(*ramp), "s"),
        "pauli.hamiltonian_calls": (calls("pauli.hamiltonian_matrix"), "count"),
        "pauli.hamiltonian_s": (secs("pauli.hamiltonian_matrix"), "s"),
        "pauli.observable_calls": (calls(*observables), "count"),
        "pauli.observable_s": (secs(*observables), "s"),
        "metrics.calls": (calls(*metric_fns), "count"),
        "metrics.busy_s": (secs(*metric_fns), "s"),
    })
    return m


# The layer self times that together cover every span exactly once.
SELF_TIME_METRICS = (
    "cli.load_s", "cli.self_s", "compiler.busy_s", "gates.apply_s", "gates.unitary_s",
    "noise.busy_s", "oracle.self_s", "oracle.ramp_s", "pauli.hamiltonian_s",
    "pauli.observable_s", "metrics.busy_s",
)
