"""Output checks against references that do not come from the code under test.

* ``bundled``: the CSVs recorded at the seed commit (reference/bundled).
* ``wide``: an evolution in the (n+1)-dimensional symmetric subspace.
  For a permutation-symmetric state, B sum_k Z_k + J sum_{i<j} X_i X_j
  acts on the Dicke states |D_k> (k spins down) only, so both the exact
  propagator and the O4-then-O2 Trotter product are (n+1)x(n+1) matrices.
* ``graphs``: the X-basis diagonal target exp(-i theta sum_{i<j} J_ij s_i s_j),
  built with a Walsh-Hadamard matrix.
"""
from __future__ import annotations

import csv
import hashlib
import json
import os
from math import comb

import numpy as np

WIDE_TOL = 1e-9
GRAPH_TOL = 1e-9

_SPIN = {
    "u": (1.0, 0.0),
    "d": (0.0, 1.0),
    "x:+": (2**-0.5, 2**-0.5),
    "x:-": (2**-0.5, -(2**-0.5)),
    "y:+": (2**-0.5, 1j * 2**-0.5),
    "y:-": (2**-0.5, -1j * 2**-0.5),
}


def read_csv(path: str):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


# -- bundled ----------------------------------------------------------------


def load_bundled_reference(directory: str) -> dict:
    """Manifest of the reference CSVs, after checking each file's SHA-256."""
    with open(os.path.join(directory, "bundled.json")) as f:
        manifest = json.load(f)
    for name, entry in manifest["csv"].items():
        with open(os.path.join(directory, "bundled", name + ".csv"), "rb") as f:
            if hashlib.sha256(f.read()).hexdigest() != entry["sha256"]:
                raise ValueError(f"reference CSV {name} does not match its recorded SHA-256")
    return manifest


def compare_csv(got_path: str, ref_path: str, abs_tol: float):
    """(within tolerance, byte-identical, message) for one CSV."""
    with open(got_path, "rb") as f:
        got = f.read()
    with open(ref_path, "rb") as f:
        ref = f.read()
    if got == ref:
        return True, True, ""
    got_header, got_rows = read_csv(got_path)
    ref_header, ref_rows = read_csv(ref_path)
    if got_header != ref_header or len(got_rows) != len(ref_rows):
        return False, False, "header or row count differs"
    for r, (a, b) in enumerate(zip(got_rows, ref_rows)):
        if len(a) != len(b) or a[0] != b[0]:
            return False, False, f"row {r + 1}: variant or width differs"
        diff = np.max(np.abs(np.array(a[1:], float) - np.array(b[1:], float)))
        if not diff <= abs_tol:
            return False, False, f"row {r + 1}: differs by {diff:.3g} > {abs_tol}"
    return True, False, ""


# -- wide -------------------------------------------------------------------


def _collective(n: int):
    """sum_k Z_k and sum_k X_k on the Dicke basis |D_0>..|D_n>."""
    s = n / 2
    m = s - np.arange(n + 1)  # Sz eigenvalue of |D_k>
    z = np.diag(2 * m)
    # S+ |D_k> = sqrt(s(s+1) - m(m+1)) |D_{k-1}>
    up = np.zeros((n + 1, n + 1))
    for k in range(1, n + 1):
        up[k - 1, k] = np.sqrt(s * (s + 1) - m[k] * (m[k] + 1))
    return z, up + up.T


def _evolve(h: np.ndarray, theta: float) -> np.ndarray:
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * theta * w)) @ v.conj().T


def _dicke_state(label: str, n: int) -> np.ndarray:
    """Dicke amplitudes sqrt(C(n,k)) a^(n-k) b^k of the product state (a, b)^n."""
    basis, _, chars = label.rpartition(":")
    key = f"{basis}:{chars[0]}" if basis else chars[0]
    if len(set(chars)) != 1 or len(chars) != n or key not in _SPIN:
        raise ValueError(f"initial state {label!r} is not a symmetric product state")
    a, b = _SPIN[key]
    return np.array([np.sqrt(comb(n, k)) * a ** (n - k) * b**k for k in range(n + 1)], complex)


def wide_reference(scenario: dict):
    """Hamming-weight probabilities on the exact grid and at the checkpoints.

    Returns (exact thetas, exact probabilities, checkpoint thetas,
    digital probabilities); the exact grid is the CSV's fine grid of
    max(4 steps, 32) + 1 points.
    """
    n, B, J = scenario["model"]["n"], scenario["model"]["B"], scenario["model"]["J"]
    theta, steps = scenario["compile"]["theta"], scenario["compile"]["steps"]
    z, x = _collective(n)
    h = B * z + J * (x @ x - n * np.eye(n + 1)) / 2
    psi0 = _dicke_state(scenario["initial_state"], n)
    fine = np.linspace(0.0, theta, max(4 * steps, 32) + 1)
    exact = np.array([np.abs(_evolve(h, t) @ psi0) ** 2 for t in fine])
    dtheta = theta / steps
    step = _evolve(B * z, dtheta) @ _evolve(J * (x @ x - n * np.eye(n + 1)) / 2, dtheta)
    digital, psi = [], psi0
    for _ in range(steps):
        psi = step @ psi
        digital.append(np.abs(psi) ** 2)
    cps = theta * np.arange(1, steps + 1) / steps
    return fine, exact, cps, np.array(digital)


def check_wide_csv(path: str, scenario: dict, tol: float = WIDE_TOL) -> str:
    """Empty string when exact and digital rows match the reference to tol."""
    header, rows = read_csv(path)
    n = scenario["model"]["n"]
    labels = [f"ham:{k}" for k in range(n + 1)]
    if header != ["variant", "theta"] + labels + [f"{l}_err" for l in labels]:
        return "unexpected header"
    fine, exact, cps, digital = wide_reference(scenario)
    for variant, thetas, want in (("exact", fine, exact), ("digital", cps, digital)):
        got = [r for r in rows if r[0] == variant]
        if len(got) != len(thetas):
            return f"{len(got)} {variant} rows, expected {len(thetas)}"
        vals = np.array([r[1:] for r in got], float)
        if np.max(np.abs(vals[:, 0] - thetas)) > 1e-8 * max(1.0, thetas[-1]):
            return f"{variant} theta grid differs"
        err = np.max(np.abs(vals[:, 1 : n + 2] - want))
        if not err <= tol:
            return f"{variant} rows differ from the symmetric-subspace reference by {err:.3g}"
        if np.any(vals[:, n + 2 :] != 0):
            return f"{variant} rows carry nonzero errors"
    if len(rows) != len(fine) + len(cps):
        return "unexpected extra rows"
    return ""


# -- graphs -----------------------------------------------------------------


def xbasis_target(J, theta: float) -> np.ndarray:
    """exp(-i theta sum_{i<j} J_ij X_i X_j) as W diag(phases) W.

    W is the n-fold Hadamard (Walsh) matrix; s_i = 1 - 2 bit_i is the X
    eigenvalue of spin i in the rotated basis.
    """
    J = np.asarray(J, float)
    n = J.shape[0]
    idx = np.arange(2**n)
    bits = (idx[:, None] >> np.arange(n)) & 1
    s = 1 - 2 * bits
    energy = np.einsum("ai,ij,aj->a", s, np.triu(J, 1), s)
    parity = np.array([bin(k).count("1") & 1 for k in range(2**n)])
    w = (1 - 2 * parity[idx[:, None] & idx[None, :]]) / np.sqrt(2**n)
    return (w * np.exp(-1j * theta * energy)) @ w


def check_graph(u: np.ndarray, fidelity: float, J, theta: float, tol: float = GRAPH_TOL) -> str:
    """Empty string when u equals the target up to a global phase, to tol."""
    target = xbasis_target(J, theta)
    if u.shape != target.shape:
        return f"unitary has shape {u.shape}, expected {target.shape}"
    overlap = np.trace(target.conj().T @ u)
    err = np.max(np.abs(u - target * np.exp(1j * np.angle(overlap))))
    if not err <= tol:
        return f"compiled unitary differs from the X-basis target by {err:.3g}"
    if not abs(1.0 - fidelity) <= tol:
        return f"package process fidelity {fidelity!r} is not 1 within {tol}"
    return ""
