"""Energy-gap extraction from observable time traces.

A level pair (E_a, E_b) both populated by the initial state produces an
oscillation cos((E_b - E_a) theta) in observable expectations, so the
magnitude spectrum of a trace peaks at the populated gaps. Frequencies
are reported in angular units: a gap dE peaks at frequency dE.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .oracle import Spectrum, level_populations, spectrum
from .pauli import StateVector

POPULATION_TOL = 1e-9


@dataclass(frozen=True)
class ObservableTrace:
    """Real observable values on a uniform theta grid."""

    thetas: np.ndarray
    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        thetas = np.asarray(self.thetas, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if thetas.shape != values.shape or thetas.ndim != 1:
            raise ValueError("thetas and values must be matching 1-d arrays")
        if len(thetas) >= 2:
            d = np.diff(thetas)
            if np.max(np.abs(d - d[0])) > 1e-12:
                raise ValueError("theta grid must be uniformly spaced")
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "values", values)

    @property
    def spacing(self) -> float:
        return float(self.thetas[1] - self.thetas[0])


def spectrum_of_trace(trace: ObservableTrace, zero_pad: int = 1):
    """Magnitude spectrum of the mean-subtracted trace.

    Returns (angular frequencies, amplitudes). zero_pad > 1 evaluates
    the transform on a grid that many times finer; it sharpens peak
    localization but adds no information.
    """
    if len(trace.values) < 8:
        raise ValueError("need at least 8 samples")
    if zero_pad < 1:
        raise ValueError("zero_pad must be >= 1")
    centered = trace.values - trace.values.mean()
    m = len(centered) * zero_pad
    amps = np.abs(np.fft.rfft(centered, n=m)) / len(centered)
    freqs = 2 * np.pi * np.fft.rfftfreq(m, d=trace.spacing)
    return freqs, amps


def dominant_frequency(trace: ObservableTrace, zero_pad: int = 1) -> float:
    """Location of the largest nonzero-frequency peak."""
    freqs, amps = spectrum_of_trace(trace, zero_pad)
    return float(freqs[1:][np.argmax(amps[1:])])


def predicted_gaps(h, psi0: StateVector):
    """Observable energy gaps with their population-product weights.

    Only level pairs both populated above POPULATION_TOL by the initial
    state contribute; the returned list is sorted by descending weight.
    """
    spec: Spectrum = spectrum(h)
    pops = level_populations(psi0, spec)
    energies = spec.level_energies()
    out = []
    for a in range(len(energies)):
        for b in range(a + 1, len(energies)):
            if pops[a] > POPULATION_TOL and pops[b] > POPULATION_TOL:
                out.append((float(energies[b] - energies[a]), float(pops[a] * pops[b])))
    return sorted(out, key=lambda t: -t[1])
