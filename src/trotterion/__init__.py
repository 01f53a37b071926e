"""Stroboscopic compilation of spin models onto a trapped-ion gate set.

The package compiles Hamiltonians built from Pauli strings into
sequences over four global operations (single-spin light shifts,
collective light shifts, collective rotations, and a uniform two-spin
entangling interaction), executes them on an exact statevector engine,
and quantifies the digitization error against a matrix-exponential
oracle.
"""
from .compiler import (
    CompileError,
    CompiledProgram,
    compile_coupling_graph,
    compile_first_order,
    compile_many_body,
    compile_model_steps,
    compile_second_order,
    compile_time_dependent,
)
from .gates import (
    DurationModel,
    GateOp,
    GateSequence,
    apply_gate,
    apply_sequence,
    sequence_stats,
    sequence_unitary,
)
from .metrics import (
    GhzMeasurementRecord,
    ProcessMatrix,
    chi_overlap,
    ghz_fidelity,
    hofmann_bounds,
    process_fidelity,
    simulate_qpt,
    tangle2,
    unitary_chi,
)
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
from .noise import (
    NoiseParams,
    apply_miscalibration,
    perturb_sequence,
    sample_checkpoints,
    shot_states,
)
from .oracle import (
    Spectrum,
    level_populations,
    propagator,
    ramp_evolution,
    spectrum,
)
from .pauli import (
    DimensionError,
    PauliString,
    StateVector,
    WeightedPauliSum,
    apply_pauli,
    expectation,
    hamiltonian_matrix,
    hamming_histogram,
)
from .spectral import (
    ObservableTrace,
    dominant_frequency,
    predicted_gaps,
    spectrum_of_trace,
)

__version__ = "0.1.0"
