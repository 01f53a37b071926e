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
    TrotterPlan,
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
    gate_unitary,
    sequence_stats,
    sequence_unitary,
)
from .metrics import (
    FidelityBound,
    GhzMeasurementRecord,
    ProcessMatrix,
    TruthTable,
    chi_overlap,
    complementary_check,
    decoherence_group_analysis,
    ghz_fidelity,
    ghz_record_from_state,
    hofmann_bounds,
    process_fidelity,
    simulate_qpt,
    state_fidelity,
    tangle2,
    truth_table,
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
    DegenerateGroundState,
    Spectrum,
    instantaneous_ground_state,
    level_populations,
    propagator,
    ramp_evolution,
    spectrum,
    time_ordered_propagator,
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
