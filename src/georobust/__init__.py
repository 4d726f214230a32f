"""Geometric quantum gates as piecewise-constant pulse schedules, with
super-robust condition checks, perturbative fidelity laws, and open-system
sweeps."""

from .errors import (
    ConfigError,
    GeorobustError,
    InvariantError,
    SerializationError,
    SolverError,
)
from .gates import (
    FAMILIES,
    NAMED_GATES,
    SR_FAMILIES,
    GateSpec,
    PhaseJumpSolution,
    assemble_schedule,
    family_build,
    solve_phase_jumps,
    target_unitary,
)
from .lindblad import (
    CollapseChannel,
    cardinal_states,
    check_density,
    lindblad_rhs,
    open_gate_metrics,
    propagate_density,
    standard_channels,
)
from .pulses import (
    ErrorModel,
    PulseSchedule,
    PulseSegment,
    bright_dark,
    load_schedule,
    pulse_area,
    save_schedule,
    schedule_from_text,
    schedule_propagator,
    schedule_to_text,
    segment_hamiltonian,
    segment_propagator,
)
from .robustness import (
    d_matrix,
    frame_anchor,
    dynamical_integrals,
    fidelity_prediction,
    gate_fidelity,
    geometric_phase,
    leakage,
    magnus_gate_approx,
    magnus_terms,
    order_fit,
    propagator_fidelity,
    quadratic_coefficient,
    src_phasors,
    src_residual,
)
from .sweep import (
    SweepConfig,
    SweepRow,
    beta_grid,
    check_src_report,
    delta_rows,
    deltas_to_csv,
    report_table1,
    rows_to_csv,
    run_sweep,
    sweep_beta,
)

__version__ = "0.1.0"
