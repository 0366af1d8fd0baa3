"""First-order saddle-point solver for minimum-cost free material optimization."""

from .diagnostics import (
    BoundConstants,
    approximation_certificate,
    compute_constants,
    flop_model,
    flop_report,
    gap_estimate,
    optimal_parameters,
    theoretical_gap_bound,
)
from .fem2d import (
    LoadSpec,
    MeshSpec,
    build_instance,
    read_instance,
    read_state,
    reference_compliance,
    write_instance,
    write_state,
)
from .model import (
    DimensionMismatch,
    DualState,
    FlopCounter,
    FmoError,
    InvalidInstance,
    MaterialState,
    NumericalFailure,
    ProblemInstance,
    apply_A,
    apply_B,
    apply_Bt,
    feasible_E,
    lagrangian_value,
)
from .penalty import penalty_grad_correction, penalty_value
from .proj import (
    BoxTraceLS,
    SpectralProjection,
    proj_sym_g,
    proj_sym_l,
    project_spectral,
    reduce_ls,
    solve_box_trace_ls,
    solve_ls,
)
from .saddle import (
    DualAccumulators,
    IterationRecord,
    SigmaController,
    SolveResult,
    SolverConfig,
    StepSchedule,
    averaged_primal,
    da_step,
    run_solver,
    subgradients,
)

__version__ = "0.1.0"
