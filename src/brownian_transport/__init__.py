"""Brownian mass transport between one-dimensional measures.

A deterministic freeze/diffuse engine computes bounded Brownian transports
on a lattice; a pipeline assembles from it a non-constant function phi with
X + phi(X) * Y Gaussian for independent standard Gaussians X, Y; Monte-Carlo
and analytic checks verify the construction.
"""

from .errors import (
    ConsistencyError,
    NonTerminationError,
    NumericToleranceError,
    PreconditionError,
)
from .lattice import LatticeMeasure, discretize
from .measures import (
    CantorSet,
    DensityMeasure,
    GapConstants,
    build_cantor,
    cantor_gap_constants,
    from_pieces,
    gamma_center,
    gaussian,
    truncate_normalize,
)
from .montecarlo import (
    EmpiricalMeasure,
    PathSimConfig,
    expected_time_check,
    hermite_check,
    ks_distance,
    ks_distance_lattice,
    simulate_counterexample,
    simulate_first_intersection,
)
from .pipeline import (
    AsymptoticsReport,
    CantelliConfig,
    CantelliResult,
    build_problem,
    crossing_radius,
    f1_asymptotics_report,
    run_pipeline,
)
from .solver import (
    InvariantCheck,
    PiecewiseLinear,
    SolverState,
    TransportSolution,
    extend_f,
    init_state,
    solve,
    solve_batch,
    start_state,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticsReport",
    "CantelliConfig",
    "CantelliResult",
    "CantorSet",
    "ConsistencyError",
    "DensityMeasure",
    "EmpiricalMeasure",
    "GapConstants",
    "InvariantCheck",
    "LatticeMeasure",
    "NonTerminationError",
    "NumericToleranceError",
    "PathSimConfig",
    "PiecewiseLinear",
    "PreconditionError",
    "SolverState",
    "TransportSolution",
    "build_cantor",
    "build_problem",
    "cantor_gap_constants",
    "crossing_radius",
    "discretize",
    "expected_time_check",
    "extend_f",
    "f1_asymptotics_report",
    "from_pieces",
    "gamma_center",
    "gaussian",
    "hermite_check",
    "init_state",
    "ks_distance",
    "ks_distance_lattice",
    "run_pipeline",
    "simulate_counterexample",
    "simulate_first_intersection",
    "solve",
    "solve_batch",
    "start_state",
    "truncate_normalize",
]
