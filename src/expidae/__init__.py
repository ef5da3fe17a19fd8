"""Exponential integrators for semi-linear parabolic systems with linear constraints."""

from .errors import (
    DimensionMismatch,
    ExpidaeError,
    InconsistentInitialData,
    InconsistentState,
    NegativeEnergy,
    NoConvergence,
    NonFinite,
    SelfCheckFailed,
    SingularSaddle,
)
from .flow import DaeOperator, KrylovFlowResult, flow
from .harness import (
    ConvergenceTable,
    ReferenceSolution,
    build_reference,
    emit_csv,
    error_norm,
    run_convergence,
)
from .integrators import (
    ConstrainedSystem,
    Diagnostics,
    SchemeConfig,
    StepState,
    alt_euler_step,
    exponential_euler_step,
    integrate,
    kernel_solve,
    lift_constraint,
    second_order_family_step,
    second_order_step,
)
from .linalg import SaddleFactorization, kernel_project
from .phi import expm
from .problems import (
    DynBcConfig,
    NonSymConfig,
    Problem,
    ToyConfig,
    build_dynbc,
    build_nonsym,
    build_problem,
    build_toy,
)

__version__ = "0.1.0"
