"""1D variational segmentation and denoising with concave jump kernels.

Layers:

* kernel  - jump-cost kernels and their admissibility constants
* pwc     - piecewise-constant functions, grid signals, data models, energies
* exact   - closed-form minimizers, critical fidelity weights, jump bounds
* oracle  - brute-force discretized global minimization (level-grid DP)
* flow    - gradient-flow solvers (plain TV, phase-field quadratic/TV)
* experiments, svgplot, cli - reproduction harness and artifact emission
"""

from .errors import ConditionError, ConfigError, DivergenceError, InvariantViolation
from .exact import (
    BoundReport,
    CriticalLambda,
    EqualJumpVerdict,
    VerdictReport,
    critical_lambda,
    equal_jump_verdict,
    jump_bounds,
    lambda_for_jump_count,
    optimal_jump_location,
    transition_lambda,
    uniform_step_energy,
    uniform_step_minimizer,
)
from .experiments import ExperimentSpec, RunRecord, generate_signal, run_experiment
from .flow import (
    FlowParams,
    FlowResult,
    FlowState,
    census_fit,
    edges_above,
    flow_energy,
    jump_census,
    plateau_flatness,
    steady_damage_profile,
)
from .flow import run as run_flow
from .kernel import (
    ConditionReport,
    JumpKernel,
    KernelConstants,
    check_conditions,
    derive_constants,
    kwc_kernel,
    linear_kernel,
    potts_kernel,
)
from .oracle import OracleProblem, OracleResult, best_with_m_jumps, signal_problem
from .oracle import solve as oracle_solve
from .pwc import (
    EnergyBreakdown,
    GridSignal,
    LinearData,
    PiecewiseConstant,
    SineData,
    energy,
    fidelity,
    tv_kernel,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "ConditionError",
    "ConditionReport",
    "ConfigError",
    "CriticalLambda",
    "DivergenceError",
    "EnergyBreakdown",
    "EqualJumpVerdict",
    "ExperimentSpec",
    "FlowParams",
    "FlowResult",
    "FlowState",
    "GridSignal",
    "InvariantViolation",
    "JumpKernel",
    "KernelConstants",
    "LinearData",
    "OracleProblem",
    "OracleResult",
    "PiecewiseConstant",
    "RunRecord",
    "SineData",
    "VerdictReport",
    "best_with_m_jumps",
    "census_fit",
    "check_conditions",
    "critical_lambda",
    "derive_constants",
    "edges_above",
    "energy",
    "equal_jump_verdict",
    "fidelity",
    "flow_energy",
    "generate_signal",
    "jump_bounds",
    "jump_census",
    "kwc_kernel",
    "lambda_for_jump_count",
    "linear_kernel",
    "optimal_jump_location",
    "oracle_solve",
    "plateau_flatness",
    "potts_kernel",
    "run_experiment",
    "run_flow",
    "signal_problem",
    "steady_damage_profile",
    "transition_lambda",
    "tv_kernel",
    "uniform_step_energy",
    "uniform_step_minimizer",
]
