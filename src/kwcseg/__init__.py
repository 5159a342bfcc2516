"""1D variational segmentation and denoising with concave jump kernels.

Layers:

* kernel  - jump-cost kernels and their admissibility constants
* pwc     - piecewise-constant functions, grid signals, data models, energies
* exact   - closed-form minimizers, critical fidelity weights, jump bounds
* oracle  - brute-force discretized global minimization (level-grid DP)
* flow    - gradient-flow solvers (plain TV, phase-field quadratic/TV)
* experiments, svgplot, cli - reproduction harness and artifact emission

``import kwcseg`` runs kernel, pwc, exact and oracle.  flow, experiments
and svgplot are in ``sys.modules`` from the start but run on first
attribute access, so closed-form and oracle work never loads them; flow
loads SciPy only at its first tridiagonal solve.  A layer that raises while
it loads raises its own error at that access.  The package's names from
those three layers are looked up in their module on every access, never
stored here, and experiments reaches flow's and exact's functions through
their modules (``flow.run``, ``exact.jump_bounds``): a function rebound in
its module (a test's monkeypatch, a tracing wrapper) is what the lazy
layers call, whatever order they load in.  The command line
(``kwcseg.cli.main``) still runs every layer, but no SciPy module unless a
command runs a flow.
"""

import importlib.util
import sys

from .errors import ConfigError, DivergenceError, InvariantViolation
from .exact import (
    BoundReport,
    CriticalLambda,
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


def _lazy(name):
    """The module ``kwcseg.<name>``, in ``sys.modules``; its code runs on first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


experiments = _lazy("experiments")
flow = _lazy("flow")
svgplot = _lazy("svgplot")

# The package's names from the lazy layers: name -> (module, name there).
_LAZY_NAMES = {
    **{name: (experiments, name) for name in ("ExperimentSpec", "RunRecord", "generate_signal", "run_experiment")},
    **{
        name: (flow, name)
        for name in (
            "FlowParams",
            "FlowResult",
            "FlowState",
            "census_fit",
            "edges_above",
            "flow_energy",
            "jump_census",
            "plateau_flatness",
            "steady_damage_profile",
        )
    },
    "run_flow": (flow, "run"),
}


def __getattr__(name):
    # Not cached: a function rebound in its module (a test's monkeypatch, a
    # tracing wrapper) is what the package returns, and only while it is bound.
    if name not in _LAZY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module, attr = _LAZY_NAMES[name]
    return getattr(module, attr)


__all__ = [
    "BoundReport",
    "ConditionReport",
    "ConfigError",
    "CriticalLambda",
    "DivergenceError",
    "EnergyBreakdown",
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
