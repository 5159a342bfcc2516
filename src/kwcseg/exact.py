"""Closed-form results for linear data: minimizers, energies, jump bounds.

For g(x) = x on (0, L) with the rational kernel the optimal step functions
are uniform ladders, their energies have a two-term closed form, and there is
a critical fidelity weight where one- and two-jump ladders tie exactly.  The
jump-count bounds hold for any data once the kernel constants exist.
"""

import math
from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np

from .errors import ConditionError, ConfigError, check_count, check_real
from .kernel import JumpKernel, KernelConstants, derive_constants, kwc_kernel
from .pwc import GridSignal, LinearData, PiecewiseConstant, energy


def _int_part(r: float) -> int:
    if not math.isfinite(r):
        raise ConfigError(f"jump bound {r} is not finite")
    # Snap up a ratio within a few ulps of the next integer, so exact-integer
    # ratios are not knocked down by float roundoff.
    k = math.floor(r)
    return k + 1 if k + 1 - r <= 8 * math.ulp(r) else k


def optimal_jump_location(data, alpha: float, beta: float, tol: float = 1e-12) -> float:
    """Where a single jump between plateau heights g(alpha), g(beta) must sit.

    The fidelity-optimal location gamma satisfies
    g(gamma) = (g(alpha) + g(beta)) / 2.  For monotone data the level set is
    an interval; this returns its infimum, found by bisection to ``tol`` in
    x.  Constant data returns alpha by the same convention.  A ``GridSignal``
    that is not monotone on [alpha, beta] is rejected.
    """
    if not check_real("alpha", alpha) < check_real("beta", beta):
        raise ConfigError("need alpha < beta")
    check_real("tol", tol, positive=True)
    ga, gb = float(data(alpha)), float(data(beta))
    if isinstance(data, GridSignal):
        xs = data.x()
        seg = data.samples[(xs >= alpha - 1e-12) & (xs <= beta + 1e-12)]
        d = np.diff(seg)
        if not (np.all(d >= -1e-12) or np.all(d <= 1e-12)):
            raise ConfigError("sampled data is not monotone on [alpha, beta]")
    sign = 1.0
    if gb < ga:
        sign = -1.0
    target = sign * 0.5 * (ga + gb)

    def f(x):
        return sign * float(data(x))

    if f(alpha) >= target:
        return alpha
    lo, hi = alpha, beta
    mid = 0.5 * (lo + hi)
    while hi - lo > tol and lo < mid < hi:  # stop at adjacent floats, whatever tol is
        if f(mid) >= target:
            hi = mid
        else:
            lo = mid
        mid = 0.5 * (lo + hi)
    return hi


def uniform_step_minimizer(L: float, m: int) -> PiecewiseConstant:
    """The m-jump ladder for g(x) = x on (0, L).

    Plateau values k * d for k = 0..m with d = L/m; jumps at (k - 1/2) * d,
    so the first and last plateaus have half width.
    """
    check_real("L", L, positive=True)
    check_count("jump count m", m, least=1)
    d = L / m
    bps = tuple((k - 0.5) * d for k in range(1, m + 1))
    vals = tuple(k * d for k in range(m + 1))
    return PiecewiseConstant((0.0, L), bps, vals)


def uniform_step_energy(L: float, m: int, lam: float, kernel: JumpKernel | None = None) -> float:
    """Energy per unit length of the m-jump ladder against g(x) = x.

    Closed form 1/(d+1) + lam * d^2 / 24 with d = L/m for the rational
    kernel with kappa = 1; any other kernel is evaluated exactly through the
    piecewise-constant energy.
    """
    check_real("L", L, positive=True)
    check_real("lam", lam, least=0)
    check_count("jump count m", m, least=1)
    if kernel is None:
        kernel = kwc_kernel(1.0)
    d = L / m
    if kernel.kind == "kwc" and kernel.kappa == 1.0:
        return 1.0 / (d + 1.0) + lam * d * d / 24.0
    u = uniform_step_minimizer(L, m)
    g = LinearData((0.0, L))
    return energy(u, g, kernel, lam).total / L


@dataclass(frozen=True)
class CriticalLambda:
    length: float
    lam: float
    tied_jump_counts: tuple = (1, 2)

    def to_json_dict(self) -> dict:
        return {
            "length": self.length,
            "lambda": self.lam,
            "tied_jump_counts": list(self.tied_jump_counts),
        }


def critical_lambda(L: float) -> CriticalLambda:
    """Fidelity weight at which the 1- and 2-jump ladders tie on (0, L).

    lam = 2^5 / (L (L+1) (L+2)); at that weight
    uniform_step_energy(L, 1) == uniform_step_energy(L, 2).
    """
    L = check_real("L", L, positive=True)
    return CriticalLambda(length=L, lam=32.0 / (L * (L + 1.0) * (L + 2.0)))


def transition_lambda(L: float, m: int) -> float:
    """Weight where the m- and (m+1)-jump ladders tie (kappa = 1 kernel)."""
    check_real("L", L, positive=True)
    check_count("jump count m", m, least=1)
    d1, d2 = L / m, L / (m + 1)
    return 24.0 / ((d1 + d2) * (1 + d1) * (1 + d2))


def lambda_for_jump_count(L: float, m: int) -> float:
    """A weight at which the m-jump ladder is the strict energy minimizer."""
    check_count("jump count m", m, least=1)
    if m == 1:
        return 0.5 * transition_lambda(L, 1)
    return math.sqrt(transition_lambda(L, m - 1) * transition_lambda(L, m))


@dataclass(frozen=True)
class BoundReport:
    """Upper bounds on the jump count of any energy minimizer on (a, b).

    jumps_any_data uses bound_rate; jumps_monotone_data uses 2 * split_gain
    and is valid when the data is monotone.  When the kernel has no unit
    slope at zero (Potts) the bounds only cover step-function competitors,
    flagged by restricted_to_step_functions.  A kernel without a positive
    split gain gets no bounds at all, with the reason in ``failure``.
    """

    jumps_any_data: int | None
    jumps_monotone_data: int | None
    constants: KernelConstants | None
    restricted_to_step_functions: bool = False
    failure: str | None = None

    def to_json_dict(self) -> dict:
        out = {
            "jumps_any_data": self.jumps_any_data,
            "jumps_monotone_data": self.jumps_monotone_data,
            "restricted_to_step_functions": self.restricted_to_step_functions,
            "failure": self.failure,
        }
        if self.constants is not None:
            out["constants"] = asdict(self.constants)
        return out


def jump_bounds(
    kernel: JumpKernel,
    a: float,
    b: float,
    lam: float,
    mass_cap: float,
    grid_resolution=None,
) -> BoundReport:
    """Jump-count bounds floor((b-a) lam / rate) + 1 on the interval (a, b).

    mass_cap must dominate the oscillation of the data, since every jump of
    a minimizer (and any partial sum of jumps) stays inside it.  The kernel
    constants are exact; grid_resolution is ignored, kept so callers that
    still pass it keep working.
    """
    if not check_real("a", a) < check_real("b", b):
        raise ConfigError("need a < b")
    check_real("lam", lam, least=0)
    try:
        constants = derive_constants(kernel, mass_cap)
    except ConditionError as exc:
        return BoundReport(None, None, None, failure=str(exc))
    scale = (b - a) * lam
    return BoundReport(
        jumps_any_data=_int_part(scale / constants.bound_rate) + 1,
        jumps_monotone_data=_int_part(scale / (2.0 * constants.split_gain)) + 1,
        constants=constants,
        restricted_to_step_functions=not kernel.unit_slope_at_zero,
    )


class EqualJumpVerdict(Enum):
    FORCED = "equal_jumps_forced"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class VerdictReport:
    verdict: EqualJumpVerdict
    sign_pattern: str

    @property
    def forced(self) -> bool:
        return self.verdict is EqualJumpVerdict.FORCED

    def to_json_dict(self) -> dict:
        return {"verdict": self.verdict.value, "sign_pattern": self.sign_pattern}


def equal_jump_verdict(kernel: JumpKernel, c: float, lam: float) -> VerdictReport:
    """Must two neighboring jumps of combined size 2c be equal at optimum?

    The energy of an uneven split z (jumps c - z and c + z, with the
    half-cell fidelity correction for linear data) has derivative
    E'(z) = (lam / 2) z + d/dz [K(c - z) + K(c + z)] = z (lam / 2 - phi(z)).
    phi is 4 c' / (kappa^2 (c'^2 - z^2)^2) with c' = c + 1/kappa for kwc and
    0 for linear and Potts, non-decreasing on (0, c] either way, so the sign
    pattern of E' on (0, c] follows from lam / 2 against phi(0) and phi(c).
    All positive, all negative, or positive then negative leave the even
    split z = 0 as the only interior minimum, so equal jumps are forced.
    E' = 0 throughout (lam = 0 with phi = 0) ties every split: inconclusive.
    """
    check_real("c", c, positive=True)
    check_real("lam", lam, least=0)
    if kernel.kind == "kwc":
        k = kernel.kappa
        phi_0 = 4.0 * k / (1.0 + k * c) ** 3
        phi_c = 4.0 * k * (1.0 + k * c) / (1.0 + 2.0 * k * c) ** 2
    else:
        phi_0 = phi_c = 0.0
    half = 0.5 * lam
    if half > phi_0:
        pattern = "+" if half >= phi_c else "+-"
    else:
        pattern = "-" if phi_c > 0 else ""
    return VerdictReport(
        verdict=EqualJumpVerdict.FORCED if pattern else EqualJumpVerdict.INCONCLUSIVE,
        sign_pattern=pattern,
    )
