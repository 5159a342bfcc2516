"""Jump-cost kernels, their structural conditions, and derived constants.

A kernel K maps a jump size rho >= 0 to a cost K(rho), with K(0) = 0.  The
workhorse is the concave rational kernel K(rho) = rho / (1 + rho * kappa);
a linear kernel and a flat (Potts) kernel are included for contrast because
each fails exactly one of the structural conditions below.

Conditions, all on a window [0, M] (M = ``mass_cap``):

* monotone: K non-decreasing, K(0) = 0.
* strengthened subadditivity: K(r1) + K(r2) >= K(r1+r2) + gain * r1 * r2
  whenever r1 + r2 <= M, for some gain > 0.  The largest admissible gain is
  ``split_gain``: merging two jumps into one saves at least
  split_gain * r1 * r2 of cost, which is what limits how many jumps a
  minimizer can afford.
* unit slope at zero: K(rho)/rho -> 1 as rho -> 0.  The linear kernel and
  the rational kernel have it; the Potts kernel does not
  (``JumpKernel.unit_slope_at_zero``).
* linear floor: K(rho) >= floor * rho on (0, M] for some floor > 0
  (``linear_floor``).  Weaker than unit slope; the Potts kernel has it.

``bound_rate`` = min(linear_floor / mass_cap, split_gain) is the rate that
enters the jump-count bound for general data.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_keys, check_real

VALID_KINDS = ("kwc", "linear", "potts")


@dataclass(frozen=True)
class JumpKernel:
    """A jump-cost function selected by ``kind``.

    kind "kwc":    K(rho) = rho / (1 + rho * kappa)
    kind "linear": K(rho) = rho
    kind "potts":  K(0) = 0 and K(rho) = height for rho > 0
    """

    kind: str
    kappa: float = 1.0
    height: float = 1.0

    def __post_init__(self):
        if self.kind not in VALID_KINDS:
            raise ConfigError(f"unknown kernel kind {self.kind!r}; expected one of {VALID_KINDS}")
        kappa = check_real("kappa", self.kappa, positive=True)
        height = check_real("height", self.height, positive=True)
        # A field the kind does not use takes its default, so kernels that
        # cost the same compare equal and survive the to_config round trip.
        object.__setattr__(self, "kappa", kappa if self.kind == "kwc" else 1.0)
        object.__setattr__(self, "height", height if self.kind == "potts" else 1.0)

    @property
    def unit_slope_at_zero(self) -> bool:
        """K(rho)/rho -> 1 as rho -> 0: K'(0) = 1 for kwc and linear, Potts jumps to h."""
        return self.kind != "potts"

    def eval(self, rho):
        """Cost of a jump of size rho (scalar or array, finite and rho >= 0).

        kwc takes rho / (1 + kappa rho): within the envelope
        (``errors.EXPONENT``) a jump between two values is at most 2**101
        and kappa at most 2**100, so kappa rho stays finite.
        """
        arr = np.asarray(rho, dtype=float)
        # NaN fails both comparisons, -inf the first and inf the second.
        if not np.all((arr >= 0) & (arr < np.inf)):
            raise ConfigError("jump size must be finite and non-negative")
        if self.kind == "kwc":
            out = arr / (1.0 + arr * self.kappa)
        elif self.kind == "linear":
            out = arr.copy()
        else:
            out = np.where(arr > 0, self.height, 0.0)
        if arr.ndim == 0:
            return float(out)
        return out

    def unit_cost(self, rho: float) -> float:
        """K(rho) / rho, the cost per unit size of a jump of size rho > 0:
        for kwc 1 / (1 + kappa rho)."""
        if self.kind == "kwc":
            return 1 / (1 + self.kappa * rho)
        return 1.0 if self.kind == "linear" else self.height / rho

    def to_config(self) -> dict:
        if self.kind == "kwc":
            return {"kind": "kwc", "kappa": self.kappa}
        if self.kind == "potts":
            return {"kind": "potts", "height": self.height}
        return {"kind": "linear"}

    @classmethod
    def from_config(cls, cfg: dict) -> "JumpKernel":
        return cls(**check_keys("kernel config", cfg, ("kind",), ("kappa", "height")))


def kwc_kernel(kappa: float = 1.0) -> JumpKernel:
    return JumpKernel("kwc", kappa=kappa)


def linear_kernel() -> JumpKernel:
    return JumpKernel("linear")


def potts_kernel(height: float = 1.0) -> JumpKernel:
    return JumpKernel("potts", height=height)


@dataclass(frozen=True)
class KernelConstants:
    """Constants of a kernel on the window [0, mass_cap].

    split_gain is the infimum over r1 + r2 <= mass_cap of
    (K(r1) + K(r2) - K(r1+r2)) / (r1 * r2); linear_floor the infimum of
    K(rho)/rho; bound_rate = min(linear_floor / mass_cap, split_gain).
    split_gain and bound_rate are None for the linear kernel, whose gain is
    0, so that no jump-count bound exists.
    """

    mass_cap: float
    split_gain: float | None
    linear_floor: float
    bound_rate: float | None


def derive_constants(kernel: JumpKernel, mass_cap: float) -> KernelConstants:
    """The exact kernel constants on [0, mass_cap], in closed form.

    With s = r1 + r2 the split ratio (K(r1) + K(r2) - K(s)) / (r1 * r2) is
    kappa (2 + kappa s) / ((1 + kappa r1)(1 + kappa r2)(1 + kappa s)) for
    kwc, h / (r1 * r2) for potts and 0 for linear.  For fixed s it is
    smallest at r1 = r2, and along that diagonal it falls as s grows, so
    the infimum sits at r1 = r2 = mass_cap/2.  K(rho)/rho is non-increasing,
    so linear_floor is the ``unit_cost`` K(mass_cap)/mass_cap.  With kappa,
    height and mass_cap in the envelope [2**-100, 2**100]
    (``errors.EXPONENT``), every constant and linear_floor / mass_cap lies
    within 2**+-500.
    """
    mass_cap = check_real("mass_cap", mass_cap, positive=True)
    linear_floor = kernel.unit_cost(mass_cap)
    if kernel.kind == "linear":
        return KernelConstants(mass_cap, None, linear_floor, None)
    if kernel.kind == "kwc":
        split_gain = 2 * kernel.kappa / ((1 + kernel.kappa * mass_cap / 2) * (1 + kernel.kappa * mass_cap))
    else:
        split_gain = 4 * kernel.height / mass_cap**2
    return KernelConstants(mass_cap, split_gain, linear_floor, min(linear_floor / mass_cap, split_gain))


@dataclass(frozen=True)
class ConditionReport:
    """Verdicts for the structural conditions of a kernel, read from its constants.

    Every kind is monotone and subadditive with a positive linear floor:
    the split ratio and K(rho)/rho are >= 0 and > 0 in closed form (see
    derive_constants).  Only the linear kernel lacks the strengthened gain,
    and only the Potts kernel lacks unit slope at zero.
    """

    kernel: JumpKernel
    constants: KernelConstants

    @property
    def strengthened_subadditive(self) -> bool:
        return self.constants.split_gain is not None

    @property
    def unit_slope_at_zero(self) -> bool:
        return self.kernel.unit_slope_at_zero

    def to_json_dict(self) -> dict:
        return {
            "kernel": self.kernel.to_config(),
            "mass_cap": self.constants.mass_cap,
            "monotone": True,
            "strengthened_subadditive": self.strengthened_subadditive,
            "unit_slope_at_zero": self.unit_slope_at_zero,
            "linear_floor_positive": True,
            "subadditive": True,
            "split_gain": self.constants.split_gain,
            "linear_floor": self.constants.linear_floor,
        }


def check_conditions(kernel: JumpKernel, mass_cap: float) -> ConditionReport:
    """The structural conditions on [0, mass_cap], each decided by the kind."""
    return ConditionReport(kernel, derive_constants(kernel, mass_cap))
