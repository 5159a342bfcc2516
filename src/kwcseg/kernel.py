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
  the rational kernel have it; the Potts kernel does not.
* linear floor: K(rho) >= floor * rho on (0, M] for some floor > 0
  (``linear_floor``).  Weaker than unit slope; the Potts kernel has it.

``bound_rate`` = min(linear_floor / mass_cap, split_gain) is the rate that
enters the jump-count bound for general data.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConditionError, ConfigError

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
        if self.kind == "kwc" and not (self.kappa > 0 and math.isfinite(self.kappa)):
            raise ConfigError("rational kernel needs a finite kappa > 0")
        if self.kind == "potts" and not (self.height > 0 and math.isfinite(self.height)):
            raise ConfigError("flat kernel needs a finite height > 0")
        # A field the kind does not use takes its default, so kernels that
        # cost the same compare equal and survive the to_config round trip.
        if self.kind != "kwc":
            object.__setattr__(self, "kappa", 1.0)
        if self.kind != "potts":
            object.__setattr__(self, "height", 1.0)

    def eval(self, rho):
        """Cost of a jump of size rho (scalar or array, rho >= 0)."""
        arr = np.asarray(rho, dtype=float)
        if np.any(arr < 0):
            raise ValueError("jump size must be non-negative")
        if self.kind == "kwc":
            out = arr / (1.0 + arr * self.kappa)
        elif self.kind == "linear":
            out = arr.copy()
        else:
            out = np.where(arr > 0, self.height, 0.0)
        if arr.ndim == 0:
            return float(out)
        return out

    def to_config(self) -> dict:
        if self.kind == "kwc":
            return {"kind": "kwc", "kappa": self.kappa}
        if self.kind == "potts":
            return {"kind": "potts", "height": self.height}
        return {"kind": "linear"}

    @classmethod
    def from_config(cls, cfg: dict) -> "JumpKernel":
        if not isinstance(cfg, dict) or "kind" not in cfg:
            raise ConfigError("kernel config must be an object with a 'kind' key")
        kind = cfg["kind"]
        known = {"kind", "kappa", "height"}
        extra = set(cfg) - known
        if extra:
            raise ConfigError(f"unknown kernel config keys: {sorted(extra)}")
        return cls(kind=kind, kappa=float(cfg.get("kappa", 1.0)), height=float(cfg.get("height", 1.0)))


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
    """

    mass_cap: float
    split_gain: float
    linear_floor: float
    bound_rate: float


def _exact_constants(kernel: JumpKernel, mass_cap: float) -> tuple:
    """(split_gain, linear_floor) on [0, mass_cap] in closed form.

    With s = r1 + r2 the split ratio (K(r1) + K(r2) - K(s)) / (r1 * r2) is
    kappa (2 + kappa s) / ((1 + kappa r1)(1 + kappa r2)(1 + kappa s)) for
    kwc, h / (r1 * r2) for potts and 0 for linear.  For fixed s it is
    smallest at r1 = r2, and along that diagonal it falls as s grows, so
    the infimum sits at r1 = r2 = mass_cap/2.  K(rho)/rho is non-increasing,
    so linear_floor = K(mass_cap)/mass_cap.  split_gain is None when it is
    0 (the linear kernel); every positive gain is kept.
    """
    if not (math.isfinite(mass_cap) and mass_cap > 0):
        raise ValueError("mass_cap must be positive and finite")
    if kernel.kind == "kwc":
        k = kernel.kappa
        split_gain = 2 * k / ((1 + k * mass_cap / 2) * (1 + k * mass_cap))
        linear_floor = 1 / (1 + k * mass_cap)
    elif kernel.kind == "potts":
        split_gain = 4 * kernel.height / mass_cap**2
        linear_floor = kernel.height / mass_cap
    else:
        split_gain = 0.0
        linear_floor = 1.0
    return (split_gain if split_gain > 0 else None), linear_floor


def _split_ratio_grid_min(kernel: JumpKernel, mass_cap: float, resolution: int) -> float:
    """Grid infimum of the strengthened-subadditivity ratio on r1+r2 <= mass_cap."""
    rho = mass_cap * np.arange(1, resolution + 1) / resolution
    r1 = rho[:, None]
    r2 = rho[None, :]
    total = r1 + r2
    mask = total <= mass_cap * (1 + 1e-12)
    ratio = (kernel.eval(r1) + kernel.eval(r2) - kernel.eval(total)) / (r1 * r2)
    return float(ratio[mask].min())


def derive_constants(kernel: JumpKernel, mass_cap: float) -> KernelConstants:
    """The exact kernel constants on [0, mass_cap].

    Raises ConditionError when the strengthened-subadditivity gain is not
    positive (the linear kernel), since then no jump-count bound exists.
    """
    split_gain, linear_floor = _exact_constants(kernel, mass_cap)
    if split_gain is None:
        raise ConditionError(
            f"strengthened subadditivity fails for kernel {kernel.kind!r} on [0, {mass_cap}]: "
            "no positive split gain"
        )
    return KernelConstants(
        mass_cap=float(mass_cap),
        split_gain=split_gain,
        linear_floor=linear_floor,
        bound_rate=min(linear_floor / mass_cap, split_gain),
    )


@dataclass(frozen=True)
class ConditionReport:
    """Sampled verdicts for the structural conditions of a kernel."""

    kernel: JumpKernel
    mass_cap: float
    samples: int
    monotone: bool
    strengthened_subadditive: bool
    unit_slope_at_zero: bool
    linear_floor_positive: bool
    subadditive: bool
    split_gain: float | None
    linear_floor: float
    slope_at_zero: float

    def to_json_dict(self) -> dict:
        return {
            "kernel": self.kernel.to_config(),
            "mass_cap": self.mass_cap,
            "samples": self.samples,
            "monotone": self.monotone,
            "strengthened_subadditive": self.strengthened_subadditive,
            "unit_slope_at_zero": self.unit_slope_at_zero,
            "linear_floor_positive": self.linear_floor_positive,
            "subadditive": self.subadditive,
            "split_gain": self.split_gain,
            "linear_floor": self.linear_floor,
            "slope_at_zero": self.slope_at_zero,
        }


def check_conditions(kernel: JumpKernel, mass_cap: float, samples: int = 2000) -> ConditionReport:
    """Check the structural conditions on [0, mass_cap].

    split_gain and linear_floor are exact.  ``samples`` sets the
    monotonicity grid and, capped at 400, the pair grid of the plain
    subadditivity check, so a failing report can be reproduced exactly.
    """
    split_gain, linear_floor = _exact_constants(kernel, mass_cap)
    samples = max(100, int(samples))

    grid = np.linspace(0.0, mass_cap, samples + 1)
    vals = kernel.eval(grid)
    monotone = bool(vals[0] == 0.0 and np.all(np.diff(vals) >= -1e-12))

    # Plain subadditivity needs only a non-negative defect.
    subadd_min = _split_ratio_grid_min(kernel, mass_cap, min(samples, 400))
    subadditive = bool(subadd_min >= -1e-10)

    rho0 = 1e-8
    slope = kernel.eval(rho0) / rho0
    unit_slope = bool(abs(slope - 1.0) <= 1e-4)

    return ConditionReport(
        kernel=kernel,
        mass_cap=float(mass_cap),
        samples=samples,
        monotone=monotone,
        strengthened_subadditive=split_gain is not None,
        unit_slope_at_zero=unit_slope,
        linear_floor_positive=bool(linear_floor > 1e-12),
        subadditive=subadditive,
        split_gain=split_gain,
        linear_floor=linear_floor,
        slope_at_zero=float(slope),
    )


def _check_split_domain(c, z):
    if not c > 0:
        raise ValueError("half-width c must be positive")
    if np.any(np.abs(np.asarray(z, dtype=float)) > c * (1 + 1e-9)):
        raise ValueError("offset z must satisfy |z| <= c")


def split_cost(kernel: JumpKernel, c: float, z):
    """Total cost K(c - z) + K(c + z) of splitting a jump of size 2c unevenly.

    z = 0 is the even split; |z| = c degenerates to a single jump plus a
    zero jump.  Even in z.
    """
    _check_split_domain(c, z)
    zc = np.clip(np.asarray(z, dtype=float), -c, c)
    out = kernel.eval(c - zc) + kernel.eval(c + zc)
    if np.asarray(z).ndim == 0:
        return float(out)
    return out


def split_cost_derivative(kernel: JumpKernel, c: float, z):
    """d/dz of split_cost.

    Closed form for the rational kernel: with c' = c + 1/kappa,
    -4 c' z / (kappa^2 (c'^2 - z^2)^2).  Other kernels fall back to a
    central finite difference with a boundary-clamped stencil.
    """
    _check_split_domain(c, z)
    arr = np.clip(np.asarray(z, dtype=float), -c, c)
    if kernel.kind == "kwc":
        k = kernel.kappa
        cp = c + 1.0 / k
        out = -4.0 * cp * arr / (k * k * (cp * cp - arr * arr) ** 2)
    else:
        step = 1e-6 * max(1.0, c)
        zp = np.minimum(arr + step, c)
        zm = np.maximum(arr - step, -c)
        out = (split_cost(kernel, c, zp) - split_cost(kernel, c, zm)) / (zp - zm)
    if np.asarray(z).ndim == 0:
        return float(out)
    return out
