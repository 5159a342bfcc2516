"""Piecewise-constant functions on an interval and exact energy evaluation.

The energy of a step function u against data g is

    energy(u) = sum_jumps K(|jump|)  +  (lam / 2) * integral (u - g)^2,

with K a jump kernel.  The data g is a ``LinearData``, a ``SineData``, a
``PiecewiseConstant`` (clean step data) or a ``GridSignal`` (samples, read
by linear interpolation).  Fidelity integrals are closed-form per plateau
for the first three, and a trapezoid sum on the sample grid for a
``GridSignal``.  Each kind's ``moments(edges)`` integrates g and g^2 over
the cells between the edges (a ``GridSignal`` by the midpoint rule).
"""

import csv
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_count, check_keys, check_real
from .kernel import JumpKernel

_DOMAIN_TOL = 1e-9
# The most nodes of a generated or sampled grid: far above every grid the
# protocols and the benchmark use (1201 nodes at most), and far below one
# that would exhaust memory before it fails.
MAX_NODES = 10**6


def _check_domain(dom) -> tuple:
    try:
        a, b = dom
    except (TypeError, ValueError):
        raise ConfigError(f"domain must be two numbers (a, b), got {dom!r}") from None
    a, b = check_real("domain", a), check_real("domain", b)
    if not a < b:
        raise ConfigError(f"domain must satisfy a < b, got ({a}, {b})")
    return (a, b)


def midpoints(edges: np.ndarray) -> np.ndarray:
    """Midpoints of the cells between consecutive edges."""
    return 0.5 * (edges[:-1] + edges[1:])


@dataclass(frozen=True)
class PiecewiseConstant:
    """Left-continuous step function: values[i] on (breakpoints[i-1], breakpoints[i]].

    Breakpoints are strictly increasing and interior to the domain.
    Zero-size jumps are merged away on construction, so len(values) ==
    len(breakpoints) + 1 always names the true plateau count.
    """

    domain: tuple
    breakpoints: tuple = ()
    values: tuple = (0.0,)

    def __post_init__(self):
        dom = _check_domain(self.domain)
        bp = [check_real("breakpoints", x) for x in self.breakpoints]
        vals = [check_real("values", v) for v in self.values]
        if len(vals) != len(bp) + 1:
            raise ConfigError("values must have exactly one more entry than breakpoints")
        if any(not dom[0] < x < dom[1] for x in bp):
            raise ConfigError("breakpoints must lie strictly inside the domain")
        if any(x2 <= x1 for x1, x2 in zip(bp, bp[1:])):
            raise ConfigError("breakpoints must be strictly increasing")
        merged_bp, merged_vals = [], [vals[0]]
        for x, v in zip(bp, vals[1:]):
            if v == merged_vals[-1]:
                continue
            merged_bp.append(x)
            merged_vals.append(v)
        object.__setattr__(self, "domain", dom)
        object.__setattr__(self, "breakpoints", tuple(merged_bp))
        object.__setattr__(self, "values", tuple(merged_vals))

    def __call__(self, x):
        idx = np.searchsorted(np.asarray(self.breakpoints), x, side="left")
        out = np.asarray(self.values, dtype=float)[idx]
        if np.asarray(x).ndim == 0:
            return float(out)
        return out

    def value_range(self) -> tuple:
        return (min(self.values), max(self.values))

    def plateau_misfit(self, x0: float, x1: float, value: float) -> float:
        cuts = [x0] + [b for b in self.breakpoints if x0 < b < x1] + [x1]
        try:
            return sum((value - float(self(0.5 * (lo + hi)))) ** 2 * (hi - lo) for lo, hi in zip(cuts, cuts[1:]))
        except OverflowError:  # float ** raises on overflow; the misfit is inf, as for analytic data
            return math.inf

    def moments(self, edges: np.ndarray) -> tuple:
        """Integrals of g and g^2 over the cells between increasing edges:
        each cell is cut at the breakpoints strictly inside it, each piece is
        read at its midpoint, and ``np.add.at`` adds a cell's pieces left to
        right from 0, as ``sum`` does."""
        bp = np.asarray(self.breakpoints, dtype=float)
        off_edges = np.searchsorted(edges, bp, side="left") == np.searchsorted(edges, bp, side="right")
        cuts = np.concatenate([edges, bp[off_edges]])
        order = np.argsort(cuts, kind="stable")
        cuts, cell = cuts[order], np.cumsum(order < edges.size)[:-1] - 1  # each piece's cell
        gv, width = self(midpoints(cuts)), np.diff(cuts)
        m1, m2 = np.zeros(edges.size - 1), np.zeros(edges.size - 1)
        np.add.at(m1, cell, gv * width)
        np.add.at(m2, cell, gv * gv * width)
        return m1, m2

    @property
    def jump_sizes(self) -> np.ndarray:
        return np.diff(np.asarray(self.values, dtype=float))

    @property
    def jump_count(self) -> int:
        return len(self.breakpoints)

    def sample(self, n: int) -> "GridSignal":
        """The function on n >= 2 uniform nodes spanning the domain."""
        check_count("n", n, least=2, most=MAX_NODES)
        x = np.linspace(self.domain[0], self.domain[1], n)
        return GridSignal(self.domain, self(x))

    def to_json_dict(self) -> dict:
        return {
            "domain": list(self.domain),
            "breakpoints": list(self.breakpoints),
            "values": list(self.values),
        }

    @classmethod
    def from_json_dict(cls, d: dict, name: str = "piecewise-constant object") -> "PiecewiseConstant":
        """The step function of ``d``; ``name`` is the input that holds it."""
        check_keys(name, d, ("domain", "breakpoints", "values"), ())
        for key in ("domain", "breakpoints", "values"):
            if not isinstance(d[key], (list, tuple)):
                raise ConfigError(f"{key} must be a list, got {d[key]!r}")
        return cls(tuple(d["domain"]), tuple(d["breakpoints"]), tuple(d["values"]))


@dataclass(frozen=True)
class GridSignal:
    """Finite samples on n >= 2 uniformly spaced nodes spanning the domain.

    As data, a grid signal is read by linear interpolation between its
    nodes."""

    domain: tuple
    samples: np.ndarray

    def __post_init__(self):
        dom = _check_domain(self.domain)
        arr = np.array(self.samples, dtype=float)
        if arr.ndim != 1 or arr.size < 2:
            raise ConfigError("need a 1D array of at least two samples")
        if not np.isfinite(arr).all():
            raise ConfigError("grid samples must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "domain", dom)
        object.__setattr__(self, "samples", arr)

    @property
    def n(self) -> int:
        return self.samples.size

    @property
    def h(self) -> float:
        return (self.domain[1] - self.domain[0]) / (self.n - 1)

    def x(self) -> np.ndarray:
        return np.linspace(self.domain[0], self.domain[1], self.n)

    def __call__(self, x):
        out = np.interp(np.asarray(x, dtype=float), self.x(), self.samples)
        if np.asarray(x).ndim == 0:
            return float(out)
        return out

    def value_range(self) -> tuple:
        return (float(self.samples.min()), float(self.samples.max()))

    def moments(self, edges: np.ndarray) -> tuple:
        """The midpoint rule for the integrals of g and g^2 over uniform cells."""
        h = (edges[-1] - edges[0]) / (edges.size - 1)
        g = self(midpoints(edges))
        return h * g, h * g * g

    @classmethod
    def from_csv(cls, path) -> "GridSignal":
        if not isinstance(path, (str, os.PathLike)):
            raise ConfigError(f"csv path must be a string, got {path!r}")
        try:
            with open(path, newline="") as f:
                rows = list(csv.reader(f))
        except OSError as exc:
            raise ConfigError(f"csv path {path!r} cannot be read: {exc.strerror or exc}") from exc
        if not rows or [c.strip() for c in rows[0]] != ["x", "value"]:
            raise ConfigError(f"{path}: expected header 'x,value'")
        body = [r for r in rows[1:] if r]
        try:
            x = np.array([float(r[0]) for r in body])
            v = np.array([float(r[1]) for r in body])
        except (ValueError, IndexError) as exc:
            raise ConfigError(f"{path}: bad row ({exc})") from exc
        if x.size < 2:
            raise ConfigError(f"{path}: need at least two rows")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(v))):
            raise ConfigError(f"{path}: every x and value must be finite")
        h = np.diff(x)
        if not np.allclose(h, h[0], rtol=1e-6, atol=1e-12):
            raise ConfigError(f"{path}: nodes are not uniformly spaced")
        return cls((float(x[0]), float(x[-1])), v)


# ---------------------------------------------------------------------------
# Analytic data: the clean signal g the energy is measured against, with
# closed-form moments.  A ``PiecewiseConstant`` serves as data too.


@dataclass(frozen=True)
class LinearData:
    """g(x) = slope * x + intercept."""

    domain: tuple
    slope: float = 1.0
    intercept: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "domain", _check_domain(self.domain))
        check_real("slope", self.slope)
        check_real("intercept", self.intercept)

    def __call__(self, x):
        return self.slope * np.asarray(x, dtype=float) + self.intercept

    def value_range(self) -> tuple:
        va, vb = float(self(self.domain[0])), float(self(self.domain[1]))
        return (min(va, vb), max(va, vb))

    def plateau_misfit(self, x0: float, x1: float, value: float) -> float:
        # integral of (value - g)^2 = [(s x + t - value)^3 / (3 s)], with the
        # difference of cubes divided out: e1 - e0 = s (x1 - x0).  The sum
        # of squares left is at least (e0^2 + e1^2) / 2, so nothing cancels
        # when the slope is small against the misfit.
        e1 = self.slope * x1 + self.intercept - value
        e0 = self.slope * x0 + self.intercept - value
        return (x1 - x0) * (e1 * e1 + e1 * e0 + e0 * e0) / 3.0

    def moments(self, edges: np.ndarray) -> tuple:
        """Integrals of g and g^2 over the cells between the edges."""
        s, t = self.slope, self.intercept
        x0, x1 = edges[:-1], edges[1:]
        # One scalar power per edge: an array's ** 3 may round otherwise.
        cubes = np.array([x**3 for x in edges])
        m1 = s * (x1 * x1 - x0 * x0) / 2.0 + t * (x1 - x0)
        m2 = s * s * (cubes[1:] - cubes[:-1]) / 3.0 + s * t * (x1 * x1 - x0 * x0) + t * t * (x1 - x0)
        return m1, m2


@dataclass(frozen=True)
class SineData:
    """g(x) = amplitude * sin(omega * x)."""

    domain: tuple
    amplitude: float = 1.0
    omega: float = 3.0 * np.pi

    def __post_init__(self):
        object.__setattr__(self, "domain", _check_domain(self.domain))
        check_real("amplitude", self.amplitude)
        check_real("omega", self.omega)

    def __call__(self, x):
        return self.amplitude * np.sin(self.omega * np.asarray(x, dtype=float))

    def value_range(self) -> tuple:
        # The end values, and +-amplitude where omega * x passes a crest
        # pi/2 + 2k pi or a trough -pi/2 + 2k pi inside the domain.
        lo, hi = sorted(self.omega * x for x in self.domain)
        values = [float(self(x)) for x in self.domain]
        for phase, value in ((0.5 * np.pi, self.amplitude), (-0.5 * np.pi, -self.amplitude)):
            if np.floor((hi - phase) / (2.0 * np.pi)) >= np.ceil((lo - phase) / (2.0 * np.pi)):
                values.append(float(value))
        return (min(values), max(values))

    def plateau_misfit(self, x0: float, x1: float, value: float) -> float:
        # integral of (value - g)^2 from the exact moments of g.
        m1, m2 = (float(m[0]) for m in self.moments(np.array([x0, x1])))
        return value * value * (x1 - x0) - 2.0 * value * m1 + m2

    def moments(self, edges: np.ndarray) -> tuple:
        """Integrals of g and g^2 over the cells between the edges."""
        a, w = self.amplitude, self.omega
        cos, sin2 = np.cos(w * edges), np.sin(2 * w * edges)
        m1 = a * (cos[:-1] - cos[1:]) / w
        m2 = a * a * (np.diff(edges) / 2.0 - (sin2[1:] - sin2[:-1]) / (4.0 * w))
        return m1, m2


def _require_same_domain(u, data) -> None:
    if abs(u.domain[0] - data.domain[0]) > _DOMAIN_TOL or abs(u.domain[1] - data.domain[1]) > _DOMAIN_TOL:
        raise ConfigError(f"domain mismatch: u on {u.domain}, data on {data.domain}")


# ---------------------------------------------------------------------------
# Energies.


@dataclass(frozen=True)
class EnergyBreakdown:
    tv_k: float
    fidelity: float
    total: float

    @classmethod
    def of(cls, tv_k: float, fidelity: float) -> "EnergyBreakdown":
        return cls(tv_k=tv_k, fidelity=fidelity, total=tv_k + fidelity)

    def to_json_dict(self) -> dict:
        return {"tv_k": self.tv_k, "fidelity": self.fidelity, "total": self.total}


def tv_kernel(u: PiecewiseConstant, kernel: JumpKernel) -> float:
    """Kernel-weighted variation: sum of K(|jump|) over the jumps."""
    sizes = np.abs(u.jump_sizes)
    if sizes.size == 0:
        return 0.0
    return float(np.sum(kernel.eval(sizes)))


def _plateau_edges(u: PiecewiseConstant):
    a, b = u.domain
    cuts = (a,) + u.breakpoints + (b,)
    return zip(cuts, cuts[1:], u.values)


def fidelity(u: PiecewiseConstant, data, lam: float) -> float:
    """(lam / 2) * integral over the domain of (u - g)^2."""
    _require_same_domain(u, data)
    if isinstance(data, GridSignal):
        xs = data.x()
        diff = u(xs) - data.samples
        integral = float(np.trapezoid(diff * diff, xs))
    else:
        integral = sum(data.plateau_misfit(lo, hi, val) for lo, hi, val in _plateau_edges(u))
    return 0.5 * lam * integral


def energy(u: PiecewiseConstant, data, kernel: JumpKernel, lam: float) -> EnergyBreakdown:
    return EnergyBreakdown.of(tv_kernel(u, kernel), fidelity(u, data, lam))
