"""Piecewise-constant functions on an interval and exact energy evaluation.

The energy of a step function u against data g is

    energy(u) = sum_jumps K(|jump|)  +  (lam / 2) * integral (u - g)^2,

with K a jump kernel.  The data g is a ``LinearData``, a ``SineData``, a
``PiecewiseConstant`` (clean step data) or a ``GridSignal`` (samples, read
by linear interpolation).  Each kind answers one question about the
integral: ``moments(edges)``, each cell's mean mu of g and spread Q, the
integral of (g - mu)^2, exact up to a stated rounding for every kind (a
``GridSignal`` as its linear interpolant).  A cell of width w has the misfit w (v - mu)^2 + Q,
two terms that are never negative, and a shift of g and v by one
constant moves mu alone.
``cell_misfit`` is the one copy of that centred formula: ``fidelity``
prices the plateaus of u with it, as the oracle prices its cells.
"""

import csv
import os
from dataclasses import dataclass

import numpy as np

from .errors import EXPONENT, SMALLEST, ConfigError, check_count, check_keys, check_real, check_reals
from .kernel import JumpKernel

_DOMAIN_TOL = 1e-9  # how far u's domain ends may lie from the data's, per unit of its width
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


def _pieces(edges: np.ndarray, points: np.ndarray) -> tuple:
    """The cells between increasing edges cut at the increasing points inside
    them: the cuts, and each piece's cell.  ``np.bincount(cell, per_piece,
    n_cells)`` adds a cell's pieces left to right from 0, as ``sum`` does."""
    lo, hi = np.searchsorted(edges, points, side="left"), np.searchsorted(edges, points, side="right")
    cuts = np.concatenate([edges, points[(lo == hi) & (lo > 0) & (lo < edges.size)]])
    order = np.argsort(cuts, kind="stable")
    return cuts[order], np.cumsum(order < edges.size)[:-1] - 1


def cell_misfit(width, mean, spread, v) -> np.ndarray:
    """w (v - mu)^2 + Q, the misfit of cells of width w, mean mu and spread
    Q at levels v, elementwise with broadcasting, formed in place in one
    new array: the one centred formula of ``fidelity``, the oracle's costs
    and the pooling of pieces.  Both terms are at least 0, so it is at
    least 0."""
    c = np.subtract(v, mean)
    c *= c
    c *= width
    c += spread
    return c


def _pool(edges: np.ndarray, cuts: np.ndarray, cell: np.ndarray, mean, spread) -> tuple:
    """Each cell's mean and spread from those of its pieces (``_pieces``):
    the pieces' means weighted by their shares of the cell, and each
    piece's misfit at that mean (``cell_misfit``), both added left to right
    from 0."""
    width, whole = np.diff(cuts), np.diff(edges)[cell]
    # A cell of width 0 is one piece, whose share is 1.
    share = np.divide(width, whole, out=np.ones_like(width), where=whole > 0)
    pooled = np.bincount(cell, mean * share, edges.size - 1)
    return pooled, np.bincount(cell, cell_misfit(width, pooled[cell], spread, mean), edges.size - 1)


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

    def moments(self, edges: np.ndarray) -> tuple:
        """Each cell's mean of g and spread about it: its flat pieces between
        breakpoints, pooled (``_pool``)."""
        cuts, cell = _pieces(edges, np.asarray(self.breakpoints, dtype=float))
        return _pool(edges, cuts, cell, self(midpoints(cuts)), 0.0)

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
    """Samples within the envelope (``errors.EXPONENT``) on n >= 2 uniformly
    spaced nodes spanning the domain, with a spacing (b - a)/(n - 1) of at
    least 2**-EXPONENT and nodes that strictly increase in floats, so that
    every sample is read.

    As data, a grid signal is read by linear interpolation between its
    nodes."""

    domain: tuple
    samples: np.ndarray

    def __post_init__(self):
        dom = _check_domain(self.domain)
        arr = np.array(self.samples, dtype=float)
        if arr.ndim != 1 or arr.size < 2:
            raise ConfigError("need a 1D array of at least two samples")
        check_reals("grid samples", arr)
        arr.setflags(write=False)
        object.__setattr__(self, "domain", dom)
        object.__setattr__(self, "samples", arr)
        h = self.h
        if not (h >= SMALLEST and (np.diff(self.x()) > 0).all()):
            why = f"below the magnitude envelope's 2**-{EXPONENT}" if h < SMALLEST else "so that nodes coincide in floats"
            raise ConfigError(
                f"the domain [{dom[0]}, {dom[1]}] is too narrow for n = {self.n} nodes: "
                f"their spacing (b - a)/(n - 1) is {h}, {why}"
            )

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
        """Each cell's mean of g and spread about it, exact for the linear
        interpolant: its pieces between nodes, pooled (``_pool``) about the
        cell's first piece, so that the mean rounds once at the data's
        magnitude.  A piece of width w from g0 to g1 has the mean g0/2 +
        g1/2 and the spread w h (h / 3), with h = g1/2 - g0/2.  The pooling
        runs on g / 2 and scales back by 2 and 4, which changes no float
        above the subnormal range.  With P the cell's pieces, W its width, D
        the range of g on it, M the largest |sample| at the ends of the node
        intervals it meets, u = 2**-53 and t = 2**-1074 (underflow), the mean
        is within e = 16 u M + (P + 8) u D + 4 P t of the interpolant's and
        the spread within 3 W e (D + e) + 8 P t: the spread is pooled about
        the mean, so it does not cancel at the data's magnitude."""
        cuts, cell = _pieces(edges, self.x())
        quarter = 0.25 * self(cuts)
        h = np.diff(quarter)
        mean = quarter[:-1] + quarter[1:]
        first = mean[np.searchsorted(cell, np.arange(edges.size - 1))]
        off, spread = _pool(edges, cuts, cell, mean - first[cell], np.diff(cuts) * h * (h / 3.0))
        return 2.0 * (first + off), 4.0 * spread

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
        check_reals(f"{path}: every x and value", np.concatenate((x, v)))
        h = np.diff(x)
        if not np.allclose(h, h[0], rtol=1e-6, atol=0.0):  # relative to the spacing, at any scale
            raise ConfigError(f"{path}: nodes are not uniformly spaced")
        return cls((float(x[0]), float(x[-1])), v)


# ---------------------------------------------------------------------------
# Analytic data: the clean signal g the energy is measured against, with
# closed-form moments.  A ``PiecewiseConstant`` serves as data too.


@dataclass(frozen=True)
class LinearData:
    """g(x) = slope * x + intercept, whose values lie in the envelope
    (``errors.EXPONENT``) as every sample does."""

    domain: tuple
    slope: float = 1.0
    intercept: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "domain", _check_domain(self.domain))
        check_real("slope", self.slope)
        check_real("intercept", self.intercept)
        for value in self.value_range():
            check_real("slope * x + intercept at an end of the domain", value)

    def __call__(self, x):
        return self.slope * np.asarray(x, dtype=float) + self.intercept

    def value_range(self) -> tuple:
        va, vb = float(self(self.domain[0])), float(self(self.domain[1]))
        return (min(va, vb), max(va, vb))

    def moments(self, edges: np.ndarray) -> tuple:
        """Each cell's mean of g, g at its midpoint, and spread w (slope w)^2 / 12, w its width."""
        w = np.diff(edges)
        rise = self.slope * w
        return self(midpoints(edges)), w * (rise * rise) / 12.0


@dataclass(frozen=True)
class SineData:
    """g(x) = amplitude * sin(omega * x)."""

    domain: tuple
    amplitude: float = 1.0
    omega: float = 3.0 * np.pi

    def __post_init__(self):
        object.__setattr__(self, "domain", _check_domain(self.domain))
        check_real("amplitude", self.amplitude)
        size = abs(check_real("omega", self.omega))
        if size < SMALLEST:  # the moments divide by omega, a scale
            raise ConfigError(
                f"omega must be nonzero: |omega| = {size!r} is outside the magnitude envelope [2**-{EXPONENT}, 2**{EXPONENT}]"
            )

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

    def moments(self, edges: np.ndarray) -> tuple:
        """Each cell's mean of g and spread about it, from the integrals of
        s = sin(omega x) and s^2 over the cell (width w): s has the mean m =
        [-cos(omega x) / omega] / w (s at the left edge where omega w is 0)
        and the spread w / 2 - [sin(2 omega x) / (4 omega)] - w m^2, clipped
        at 0, scaled by a and a^2.  The spread cancels on small cells, but its
        error stays within 16 u a^2 (1 / |omega| + X + w) of the exact one,
        with u = 2**-53 and X the larger |edge|."""
        w = np.diff(edges)
        phase = self.omega * edges
        cos, sin2 = np.cos(phase), np.sin(2.0 * phase)
        scale = self.omega * w
        mean = np.divide(cos[:-1] - cos[1:], scale, out=np.sin(phase[:-1]), where=scale != 0)
        spread = w / 2.0 - (sin2[1:] - sin2[:-1]) / (4.0 * self.omega) - w * (mean * mean)
        a = self.amplitude
        return a * mean, a * (a * np.maximum(spread, 0.0))


def _require_same_domain(u, data) -> None:
    tol = _DOMAIN_TOL * data.domain[1] - _DOMAIN_TOL * data.domain[0]
    if abs(u.domain[0] - data.domain[0]) > tol or abs(u.domain[1] - data.domain[1]) > tol:
        raise ConfigError(f"domain mismatch: u on {u.domain}, data on {data.domain}")


# ---------------------------------------------------------------------------
# Energies.


@dataclass(frozen=True)
class EnergyBreakdown:
    tv_k: float
    fidelity: float

    @property
    def total(self) -> float:
        return self.tv_k + self.fidelity

    def to_json_dict(self) -> dict:
        return {"tv_k": self.tv_k, "fidelity": self.fidelity, "total": self.total}


def tv_kernel(u: PiecewiseConstant, kernel: JumpKernel) -> float:
    """Kernel-weighted variation: sum of K(|jump|) over the jumps."""
    sizes = np.abs(u.jump_sizes)
    if sizes.size == 0:
        return 0.0
    return float(np.sum(kernel.eval(sizes)))


def fidelity(u: PiecewiseConstant, data, lam: float) -> float:
    """(lam / 2) * integral over the domain of (u - g)^2: each plateau's
    ``cell_misfit`` over the data's ``moments`` on the plateaus, as the
    oracle prices its cells, added left to right from 0.

    Rounding: where the moments of a plateau of width W at value v are
    within e of the exact mean mu and within s of the exact spread, the
    fidelity F of n plateaus is within (lam / 2) sum (W e (2 |v - mu| + e)
    + s) + (n + 5) u F of the exact one, u = 2**-53."""
    _require_same_domain(u, data)
    edges = np.array((u.domain[0], *u.breakpoints, u.domain[1]))
    misfits = cell_misfit(np.diff(edges), *data.moments(edges), np.array(u.values))
    return 0.5 * lam * sum(misfits.tolist())


def energy(u: PiecewiseConstant, data, kernel: JumpKernel, lam: float) -> EnergyBreakdown:
    return EnergyBreakdown(tv_kernel(u, kernel), fidelity(u, data, lam))
