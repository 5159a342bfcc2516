"""The paper's proof devices, as helpers of the lemma tests.

Truncation (``clamp``), quantization onto a level grid (``quantize``), the
two-jump dispersion floor (``dispersion``), plain total variation (``tv``),
the cost of splitting one jump into two (``split_cost`` and its
derivative), a quadrature reference for the fidelity
(``fidelity_by_quadrature``) and an oracle result's cell values
(``sequence_from_result``).  The proofs use them to compare competitors;
kwcseg itself does not, so they live here, next to the tests that check
the lemmas with them.
"""

import numpy as np
from scipy.integrate import quad

from kwcseg.kernel import JumpKernel
from kwcseg.oracle import OracleProblem, OracleResult, cell_midpoints
from kwcseg.pwc import GridSignal, PiecewiseConstant, SineData, _plateau_edges, _require_same_domain


def tv(u: PiecewiseConstant) -> float:
    """Plain total variation: sum of absolute jump sizes."""
    return float(np.sum(np.abs(u.jump_sizes)))


def fidelity_by_quadrature(u: PiecewiseConstant, data, lam: float) -> float:
    """Reference fidelity path: adaptive quadrature on every plateau.

    Slow; kept as an independent check of the closed-form integrals.
    """
    _require_same_domain(u, data)
    integral = 0.0
    for lo, hi, val in _plateau_edges(u):
        piece, _err = quad(lambda x: (val - data(x)) ** 2, lo, hi, epsabs=1e-10, limit=200)
        integral += piece
    return 0.5 * lam * integral


def clamp(u: PiecewiseConstant, lo: float, hi: float) -> PiecewiseConstant:
    """Clip plateau values to [lo, hi]; collapsed jumps are merged away."""
    if not lo <= hi:
        raise ValueError("need lo <= hi")
    vals = np.clip(np.asarray(u.values, dtype=float), lo, hi)
    return PiecewiseConstant(u.domain, u.breakpoints, tuple(vals))


def _bisect_level(data, x0: float, x1: float, level: float, increasing: bool) -> float:
    """Leftmost crossing of g through ``level`` inside [x0, x1]."""
    lo, hi = x0, x1
    for _ in range(80):
        if hi - lo <= 1e-14 * max(1.0, abs(hi)):
            break
        mid = 0.5 * (lo + hi)
        val = float(data(mid))
        reached = val >= level if increasing else val <= level
        if reached:
            hi = mid
        else:
            lo = mid
    return hi


def quantize(data, eta: float) -> PiecewiseConstant:
    """Round continuous data down to the level grid {k * eta}.

    Returns the step function u(x) = k*eta on {k*eta <= g(x) < (k+1)*eta},
    with crossings located by bisection.  Plateaus whose level is attained
    only at isolated points (grazing contact at an extremum, or the far
    endpoint of the domain) carry no length and are dropped.
    """
    if not eta > 0:
        raise ValueError("eta must be positive")
    if not (callable(data) and hasattr(data, "domain")):
        raise TypeError("quantize needs callable data with a domain")
    if isinstance(data, (PiecewiseConstant, GridSignal)):
        raise TypeError("quantize needs continuous analytic data")
    a, b = data.domain
    n_scan = 4096
    if isinstance(data, SineData):
        cycles = abs(data.omega) * (b - a) / (2 * np.pi)
        n_scan = max(n_scan, int(256 * (cycles + 1)))
    xs = np.linspace(a, b, n_scan + 1)
    lv = np.floor(data(xs) / eta).astype(np.int64)

    bps: list = []
    vals: list = [int(lv[0])]
    for i in np.flatnonzero(np.diff(lv) != 0):
        x0, x1 = float(xs[i]), float(xs[i + 1])
        if lv[i + 1] > lv[i]:
            levels = range(int(lv[i]) + 1, int(lv[i + 1]) + 1)
            for L in levels:
                bps.append(_bisect_level(data, x0, x1, L * eta, increasing=True))
                vals.append(L)
        else:
            levels = range(int(lv[i]) - 1, int(lv[i + 1]) - 1, -1)
            for L in levels:
                bps.append(_bisect_level(data, x0, x1, (L + 1) * eta, increasing=False))
                vals.append(L)

    # Drop crossings that collide with the domain ends (zero-length plateau).
    keep_bp, keep_vals = [], [vals[0]]
    edge_tol = 1e-12 * max(1.0, abs(a), abs(b))
    for x, v in zip(bps, vals[1:]):
        if x - a <= edge_tol:
            keep_vals = [v]
            continue
        if b - x <= edge_tol:
            break
        keep_bp.append(x)
        keep_vals.append(v)
    return PiecewiseConstant((a, b), tuple(keep_bp), tuple(v * eta for v in keep_vals))


def dispersion(u: PiecewiseConstant, rho: float) -> float:
    """How far the jumps of a non-decreasing u are from one jump of size rho.

    With jump sizes r_i and s = sum r_i this is
    s^2 - sum r_i^2 + (rho - s)^2: zero exactly when u has a single jump of
    size rho, and at least 2 * r_i * r_j as soon as two jumps coexist.
    """
    jumps = u.jump_sizes
    if np.any(jumps < 0):
        raise ValueError("dispersion is defined for non-decreasing step functions")
    if rho < 0:
        raise ValueError("rho must be non-negative")
    s = float(jumps.sum())
    return s * s - float(np.sum(jumps * jumps)) + (rho - s) ** 2


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
    """d/dz of split_cost, exact for every kind.

    Rational kernel: with c' = c + 1/kappa, -4 c' z / (kappa^2 (c'^2 - z^2)^2).
    Linear and Potts: 0, since the cost is 2c and 2h for |z| < c; the Potts
    cost drops to h at |z| = c by a jump, not with a slope.
    """
    _check_split_domain(c, z)
    arr = np.clip(np.asarray(z, dtype=float), -c, c)
    if kernel.kind == "kwc":
        k = kernel.kappa
        cp = c + 1.0 / k
        out = -4.0 * cp * arr / (k * k * (cp * cp - arr * arr) ** 2)
    else:
        out = np.zeros_like(arr)
    if np.asarray(z).ndim == 0:
        return float(out)
    return out


def sequence_from_result(result: OracleResult, problem: OracleProblem) -> np.ndarray:
    """Cell-value vector of a result, for grid-level comparisons."""
    return result.minimizer(cell_midpoints(problem))
