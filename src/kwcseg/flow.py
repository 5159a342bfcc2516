"""Gradient flows on a uniform grid: plain TV, phase-field quadratic, and
phase-field weighted TV.

Models (u is the signal, v the edge-damage field, g the data):

* "rof":  sigma * sum|Du|                       + fidelity
* "at":   sigma * int v^2 |u'|^2 + well(v)      + fidelity
* "kwc":  sigma * int v^2 |Du|   + well(v)      + fidelity

where well(v) = int (eps/2)|v'|^2 + (1/(2 eps))(v - 1)^2 and fidelity is
(lam/2) int (u - g)^2.  u and v live on n uniform nodes; differences live on
the n - 1 edges.  The v^2 weight on an edge is the mean of the adjacent
squared node values, whose exact v-derivative is the half-to-each-node
lumping of the edge mass; both half-steps of the alternating scheme then
minimize the same discrete energy, so the per-step energy trace is
non-increasing up to rounding.

Time stepping is implicit (proximal), and rof, at and kwc share one step:
u with v frozen, then v with u frozen.  The non-smooth TV subproblems (rof,
kwc) are solved exactly by the fused-lasso dynamic program, each with a
duality-gap certificate from the dual recovered from its solution; the
quadratic u-subproblem (at) and the damage subproblem are tridiagonal
solves, the latter also giving the exact steady damage for a frozen u.

Resolution note: the half-to-each-node lumping biases the steady v at an
isolated jump by O(h/eps) (about +5% of the depth at n = 1000 and
eps = 0.005); quantitative checks against the sharp-interface value should
use grids with h well below eps.
"""

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import solve_banded

from .errors import ConfigError, DivergenceError
from .pwc import GridSignal

MODELS = ("rof", "at", "kwc")

TRACE_COLUMNS = ("t", "energy", "change_rate", "prox_gap")


@dataclass(frozen=True)
class FlowParams:
    """Model choice, grid, and time stepping for one flow run."""

    model: str
    lam: float
    n: int = 1000
    dt: float = 0.01
    sigma: float = 1.0
    epsilon: float = 0.005
    t_max: float = 100.0
    steady_tol: float = 1e-9
    bc_u: str = "neumann"
    pre_relax: bool = False
    output_stride: int = 10

    def validate(self) -> None:
        if self.model not in MODELS:
            raise ConfigError(f"unknown model {self.model!r}; expected one of {MODELS}")
        if self.bc_u not in ("neumann", "dirichlet"):
            raise ConfigError("bc_u must be 'neumann' or 'dirichlet'")
        if not isinstance(self.n, numbers.Integral) or self.n < 2:
            raise ConfigError("n must be an integer of at least two grid nodes")
        for name in ("lam", "sigma", "dt", "epsilon", "t_max", "steady_tol"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and math.isfinite(value)):
                raise ConfigError(f"{name} must be finite")
        for name in ("dt", "epsilon", "t_max"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive")
        if round(self.t_max / self.dt) < 1:
            raise ConfigError(f"t_max = {self.t_max} is less than one time step dt = {self.dt}")
        if self.lam < 0 or self.sigma < 0:
            raise ConfigError("lam and sigma must be non-negative")
        if self.steady_tol < 0:
            raise ConfigError("steady_tol must be non-negative")
        if not isinstance(self.output_stride, numbers.Integral) or self.output_stride < 1:
            raise ConfigError("output_stride must be an integer of at least 1")


@dataclass
class FlowState:
    t: float
    u: GridSignal
    v: GridSignal | None = None
    energy: float = math.nan
    prox_gap: float | None = None


@dataclass
class FlowResult:
    state: FlowState
    steady: bool
    steps: int
    trace: list
    params: FlowParams


# ---------------------------------------------------------------------------
# Energies.


def _edge_weights(v: np.ndarray, sigma: float) -> np.ndarray:
    return sigma * 0.5 * (v[:-1] ** 2 + v[1:] ** 2)


def _well_energy(v: np.ndarray, h: float, eps: float) -> float:
    grad = np.diff(v)
    return 0.5 * eps * float(np.sum(grad * grad)) / h + 0.5 * h / eps * float(np.sum((v - 1.0) ** 2))


def _fidelity_energy(u: np.ndarray, g: np.ndarray, h: float, lam: float) -> float:
    return 0.5 * lam * h * float(np.sum((u - g) ** 2))


def flow_energy(model: str, u: np.ndarray, v: np.ndarray | None, g: np.ndarray, h: float, params: FlowParams) -> float:
    du = np.diff(u)
    fid = _fidelity_energy(u, g, h, params.lam)
    if model == "rof":
        return params.sigma * float(np.sum(np.abs(du))) + fid
    w = _edge_weights(v, params.sigma)
    well = _well_energy(v, h, params.epsilon)
    if model == "kwc":
        return float(np.sum(w * np.abs(du))) + well + fid
    return float(np.sum(w * du * du)) / h + well + fid


# ---------------------------------------------------------------------------
# Exact inner solver for  min_u sum_e w_e |u_{e+1}-u_e| + (c / 2)|u - z|^2,
# with free ends or with u_0 and u_{n-1} pinned.


def tv_prox(z: np.ndarray, c: float, w: np.ndarray, pins=None) -> np.ndarray:
    """Exact minimizer by the fused-lasso dynamic program (N. Johnson, 2013).

    The forward pass carries h_k, the derivative in u_k of the least energy
    of u_0..u_k: a non-decreasing piecewise-linear function whose outermost
    pieces have slope c, stored as knots x with slope and intercept jumps
    (da, db) in flat arrays that grow by at most one slot at each end per
    edge.  Edge k clips h_k to [-w_k, w_k]; its crossing points tm_k <= tp_k
    give the best u_k for a given u_{k+1}, so the backward pass is
    u_k = clip(u_{k+1}, tm_k, tp_k).  Every knot is made once and removed
    at most once, so a solve is O(n).  A pinned first node sends a pure
    jump of 2 w_0 at the pin (two coincident knots); a pinned last node
    starts the backward pass at the pin, and a free one at the zero of
    h_{n-1}, found by one more pass with weight 0.
    """
    n = z.size
    zs, ws = z.tolist(), w.tolist() + [0.0]
    x, da, db = [0.0] * (2 * n), [0.0] * (2 * n), [0.0] * (2 * n)
    tm, tp = [0.0] * n, [0.0] * n
    if pins is None:
        first, w_prev = 0, 0.0
        left, right = n, n - 1  # no knots
    else:
        first, w_prev = 1, ws[0]
        left, right = n - 1, n
        x[left] = x[right] = tm[0] = tp[0] = pins[0]
        db[left] = db[right] = w_prev
    for k in range(first, n if pins is None else n - 1):
        wk = ws[k]
        base = -c * zs[k]
        # lo: first knot where the left limit of h_k exceeds -w_k; the
        # crossing is in the piece below it, or on the last knot passed.
        a, b, lo = c, base - w_prev, left
        while lo <= right and a * x[lo] + b <= -wk:
            a += da[lo]
            b += db[lo]
            lo += 1
        t_minus = (-wk - b) / a
        if lo > left and t_minus < x[lo - 1]:
            t_minus = x[lo - 1]
        a2, b2, hi = c, base + w_prev, right
        while hi >= left and a2 * x[hi] + b2 >= wk:
            a2 -= da[hi]
            b2 -= db[hi]
            hi -= 1
        t_plus = (wk - b2) / a2
        if hi < right and t_plus > x[hi + 1]:
            t_plus = x[hi + 1]
        left, right = lo - 1, hi + 1
        if left >= right:
            # Both crossings sit on one jump: the clipped message is a pure
            # jump from -w_k to w_k there.
            t_plus, right = t_minus, left
            x[left], da[left], db[left] = t_minus, 0.0, 2.0 * wk
        else:
            x[left], da[left], db[left] = t_minus, a, b + wk
            x[right], da[right], db[right] = t_plus, -a2, wk - b2
        tm[k], tp[k] = t_minus, t_plus
        w_prev = wk
    last = tm[-1] if pins is None else pins[1]
    u = [0.0] * n
    u[-1] = last
    for k in range(n - 2, -1, -1):
        last = tm[k] if last < tm[k] else tp[k] if last > tp[k] else last
        u[k] = last
    return np.array(u)


def tv_prox_dual(u: np.ndarray, z: np.ndarray, c: float, w: np.ndarray, pins=None) -> np.ndarray:
    """Edge dual p (|p| <= w) recovered from the minimizer u.

    Optimality gives r = D^T p = c (z - u) at every free node, which fixes p
    by a running sum.  With pins the end rows drop out and p keeps a free
    offset; the dual is linear in it with slope u_{n-1} - u_0, so it is
    taken at the end of its feasible interval that slope points to.
    """
    r = c * (z - u)
    if pins is None:
        return np.clip(-np.cumsum(r)[:-1], -w, w)
    q = np.concatenate(([0.0], -np.cumsum(r[1:-1])))
    lo, hi = float(np.max(-w - q)), float(np.min(w - q))
    slope = u[-1] - u[0]
    offset = hi if slope > 0 else lo if slope < 0 else 0.5 * (lo + hi)
    return np.clip(q + offset, -w, w)


def prox_gap(u, p, z, c, w, pins=None) -> float:
    """Primal minus dual objective: a bound on the suboptimality of u."""
    primal = float(np.sum(w * np.abs(np.diff(u)))) + 0.5 * c * float(np.sum((u - z) ** 2))
    r = np.empty_like(u)
    r[0] = -p[0]
    r[1:-1] = p[:-1] - p[1:]
    r[-1] = p[-1]
    if pins is None:
        dual = float(np.sum(z * r)) - float(np.sum(r * r)) / (2.0 * c)
    else:
        dual = float(np.sum(z[1:-1] * r[1:-1])) - float(np.sum(r[1:-1] ** 2)) / (2.0 * c)
        for idx, val in ((0, pins[0]), (-1, pins[1])):
            dual += val * r[idx] + 0.5 * c * (val - z[idx]) ** 2
    return primal - dual


def _pins(g: np.ndarray, params: FlowParams):
    if params.bc_u == "dirichlet":
        return (float(g[0]), float(g[-1]))
    return None


# ---------------------------------------------------------------------------
# Time steps.


def _solve_tridiag(diag, lower, upper, rhs) -> np.ndarray:
    ab = np.zeros((3, diag.size))
    ab[0, 1:] = upper
    ab[1, :] = diag
    ab[2, :-1] = lower
    return solve_banded((1, 1), ab, rhs)


def _coupling(model: str, u: np.ndarray, sigma: float, h: float) -> np.ndarray:
    """Coefficient of v_i in the damage equation for a frozen signal u.

    It is 2*sigma times the half-to-each-node lumping of the edge jump
    |Du| (kwc) or of the edge squared slope |Du|^2 / h (at).
    """
    du = np.diff(u)
    edge = np.abs(du) if model == "kwc" else du * du
    lumped = np.zeros(u.size)
    lumped[:-1] += 0.5 * edge
    lumped[1:] += 0.5 * edge
    c = 2.0 * sigma * lumped
    return c if model == "kwc" else c / h


def _damage_solve(coupling: np.ndarray, h: float, params: FlowParams, v0=None) -> np.ndarray:
    """Damage field for a frozen signal, clipped to [0, 1].

    Solves (h/dt + h/eps + coupling_i) v_i + stiffness = h v0_i/dt + h/eps
    with natural ends: one implicit step from v0, or, when v0 is None, the
    steady state, which drops both h/dt terms.
    """
    n = coupling.size
    eps, dt = params.epsilon, params.dt
    neighbours = np.full(n, 2.0)
    neighbours[[0, -1]] = 1.0
    shift = h / eps if v0 is None else h / dt + h / eps
    diag = shift + coupling + (eps / h) * neighbours
    rhs = np.full(n, h / eps) if v0 is None else h * v0 / dt + h / eps
    off = np.full(n - 1, -eps / h)
    return np.clip(_solve_tridiag(diag, off, off, rhs), 0.0, 1.0)


def _prox_half_step(u0: np.ndarray, g: GridSignal, w: np.ndarray, params: FlowParams):
    """Implicit TV step of u: the exact prox and its duality gap."""
    mu = params.lam + 1.0 / params.dt
    z = (params.lam * g.samples + u0 / params.dt) / mu
    c = mu * g.h
    pins = _pins(g.samples, params)
    u1 = tv_prox(z, c, w, pins)
    return u1, prox_gap(u1, tv_prox_dual(u1, z, c, w, pins), z, c, w, pins)


def _quadratic_half_step(u0: np.ndarray, g: GridSignal, w: np.ndarray, params: FlowParams) -> np.ndarray:
    """Implicit step of u for the at model: one tridiagonal solve."""
    h = g.h
    coeff = 2.0 * w / h
    diag = np.full(u0.size, h / params.dt + params.lam * h)
    diag[:-1] += coeff
    diag[1:] += coeff
    lower, upper = -coeff, -coeff
    rhs = h * (u0 / params.dt + params.lam * g.samples)
    pins = _pins(g.samples, params)
    if pins is not None:
        diag[[0, -1]] = 1.0
        upper[0] = lower[-1] = 0.0
        rhs[[0, -1]] = pins
    return _solve_tridiag(diag, lower, upper, rhs)


def step(state: FlowState, g: GridSignal, params: FlowParams) -> FlowState:
    """One step of the alternating scheme, shared by rof, at and kwc.

    u takes an implicit step with v frozen: the exact TV prox for rof
    (weights sigma) and kwc (weights sigma v^2), a tridiagonal solve for at.
    Then v, when the model has one, takes an implicit step with u frozen.
    """
    model, h = params.model, g.h
    u0 = state.u.samples
    v0 = None if model == "rof" else state.v.samples
    w = np.full(u0.size - 1, params.sigma) if v0 is None else _edge_weights(v0, params.sigma)
    if model == "at":
        u1, gap = _quadratic_half_step(u0, g, w, params), None
    else:
        u1, gap = _prox_half_step(u0, g, w, params)
    v1 = None if v0 is None else _damage_solve(_coupling(model, u1, params.sigma, h), h, params, v0)
    return replace(
        state,
        t=state.t + params.dt,
        u=GridSignal(g.domain, u1),
        v=None if v1 is None else GridSignal(g.domain, v1),
        energy=flow_energy(model, u1, v1, g.samples, h, params),
        prox_gap=gap,
    )


def pre_relax_v(state: FlowState, g: GridSignal, params: FlowParams) -> FlowState:
    """Set the damage field to its exact steady state for the frozen signal.

    Gives an initial v consistent with the jumps of u0, so a theoretical
    start is not destroyed by the first few coupled steps.
    """
    if params.model == "rof":
        return state
    v = steady_damage_profile(state.u, params)
    return replace(
        state,
        v=v,
        energy=flow_energy(params.model, state.u.samples, v.samples, g.samples, g.h, params),
    )


def _validate_on(params: FlowParams, h: float) -> None:
    """``params.validate()`` plus the interface-width check on the spacing
    ``h`` of the grid solved on: the data's own, 1/(n - 1) only on [0, 1]."""
    params.validate()
    # The steady damage matrix has diagonal h/eps + 2 eps/h + coupling and
    # off-diagonals -eps/h; h/eps must survive the sum or it is singular.
    shift, stiff = h / params.epsilon, params.epsilon / h
    if not (math.isfinite(shift) and math.isfinite(stiff) and shift + 2.0 * stiff > 2.0 * stiff):
        raise ConfigError(
            f"epsilon = {params.epsilon} is out of range for the grid spacing h = {h}: "
            "h/epsilon and epsilon/h must be finite and the damage matrix diagonally dominant"
        )


def steady_damage_profile(u: GridSignal, params: FlowParams) -> GridSignal:
    """Steady damage field for a frozen signal (kwc or at coupling).

    Solves the linear steadiness system directly instead of time stepping:
    (h/eps + coupling_i) v_i + stiffness = h/eps with natural ends.
    """
    _validate_on(params, u.h)
    if params.model == "rof":
        raise ConfigError("the rof model has no damage field")
    if u.n != params.n:
        raise ConfigError(f"grid mismatch: u has {u.n} nodes, params.n = {params.n}")
    coupling = _coupling(params.model, u.samples, params.sigma, u.h)
    return GridSignal(u.domain, _damage_solve(coupling, u.h, params))


def run(g: GridSignal, u0: GridSignal, params: FlowParams) -> FlowResult:
    """Integrate the flow until steadiness or t_max.

    Steadiness means the relative sup-norm change of u per unit time drops
    below steady_tol.  Non-finite values abort with the last finite state
    and the trace kept on the error for post-mortem.
    """
    _validate_on(params, g.h)
    if u0.n != g.n or u0.n != params.n:
        raise ConfigError(f"grid mismatch: g has {g.n} nodes, u0 has {u0.n}, params.n = {params.n}")
    if not (np.all(np.isfinite(g.samples)) and np.all(np.isfinite(u0.samples))):
        raise ConfigError("g and u0 must have finite samples")
    u = u0.samples.copy()
    pins = _pins(g.samples, params)
    if pins is not None:
        u[0], u[-1] = pins
    v = None
    if params.model != "rof":
        v = GridSignal(g.domain, np.ones(params.n))
    state = FlowState(t=0.0, u=GridSignal(g.domain, u), v=v)
    h = g.h
    if params.pre_relax:
        state = pre_relax_v(state, g, params)
    state.energy = flow_energy(
        params.model, state.u.samples, None if state.v is None else state.v.samples, g.samples, h, params
    )

    trace = [(0.0, state.energy, math.nan, math.nan)]
    steady = False
    steps = 0
    quiet_steps = 0
    n_steps = int(round(params.t_max / params.dt))
    for _ in range(n_steps):
        new_state = step(state, g, params)
        if not (np.all(np.isfinite(new_state.u.samples)) and math.isfinite(new_state.energy)):
            raise DivergenceError(
                f"flow produced non-finite values at t = {new_state.t:.6g}",
                state=state,
                trace=trace,
            )
        change = float(np.max(np.abs(new_state.u.samples - state.u.samples)))
        rate = change / (params.dt * max(1.0, float(np.max(np.abs(new_state.u.samples)))))
        gap = math.nan if new_state.prox_gap is None else new_state.prox_gap
        trace.append((new_state.t, new_state.energy, rate, gap))
        state = new_state
        steps += 1
        # Two consecutive quiet steps: a cold-started damage field can stall
        # u for exactly one step while v is still forming.
        quiet_steps = quiet_steps + 1 if rate < params.steady_tol else 0
        if quiet_steps >= 2:
            steady = True
            break
    return FlowResult(state=state, steady=steady, steps=steps, trace=trace, params=params)


# ---------------------------------------------------------------------------
# Census of the jumps of a grid signal.


def check_threshold(threshold) -> float:
    """The census threshold as a float; anything but a number >= 0 is a ConfigError."""
    if not (isinstance(threshold, numbers.Real) and threshold >= 0):
        raise ConfigError(f"census threshold must be a number >= 0, got {threshold!r}")
    return float(threshold)


def _census_groups(u: GridSignal, threshold: float) -> list:
    d = np.diff(u.samples)
    mask = np.abs(d) > check_threshold(threshold)
    x = u.x()
    mids = 0.5 * (x[:-1] + x[1:])
    groups = []
    i = 0
    while i < d.size:
        if not mask[i]:
            i += 1
            continue
        j = i
        while j + 1 < d.size and mask[j + 1]:
            j += 1
        chunk = d[i : j + 1]
        weights = np.abs(chunk)
        pos = float(np.sum(mids[i : j + 1] * weights) / np.sum(weights))
        groups.append((i, j, pos, float(np.sum(chunk))))
        i = j + 1
    return groups


def jump_census(u: GridSignal, threshold: float) -> list:
    """Jumps of u: edges with |difference| > threshold, adjacent edges merged.

    Returns (position, signed size) pairs; the position is the
    size-weighted centroid of the merged edges.
    """
    return [(pos, size) for _i, _j, pos, size in _census_groups(u, threshold)]


def edges_above(u: GridSignal, threshold: float) -> int:
    """Number of individual edges whose difference exceeds the threshold."""
    return int(np.sum(np.abs(np.diff(u.samples)) > check_threshold(threshold)))


def plateau_flatness(u: GridSignal, threshold: float, margin: int = 2) -> list:
    """Sup-variation of u inside each plateau between censused jumps.

    Plateaus are the node ranges between merged jump groups at the given
    threshold, shrunk by ``margin`` cells on each side; returns a list of
    (start_node, end_node, variation) for the non-empty ones.
    """
    groups = _census_groups(u, threshold)
    cuts = [0]
    for i, j, _pos, _size in groups:
        cuts.append(i)          # plateau ends at the first edge of the group
        cuts.append(j + 2)      # next plateau starts after the last edge
    cuts.append(u.n)
    out = []
    for lo, hi in zip(cuts[::2], cuts[1::2]):
        lo2, hi2 = lo + margin, hi - margin
        if hi2 - lo2 < 2:
            continue
        seg = u.samples[lo2:hi2]
        out.append((lo2, hi2, float(seg.max() - seg.min())))
    return out
