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
non-increasing up to rounding.  The at model breaks this at large sigma,
where its u-step's tridiagonal solve is too ill-conditioned to descend:
on ``noisy_steps`` (n = 1000, lam = 50, dt = 0.01) the worst per-step
relative rise is 3.2e-9 at sigma = 1e8 and 6.5e-4 at 1e10, an open item
of ROADMAP.md.

Time stepping is implicit (proximal), and rof, at and kwc share one step:
u with v frozen, then v with u frozen.  The non-smooth TV subproblems (rof,
kwc) are solved exactly.  KWC and ROF iterates are piecewise constant with
few jumps, and along a flow the jump set of u mostly stays put, so a TV
step is first solved in closed form on the previous step's jump pattern
(vectorised, O(n)); otherwise the fused-lasso dynamic program (a
pure-Python O(n) loop) solves it.  Each answer gets one certificate from
its own jump set: the miss of its optimality conditions accepts or
rejects the closed form, and its dual gives the step's duality gap.  The
quadratic u-subproblem (at) and the damage subproblem are tridiagonal
solves, one direct call of LAPACK's gtsv each, the latter also giving the
exact steady damage for a frozen u.  SciPy, which provides gtsv, is
imported at the first solve, so loading this module loads no SciPy.

A FlowParams checks its fields and a GridSignal its samples when built;
``run`` and ``steady_damage_profile`` share one check of the grid.

Resolution note: the half-to-each-node lumping biases the steady v at an
isolated jump by O(h/eps) (about +5% of the depth at n = 1000 and
eps = 0.005); quantitative checks against the sharp-interface value, the
energy of the run's ``sharp_twin``, should use grids with h well below eps.
"""

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import LARGEST, ConfigError, DivergenceError, check_count, check_real
from .kernel import kwc_kernel, linear_kernel
from .pwc import MAX_NODES, GridSignal, PiecewiseConstant, _require_same_domain, midpoints

MODELS = ("rof", "at", "kwc")
# The most time steps of one run, round(t_max / dt): far above every run
# the protocols and the benchmark make (10^4 steps at most), and far below
# one that would run for days.
MAX_STEPS = 10**7

TRACE_COLUMNS = ("t", "energy", "change_rate", "prox_gap")
# A run is steady once two consecutive steps have a change rate (see
# ``run``) below this: relative to max|u|, so the same at every data scale.
STEADY_RATE = 1e-9


@dataclass(frozen=True)
class FlowParams:
    """Model choice, grid, and time stepping for one flow run, checked when built."""

    model: str
    lam: float
    n: int = 1000
    dt: float = 0.01
    sigma: float = 1.0
    epsilon: float = 0.005
    t_max: float = 100.0
    bc_u: str = "neumann"
    pre_relax: bool = False
    # trace.csv keeps every output_stride-th step and the last.
    output_stride: ClassVar[int] = 10

    def __post_init__(self):
        if self.model not in MODELS:
            raise ConfigError(f"unknown model {self.model!r}; expected one of {MODELS}")
        if self.bc_u not in ("neumann", "dirichlet"):
            raise ConfigError("bc_u must be 'neumann' or 'dirichlet'")
        if not isinstance(self.pre_relax, bool):
            raise ConfigError(f"pre_relax must be true or false, got {self.pre_relax!r}")
        check_count("n", self.n, least=2, most=MAX_NODES)
        for name in ("lam", "sigma"):
            check_real(name, getattr(self, name), least=0)
        for name in ("dt", "epsilon", "t_max"):
            check_real(name, getattr(self, name), positive=True)
        if not 0.5 < self.t_max / self.dt < MAX_STEPS + 0.5:  # 1 <= round(t_max / dt) <= MAX_STEPS
            raise ConfigError(
                f"t_max = {self.t_max} must be at least one time step dt = {self.dt}, "
                f"in at most the limit of {MAX_STEPS} steps"
            )


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


def _edge_weights(v: np.ndarray | None, params: FlowParams) -> np.ndarray:
    """The TV weights sigma (v_i^2 + v_(i+1)^2) / 2, or sigma with no damage field."""
    if v is None:
        return np.full(params.n - 1, params.sigma)
    square = v * v
    return params.sigma * 0.5 * (square[:-1] + square[1:])


def flow_energy(u: np.ndarray, v: np.ndarray | None, g: np.ndarray, h: float, params: FlowParams) -> float:
    return _energy(u, u[1:] - u[:-1], v, None if v is None else _edge_weights(v, params), g, h, params)


def _energy(u, du, v, w, g, h, params) -> float:
    """``flow_energy`` given du = diff(u) and the edge weights w of v."""
    fid = 0.5 * params.lam * h * float(np.square(u - g).sum())
    if params.model == "rof":
        return params.sigma * float(np.abs(du).sum()) + fid
    eps = params.epsilon
    well = 0.5 * eps * float(np.square(v[1:] - v[:-1]).sum()) / h + 0.5 * h / eps * float(np.square(v - 1.0).sum())
    if params.model == "kwc":
        return float((w * np.abs(du)).sum()) + well + fid
    return float((w * du * du).sum()) / h + well + fid


def sharp_twin(params: FlowParams):
    """The run's sharp-interface problem: ``(kernel, weight, factor)``, or None.

    As eps -> 0 the run's energy of a step function u is ``factor`` times
    ``pwc.energy(u, g, kernel, weight)``, sum K(|jump|) + (weight/2) int (u - g)^2:

    * kwc: at a jump of size rho the damage dips to v0 and pays
      sigma v0^2 rho + (1 - v0)^2, least at v0 = 1/(1 + sigma rho), so a
      jump costs sigma rho/(1 + sigma rho) = sigma K_sigma(rho), with
      K_sigma = ``kwc_kernel(sigma)``: (kwc_kernel(sigma), lam/sigma, sigma).
    * rof: a jump costs sigma rho, TV over step functions:
      (linear_kernel(), lam/sigma, sigma).
    * at: None.  Its bulk term sigma int v^2 |u'|^2 is invisible to step
      functions, so no kernel prices it.
    * sigma = 0: None, as no jump costs anything.

    At sigma = 1 the twin of kwc is kwc_kernel(1.0) at weight lam, factor 1.
    """
    if params.model != "at" and params.sigma > 0:
        kernel = kwc_kernel(params.sigma) if params.model == "kwc" else linear_kernel()
        return kernel, params.lam / params.sigma, params.sigma
    return None


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

    The flow calls it only when the closed form on the previous step's
    jump pattern (``_prox_from_pattern``) fails its check; it is also the
    reference the tests hold that closed form to.
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


def prox_certificate(u: np.ndarray, z: np.ndarray, c: float, w: np.ndarray, pins=None):
    """Duality gap and optimality miss of u as the prox of z.

    Optimality asks for an edge dual p with D^T p = c (z - u) at every free
    node, p_e = sign(du_e) w_e on the edges where u jumps and |p_e| <= w_e on
    the flat ones.  The first condition fixes p as a running sum q plus an
    offset: free ends take offset 0 and leave an end residual, which
    vanishes at the minimizer; with pins the end rows drop out and the
    offset is the middle of the interval the other two conditions leave.
    The miss is the largest violation of the three.  The gap, a bound on
    the suboptimality of u, is primal minus dual objective at the feasible
    p = clip(q + offset, -w, w): sum(w |du| - p du) plus
    |c (z - u) - D^T p|^2 / (2 c) over the free nodes.
    """
    return _certificate(u, u[1:] - u[:-1], z, c, w, pins)


def _certificate(u, du, z, c, w, pins):
    """``prox_certificate`` given du = diff(u)."""
    r = c * (z - u)
    if pins is None:
        q = -r.cumsum()
        q, end = q[:-1], abs(float(q[-1]))
    else:
        q, end = np.concatenate(([0.0], -r[1:-1].cumsum())), 0.0
    jump = du != 0
    target = np.sign(du) * w
    lo, hi = float((np.where(jump, target, -w) - q).max()), float((np.where(jump, target, w) - q).min())
    offset = 0.0 if pins is None else 0.5 * (lo + hi)
    p = (q + offset).clip(-w, w)
    # r + D^T p: D^T p is p_0 - 0 at the first node, p_k - p_(k-1) inside and 0 - p_(n-2) at the last.
    residual = r[1:-1] + (p[1:] - p[:-1])
    if pins is None:
        residual = np.concatenate(([r[0] + p[0]], residual, [r[-1] + (0.0 - p[-1])]))
    gap = float((w * np.abs(du) - p * du).sum()) + float(np.square(residual).sum()) / (2.0 * c)
    return gap, max(end, lo - offset, offset - hi)


def _prox_from_pattern(z: np.ndarray, c: float, w: np.ndarray, pins, hint: np.ndarray):
    """The prox in closed form for the jump pattern of ``hint``, its gap and its differences, or None.

    Segments are the maximal runs where diff(hint) == 0, and each jump edge
    e keeps the sign s_e of its hint difference.  A free segment takes
    (sum z + (s_r w_r - s_l w_l) / c) / length, with s_l w_l and s_r w_r the
    terms of its left and right jump edges; a pinned end segment takes its
    pin, so one segment between unequal pins has no answer.  The answer is
    returned only when ``prox_certificate``, judging it on its own jumps,
    finds it optimal to rounding: a jump whose sign flipped has a dual of
    s_e w_e where it needs -s_e w_e, and a hinted jump that vanished is held
    to the flat-edge bound.  c > 0 makes the prox unique, so an accepted
    answer is ``tv_prox``'s to rounding.
    """
    n = z.size
    d = hint[1:] - hint[:-1]
    jumps = d.nonzero()[0]
    cuts = np.concatenate(([0], jumps + 1, [n]))
    starts, lengths = cuts[:-1], cuts[1:] - cuts[:-1]
    sw = np.sign(d[jumps]) * w[jumps]
    shift = np.zeros(starts.size)
    shift[:-1] += sw
    shift[1:] -= sw
    values = (np.add.reduceat(z, starts) + shift / c) / lengths
    if pins is not None:
        if starts.size == 1 and pins[0] != pins[1]:
            return None
        values[0], values[-1] = pins
    u = values.repeat(lengths)
    du = u[1:] - u[:-1]
    gap, miss = _certificate(u, du, z, c, w, pins)
    # The only slack: a forward-error bound of running sums of n terms whose
    # sizes add to at most `scale`, each term also off by up to c + 1 units
    # of the least subnormal where it underflows.
    scale = c * float(np.abs(z).sum() + np.abs(u).sum()) + float(w.sum())
    tiny = np.finfo(float).smallest_subnormal
    return (u, gap, du) if miss <= n * (np.finfo(float).eps * scale + (1.0 + c) * tiny) else None


def _pins(g: np.ndarray, params: FlowParams):
    if params.bc_u == "dirichlet":
        return (float(g[0]), float(g[-1]))
    return None


# ---------------------------------------------------------------------------
# Time steps.


def _solve_tridiag(diag, lower, upper, rhs) -> np.ndarray:
    """``solve_banded((1, 1), ...)``'s LAPACK gtsv call, unchecked; overwrites diag and rhs only."""
    if diag.size < 2:
        return rhs / diag
    from scipy.linalg.lapack import dgtsv  # here, so that loading flow loads no SciPy

    x, info = dgtsv(lower, diag, upper, rhs, overwrite_d=1, overwrite_b=1)[3:]
    if info:
        raise np.linalg.LinAlgError("singular matrix")
    return x


def _damage_solve(du: np.ndarray, h: float, params: FlowParams, v0=None) -> np.ndarray:
    """Damage field for a frozen signal u with du = diff(u), clipped to [0, 1].

    Solves (h/dt + h/eps + coupling_i) v_i + stiffness = h v0_i/dt + h/eps
    with natural ends: one implicit step from v0, or, when v0 is None, the
    steady state, which drops both h/dt terms.  The coupling is 2*sigma
    times the half-to-each-node lumping of the edge jump |Du| (kwc) or of
    the edge squared slope |Du|^2 / h (at).
    """
    half = 0.5 * (np.abs(du) if params.model == "kwc" else du * du)
    lumped = np.concatenate((half, [0.0]))
    lumped[1:] += half
    coupling = 2.0 * params.sigma * lumped
    if params.model != "kwc":
        coupling = coupling / h
    n, eps, dt = coupling.size, params.epsilon, params.dt
    stiff = eps / h
    diag = (h / eps if v0 is None else h / dt + h / eps) + coupling
    diag[1:-1] += 2.0 * stiff
    diag[[0, -1]] += stiff
    rhs = np.full(n, h / eps) if v0 is None else h * v0 / dt + h / eps
    off = np.full(n - 1, -stiff)
    v = _solve_tridiag(diag, off, off, rhs)
    return v.clip(0.0, 1.0, out=v)


def _prox_half_step(u0: np.ndarray, g: GridSignal, w: np.ndarray, params: FlowParams):
    """Implicit TV step of u: the exact prox, its duality gap and its differences.

    Along a flow the jump set of u rarely changes from one step to the
    next, so the prox is first taken in closed form on the jump pattern of
    u0, the previous step's solution (``_prox_from_pattern``, vectorised);
    when ``prox_certificate`` rejects that answer, ``tv_prox`` solves the
    step.  Either way the one certificate of the answer gives the gap.
    """
    mu = params.lam + 1.0 / params.dt
    z = (params.lam * g.samples + u0 / params.dt) / mu
    c = mu * g.h
    pins = _pins(g.samples, params)
    found = _prox_from_pattern(z, c, w, pins, u0)
    if found is not None:
        return found
    u1 = tv_prox(z, c, w, pins)
    du1 = u1[1:] - u1[:-1]
    return u1, _certificate(u1, du1, z, c, w, pins)[0], du1


def _quadratic_half_step(u0: np.ndarray, g: GridSignal, w: np.ndarray, params: FlowParams):
    """Implicit step of u for the at model, as ``_prox_half_step`` returns it
    (with no gap): one tridiagonal solve, over the interior nodes with the
    pins' terms moved to the right-hand side when the ends are pinned."""
    h = g.h
    coeff = 2.0 * w / h
    diag = np.full(u0.size, h / params.dt + params.lam * h)
    diag[:-1] += coeff
    diag[1:] += coeff
    rhs = h * (u0 / params.dt + params.lam * g.samples)
    pins = _pins(g.samples, params)
    inner = slice(None) if pins is None else slice(1, -1)
    if pins is not None:
        rhs[1] += coeff[0] * pins[0]
        rhs[-2] += coeff[-1] * pins[1]
        rhs[0], rhs[-1] = pins
    rhs[inner] = _solve_tridiag(diag[inner], -coeff[inner], -coeff[inner], rhs[inner])
    return rhs, None, rhs[1:] - rhs[:-1]


def _step(u: np.ndarray, v: np.ndarray | None, g: GridSignal, params: FlowParams, w: np.ndarray):
    """One step of the alternating scheme, shared by rof, at and kwc: the
    loop of ``run``, on the samples of u and v (None for rof), already
    checked, and the edge weights w of v.

    u takes an implicit step with v frozen: the exact TV prox for rof
    (weights sigma) and kwc (weights sigma v^2), a tridiagonal solve for at.
    Then v, when the model has one, takes an implicit step with u frozen.
    Returns the new u, v and edge weights, the new energy and the prox gap.
    """
    model, h = params.model, g.h
    u1, gap, du1 = (_quadratic_half_step if model == "at" else _prox_half_step)(u, g, w, params)
    v1 = None if model == "rof" else _damage_solve(du1, h, params, v)
    w1 = w if v1 is None else _edge_weights(v1, params)
    return u1, v1, w1, _energy(u1, du1, v1, w1, g.samples, h, params), gap


def _flow_state(g: GridSignal, t: float, u: np.ndarray, v: np.ndarray | None, energy: float, gap) -> FlowState:
    return FlowState(
        t=t,
        u=GridSignal(g.domain, u),
        v=None if v is None else GridSignal(g.domain, v),
        energy=energy,
        prox_gap=gap,
    )


def _check_grid(params: FlowParams, u: GridSignal, g: GridSignal) -> None:
    """u and the data g (u itself for a lone signal) on one grid of
    ``params.n`` nodes, of spacing h (the data's own, 1/(n - 1) only on
    [0, 1]), on which every solve keeps its shift.

    Range: every input lies in the envelope (``errors.EXPONENT``), so every
    term the steps form is finite, the largest near 2**628, and every
    shift below is finite and above 0.

    Shift rule: a shift must survive the coupling its matrix adds beside
    it, or the solve is singular in floats: s = (lam + 1/dt) h beside the
    4 sigma / h that at's matrix adds to a diagonal entry and takes off the
    row again (sigma), and the steady damage step's h/eps beside its
    2 eps / h in at and kwc (epsilon).
    """
    if u.n != g.n or u.n != params.n:
        nodes = f"u has {u.n} nodes" if u is g else f"g has {g.n} nodes, u has {u.n}"
        raise ConfigError(f"grid mismatch: {nodes}, params.n = {params.n}")
    _require_same_domain(u, g)
    model, h, lam, dt, sigma, eps = params.model, g.h, params.lam, params.dt, params.sigma, params.epsilon
    s = (lam + 1.0 / dt) * h
    solves = [(f"sigma = {sigma} is", "s = (lam + 1/dt) h", s, 4.0 * sigma / h)] if model == "at" else []
    solves += [(f"epsilon = {eps} is", "h/epsilon", h / eps, 2.0 * (eps / h))] if model != "rof" else []
    for inputs, name, shift, coupling in solves:
        if not shift + coupling > coupling:
            raise ConfigError(
                f"{inputs} out of range for the {model} flow at h = {h}, dt = {dt} and lam = {lam}: "
                f"the shift {name} = {shift} must survive the coupling {coupling} beside it"
            )


def steady_damage_profile(u: GridSignal, params: FlowParams) -> GridSignal:
    """Steady damage field for a frozen signal (kwc or at coupling).

    Solves the linear steadiness system directly instead of time stepping:
    (h/eps + coupling_i) v_i + stiffness = h/eps with natural ends.  A run
    with ``pre_relax`` starts from this field of its u0, pins set.
    """
    _check_grid(params, u, u)
    if params.model == "rof":
        raise ConfigError("the rof model has no damage field")
    return GridSignal(u.domain, _damage_solve(np.diff(u.samples), u.h, params))


def run(g: GridSignal, u0: GridSignal, params: FlowParams) -> FlowResult:
    """Integrate the flow until steadiness or t_max.

    A step's change rate (the trace's ``change_rate``) is the sup-norm
    change of u per unit time divided by max|u| after the step, with no
    floor, so it reads the same at every scale of the data: a step with no
    change has rate 0, and a change when dt max|u| is 0 (u = 0) rate inf.
    The run is steady once two consecutive steps have a rate below
    ``STEADY_RATE`` = 1e-9.  Non-finite values abort with the last finite
    state and the trace kept on the error for post-mortem.  An exact step
    keeps u within the range of g and u0, inside the envelope
    (``errors.EXPONENT``); a sample that rounds past the envelope's edge is
    put back on it, so that every state is a ``GridSignal``.
    """
    _check_grid(params, u0, g)
    u = u0.samples.copy()
    pins = _pins(g.samples, params)
    if pins is not None:
        u[0], u[-1] = pins
    model, h, v = params.model, g.h, None
    if model != "rof":
        v = np.ones(params.n)
        if params.pre_relax:  # steady_damage_profile's solve, on inputs already checked
            v = _damage_solve(np.diff(u), h, params)
    w = _edge_weights(v, params)
    t, energy, gap = 0.0, _energy(u, np.diff(u), v, w, g.samples, h, params), None

    trace = [(0.0, energy, math.nan, math.nan)]
    steady = False
    steps = 0
    quiet_steps = 0
    n_steps = int(round(params.t_max / params.dt))
    for _ in range(n_steps):
        u1, v1, w, energy1, gap1 = _step(u, v, g, params, w)
        t1 = t + params.dt
        size = float(np.abs(u1).max())  # not finite exactly when a sample is not
        if not (math.isfinite(size) and math.isfinite(energy1)):
            raise DivergenceError(
                f"flow produced non-finite values at t = {t1:.6g}",
                state=_flow_state(g, t, u, v, energy, gap),
                trace=trace,
            )
        if size > LARGEST:  # rounding past the envelope's edge, which the exact step keeps to
            np.clip(u1, -LARGEST, LARGEST, out=u1)
        change = float(np.abs(u1 - u).max())
        scale = params.dt * size
        rate = change / scale if scale else math.inf if change else 0.0
        trace.append((t1, energy1, rate, math.nan if gap1 is None else gap1))
        u, v, t, energy, gap = u1, v1, t1, energy1, gap1
        steps += 1
        # Two consecutive quiet steps: a cold-started damage field can stall
        # u for exactly one step while v is still forming.
        quiet_steps = quiet_steps + 1 if rate < STEADY_RATE else 0
        if quiet_steps >= 2:
            steady = True
            break
    return FlowResult(
        state=_flow_state(g, t, u, v, energy, gap), steady=steady, steps=steps, trace=trace, params=params
    )


# ---------------------------------------------------------------------------
# Census of the jumps of a grid signal.

# Cells left out next to each jump group: by ``plateau_flatness`` on each
# side of a plateau, and by ``census_fit``'s plateau means.
_FLATNESS_MARGIN = 2
_FIT_MARGIN = 5


def _census_groups(u: GridSignal, threshold: float) -> list:
    d = np.diff(u.samples)
    mask = np.abs(d) > check_real("census threshold", threshold, least=0)
    mids = midpoints(u.x())
    bounds = np.flatnonzero(np.diff(mask, prepend=False, append=False)).tolist()
    groups = []
    for i, end in zip(bounds[::2], bounds[1::2]):  # each run of edges above the threshold: mask[i:end]
        chunk = d[i:end]
        weights = np.abs(chunk)
        pos = float(np.sum(mids[i:end] * weights) / np.sum(weights))
        groups.append((i, end - 1, pos, float(np.sum(chunk))))
    return groups


def jump_census(u: GridSignal, threshold: float) -> list:
    """Jumps of u: edges with |difference| > threshold, adjacent edges merged.

    Returns (position, signed size) pairs; the position is the
    size-weighted centroid of the merged edges.
    """
    return [(pos, size) for _i, _j, pos, size in _census_groups(u, threshold)]


def edges_above(u: GridSignal, threshold: float) -> int:
    """Number of individual edges whose difference exceeds the threshold."""
    return int(np.sum(np.abs(np.diff(u.samples)) > check_real("census threshold", threshold, least=0)))


def plateau_flatness(u: GridSignal, threshold: float) -> list:
    """Sup-variation of u inside each plateau between censused jumps.

    Plateaus are the node ranges between merged jump groups at the given
    threshold, shrunk by ``_FLATNESS_MARGIN`` = 2 cells on each side;
    returns a list of (start_node, end_node, variation) for the non-empty
    ones.
    """
    # Each plateau ends at the first edge of a group, and the next starts after its last edge.
    cuts = [0, *(c for i, j, _pos, _size in _census_groups(u, threshold) for c in (i, j + 2)), u.n]
    out = []
    for lo, hi in zip(cuts[::2], cuts[1::2]):
        lo2, hi2 = lo + _FLATNESS_MARGIN, hi - _FLATNESS_MARGIN
        if hi2 - lo2 < 2:
            continue
        seg = u.samples[lo2:hi2]
        out.append((lo2, hi2, float(seg.max() - seg.min())))
    return out


def census_fit(u: GridSignal, threshold: float) -> PiecewiseConstant:
    """Piecewise-constant fit of a grid signal from its jump census.

    Breakpoints at censused jump positions; plateau values are means of the
    samples between jump groups, shaving ``_FIT_MARGIN`` = 5 cells next to
    each jump to keep transition cells out of the averages.
    """
    groups = _census_groups(u, threshold)
    values = []
    breakpoints = []
    prev = 0
    for i, j, pos, _size in groups:
        seg = u.samples[prev : i + 1]
        values.append(_trimmed_mean(seg, _FIT_MARGIN if prev > 0 else 0, _FIT_MARGIN))
        breakpoints.append(pos)
        prev = j + 1
    seg = u.samples[prev:]
    values.append(_trimmed_mean(seg, _FIT_MARGIN if prev > 0 else 0, 0))
    return PiecewiseConstant(u.domain, tuple(breakpoints), tuple(values))


def _trimmed_mean(seg: np.ndarray, lo: int, hi: int) -> float:
    if seg.size > lo + hi + 1:
        seg = seg[lo : seg.size - hi] if hi else seg[lo:]
    return float(seg.mean())
