"""Exact global minimization over level-quantized step functions.

The continuum energy is restricted to functions that are constant on each of
n_cells uniform cells and take values on a fixed level grid.  Per-cell
fidelity is the exact integral of (u - g)^2 for analytic data (quadratic in
the level value, so only three moments per cell are needed) and the
midpoint-sampled approximation for sampled data.  Within this finite class
dynamic programming over (cell, level) finds the global optimum, which makes
the module usable as ground truth for both the closed-form theory and the
gradient-flow solvers on small instances.

Complexity is O(n_cells * n_levels^2) for the free problem and an extra
factor of the jump budget for the count-constrained variant; sizes are
capped accordingly.  Both passes make every transition with one helper
(``_relax``): it copies the source row into a buffer allocated once per
pass and thread, adds the transposed kernel in place, reduces along
contiguous rows and gathers the row minima with one flat take.  The free
pass runs in the calling thread.  The budgeted pass splits the target
levels of each cell's transitions between one thread per usable CPU when a
cell's budget * n_levels^2 transitions are enough to pay for the per-cell
barrier; its results do not depend on the number of threads.
"""

import math
import os
import threading
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .kernel import JumpKernel
from .pwc import (
    EnergyBreakdown,
    GridSignal,
    PiecewiseConstant,
    SampledData,
)

MAX_CELLS = 2000
MAX_LEVELS = 400
assert MAX_LEVELS <= np.iinfo(np.int16).max  # parent tables hold int16 level indices
MAX_JUMP_BUDGET = 10
# Dense transitions per cell (budget * L^2) that one extra thread of the
# budgeted pass must get to beat its barrier: on 2 cores, L = 400 pays from
# m = 2, L = 200 at m = 4 does not.
_MIN_THREAD_WORK = 150_000


@dataclass(frozen=True)
class OracleProblem:
    """A discretized instance: data, kernel, fidelity weight, level grid.

    ``levels`` defaults to ``n_levels`` uniform values spanning the data
    range.  ``endpoint_pin`` forces the first and last cell to the levels
    nearest the given values (boundary conditions of the continuum problem);
    a pin outside the level range is a ``ConfigError``.
    ``tie_tolerance`` (finite, non-negative) is the relative energy window
    within which alternative minimizers count as ties.
    """

    data: object
    kernel: JumpKernel
    lam: float
    n_cells: int | None = None
    levels: object = None
    n_levels: int = 101
    endpoint_pin: tuple | None = None
    tie_tolerance: float = 1e-9

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ConfigError("lam must be finite and non-negative")
        if not (math.isfinite(self.tie_tolerance) and self.tie_tolerance >= 0):
            raise ConfigError("tie_tolerance must be finite and non-negative")
        if isinstance(self.data, SampledData) and not np.all(np.isfinite(self.data.signal.samples)):
            raise ConfigError("sampled data must be finite")

    def resolved_cells(self) -> int:
        if self.n_cells is not None:
            n = int(self.n_cells)
        elif isinstance(self.data, SampledData):
            n = self.data.signal.n - 1
        else:
            raise ConfigError("n_cells is required for analytic data")
        if n < 1:
            raise ConfigError("need at least one cell")
        if n > MAX_CELLS:
            raise ConfigError(f"n_cells = {n} exceeds the limit {MAX_CELLS}")
        return n

    def resolved_levels(self) -> np.ndarray:
        lo, hi = self.data.value_range()
        if not hi > lo:
            # Degenerate (constant) data: widen symmetrically so a level
            # grid exists and still contains the data value.
            lo, hi = lo - 0.5, hi + 0.5
        if self.levels is not None:
            lv = np.asarray(self.levels, dtype=float)
        else:
            lv = np.linspace(lo, hi, int(self.n_levels))
        if lv.ndim != 1 or lv.size == 0:
            raise ConfigError("levels must be a non-empty 1D array")
        if np.any(np.diff(lv) <= 0):
            raise ConfigError("levels must be strictly increasing")
        if lv.size > MAX_LEVELS:
            raise ConfigError(
                f"{lv.size} levels exceeds the limit {MAX_LEVELS}; use a coarser level grid"
            )
        span = max(hi - lo, 1.0)
        if lv[0] < lo - 1e-9 * span or lv[-1] > hi + 1e-9 * span:
            raise ConfigError("levels must lie within the data range")
        return lv


@dataclass(frozen=True)
class OracleResult:
    minimizer: PiecewiseConstant
    energy: EnergyBreakdown
    jump_count: int
    ties: tuple = ()

    def to_json_dict(self) -> dict:
        return {
            "minimizer": self.minimizer.to_json_dict(),
            "energy": self.energy.to_json_dict(),
            "jump_count": self.jump_count,
            "ties": [t.to_json_dict() for t in self.ties],
        }


@dataclass
class _Tableau:
    """Shared precomputations for one problem instance."""

    edges: np.ndarray
    levels: np.ndarray
    cost: np.ndarray       # (n_cells, n_levels) fidelity cost per cell and level
    kmat: np.ndarray       # (n_levels, n_levels) kernel cost of a level change
    pin: tuple | None      # (first level index, last level index) or None


def _build_tableau(problem: OracleProblem) -> _Tableau:
    n = problem.resolved_cells()
    levels = problem.resolved_levels()
    a, b = problem.data.domain
    edges = np.linspace(a, b, n + 1)
    h = (b - a) / n

    if isinstance(problem.data, SampledData):
        mids = 0.5 * (edges[:-1] + edges[1:])
        gmid = problem.data(mids)
        # (lam/2) * h * (v - g_mid)^2, expanded in v
        m1 = h * gmid
        m2 = h * gmid * gmid
        m0 = np.full(n, h)
    else:
        m0 = np.full(n, h)
        m1 = np.empty(n)
        m2 = np.empty(n)
        for i in range(n):
            m1[i], m2[i] = problem.data.moments(edges[i], edges[i + 1])
    lv = levels[None, :]
    cost = 0.5 * problem.lam * (m0[:, None] * lv * lv - 2.0 * m1[:, None] * lv + m2[:, None])

    diffs = np.abs(levels[:, None] - levels[None, :])
    kmat = problem.kernel.eval(diffs)

    pin = None
    if problem.endpoint_pin is not None:
        va, vb = problem.endpoint_pin
        lo, hi = problem.data.value_range()
        slack = 1e-9 * max(hi - lo, 1.0)
        if not all(levels[0] - slack <= p <= levels[-1] + slack for p in (va, vb)):
            raise ConfigError(
                f"endpoint_pin {problem.endpoint_pin} lies outside the level range "
                f"[{levels[0]}, {levels[-1]}]"
            )
        pin = (int(np.argmin(np.abs(levels - va))), int(np.argmin(np.abs(levels - vb))))
    return _Tableau(edges=edges, levels=levels, cost=cost, kmat=kmat, pin=pin)


def _result_from_sequence(problem: OracleProblem, tab: _Tableau, seq: np.ndarray) -> OracleResult:
    vals = tab.levels[seq]
    change = np.flatnonzero(np.diff(seq) != 0)
    bps = tuple(tab.edges[i + 1] for i in change)
    u = PiecewiseConstant(tuple(problem.data.domain), bps, tuple(vals[[0, *list(change + 1)]]))
    fid = float(tab.cost[np.arange(seq.size), seq].sum())
    tvk = float(np.sum(problem.kernel.eval(np.abs(np.diff(vals))))) if seq.size > 1 else 0.0
    return OracleResult(
        minimizer=u,
        energy=EnergyBreakdown.of(tvk, fid),
        jump_count=len(bps),
    )


def _relax(src: np.ndarray, kernel_t: np.ndarray, trans: np.ndarray, offs: np.ndarray) -> tuple:
    """Best predecessor of each target level: one dense DP transition.

    Fills ``trans[l, k] = src[k] + kernel_t[l, k]`` in place and returns,
    per row, the smallest k attaining the row minimum and that minimum.
    ``kernel_t`` holds the kernel transposed, so every row is contiguous
    (numpy reduces a strided axis through a copy).  ``offs`` is
    ``arange(rows) * L``, the flat offset of each row of ``trans``.  The
    copy and in-place add run about a third faster than a broadcast add
    into ``trans``, and the flat take faster than a two-array gather.
    """
    np.copyto(trans, src)
    trans += kernel_t
    arg = trans.argmin(axis=1)
    return arg, trans.take(arg + offs)


def _solve_free(tab: _Tableau) -> np.ndarray:
    n, L = tab.cost.shape
    big = np.inf
    D = tab.cost[0].copy()
    if tab.pin is not None:
        mask = np.full(L, big)
        mask[tab.pin[0]] = 0.0
        D = D + mask
    kmat_t = np.ascontiguousarray(tab.kmat.T)
    parents = np.zeros((n, L), dtype=np.int16)
    trans = np.empty((L, L))
    offs = np.arange(L) * L
    for i in range(1, n):
        arg, best = _relax(D, kmat_t, trans, offs)
        parents[i] = arg
        D = best + tab.cost[i]
    if tab.pin is not None:
        end = np.full(L, big)
        end[tab.pin[1]] = 0.0
        D = D + end
    if not np.isfinite(D).any():
        raise ConfigError("a single cell cannot take two different pinned levels")
    seq = np.empty(n, dtype=np.int64)
    seq[-1] = int(np.argmin(D))
    for i in range(n - 1, 0, -1):
        seq[i - 1] = parents[i, seq[i]]
    return seq


def solve(problem: OracleProblem, tie_scan_jumps: int | None = None) -> OracleResult:
    """Global optimum over the level-quantized class.

    With ``tie_scan_jumps`` set, also runs one jump-count-constrained pass
    for the budgets m = 0..tie_scan_jumps and returns, as ties, the
    m-optima whose energy is within tie_tolerance (relative) of the global
    optimum and whose jump signature differs from the minimizer's.
    """
    if tie_scan_jumps is not None and tie_scan_jumps < 0:
        raise ConfigError("tie_scan_jumps must be non-negative")
    tab = _build_tableau(problem)
    seq = _solve_free(tab)
    best = _result_from_sequence(problem, tab, seq)
    if tie_scan_jumps is None:
        return best

    n = tab.cost.shape[0]
    tol = problem.tie_tolerance * max(1.0, abs(best.energy.total))
    cell = (problem.data.domain[1] - problem.data.domain[0]) / n
    seen = {_signature(best.minimizer, cell)}
    ties = []
    budget = min(int(tie_scan_jumps), MAX_JUMP_BUDGET, n - 1)
    for seq in _budget_pass(tab, budget):
        if seq is None:
            continue  # no admissible sequence with this jump count (pins)
        res = _result_from_sequence(problem, tab, seq)
        if res.energy.total > best.energy.total + tol:
            continue
        sig = _signature(res.minimizer, cell)
        if sig in seen:
            continue
        seen.add(sig)
        ties.append(res)
    return replace(best, ties=tuple(ties))


def _signature(u: PiecewiseConstant, cell: float) -> tuple:
    a = u.domain[0]
    return (u.jump_count, tuple(int(round((b - a) / cell)) for b in u.breakpoints))


def _budget_pass(tab: _Tableau, budget: int) -> list:
    """Optimal level sequences with exactly m = 0..budget level changes.

    One DP over (cell, jumps used, level).  Row m only reads rows m and
    m - 1, so rows 0..m equal those of a pass with budget m.  Entry m of
    the result is the optimal sequence with exactly m jumps, or None when
    no sequence has that many (pins).  The target levels are split into
    contiguous slices, one per thread (see ``_thread_count``); every entry
    is computed by the same float operations whatever the split.
    """
    n, L = tab.cost.shape
    big = np.inf
    jump_t = np.ascontiguousarray(tab.kmat.T)
    np.fill_diagonal(jump_t, big)

    cols = np.arange(L)
    # Double-buffered by cell parity: cell i reads D[(i - 1) % 2], writes D[i % 2].
    D = np.full((2, budget + 1, L), big)
    D[0, 0] = tab.cost[0] if tab.pin is None else np.where(cols == tab.pin[0], tab.cost[0], big)
    parent_lvl = np.zeros((n, budget + 1, L), dtype=np.int16)

    def cells(s, e, barrier=None):
        own = cols[s:e]
        offs = np.arange(e - s) * L
        jump_own = jump_t[s:e]
        trans = np.empty((e - s, L))
        jumped = np.full((budget + 1, e - s), big)  # row 0 never jumps
        arg = np.zeros((budget + 1, e - s), dtype=np.int16)
        for i in range(1, n):
            prev, nxt = D[(i - 1) % 2], D[i % 2]
            for j in range(1, budget + 1):
                arg[j], jumped[j] = _relax(prev[j - 1], jump_own, trans, offs)
            stay = prev[:, s:e]
            # Strict <: an all-inf row (no admissible sequence yet) never jumps.
            use_jump = jumped < stay
            parent_lvl[i, :, s:e] = np.where(use_jump, arg, own)
            nxt[:, s:e] = np.where(use_jump, jumped, stay) + tab.cost[i, s:e]
            if barrier is not None:
                barrier.wait()

    threads = _thread_count(budget, L)
    if threads == 1:
        cells(0, L)
    else:
        bounds = np.linspace(0, L, threads + 1).astype(int)
        _run_split(cells, list(zip(bounds[:-1], bounds[1:])))

    D = D[(n - 1) % 2]
    if tab.pin is not None:
        D = np.where(cols == tab.pin[1], D, big)
    seqs = []
    for m in range(budget + 1):
        if not np.isfinite(D[m]).any():
            seqs.append(None)
            continue
        seq = np.empty(n, dtype=np.int64)
        seq[-1] = int(np.argmin(D[m]))
        j = m
        for i in range(n - 1, 0, -1):
            seq[i - 1] = parent_lvl[i, j, seq[i]]
            # A jump always changes level: jump_t has inf on its diagonal.
            if seq[i - 1] != seq[i]:
                j -= 1
        seqs.append(seq)
    return seqs


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _thread_count(budget: int, L: int) -> int:
    """Threads for a budgeted pass: one per usable CPU, as long as each
    thread's share of a cell's transitions (budget * L^2 in total) pays for
    the per-cell barrier.  numpy releases the GIL in the add and argmin."""
    return max(1, min(_usable_cpus(), budget * L * L // _MIN_THREAD_WORK))


def _run_split(work, slices) -> None:
    """Run ``work(s, e, barrier)`` for each slice in its own thread.

    The first exception a worker raises aborts the barrier, which releases
    the others, and is re-raised here once every thread has ended.
    """
    barrier = threading.Barrier(len(slices))
    errors = []

    def run(s, e):
        try:
            work(s, e, barrier)
        except threading.BrokenBarrierError:
            pass  # another worker failed, or the caller was interrupted
        except BaseException as exc:
            errors.append(exc)
            barrier.abort()

    threads = []
    try:
        for sl in slices:
            t = threading.Thread(target=run, args=sl)
            t.start()
            threads.append(t)
        for t in threads:
            t.join()
    except BaseException:
        barrier.abort()
        for t in threads:
            t.join()
        raise
    if errors:
        raise errors[0]


def best_with_m_jumps(problem: OracleProblem, m: int) -> OracleResult:
    """Global optimum among sequences with exactly m level changes."""
    if m < 0:
        raise ConfigError("jump count must be non-negative")
    if m > MAX_JUMP_BUDGET:
        raise ConfigError(f"jump budget {m} exceeds the limit {MAX_JUMP_BUDGET}")
    tab = _build_tableau(problem)
    n = tab.cost.shape[0]
    if m >= n:
        raise ConfigError(f"cannot place {m} jumps with only {n} cells")
    seq = _budget_pass(tab, m)[m]
    if seq is None:
        raise ConfigError(f"no admissible sequence with exactly {m} jumps")
    return _result_from_sequence(problem, tab, seq)


def cell_midpoints(problem: OracleProblem) -> np.ndarray:
    """Midpoints of the problem's uniform cells."""
    n = problem.resolved_cells()
    a, b = problem.data.domain
    return (np.arange(n) + 0.5) * (b - a) / n + a


def sequence_from_result(result: OracleResult, problem: OracleProblem) -> np.ndarray:
    """Cell-value vector of a result, for grid-level comparisons."""
    return result.minimizer(cell_midpoints(problem))


def signal_problem(
    signal: GridSignal,
    kernel: JumpKernel,
    lam: float,
    **kwargs,
) -> OracleProblem:
    """Convenience: wrap a sampled signal as an oracle instance."""
    return OracleProblem(data=SampledData(signal), kernel=kernel, lam=lam, **kwargs)
