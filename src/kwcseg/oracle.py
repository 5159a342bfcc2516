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
capped accordingly.  Every transition is made by one helper (``_relax``):
it copies the source row into a buffer, adds the kernel matrix in place
(it is symmetric, so its rows are the targets' rows), reduces along
contiguous rows and gathers the row minima with one flat take.  From 250
levels the free pass skips the source levels that a witness level beats
for every target (the kernel is a metric on the levels), which leaves
each transition one dense ``_relax`` on a column block with the same
results.

One thread rule: every pass runs in the calling thread, except that the
backward free pass behind a pruned pass's bounds runs on one helper
thread beside the forward one, from 200 levels when more than one CPU is
usable.  No result depends on which route ran.

Budgeted passes (``best_with_m_jumps`` and the tie scan of ``solve``) are
pruned by an exact forward-backward bound: a forward and a backward free
pass give each state (cell, level) the least cost of any path through it,
and the budgeted DP visits only the states whose bound is within a
threshold of the free optimum.  Both free passes write into one
(cells x levels) table of bounds.  The pruned pass's results are those of
the dense pass (``_pruned_pass`` has the argument); when too many states
survive, the dense pass runs instead.
"""

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, check_count, check_real
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
# The two free passes behind a pruned pass's bounds run side by side from
# 200 levels.  On 2 cores, medians of 11 runs:
# 22 ms against 24 ms in one thread at 300 x 200 and 68 ms against 72 ms
# at 800 x 201 (the tie scan), but 24 ms against 19 ms at 300 x 150 (the
# passes trade the GIL).  With skipped levels the gain is smaller: 308 ms
# against 402 ms at 2000 x 400 (the cap), and even or slower between 250
# and 350 levels (2000 x 300: 271 ms against 267 ms).
_MIN_SIDE_THREAD_LEVELS = 200
# Free passes skip dominated source levels (``_free_pass``) from 250
# levels.  On 1000-cell random walks the skipping pass took 1.07 of the
# dense pass's time at L = 200, 0.96-1.04 at 220 and 240, 0.83-0.87 at
# 260, 0.65 at 300 and 0.47 at 400; on the tie scans' linear data
# (pinned), 1.75 at 400 x 101 and 1.30-1.37 at 800 x 201.
_MIN_SKIP_LEVELS = 250
# Budgeted passes are pruned (``_pruned_pass``) from a budget of 3 and
# budget * L^2 = 20 000 transitions per cell.  The bounds cost two free
# passes, about a 2-jump dense pass (at 2000 x 400: 0.37-0.42 s against
# 0.44 s at m = 1 and 0.52 s at m = 2); below 20 000, on 300- and
# 1000-cell random walks, the pruned and dense routes were even, above it
# the pruned one won whenever it certified.  ``best_with_m_jumps`` tries
# thresholds 1e-3 and 1e-2 (relative) above the free optimum; at 1e-1,
# 20-51 % of the states of 2000 x 400 random walks survive.  Above 30 %
# survivors the dense pass runs: a pruned pass over the 30 % of states
# with the least bounds took 0.28-0.77 of the dense pass's time, over 50 %
# 0.69-1.10.
_MIN_PRUNE_BUDGET = 3
_MIN_PRUNE_WORK = 20_000
_WIDTHS = (1e-3, 1e-2)
_MAX_SURVIVORS = 0.3


@dataclass(frozen=True)
class OracleProblem:
    """A discretized instance: data, kernel, fidelity weight, level grid.

    ``levels`` defaults to ``n_levels`` uniform values spanning the data
    range.  ``endpoint_pin`` forces the first and last cell to the levels
    nearest the given two numbers (boundary conditions of the continuum
    problem); a pin outside the level range is a ``ConfigError`` at solve.
    ``tie_tolerance`` is the relative energy window within which alternative
    minimizers count as ties; it and ``lam`` are finite non-negative
    numbers (not bools).
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
        check_real("lam", self.lam, least=0)
        check_real("tie_tolerance", self.tie_tolerance, least=0)
        if isinstance(self.data, SampledData) and not np.all(np.isfinite(self.data.signal.samples)):
            raise ConfigError("sampled data must be finite")
        if self.n_cells is not None:
            check_count("n_cells", self.n_cells, least=1)
        check_count("n_levels", self.n_levels, least=1)

    def resolved_cells(self) -> int:
        if self.n_cells is not None:
            n = int(self.n_cells)
        elif isinstance(self.data, SampledData):
            n = self.data.signal.n - 1
        else:
            raise ConfigError("n_cells is required for analytic data")
        if n > MAX_CELLS:
            raise ConfigError(f"n_cells = {n} exceeds the limit {MAX_CELLS}")
        return n

    def resolved_levels(self) -> np.ndarray:
        lo, hi = self.data.value_range()
        if not hi > lo:
            # Degenerate (constant) data: widen symmetrically so a level
            # grid exists and still contains the data value.
            lo, hi = lo - 0.5, hi + 0.5
        uniform = self.levels is None
        if not uniform and (not isinstance(self.levels, (list, tuple, np.ndarray)) or len(self.levels) == 0):
            raise ConfigError(f"levels must be a non-empty list of numbers, got {self.levels!r}")
        size = int(self.n_levels) if uniform else len(self.levels)
        if size > MAX_LEVELS:  # before the grid is built
            raise ConfigError(f"{size} levels exceeds the limit {MAX_LEVELS}; use a coarser level grid")
        lv = np.linspace(lo, hi, size) if uniform else np.array([check_real("levels", v) for v in self.levels])
        if np.any(np.diff(lv) <= 0):
            raise ConfigError("levels must be strictly increasing")
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
    kmat: np.ndarray       # (n_levels, n_levels) kernel cost of a level change, symmetric
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
        try:
            va, vb = problem.endpoint_pin
        except (TypeError, ValueError):
            raise ConfigError(f"endpoint_pin must be two numbers, got {problem.endpoint_pin!r}") from None
        va, vb = check_real("endpoint_pin", va), check_real("endpoint_pin", vb)
        lo, hi = problem.data.value_range()
        slack = 1e-9 * max(hi - lo, 1.0)
        if not all(levels[0] - slack <= p <= levels[-1] + slack for p in (va, vb)):
            raise ConfigError(
                f"endpoint_pin ({va}, {vb}) lies outside the level range "
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


def _relax(src: np.ndarray, kmat: np.ndarray, trans: np.ndarray, offs: np.ndarray) -> tuple:
    """Best predecessor of each target level: one dense DP transition.

    Fills ``trans[..., l, k] = src[..., k] + kmat[l, k]`` in place and
    returns, per row, the smallest k attaining the row minimum and that
    minimum.  ``kmat[l, k]`` is the cost of a change from source k to
    target l; the kernel matrix is symmetric, so its rows serve as they
    are and every row is contiguous (numpy reduces a strided axis through
    a copy).  ``offs`` holds the flat offset of each row of ``trans``
    (``arange(rows) * K`` for K sources).  The pruned pass stacks its
    budget rows on a leading axis of ``src`` and ``trans``.  The copy and
    in-place add run about a third faster than a broadcast add into
    ``trans``, and the flat take faster than a two-array gather.
    """
    np.copyto(trans, src)
    trans += kmat
    arg = trans.argmin(axis=-1)
    return arg, trans.take(arg + offs)


def _free_pass(cost, kmat, start, parents=None, on_row=None) -> np.ndarray:
    """The free DP over the rows of ``cost`` from the ``start`` mask (None:
    every level).  Returns the last row; fills ``parents`` with each cell's
    best predecessors and hands each cell's row D to ``on_row(i, D)``, when
    they are given (``table.__setitem__`` fills a table).

    From ``_MIN_SKIP_LEVELS`` levels, each transition after the first reads
    only the column block [lo, hi) of the source levels that no witness
    rules out.  Source k is dominated when ``D[k] >= D[w] + K(k, w) +
    slack``, with w the level k's own best predecessor in the previous
    transition.  The dominated levels are mostly those far from the data,
    at both ends, so the block is narrow and the transition stays one dense
    ``_relax``.

    Exactness.  Every kernel kind is non-decreasing and subadditive (kwc is
    concave with K(0) = 0, linear additive, Potts flat), so K(|x - y|) is a
    metric on the levels: K(w, l) <= K(w, k) + K(k, l) for every target l.
    A dominated k thus has D[k] + K(k, l) > D[w] + K(w, l), its own stay
    included, and attains no row minimum.  The block holds every level that
    attains one, and its levels get the same float additions as in the
    dense pass, so the minima, the smallest-index argmins, every row and
    every parent are bit-identical to the dense pass's.

    The slack covers the rounding.  Let u = 2**-53, C = max |cost|, Kmax =
    max kmat and A = n * C + Kmax.  Every finite D is at most the float sum
    along a path that stays at its level (after one jump from a pinned
    start) and at least -n * C, up to a factor 1 + n * u.  A kmat entry is
    within 4u (relative) of the exact kernel at the exact level distance:
    one rounding in the distance, which moves a concave K with K(0) = 0 by
    at most the same relative amount, and three in kwc's formula (linear
    and Potts have fewer).  So the float entries obey the triangle
    inequality up to 17u * Kmax.  The two roundings of the check and those
    of D[k] + K(k, l) and D[w] + K(w, l) are each at most u * (|D| + Kmax +
    slack).  Together that is below 30u * A, and the slack is 64u * A; for
    w = k the check then fails, as it must.  Outside 1e-280 < A < 1e300
    (the slack could underflow, a sum overflow) the pass stays dense.
    """
    n, L = cost.shape
    D = cost[0] if start is None else cost[0] + start
    buf = np.empty(L * L)
    trans = buf.reshape(L, L)
    rows = np.arange(L)
    offs = rows * L
    slack = 0.0
    if L >= _MIN_SKIP_LEVELS:
        bound = n * max(cost.max(), -cost.min()) + kmat.max()
        if 1e-280 < bound < 1e300:
            slack = 64 * 2.0**-53 * bound
    if on_row is not None:
        on_row(0, D)
    arg = None
    for i in range(1, n):
        if slack and arg is not None:
            ahead = D.take(arg)
            ahead += kmat.take(offs + arg)
            ahead += slack
            kept = np.flatnonzero(D < ahead)
            lo, hi = kept[0], kept[-1] + 1
            w = hi - lo
            arg, best = _relax(D[lo:hi], kmat[:, lo:hi], buf[: L * w].reshape(L, w), rows * w)
            arg += lo
        else:
            arg, best = _relax(D, kmat, trans, offs)
        if parents is not None:
            parents[i] = arg
        D = best + cost[i]
        if on_row is not None:
            on_row(i, D)
    return D


def _solve_free(tab: _Tableau, bounds: bool = False, sequence: bool = True) -> tuple:
    """The free optimum: its level sequence (None when no sequence meets
    the pins, or not ``sequence``, which skips the parent table and the
    backtrack) and its energy as the DP sums it.  With ``bounds`` also the
    path bound F + B - cost of every state (see ``_pruned_pass``): the
    backward pass B, the same pass on the reversed cells from the end pin,
    runs beside the forward one F on a helper thread from
    ``_MIN_SIDE_THREAD_LEVELS`` levels.  Both write into one table: the
    first to reach a cell stores its row and the second adds its own,
    which is F + B bit for bit in either order.  A failing pass raises
    here once both passes have ended."""
    n, L = tab.cost.shape
    start = end = None
    if tab.pin is not None:  # 0 at the pinned level, inf elsewhere
        start, end = np.full((2, L), np.inf)
        start[tab.pin[0]] = end[tab.pin[1]] = 0.0
    parents = np.zeros((n, L), dtype=np.int16) if sequence else None
    bound = None
    if not bounds:
        D = _free_pass(tab.cost, tab.kmat, start, parents)
    else:
        bound = np.empty((n, L))
        stored = np.zeros(n, dtype=bool)
        lock = threading.Lock()

        def add_row(i, row):
            with lock:
                if stored[i]:
                    bound[i] += row
                else:
                    bound[i] = row
                    stored[i] = True

        backward_args = (tab.cost[::-1], tab.kmat, end, None, lambda i, row: add_row(n - 1 - i, row))
        if _usable_cpus() > 1 and L >= _MIN_SIDE_THREAD_LEVELS:
            with ThreadPoolExecutor(1) as helper:
                behind = helper.submit(_free_pass, *backward_args)
                D = _free_pass(tab.cost, tab.kmat, start, parents, add_row)
                behind.result()
        else:
            D = _free_pass(tab.cost, tab.kmat, start, parents, add_row)
            _free_pass(*backward_args)
        bound -= tab.cost
    if end is not None:
        D = D + end
    if not np.isfinite(D).any():
        return None, math.inf, bound
    last = int(np.argmin(D))
    if not sequence:
        return None, float(D[last]), bound
    seq = np.empty(n, dtype=np.int64)
    seq[-1] = last
    for i in range(n - 1, 0, -1):
        seq[i - 1] = parents[i, seq[i]]
    return seq, float(D[last]), bound


def solve(problem: OracleProblem, tie_scan_jumps: int | None = None) -> OracleResult:
    """Global optimum over the level-quantized class.

    With ``tie_scan_jumps`` set, also runs one jump-count-constrained pass
    for the budgets m = 0..tie_scan_jumps and returns, as ties, the
    m-optima whose energy is within tie_tolerance (relative) of the global
    optimum and whose jump signature differs from the minimizer's.  That
    pass is pruned to the states whose path bound is within the tie window
    T (see ``_pruned_pass``).  A row the dense pass keeps, of energy at
    most T, has a DP cost within 1e-12 of it, so the pruned row is the
    same; a row above T is above it in the pruned pass too, and is dropped
    either way.
    """
    if tie_scan_jumps is not None:
        check_count("tie_scan_jumps", tie_scan_jumps)
    tab = _build_tableau(problem)
    n, L = tab.cost.shape
    budget = None if tie_scan_jumps is None else min(int(tie_scan_jumps), MAX_JUMP_BUDGET, n - 1)
    prune = budget is not None and _worth_pruning(budget, L)
    seq, _, bound = _solve_free(tab, bounds=prune)
    if seq is None:
        raise ConfigError("a single cell cannot take two different pinned levels")
    best = _result_from_sequence(problem, tab, seq)
    if budget is None:
        return best

    tol = problem.tie_tolerance * max(1.0, abs(best.energy.total))
    if prune:
        keep = _survivors(bound, best.energy.total + tol)
        del bound
        prune = keep.mean() <= _MAX_SURVIVORS
    seqs = _pruned_pass(tab, budget, keep)[0] if prune else _budget_pass(tab, budget)
    cell = (problem.data.domain[1] - problem.data.domain[0]) / n
    seen = {_signature(best.minimizer, cell)}
    ties = []
    for seq in seqs:
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
    no sequence has that many (pins).
    """
    n, L = tab.cost.shape
    big = np.inf
    jump = tab.kmat.copy()
    np.fill_diagonal(jump, big)

    cols = np.arange(L)
    offs = cols * L
    trans = np.empty((L, L))
    D = np.full((budget + 1, L), big)
    D[0] = tab.cost[0] if tab.pin is None else np.where(cols == tab.pin[0], tab.cost[0], big)
    jumped = np.full((budget + 1, L), big)  # row 0 never jumps
    arg = np.zeros((budget + 1, L), dtype=np.int16)
    parent_lvl = np.zeros((n, budget + 1, L), dtype=np.int16)
    for i in range(1, n):
        for j in range(1, budget + 1):
            arg[j], jumped[j] = _relax(D[j - 1], jump, trans, offs)
        # Strict <: an all-inf row (no admissible sequence yet) never jumps.
        use_jump = jumped < D
        parent_lvl[i] = np.where(use_jump, arg, cols)
        D = np.where(use_jump, jumped, D) + tab.cost[i]

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
            # A jump always changes level: jump has inf on its diagonal.
            if seq[i - 1] != seq[i]:
                j -= 1
        seqs.append(seq)
    return seqs


def _worth_pruning(budget: int, L: int) -> bool:
    return budget >= _MIN_PRUNE_BUDGET and budget * L * L >= _MIN_PRUNE_WORK


def _survivors(bound: np.ndarray, threshold: float) -> np.ndarray:
    """States that may lie on a path whose DP cost is at most ``threshold``."""
    return bound <= threshold + 1e-9 * max(1.0, abs(threshold))


def _pruned_pass(tab: _Tableau, budget: int, keep: np.ndarray) -> tuple:
    """``_budget_pass`` over the states (cell, level) that ``keep`` marks.

    Returns the sequences (None where no kept sequence has that many jumps)
    and each row's optimum as the DP sums it (inf there).

    Exactness.  Any path through state (i, l), whatever its jump count,
    costs at least ``bound[i, l] = F[i, l] + B[i, l] - cost[i, l]``, with F
    and B the free forward and backward passes (``_solve_free``).  Let P be
    the path the dense pass returns for m jumps and V its DP cost.  The
    free passes add the same terms as the budgeted one (a stay adds K(0) =
    0 exactly) and rounding is monotone, so F and B at a state of P are at
    most P's float prefix and suffix sums.  Those and V are float sums of
    at most 2000 terms that are non-negative up to their own rounding, each
    within 2000 * 2**-53 < 3e-13 (relative) of P's exact cost, so every
    state of P has a bound of at most V * (1 + 1e-12).  When V is at most
    T * (1 + 1e-10), ``_survivors(bound, T)``, which keeps bounds up to
    T + 1e-9 * max(1, |T|), keeps all of them.  Restricting a min to a
    subset can only raise a float DP value, so by induction over the cells
    every state of P has its dense value and its dense parent here: the
    dense parent attains the dense minimum, every smaller index stays above
    it, and ``jumped < stay`` compares two values that are each the dense
    value, or above it on the side the dense pass did not take.  The final
    argmin and backtrack then return P.  A pruned optimum of at most T
    certifies itself: the dense one, V, is at most it.

    Each cell keeps its survivor levels in ascending order, so the smallest
    position is the smallest level index; its parents are positions among
    the previous cell's survivors.  All budget rows of a cell make one
    (budget, kept, kept before) sum, in the calling thread.
    """
    n, L = tab.cost.shape
    big = np.inf
    jump = tab.kmat.copy()
    np.fill_diagonal(jump, big)
    kept = [np.flatnonzero(row) for row in keep]
    if any(s.size == 0 for s in kept):
        return [None] * (budget + 1), np.full(budget + 1, big)
    prev = kept[0]
    V = np.full((budget + 1, prev.size), big)
    V[0] = tab.cost[0, prev] if tab.pin is None else np.where(prev == tab.pin[0], tab.cost[0, prev], big)
    at_level = np.empty(L, dtype=np.intp)  # position of a level among the previous cell's survivors
    buf = np.empty(0)
    parents = [None]
    for i in range(1, n):
        s = kept[i]
        size = budget * s.size * prev.size
        if buf.size < size:
            buf = np.empty(size)
        trans = buf[:size].reshape(budget, s.size, prev.size)
        offs = np.arange(budget * s.size).reshape(budget, s.size) * prev.size
        arg, jumped = _relax(V[:-1, None, :], jump.take(s[:, None] * L + prev), trans, offs)
        at_level.fill(-1)
        at_level[prev] = np.arange(prev.size)
        pos = at_level[s]
        stay = np.where(pos >= 0, V[:, pos], big)
        # Strict <: an all-inf row (no admissible sequence yet) never jumps.
        use_jump = jumped < stay[1:]
        par = np.empty((budget + 1, s.size), dtype=np.int16)
        par[0] = pos
        par[1:] = np.where(use_jump, arg, pos)
        stay[1:] = np.where(use_jump, jumped, stay[1:])
        V = stay + tab.cost[i, s]
        parents.append(par)
        prev = s
    if tab.pin is not None:
        V = np.where(prev == tab.pin[1], V, big)
    seqs, values = [], np.empty(budget + 1)
    for m in range(budget + 1):
        at = int(np.argmin(V[m]))
        values[m] = V[m, at]
        if not np.isfinite(values[m]):
            seqs.append(None)
            continue
        seq = np.empty(n, dtype=np.int64)
        seq[-1] = prev[at]
        j = m
        for i in range(n - 1, 0, -1):
            at = parents[i][j, at]
            seq[i - 1] = kept[i - 1][at]
            if seq[i - 1] != seq[i]:
                j -= 1
        seqs.append(seq)
    return seqs, values


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def best_with_m_jumps(problem: OracleProblem, m: int) -> OracleResult:
    """Global optimum among sequences with exactly m level changes.

    The budgeted pass is pruned to the states whose path bound is within a
    threshold T of the free optimum, widened from ``_WIDTHS``; a pruned
    m-optimum at most T certifies itself (see ``_pruned_pass``).  When too
    many states survive, or no width certifies, the dense pass runs.
    """
    check_count("jump count", m)
    if m > MAX_JUMP_BUDGET:
        raise ConfigError(f"jump budget {m} exceeds the limit {MAX_JUMP_BUDGET}")
    tab = _build_tableau(problem)
    n = tab.cost.shape[0]
    if m >= n:
        raise ConfigError(f"cannot place {m} jumps with only {n} cells")
    seq = _certified_row(tab, m)
    if seq is None:
        raise ConfigError(f"no admissible sequence with exactly {m} jumps")
    return _result_from_sequence(problem, tab, seq)


def _certified_row(tab: _Tableau, m: int):
    """The m-jump row of ``_budget_pass(tab, m)``, by pruned passes when one
    certifies its result."""
    if not _worth_pruning(m, tab.cost.shape[1]):
        return _budget_pass(tab, m)[m]
    _, free, bound = _solve_free(tab, bounds=True, sequence=False)
    scale = max(1.0, abs(free))
    widths = iter(_WIDTHS)
    threshold = free + next(widths) * scale
    while math.isfinite(threshold):
        keep = _survivors(bound, threshold)
        if keep.mean() > _MAX_SURVIVORS:
            break
        seqs, values = _pruned_pass(tab, m, keep)
        if values[m] <= threshold:
            return seqs[m]
        if math.isfinite(values[m]):
            # A feasible m-jump value: at it, the next pass certifies.
            threshold = values[m]
            continue
        width = next(widths, None)
        if width is None:
            break
        threshold = free + width * scale
    del bound  # freed before the dense pass allocates its parent table
    return _budget_pass(tab, m)[m]


def cell_midpoints(problem: OracleProblem) -> np.ndarray:
    """Midpoints of the problem's uniform cells."""
    n = problem.resolved_cells()
    a, b = problem.data.domain
    return (np.arange(n) + 0.5) * (b - a) / n + a


def signal_problem(
    signal: GridSignal,
    kernel: JumpKernel,
    lam: float,
    **kwargs,
) -> OracleProblem:
    """Convenience: wrap a sampled signal as an oracle instance."""
    return OracleProblem(data=SampledData(signal), kernel=kernel, lam=lam, **kwargs)
