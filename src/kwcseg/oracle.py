"""Exact global minimization over level-quantized step functions.

The continuum energy is restricted to functions that are constant on each of
n_cells uniform cells and take values on a fixed level grid.  A cell's
fidelity at level v is (lam / 2) (w (v - mu)^2 + Q), with w its width and
mu and Q the data's mean over it and spread about that mean
(``data.moments(edges)``; a ``GridSignal`` g is read at the cell
midpoints instead, with spread 0, by ``_build_tableau``): two terms at
least 0, which a shift of data and levels leaves alone.  Within
this finite class dynamic programming over (cell, level) finds the global
optimum, which makes the module usable as ground truth for both the
closed-form theory and the gradient-flow solvers on small instances.

Complexity is O(n_cells * n_levels^2) for the free problem and an extra
factor of the jump budget for the count-constrained variant; sizes are
capped accordingly.  Every transition is made by one helper (``_relax``):
it copies the source row into a buffer, adds the kernel matrix in place
(it is symmetric, so its rows are the targets' rows), reduces along
contiguous rows and gathers the row minima with one flat take.  From 250
levels the free pass skips the source levels that a witness level beats
for every target (the kernel is a metric on the levels), which leaves
each transition one dense ``_relax`` on a column block with the same
results; a free solve that keeps only its sequence also forms only the
target rows that the next witness test can keep.

Memory.  No (cells x levels) table of fidelity costs is held: the tableau
keeps each cell's width, mean and spread, and every pass makes its cost
rows ``_BLOCK_CELLS`` cells at a time with one helper (``_cost``), so every
float is the one a whole table would hold.  The passes run one after
another in the caller, and each oracle question holds at most one
(cells x levels) float table, the bounds below.

Pins.  ``_build_tableau`` resolves ``endpoint_pin`` once, into two rows
over the levels, ``start`` for the first cell and ``end`` for the last: 0
at the pinned level and inf elsewhere, or None with free ends.  Every pass
applies a pin the same way, by adding its row (``_pinned``): the pin of
its first cell to that cell's cost row, and the other pin to its last row
before it reads an optimum there.

Budgeted passes (``best_with_m_jumps`` and the tie scan of ``solve``) are
pruned by an exact forward-backward bound: each state (cell, level) gets
the least cost F + B - cost of any path through it, with F and B the
forward and backward free passes.  The backward pass runs once, in full,
into one (cells x levels) table of its rows B.  One pass over the cells
(``_pruned_pass``) then forms F where the bound can keep a state, keeps
the states within a threshold of the free optimum, runs the budgeted DP
over them with the dense pass's results and finds the free minimizer; it
stops, and the dense pass runs, once too many states survive.  Both
budgeted passes start with ``_start``; they and the free solve read
their sequences out with one helper, ``_read_rows``.

Range.  Every input lies in the envelope (``errors.EXPONENT``), and so do
the levels, so every cost is a finite float of at most about 2**403 and
every DP sum of at most about 2**415: no pass overflows.  Every cost and
kernel entry is at least 0, so no DP sum cancels.  ``_build_tableau``
makes A (``_size``), a bound on the DP sum of a one-jump path, once per
question; the skipping and the pruning take their rounding slack from
that one A, and run only where a multiple of it by a few hundred u is a
normal float (``_in_range``).
"""

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import LARGEST, ConfigError, check_count, check_real
from .kernel import JumpKernel
from .pwc import EnergyBreakdown, GridSignal, PiecewiseConstant, cell_misfit, midpoints

MAX_CELLS = 2000
MAX_LEVELS = 400
assert MAX_LEVELS <= np.iinfo(np.int16).max  # parent tables hold int16 level indices
MAX_JUMP_BUDGET = 10
# Cost rows are made this many cells at a time: one block covers a
# 160-cell battery instance, and at the cap a block is 0.5 MB.
_BLOCK_CELLS = 160
# Free passes skip dominated source levels (``_free_pass``) from 250
# levels.  On 1000-cell random walks the skipping pass took 1.07 of the
# dense pass's time at L = 200, 0.96-1.04 at 220 and 240, 0.83-0.87 at
# 260, 0.65 at 300 and 0.47 at 400; on the tie scans' linear data
# (pinned), 1.75 at 400 x 101 and 1.30-1.37 at 800 x 201.
_MIN_SKIP_LEVELS = 250
# Budgeted passes are pruned (``_pruned_pass``) from a budget of 3 and
# budget * L^2 = 20 000 transitions per cell.  The bounds cost one
# backward pass (0.12-0.20 s at 2000 x 400) and free rows over each
# threshold's kept states.  The tie scans' pruned route took, of the
# dense route's time, 1.10 at m = 2, 0.90 at m = 3 and 0.81 at m = 4 on
# 400 x 101 pinned linear data, 0.73, 0.61 and 0.51 at 800 x 201, and
# 0.33, 0.25 and 0.18 on the 2000 x 400 random walk of seed 1 (medians
# of 9 interleaved runs, 2 cores, NumPy 2.4.6).  ``best_with_m_jumps`` on
# the 2000 x 400 walks of seeds 1 and 2 (9 and 10 free jumps) took 1.6 of
# the dense route at m = 2 and 1.3 at m = 3, where no threshold
# certifies (the weak case of ROADMAP.md item 6), and 0.5-1.3 at m = 4.
# A gate at m = 2 would gain on the larger scans but lose on 400 x 101
# and in the weak case.  ``best_with_m_jumps`` tries the thresholds of
# widths 1e-3 and 1e-2 of |free| above the free optimum (``_above``, so
# the same states at every scale of the data); at 1e-1, 20-51 % of the
# states of 2000 x 400 random walks survive.  Above 30 % survivors the
# dense pass runs: on the walks of seeds 1 and 2, a pruned pass over the
# 10, 20, 30 and 50 % of states with the least bounds took 0.08-0.16,
# 0.14-0.26, 0.26-0.38 and 0.56-0.97 of the dense pass's time at m = 4
# and 10 (medians of 3).  With the backward pass the route breaks even
# near 50 % at m = 4; at 30 % a pass that stops at the limit has cost
# about half a dense pass before the dense pass runs.
_MIN_PRUNE_BUDGET = 3
_MIN_PRUNE_WORK = 20_000
_WIDTHS = (1e-3, 1e-2)
_MAX_SURVIVORS = 0.3
# The tie window of ``solve``, relative to the optimum: alike at every scale.
TIE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class OracleProblem:
    """A discretized instance: data, kernel, fidelity weight, level grid.

    ``levels`` defaults to ``n_levels`` uniform values spanning the data
    range.  ``endpoint_pin`` forces the first and last cell to the levels
    nearest the given two numbers (boundary conditions of the continuum
    problem); a pin outside the level range is a ``ConfigError`` at solve.
    ``lam`` is a finite non-negative number (not a bool).  Ties are judged
    by the fixed relative window ``TIE_TOLERANCE``.
    """

    data: object
    kernel: JumpKernel
    lam: float
    n_cells: int | None = None
    levels: object = None
    n_levels: int = 101
    endpoint_pin: tuple | None = None

    def __post_init__(self):
        check_real("lam", self.lam, least=0)
        if self.n_cells is not None:
            check_count("n_cells", self.n_cells, least=1)
        check_count("n_levels", self.n_levels, least=1)

    def resolved_cells(self) -> int:
        if self.n_cells is not None:
            n = int(self.n_cells)
        elif isinstance(self.data, GridSignal):
            n = self.data.n - 1
        else:
            raise ConfigError("n_cells is required for analytic data")
        if n > MAX_CELLS:
            raise ConfigError(f"n_cells = {n} exceeds the limit {MAX_CELLS}")
        return n

    def resolved_levels(self) -> np.ndarray:
        lo, hi = self.data.value_range()
        uniform = self.levels is None
        if not hi > lo:
            # Constant data c: widen by |c|/2 (0.5 at c = 0), within the
            # envelope, so that a uniform grid exists at every scale and an
            # odd count of levels has c as its middle level, to rounding,
            # where |c| <= 2**EXPONENT * 2/3; explicit levels may also lie
            # within c +- 0.5.
            c, half = lo, 0.5 * abs(lo)
            wide = (half or 0.5) if uniform else max(half, 0.5)
            lo, hi = max(c - wide, -LARGEST), min(c + wide, LARGEST)
        if not uniform and (not isinstance(self.levels, (list, tuple, np.ndarray)) or len(self.levels) == 0):
            raise ConfigError(f"levels must be a non-empty list of numbers, got {self.levels!r}")
        size = int(self.n_levels) if uniform else len(self.levels)
        if size > MAX_LEVELS:  # before the grid is built
            fewer = "a smaller n_levels" if uniform else "fewer levels"
            raise ConfigError(f"{size} levels exceeds the limit {MAX_LEVELS}; use a coarser level grid ({fewer})")
        lv = np.linspace(lo, hi, size) if uniform else np.array([check_real("levels", v) for v in self.levels])
        if np.any(np.diff(lv) <= 0):
            if uniform:  # a range too narrow for its magnitude, e.g. [2**63, 2**63 + 1]
                raise ConfigError(f"the data range [{lo}, {hi}] cannot hold n_levels = {size} distinct floats")
            raise ConfigError("levels must be strictly increasing")
        if lv[0] < lo - 1e-9 * (hi - lo) or lv[-1] > hi + 1e-9 * (hi - lo):
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
    moments: np.ndarray    # (3, n_cells): each cell's width, mean and spread (see ``_cost``)
    lam: float
    kmat: np.ndarray       # (n_levels, n_levels) kernel cost of a level change, symmetric
    start: np.ndarray | None  # first cell's pin row: 0 at the pinned level, inf elsewhere; None: free
    end: np.ndarray | None    # last cell's pin row, likewise
    size: float            # A (``_size``)

    @property
    def shape(self) -> tuple:
        """(cells, levels)."""
        return self.moments.shape[1], self.levels.size


def _cost(lam, width, mean, spread, lv):
    """Fidelity cost (lam / 2) * ``cell_misfit(width, mean, spread, v)`` of
    the cells at levels v = lv, elementwise with broadcasting, in the
    misfit's one new array.  Every cost the oracle uses is made here, so it
    is the same float wherever it is made: at least 0 and finite (see
    Range)."""
    c = cell_misfit(width, mean, spread, lv)
    c *= 0.5 * lam
    return c


def _cost_rows(tab: _Tableau, backward: bool = False):
    """The cost rows of the cells in order, or of the reversed cells, made
    ``_BLOCK_CELLS`` cells at a time.  Iterating a block yields its rows,
    so a pass takes each row with no Python call of its own."""
    m = tab.moments[:, ::-1] if backward else tab.moments
    blocks = (
        _cost(tab.lam, *m[:, lo:lo + _BLOCK_CELLS, None], tab.levels)
        for lo in range(0, m.shape[1], _BLOCK_CELLS)
    )
    return itertools.chain.from_iterable(blocks)


def _build_tableau(problem: OracleProblem) -> _Tableau:
    n = problem.resolved_cells()
    levels = problem.resolved_levels()
    a, b = problem.data.domain
    moments = np.empty((3, n))
    edges = np.linspace(a, b, n + 1)
    moments[0] = (b - a) / n
    if isinstance(problem.data, GridSignal):  # samples are read at the cell midpoints, with spread 0
        moments[1], moments[2] = problem.data(midpoints(edges)), 0.0
    else:
        moments[1:] = problem.data.moments(edges)

    kmat = problem.kernel.eval(np.abs(levels[:, None] - levels[None, :]))
    start = end = None
    if problem.endpoint_pin is not None:
        try:
            va, vb = problem.endpoint_pin
        except (TypeError, ValueError):
            raise ConfigError(f"endpoint_pin must be two numbers, got {problem.endpoint_pin!r}") from None
        va, vb = check_real("endpoint_pin", va), check_real("endpoint_pin", vb)
        slack = 1e-9 * (levels[-1] - levels[0])
        if not all(levels[0] - slack <= p <= levels[-1] + slack for p in (va, vb)):
            raise ConfigError(
                f"endpoint_pin ({va}, {vb}) lies outside the level range "
                f"[{levels[0]}, {levels[-1]}]"
            )
        start, end = np.full((2, levels.size), np.inf)
        start[np.argmin(np.abs(levels - va))] = end[np.argmin(np.abs(levels - vb))] = 0.0
    size = _size(moments, levels, problem.lam, kmat)
    return _Tableau(
        edges=edges, levels=levels, moments=moments, lam=problem.lam, kmat=kmat, start=start, end=end, size=size
    )


def _result_from_sequence(problem: OracleProblem, tab: _Tableau, seq: np.ndarray) -> OracleResult:
    vals = tab.levels[seq]
    change = np.flatnonzero(np.diff(seq) != 0)
    bps = tuple(tab.edges[i + 1] for i in change)
    u = PiecewiseConstant(tuple(problem.data.domain), bps, tuple(vals[[0, *list(change + 1)]]))
    fid = float(_cost(tab.lam, *tab.moments, vals).sum())
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


def _size(moments: np.ndarray, levels: np.ndarray, lam: float, kmat: np.ndarray) -> float:
    """A = n * C + max kmat, with C the largest cost: a bound on the DP sum
    of a path with at most one jump, whose terms are each at least 0.  A
    cost is convex in its level and its float rounding monotone, so C is a
    cost at an end level, the same float as the largest of a whole table.  ``_build_tableau`` makes A once per
    question.  A finite free optimum is at most A: a path that keeps its
    first level and jumps once at the end costs at most that."""
    return moments.shape[1] * float(_cost(lam, *moments[:, :, None], levels[[0, -1]]).max()) + float(kmat.max())


def _in_range(size: float) -> bool:
    """size > 1e-280: a multiple of ``size`` by a few hundred u does not
    underflow (A is far below 1e300 in the envelope: see Range)."""
    return size > 1e-280


def _slack(tab: _Tableau) -> float:
    """64u * A (``_size``), the rounding slack of the witness test
    (``_free_pass``) and of the pruned pass's screen (``_pruned_pass``), or
    0 (no skipping, no screen) where A is out of range."""
    return 64 * 2.0**-53 * tab.size if _in_range(tab.size) else 0.0


def _pinned(row: np.ndarray, pin, levels=slice(None)) -> np.ndarray:
    """``row`` plus the pin row ``pin`` at ``levels``, or ``row`` itself at
    a free end (``pin`` None)."""
    return row if pin is None else row + pin[levels]


def _free_pass(tab: _Tableau, parents=None, on_row=None, backward=False) -> np.ndarray:
    """The free DP over the cells (the reversed cells when ``backward``),
    from the pin of its first cell.  Returns the last row with the other
    pin added; fills ``parents`` with each cell's best predecessors and
    hands each cell's row D, which carries no far pin, to ``on_row(i, D)``,
    when they are given (``table.__setitem__`` fills a table).

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

    The slack covers the rounding.  Let u = 2**-53, C = max cost, Kmax =
    max kmat and A = n * C + Kmax (``_size``).  Every finite D is at least
    0 and at most the float sum along a path that stays at its level (after
    one jump from a pinned start), up to a factor 1 + n * u.  A kmat
    entry is within 4u (relative) of the exact kernel at the exact level
    distance: one rounding in the distance, which moves a concave K with
    K(0) = 0 by at most the same relative amount, and three in kwc's
    formula (linear and Potts have fewer).  So the float entries obey the
    triangle inequality up to 17u * Kmax.  The two roundings of the check
    and those of D[k] + K(k, l) and D[w] + K(w, l) are each at most u *
    (|D| + Kmax + slack).  Together that is below 30u * A, and the slack is
    64u * A; for w = k the check then fails, as it must.  At A <= 1e-280
    (the slack could underflow) the pass stays dense.

    Windowed rows.  When only the parents are kept (no ``on_row``), a
    transition that reads the block [lo, hi) forms only the target rows
    whose cost at this cell is below cmax + slack, cmax the largest cost
    there over [lo, hi), and leaves every other row inf; the last cell
    forms every row, for the end pin and the final argmin.  A target l left
    out lies outside the block, so its best source w is another level, a
    jump: D[l] = D'[w] + K(w, l) + c[l] with D' the previous row and c[l]
    >= c[w] + slack, while D[w] <= D'[w] + c[w] (w can stay).  So the next
    witness test finds D[l] >= D[w] + K(l, w) + slack up to the same
    roundings as above, which the slack covers: l attains no row minimum at
    the next transition and is no parent of any state, and the rows, minima
    and parents of the levels that do are those of the dense pass.
    """
    n, L = tab.shape
    kmat = tab.kmat
    near, far = (tab.end, tab.start) if backward else (tab.start, tab.end)
    rows = _cost_rows(tab, backward)
    D = _pinned(next(rows), near)
    buf = np.empty(L * L)
    trans = buf.reshape(L, L)
    targets = np.arange(L)
    offs = targets * L
    slack = _slack(tab) if L >= _MIN_SKIP_LEVELS else 0.0
    windowed = slack > 0 and on_row is None
    if on_row is not None:
        on_row(0, D)
    arg = None
    first, last = 0, L  # the rows of D that were formed
    for i, c in enumerate(rows, 1):
        if slack and arg is not None:
            ahead = D.take(arg)
            ahead += kmat.take(offs[first:last] + arg)
            ahead += slack
            kept = (D[first:last] < ahead).nonzero()[0] + first
            lo, hi = kept[0], kept[-1] + 1
            if windowed and i < n - 1:
                formed = (c < c[lo:hi].max() + slack).nonzero()[0]
                first, last = formed[0], formed[-1] + 1
            else:
                first, last = 0, L
            w, size = hi - lo, last - first
            arg, best = _relax(D[lo:hi], kmat[first:last, lo:hi], buf[: size * w].reshape(size, w), targets[:size] * w)
            arg += lo
        else:
            arg, best = _relax(D, kmat, trans, offs)
        if parents is not None:
            parents[i, first:last] = arg
        if last - first == L:
            D = best + c
        else:
            D = np.full(L, np.inf)
            np.add(best, c[first:last], out=D[first:last])
        if on_row is not None:
            on_row(i, D)
    return _pinned(D, far)


def _solve_free(tab: _Tableau) -> np.ndarray | None:
    """The free optimum's level sequence, or None when no sequence meets
    the pins."""
    n, L = tab.shape
    parents = np.zeros((n, 1, L), dtype=np.int16)  # one row, the free row
    last = _free_pass(tab, parents[:, 0])  # the read-out adds its end pin again, which changes no value
    return _read_rows(tab, parents, last[None], [np.arange(L)] * n, free=True)[0][0]


def _behind(tab: _Tableau) -> tuple:
    """The backward free pass's rows, as one (cells x levels) table B (row
    i: the least cost of cells i..n-1 from each level at cell i, the end
    pin met), and the free optimum, min(B[0] + start)."""
    behind = np.empty(tab.shape)
    first = _free_pass(tab, None, behind[::-1].__setitem__, backward=True)
    return behind, float(first.min())


def _above(value: float, width: float) -> float:
    """value + width |value| + (1 + width) 1e-9 |value|: every threshold and
    cut of a pruned pass (``_pruned_pass``), from the free optimum and a
    relative width (a threshold) or from a threshold and width 0 (its cut).
    It scales with the problem: a power-of-two change of units scales it
    exactly."""
    return value + (width + (1.0 + width) * 1e-9) * abs(value)


def solve(problem: OracleProblem, tie_scan_jumps: int | None = None) -> OracleResult:
    """Global optimum over the level-quantized class.

    With ``tie_scan_jumps`` set, also runs one jump-count-constrained pass
    for the budgets m = 0..tie_scan_jumps and returns, as ties, the
    m-optima whose energy is within ``TIE_TOLERANCE`` (relative) of the
    global optimum and whose jump set differs from the minimizer's.

    That pass (``_budget_rows``) asks for the rows of DP cost at most T =
    ``_above(free, 2 TIE_TOLERANCE)`` and the minimizer.  Every row of
    dense energy within the window has a DP cost below T (see
    ``_pruned_pass``), so it is read and is the dense row, and a row above
    T is above T dense too, so its energy is above the window either way.
    """
    if tie_scan_jumps is not None:
        check_count("tie_scan_jumps", tie_scan_jumps)
    tab = _build_tableau(problem)
    n = tab.shape[0]
    if tie_scan_jumps is None:
        seqs, seq = None, _solve_free(tab)
    else:
        seqs, seq = _budget_rows(tab, min(int(tie_scan_jumps), MAX_JUMP_BUDGET, n - 1), (2.0 * TIE_TOLERANCE,))
    if seq is None:  # past one cell every sequence meets the pins
        raise ConfigError("a single cell cannot take two different pinned levels")
    best = _result_from_sequence(problem, tab, seq)
    if seqs is None:
        return best

    tol = TIE_TOLERANCE * abs(best.energy.total)
    # Row m has exactly m jumps, so only the minimizer's row can repeat its jump set.
    own = tuple(np.flatnonzero(np.diff(seq)))
    ties = []
    for seq in seqs:
        # None: no admissible sequence with this jump count (pins).
        if seq is None or tuple(np.flatnonzero(np.diff(seq))) == own:
            continue
        res = _result_from_sequence(problem, tab, seq)
        if res.energy.total <= best.energy.total + tol:
            ties.append(res)
    return replace(best, ties=tuple(ties))


def _start(tab: _Tableau, budget: int, levels: np.ndarray, cost: np.ndarray) -> tuple:
    """The budgeted passes' jump matrix (inf on its diagonal: a jump always
    changes level) and first cell's rows over ``levels``: row 0 the first
    cell's ``cost`` row there (inf off the start pin), every other row
    inf."""
    jump = tab.kmat.copy()
    np.fill_diagonal(jump, np.inf)
    V = np.full((budget + 1, levels.size), np.inf)
    V[0] = _pinned(cost[levels], tab.start, levels)
    return jump, V


def _read_rows(tab: _Tableau, parents, V: np.ndarray, kept: list, read=None, free=False) -> tuple:
    """Each of the last cell's rows V: its optimum (inf where no sequence
    meets the end pin) and, if ``read(optima)`` picks it (every row when
    None), its level sequence, else None.  A jump moves row j to row j - 1,
    except in the last row with ``free`` (the free pass's).  Columns and
    parents are positions among each cell's ascending ``kept`` levels:
    ``parents[i][j, p]`` is cell i - 1's position before p in row j.  The
    backtrack walks Python ints (``.item``), a fifth faster a cell than
    NumPy scalars."""
    last = kept[-1]
    V = _pinned(V, tab.end, last)
    ends = V.argmin(axis=1)
    values = V[np.arange(len(V)), ends]
    free_row = len(V) - 1 if free else None
    seqs = [None] * len(V)
    for m in range(len(V)) if read is None else read(values):
        if not np.isfinite(values[m]):
            continue
        at, j = ends.item(m), m
        seq = [last.item(at)] * len(kept)
        for i in range(len(kept) - 1, 0, -1):
            at = parents[i].item(j, at)
            seq[i - 1] = kept[i - 1].item(at)
            if seq[i - 1] != seq[i] and m != free_row:
                j -= 1
        seqs[m] = np.array(seq, dtype=np.int64)
    return seqs, values


def _budget_pass(tab: _Tableau, budget: int, read=None) -> tuple:
    """Optimal level sequences with exactly m = 0..budget level changes,
    and their optima, as ``_read_rows`` returns them with ``read``.

    One DP over (cell, jumps used, level), with every level kept, so
    positions are level indices.  Row m only reads rows m and m - 1, so
    rows 0..m equal those of a pass with budget m.
    """
    n, L = tab.shape
    cols = np.arange(L)
    rows = _cost_rows(tab)
    jump, D = _start(tab, budget, cols, next(rows))
    offs = cols * L
    trans = np.empty((L, L))
    jumped = np.full((budget + 1, L), np.inf)  # row 0 never jumps
    arg = np.zeros((budget + 1, L), dtype=np.int16)
    parents = np.zeros((n, budget + 1, L), dtype=np.int16)
    for i, c in enumerate(rows, 1):
        for j in range(1, budget + 1):
            arg[j], jumped[j] = _relax(D[j - 1], jump, trans, offs)
        # Strict <: an all-inf row (no admissible sequence yet) never jumps.
        use_jump = jumped < D
        parents[i] = np.where(use_jump, arg, cols)
        D = np.where(use_jump, jumped, D) + c
    return _read_rows(tab, parents, D, [cols] * n, read)


def _worth_pruning(budget: int, L: int) -> bool:
    return budget >= _MIN_PRUNE_BUDGET and budget * L * L >= _MIN_PRUNE_WORK


def _pruned_pass(tab: _Tableau, budget: int, behind: np.ndarray, threshold: float, read=None):
    """``_budget_pass`` over the states that may lie on a path of DP cost
    at most ``threshold``, with the free minimizer as one more row (the
    last for ``read``): the rows as ``_read_rows`` returns them and the
    free level sequence, or None (run the dense pass) once more than
    ``_MAX_SURVIVORS`` of the states have survived.

    Kept states.  A state is kept when its bound F + B - cost is at most
    the cut ``_above(threshold, 0)``, in the float operations of a bound
    table filled by two dense passes (B from ``_behind``).  F is held on
    the kept levels only, as the budget rows are: a transition of F reads
    the previous cell's kept levels and forms the targets spanned by the
    candidates.  A target's bound is at least min F + B[target] (kernel
    entries are at least 0), so a target whose screen value exceeds the cut
    by the slack of ``_slack``, widened by 64u of the cut, is above the cut
    in floats too (its few roundings are each at most u times F + B, the
    bound plus one cost of at most C) and is no candidate.  Every F formed
    here is at least the dense pass's (a min over fewer sources).  A source
    k that attains the dense minimum of a state l of the next cell has a
    bound no larger than l's, up to rounding at the cut itself: F[k] +
    K(k, l) = F[l] - cost[l], and B[k] - cost[k] is a min over the next
    cell's levels that includes K(k, l) + B[l].  So any source that attains
    a kept state's minimum is itself kept, and by induction over the cells
    a state the dense table keeps has its dense F here: the kept levels
    are the dense table's survivors.

    The free minimizer.  At a threshold of at least the free optimum, its
    states are kept: their bounds are at most the free optimum times 1 +
    7e-13 (``Exactness of the rows``, P the free minimizer), inside the
    cut.  Each of its states is the smallest-index parent of the next, so
    every smallest-index parent on the free minimizer is kept, and by
    induction along it each state has its dense F and its dense parent:
    the min over the kept sources includes that parent at its dense value,
    and no kept source of smaller index attains it, as none does in the
    dense pass.  So the free sequence is the free pass's, ties broken
    alike.

    Exactness of the rows.  Any path through state (i, l), whatever its
    jump count, costs at least its bound.  Let P be the path the dense pass
    returns for m jumps and V its DP cost.  The free passes add the same
    terms as the budgeted one (a stay adds K(0) = 0 exactly) and rounding
    is monotone, so F and B at a state of P are at most P's float prefix
    and suffix sums (for F by induction along P, whose previous state is
    kept).  Those two sums and V each add up P's float terms (n <= 2000
    costs and m <= 10 kernel entries) in some order, and every term is at
    least 0 (``_cost``), so each sum is within 2010u S of their exact sum S,
    with u = 2**-53: nothing cancels.  With the two roundings of F + B -
    cost (the cost at most S), every state of P has a bound of at most S +
    4030u S, and S <= V (1 + 2020u), so a bound of P is at most V + 7e-13
    V.  When V <= T, that is at most the cut, T + 1e-9 T.  At V = 0 every
    term of P is 0, and so is each of its bounds.  Restricting a min to
    a subset can only raise a float DP value, so by induction over the
    cells every state of P has its dense value and its dense parent here:
    the dense parent attains the dense minimum, every smaller index stays
    above it, and ``jumped < stay`` compares two values that are each the
    dense value, or above it on the side the dense pass did not take, so
    a stay wins a tie with a jump in both passes.  The final argmin and
    backtrack then return P.  A pruned optimum of at most T certifies
    itself: the dense one, V, is at most it.

    Thresholds.  ``best_with_m_jumps`` tries T = ``_above(free, width)``
    for each of ``_WIDTHS``, and the tie scan of ``solve`` T =
    ``_above(free, 2 TIE_TOLERANCE)``.  The scan's minimizer energy best
    and a row's energy E add up the same float terms as the DP costs free
    and V in another order (the fidelity pairwise, then the jumps), so each
    is within 4.5e-13 of the other, relative.  A row inside the window, E
    <= best + t best with t = ``TIE_TOLERANCE``, then has V <= free + t
    free + (1 + t) 1e-12 free, at most T.  At a free optimum of 0 (data on
    a level) T and its cut are 0: the pass keeps the states of bound 0,
    and a budget whose optimum lies above T is answered by a retry at a
    pruned value or by the dense pass, exact either way.  The threshold,
    the cut and the screen are sums of free (or a pruned optimum), A and
    the bounds, times fixed constants, so a power-of-two change of units
    (samples, levels and pins times s, lam / s, a kwc kappa / s, a Potts
    height s) scales every one of them exactly: the same states survive
    and the same passes run at every such scale.

    Positions are among each cell's kept levels (the smallest position is
    the smallest level), parents among the previous cell's, the free row's
    too; the jumps of all budget rows of a cell make one (budget, kept,
    kept before) sum, which each row then meets with its stays elementwise
    (a stay half in that sum would double it), and F makes one
    (candidates, kept before) sum.
    """
    n, L = tab.shape
    cut = _above(threshold, 0.0)
    slack = _slack(tab)
    screen = cut + slack + 64 * 2.0**-53 * abs(cut) if slack else math.inf
    no_rows = [None] * (budget + 1), np.full(budget + 1, np.inf), None
    rows = _cost_rows(tab)
    c = next(rows)
    F = _pinned(c, tab.start)
    prev = (F + behind[0] - c <= cut).nonzero()[0]
    survivors = prev.size
    if survivors / (n * L) > _MAX_SURVIVORS:
        return None
    if survivors == 0:
        return no_rows
    F = F.take(prev)
    jump, V = _start(tab, budget, prev, c)
    kept, parents = [prev], [None]
    at_level = np.empty(L, dtype=np.intp)  # position of a level among the previous cell's survivors
    buf = np.empty(0)
    index = np.arange(max(budget, 1) * L)  # row offsets of both transitions, before scaling
    for i, c in enumerate(rows, 1):
        B = behind[i]
        cand = (F.min() + B <= screen).nonzero()[0]
        if cand.size == 0:
            return no_rows
        first, last = cand[0], cand[-1] + 1
        w, size = prev.size, last - first
        if buf.size < size * w:
            buf = np.empty(size * w)
        free_arg, best = _relax(F, tab.kmat[first:last].take(prev, axis=1), buf[: size * w].reshape(size, w), index[:size] * w)
        cost = c[first:last]
        F = best + cost
        keep = (F + B[first:last] - cost <= cut).nonzero()[0]
        F, s = F.take(keep), keep + first
        survivors += s.size
        if survivors / (n * L) > _MAX_SURVIVORS:
            return None
        if s.size == 0:
            return no_rows
        size = budget * s.size * prev.size
        if buf.size < size:
            buf = np.empty(size)
        trans = buf[:size].reshape(budget, s.size, prev.size)
        offs = index[: budget * s.size].reshape(budget, s.size) * prev.size
        arg, jumped = _relax(V[:-1, None, :], jump.take(s[:, None] * L + prev), trans, offs)
        at_level.fill(-1)
        at_level[prev] = np.arange(prev.size)
        pos = at_level[s]
        stay = np.where(pos >= 0, V[:, pos], np.inf)
        # Strict <: an all-inf row (no admissible sequence yet) never jumps.
        use_jump = jumped < stay[1:]
        par = np.empty((budget + 2, s.size), dtype=np.int16)
        par[0] = pos
        par[1:-1] = np.where(use_jump, arg, pos)
        par[-1] = free_arg.take(keep)
        stay[1:] = np.where(use_jump, jumped, stay[1:])
        V = stay + c.take(s)
        kept.append(s)
        parents.append(par)
        prev = s
    seqs, values = _read_rows(tab, parents, np.vstack((V, F)), kept, read, free=True)
    return seqs[:-1], values[:-1], seqs[-1]


def best_with_m_jumps(problem: OracleProblem, m: int) -> OracleResult:
    """Global optimum among sequences with exactly m level changes: row m
    of the budgeted pass (``_budget_rows``), asked at each width of
    ``_WIDTHS`` in turn."""
    check_count("jump count", m)
    if m > MAX_JUMP_BUDGET:
        raise ConfigError(f"jump budget {m} exceeds the limit {MAX_JUMP_BUDGET}")
    tab = _build_tableau(problem)
    n = tab.shape[0]
    if m >= n:
        raise ConfigError(f"cannot place {m} jumps with only {n} cells")
    seq = _budget_rows(tab, m, _WIDTHS, m)[0][m]
    if seq is None:
        raise ConfigError(f"no admissible sequence with exactly {m} jumps")
    return _result_from_sequence(problem, tab, seq)


def _budget_rows(tab: _Tableau, budget: int, widths: tuple, row: int | None = None) -> tuple:
    """The level sequences of ``_budget_pass(tab, budget)`` that a question
    asks for (None for the others), and the free minimizer's or None:
    with ``row`` None (the tie scan) the rows of DP cost at most the
    threshold and the minimizer; else row ``row`` alone.

    The rows come from pruned passes (``_pruned_pass``) where they pay
    (``_worth_pruning``) and A (``_size``) is in range, at the thresholds T
    = ``_above(free, width)`` for each of ``widths`` in turn.  A pruned row
    of cost at most T certifies itself; row ``row`` above T is asked again
    at its own value, where the next pass certifies it, or, where it is
    inf, at the next width.  When too many states survive or no width
    certifies, the dense pass answers (for the tie scan, every row), with
    ``_solve_free`` for the minimizer.
    """
    if _worth_pruning(budget, tab.shape[1]) and _in_range(tab.size):
        behind, free = _behind(tab)
        thresholds = (_above(free, width) for width in widths)
        T = next(thresholds)

        def read(values):  # the rows that the pass at T backtracks
            if row is None:  # the rows within T, and the free row, the last
                return [*np.flatnonzero(values[:-1] <= T), budget + 1]
            return [row] if values[row] <= T else []

        while math.isfinite(T):
            rows = _pruned_pass(tab, budget, behind, T, read=read)
            if rows is None:
                break
            seqs, values, seq = rows
            if row is None or values[row] <= T:
                return seqs, seq
            T = values[row] if math.isfinite(values[row]) else next(thresholds, math.inf)
        del behind  # freed before the dense pass allocates its parent table
    if row is None:
        return _budget_pass(tab, budget)[0], _solve_free(tab)
    return _budget_pass(tab, budget, read=lambda values: [row])[0], None


def cell_midpoints(problem: OracleProblem) -> np.ndarray:
    """Midpoints of the problem's uniform cells, where a ``GridSignal`` is read."""
    return midpoints(np.linspace(*problem.data.domain, problem.resolved_cells() + 1))


def signal_problem(
    signal: GridSignal,
    kernel: JumpKernel,
    lam: float,
    **kwargs,
) -> OracleProblem:
    """Convenience: an oracle instance on a sampled signal."""
    return OracleProblem(data=signal, kernel=kernel, lam=lam, **kwargs)
