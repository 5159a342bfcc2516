"""Exact global minimization over level-quantized step functions.

The continuum energy is restricted to functions that are constant on each of
n_cells uniform cells and take values on a fixed level grid.  A cell's
fidelity is quadratic in its level, with the cell's width and the data's
integrals of g and g^2 over it (``data.moments(edges)``) as coefficients:
exact for a ``LinearData``, ``SineData`` or ``PiecewiseConstant`` g, the
midpoint rule for a ``GridSignal`` g.  Within this finite class
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
results; a free solve that keeps only its sequence also forms only the
target rows that the next witness test can keep.

Memory.  No (cells x levels) table of fidelity costs is held: the tableau
keeps each cell's three moments, and every pass makes its cost rows
``_BLOCK_CELLS`` cells at a time with one expression (``_cost``), so every
float is the one a whole table would hold.  The passes run one after
another in the caller, and each oracle question holds at most one
(cells x levels) float table, the bounds below.

Budgeted passes (``best_with_m_jumps`` and the tie scan of ``solve``) are
pruned by an exact forward-backward bound: each state (cell, level) gets
the least cost F + B - cost of any path through it, with F and B the
forward and backward free passes.  The backward pass runs once, in full,
into one (cells x levels) table of its rows B.  One pass over the cells
(``_pruned_pass``) then forms F where the bound can keep a state, keeps
the states within a threshold of the free optimum, runs the budgeted DP
over them with the dense pass's results and finds the free minimizer; it
stops, and the dense pass runs, once too many states survive.  Both
budgeted passes start with ``_start`` and end with ``_read_rows``.
"""

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, check_count, check_real
from .kernel import JumpKernel
from .pwc import EnergyBreakdown, GridSignal, PiecewiseConstant, midpoints

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
# budget * L^2 = 20 000 transitions per cell, where the two routes were
# even on 300- and 1000-cell random walks when the bounds cost two free
# passes.  They now cost one backward pass (0.16-0.28 s at 2000 x 400)
# and free rows over each threshold's kept states; the m = 4 tie scans
# still gain: 36-38 ms pruned against 44 ms dense at 400 x 101, 102-110
# against 192-201 ms at 800 x 201 (medians of 21 interleaved rounds, 2
# cores, NumPy 2.4.6).  ``best_with_m_jumps`` tries thresholds 1e-3 and
# 1e-2 (relative) above the free optimum; at 1e-1, 20-51 % of the states
# of 2000 x 400 random walks survive.  Above 30 % survivors the dense pass
# runs: a pruned pass over the 30 % of states with the least bounds took
# 0.28-0.77 of the dense pass's time, over 50 % 0.69-1.10.
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
        with np.errstate(all="ignore"):  # data that overflow are named below
            lo, hi = self.data.value_range()
        if not math.isfinite(hi - lo):
            raise ConfigError(f"the data overflow floats: their range [{lo}, {hi}] is not a finite interval")
        if not hi > lo:
            # Degenerate (constant) data: widen symmetrically so a level
            # grid exists and still contains the data value.
            lo, hi = lo - 0.5, hi + 0.5
        uniform = self.levels is None
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
    moments: np.ndarray    # (3, n_cells): each cell's m0, m1, m2 (see ``_cost``)
    lam: float
    kmat: np.ndarray       # (n_levels, n_levels) kernel cost of a level change, symmetric
    pin: tuple | None      # (first level index, last level index) or None

    @property
    def shape(self) -> tuple:
        """(cells, levels)."""
        return self.moments.shape[1], self.levels.size


def _cost(lam, m0, m1, m2, lv):
    """Fidelity cost (lam / 2) * (m0 v^2 - 2 m1 v + m2) of the cells with
    moments m0, m1, m2 at levels v = lv, elementwise with broadcasting.
    Every cost the oracle uses is made here, so it is the same float
    wherever it is made."""
    return 0.5 * lam * (m0 * lv * lv - 2.0 * m1 * lv + m2)


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
    with np.errstate(all="ignore"):  # data that overflow are named below
        edges = np.linspace(a, b, n + 1)
        moments[0] = (b - a) / n
        moments[1:] = problem.data.moments(edges)
    bad = np.argwhere(~np.isfinite(moments))
    if bad.size:
        k, i = bad[0]
        what = ("the width of", "the integral of g over", "the integral of g^2 over")[k]
        raise ConfigError(f"the data overflow floats: {what} the cell [{edges[i]}, {edges[i + 1]}] is {moments[k, i]}")

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
    return _Tableau(edges=edges, levels=levels, moments=moments, lam=problem.lam, kmat=kmat, pin=pin)


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


def _slack(tab: _Tableau) -> float:
    """64u * A, the rounding slack of the witness test (``_free_pass``) and
    of the pruned pass's screen (``_pruned_pass``), or 0 (no skipping, no
    screen) outside 1e-280 < A < 1e300.  A = n * C + max kmat, with C the
    upper bound 0.5 * lam * max(m0 V^2 + 2 |m1| V + |m2|) on |cost|, V the
    largest |level|."""
    n, _ = tab.shape
    m0, m1, m2 = np.abs(tab.moments)
    v = max(abs(tab.levels[0]), abs(tab.levels[-1]))
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan: no slack
        bound = n * (0.5 * tab.lam * float((m0 * v * v + 2.0 * m1 * v + m2).max())) + tab.kmat.max()
    return 64 * 2.0**-53 * bound if 1e-280 < bound < 1e300 else 0.0


def _pins(tab: _Tableau) -> tuple:
    """The start and end rows, 0 at the pinned level and inf elsewhere, or
    (None, None) with free ends."""
    if tab.pin is None:
        return None, None
    start, end = np.full((2, tab.levels.size), np.inf)
    start[tab.pin[0]] = end[tab.pin[1]] = 0.0
    return start, end


def _free_pass(tab: _Tableau, start, parents=None, on_row=None, backward=False) -> np.ndarray:
    """The free DP over the cells (the reversed cells when ``backward``)
    from the ``start`` row (None: every level at no cost).  Returns the
    last row; fills ``parents`` with each cell's best predecessors and
    hands each cell's row D to ``on_row(i, D)``, when they are given
    (``table.__setitem__`` fills a table).

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
    max kmat and A = n * C + Kmax (``_slack`` takes C from the moments, an
    upper bound up to its own few roundings).  Every finite D is at most
    the float sum along a path that stays at its level (after one jump from
    a pinned start) and at least -n * C, up to a factor 1 + n * u.  A kmat
    entry is within 4u (relative) of the exact kernel at the exact level
    distance: one rounding in the distance, which moves a concave K with
    K(0) = 0 by at most the same relative amount, and three in kwc's
    formula (linear and Potts have fewer).  So the float entries obey the
    triangle inequality up to 17u * Kmax.  The two roundings of the check
    and those of D[k] + K(k, l) and D[w] + K(w, l) are each at most u *
    (|D| + Kmax + slack).  Together that is below 30u * A, and the slack is
    64u * A; for w = k the check then fails, as it must.  Outside 1e-280 <
    A < 1e300 (the slack could underflow, a sum overflow) the pass stays
    dense.

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
    rows = _cost_rows(tab, backward)
    c = next(rows)
    D = c if start is None else c + start
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
    return D


def _solve_free(tab: _Tableau) -> np.ndarray | None:
    """The free optimum's level sequence, or None when no sequence meets
    the pins."""
    n, L = tab.shape
    start, end = _pins(tab)
    parents = np.zeros((n, L), dtype=np.int16)
    D = _free_pass(tab, start, parents)
    if end is not None:
        D = D + end
    if not np.isfinite(D).any():
        return None
    seq = np.empty(n, dtype=np.int64)
    seq[-1] = np.argmin(D)
    for i in range(n - 1, 0, -1):
        seq[i - 1] = parents[i, seq[i]]
    return seq


def _behind(tab: _Tableau) -> tuple:
    """The backward free pass's rows, as one (cells x levels) table B (row
    i: the least cost of cells i..n-1 from each level at cell i, the end
    pin met), and the free optimum, min(B[0] + start)."""
    n, L = tab.shape
    start, end = _pins(tab)
    behind = np.empty((n, L))
    first = _free_pass(tab, end, None, behind[::-1].__setitem__, backward=True)
    if start is not None:
        first = first + start
    return behind, float(first.min())


def _cut(threshold: float) -> float:
    """The largest bound kept at ``threshold`` (see ``_pruned_pass``)."""
    return threshold + 1e-9 * max(1.0, abs(threshold))


def solve(problem: OracleProblem, tie_scan_jumps: int | None = None) -> OracleResult:
    """Global optimum over the level-quantized class.

    With ``tie_scan_jumps`` set, also runs one jump-count-constrained pass
    for the budgets m = 0..tie_scan_jumps and returns, as ties, the
    m-optima whose energy is within tie_tolerance (relative) of the global
    optimum and whose jump set differs from the minimizer's.

    That pass is pruned (``_pruned_pass``) at one threshold, T = free + 2
    (tie_tolerance + 1e-9) s with s = max(1, |free|), and also finds the
    minimizer.  T covers the window best + tie_tolerance max(1, |best|):
    the minimizer's energy best is within 1e-12 s of free (the same terms
    summed in another order), so the window ends below free +
    (tie_tolerance (1 + 1e-12) + 1e-12) s, which T's margin of 2e-9 s
    keeps below T, its own roundings included.  A row of dense energy
    within the window has a DP cost within 1e-12 of it, so the pruned row
    is the dense one.  The pass reads the minimizer and the rows of cost
    at most T only: a row above T is above T dense too, so its energy is
    above the window either way.  When too many states survive, the
    minimizer comes from the free solve and the dense pass runs.
    """
    if tie_scan_jumps is not None:
        check_count("tie_scan_jumps", tie_scan_jumps)
    tab = _build_tableau(problem)
    n, L = tab.shape
    budget = None if tie_scan_jumps is None else min(int(tie_scan_jumps), MAX_JUMP_BUDGET, n - 1)
    rows = None
    if budget is not None and _worth_pruning(budget, L):
        behind, free = _behind(tab)
        if math.isfinite(free):
            T = free + 2.0 * (problem.tie_tolerance + 1e-9) * max(1.0, abs(free))
            rows = _pruned_pass(  # reads the rows of cost at most T and the free row, the last
                tab, budget, behind, T, read=lambda values: [*np.flatnonzero(values[:-1] <= T), budget + 1]
            )
        del behind  # freed before the free solve and the dense pass
    seqs, _, seq = (None, None, _solve_free(tab)) if rows is None else rows
    if seq is None:
        raise ConfigError("a single cell cannot take two different pinned levels")
    best = _result_from_sequence(problem, tab, seq)
    if budget is None:
        return best

    tol = problem.tie_tolerance * max(1.0, abs(best.energy.total))
    seqs = _budget_pass(tab, budget)[0] if seqs is None else seqs
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
    cost = cost[levels]
    V[0] = cost if tab.pin is None else np.where(levels == tab.pin[0], cost, np.inf)
    return jump, V


def _read_rows(tab: _Tableau, parents, V: np.ndarray, kept: list, read=None, free=False) -> tuple:
    """Each of the last cell's rows V: its optimum (inf where no sequence
    meets the end pin) and, if ``read(optima)`` picks it (every row when
    None), its level sequence, else None.  A jump moves row j to row j - 1,
    except in the last row with ``free`` (the free pass's).  Columns and
    parents are positions among each cell's ascending ``kept`` levels:
    ``parents[i][j, p]`` is cell i - 1's position before p in row j."""
    last = kept[-1]
    if tab.pin is not None:
        V = np.where(last == tab.pin[1], V, np.inf)
    ends = V.argmin(axis=1)
    values = V[np.arange(len(V)), ends]
    free_row = len(V) - 1 if free else None
    seqs = [None] * len(V)
    for m in range(len(V)) if read is None else read(values):
        if not np.isfinite(values[m]):
            continue
        at, j = ends[m], m
        seq = np.empty(len(kept), dtype=np.int64)
        seq[-1] = last[at]
        for i in range(len(kept) - 1, 0, -1):
            at = parents[i][j, at]
            seq[i - 1] = kept[i - 1][at]
            if seq[i - 1] != seq[i] and m != free_row:
                j -= 1
        seqs[m] = seq
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
    ``_cut(threshold)``, in the float operations of a bound table filled by
    two dense passes (B from ``_behind``).  A transition of F reads the
    sources spanned by the previous cell's kept levels and forms the
    targets spanned by the candidates.  A target's bound is at least min F
    + B[target] over its sources (kernel entries are at least 0), so a
    target whose screen value exceeds the cut by the slack of ``_slack``,
    widened by 64u of the cut, is above the cut in floats too (its few
    roundings stay below that slack) and is no candidate.  By induction
    over the cells, every F formed here is at least the dense pass's (a min
    over fewer sources), and equals it at a state the dense table keeps:
    the predecessor on that state's best forward path has a bound no larger
    than the state's own (up to rounding at the cut itself), so it is kept
    with its dense F.  So the kept levels are the dense table's survivors;
    likewise the states of the dense free minimizer keep their dense values
    and smallest-index parents, and the free sequence is the free pass's,
    ties broken alike.

    Exactness of the rows.  Any path through state (i, l), whatever its
    jump count, costs at least its bound.  Let P be the path the dense pass
    returns for m jumps and V its DP cost.  The free passes add the same
    terms as the budgeted one (a stay adds K(0) = 0 exactly) and rounding
    is monotone, so F and B at a state of P are at most P's float prefix
    and suffix sums (for F by induction along P, whose previous state is
    kept).  Those and V are float sums of at most 2000 terms that are
    non-negative up to their own rounding, each within 2000 * 2**-53 <
    3e-13 (relative) of P's exact cost, so every state of P has a bound of
    at most V * (1 + 1e-12).  When V is at most T * (1 + 1e-10), the cut at
    T, which keeps bounds up to T + 1e-9 * max(1, |T|), keeps all of them.
    Restricting a min to a subset can only raise a float DP value, so by
    induction over the cells every state of P has its dense value and its
    dense parent here: the dense parent attains the dense minimum, every
    smaller index stays above it, and ``jumped < stay`` compares two values
    that are each the dense value, or above it on the side the dense pass
    did not take.  The final argmin and backtrack then return P.  A pruned
    optimum of at most T certifies itself: the dense one, V, is at most it.

    Positions are among each cell's kept levels (the smallest position is
    the smallest level), parents among the previous cell's; all budget rows
    of a cell make one (budget, kept, kept before) sum.  The parent table's
    last row holds the free parents, -1 where one is not kept; at a
    threshold of at least the free optimum, the free minimizer's states
    are all kept (as above), so its read never meets a -1.
    """
    n, L = tab.shape
    start = _pins(tab)[0]
    cut = _cut(threshold)
    slack = _slack(tab)
    screen = cut + slack + 64 * 2.0**-53 * abs(cut) if slack else math.inf
    no_rows = [None] * (budget + 1), np.full(budget + 1, np.inf), None
    rows = _cost_rows(tab)
    c = next(rows)
    F, base = (c if start is None else c + start), 0  # F over the levels from base on
    prev = (F + behind[0] - c <= cut).nonzero()[0]
    survivors = prev.size
    if survivors / (n * L) > _MAX_SURVIVORS:
        return None
    if survivors == 0:
        return no_rows
    jump, V = _start(tab, budget, prev, c)
    kept, parents = [prev], [None]
    at_level = np.empty(L, dtype=np.intp)  # position of a level among the previous cell's survivors
    buf = np.empty(0)
    index = np.arange(max(budget, 1) * L)  # row offsets of both transitions, before scaling
    for i, c in enumerate(rows, 1):
        lo, hi = prev[0], prev[-1] + 1
        src = F[lo - base : hi - base]
        B = behind[i]
        cand = (src.min() + B <= screen).nonzero()[0]
        if cand.size == 0:
            return no_rows
        first, last = cand[0], cand[-1] + 1
        w, size = hi - lo, last - first
        if buf.size < size * w:
            buf = np.empty(size * w)
        free_arg, best = _relax(src, tab.kmat[first:last, lo:hi], buf[: size * w].reshape(size, w), index[:size] * w)
        cost = c[first:last]
        F, base = best + cost, first
        keep = (F + B[first:last] - cost <= cut).nonzero()[0]
        s = keep + first
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
        par[-1] = at_level.take(free_arg.take(keep) + lo)
        stay[1:] = np.where(use_jump, jumped, stay[1:])
        V = stay + c.take(s)
        kept.append(s)
        parents.append(par)
        prev = s
    seqs, values = _read_rows(tab, parents, np.vstack((V, F.take(prev - base))), kept, read, free=True)
    return seqs[:-1], values[:-1], seqs[-1]


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
    n = tab.shape[0]
    if m >= n:
        raise ConfigError(f"cannot place {m} jumps with only {n} cells")
    seq = _certified_row(tab, m)
    if seq is None:
        raise ConfigError(f"no admissible sequence with exactly {m} jumps")
    return _result_from_sequence(problem, tab, seq)


def _certified_row(tab: _Tableau, m: int):
    """The m-jump row of ``_budget_pass(tab, m)``, by pruned passes when one
    certifies its result.  Each pass reads row m alone, a pruned pass only
    when it certifies."""
    if _worth_pruning(m, tab.shape[1]):
        behind, free = _behind(tab)
        scale = max(1.0, abs(free))
        widths = iter(_WIDTHS)
        threshold = free + next(widths) * scale
        while math.isfinite(threshold):
            rows = _pruned_pass(tab, m, behind, threshold, read=lambda values: [m] if values[m] <= threshold else [])
            if rows is None:
                break
            seqs, values, _ = rows
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
        del behind  # freed before the dense pass allocates its parent table
    return _budget_pass(tab, m, read=lambda values: [m])[0][m]


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
