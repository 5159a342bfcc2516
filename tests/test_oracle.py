"""Unit tests for the discrete global minimizer (dynamic program)."""

import functools
import itertools
import math
import threading
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kwcseg.oracle as oracle_mod
from kwcseg.errors import ConfigError
from kwcseg.exact import jump_bounds, uniform_step_minimizer
from kwcseg.kernel import kwc_kernel, linear_kernel, potts_kernel
from kwcseg.oracle import (
    MAX_CELLS,
    MAX_JUMP_BUDGET,
    MAX_LEVELS,
    OracleProblem,
    _budget_pass,
    _build_tableau,
    _relax,
    _result_from_sequence,
    best_with_m_jumps,
    signal_problem,
    solve,
)
from kwcseg.pwc import GridSignal, LinearData, SampledData, energy

from proof_devices import quantize, sequence_from_result

K1 = kwc_kernel(1.0)


class TestValidation:
    def test_non_finite_sampled_data_rejected(self):
        g = GridSignal((0.0, 1.0), np.array([0.0, np.nan, 1.0]))
        with pytest.raises(ConfigError, match="finite"):
            signal_problem(g, K1, 5.0)

    def test_negative_tie_scan_rejected(self):
        with pytest.raises(ConfigError, match="tie_scan_jumps"):
            solve(tie_problem(n_cells=10, n_levels=5), tie_scan_jumps=-3)


def tie_problem(n_cells=100, n_levels=51):
    return OracleProblem(
        data=LinearData((0.0, 1.0)),
        kernel=K1,
        lam=16 / 3,
        n_cells=n_cells,
        n_levels=n_levels,
        endpoint_pin=(0.0, 1.0),
    )


class TestBasicRecovery:
    def test_constant_data_recovered_exactly(self):
        p = OracleProblem(
            data=LinearData((0.0, 1.0), 0.0, 0.5), kernel=K1, lam=1.0, n_cells=50, n_levels=21
        )
        r = solve(p)
        assert r.jump_count == 0
        assert r.minimizer.values == (0.5,)
        assert r.energy.total == pytest.approx(0.0, abs=1e-12)

    def test_planted_step_with_heavy_weight(self):
        x = np.linspace(0, 1, 200)
        g = GridSignal((0.0, 1.0), np.where(x < 0.5, 0.0, 1.0))
        p = signal_problem(g, K1, 1000.0, n_cells=100, n_levels=11)
        r = solve(p)
        assert r.jump_count == 1
        assert r.minimizer.breakpoints == pytest.approx((0.5,), abs=1e-12)
        assert r.minimizer.values == pytest.approx((0.0, 1.0))
        # Data is recovered exactly, so only the jump cost remains.
        assert r.energy.total == pytest.approx(K1.eval(1.0), abs=1e-12)
        assert r.energy.fidelity == pytest.approx(0.0, abs=1e-12)

    def test_best_constant_is_data_mean(self):
        p = OracleProblem(data=LinearData((0.0, 1.0)), kernel=K1, lam=2.0, n_cells=100, n_levels=51)
        r = best_with_m_jumps(p, 0)
        assert r.minimizer.values == pytest.approx((0.5,))
        assert r.energy.total == pytest.approx(1.0 / 12.0, rel=1e-12)


class TestTieInstance:
    def test_two_tied_minimizers_at_critical_weight(self):
        r = solve(tie_problem(), tie_scan_jumps=4)
        counts = {r.jump_count} | {t.jump_count for t in r.ties}
        assert counts == {1, 2}
        assert r.energy.total == pytest.approx(13 / 18, rel=1e-12)
        for t in r.ties:
            assert t.energy.total == pytest.approx(13 / 18, rel=1e-12)

    def test_restricted_minimizers_match_closed_forms(self):
        p = tie_problem()
        r1 = best_with_m_jumps(p, 1)
        assert r1.minimizer.breakpoints == pytest.approx((0.5,))
        assert r1.minimizer.values == pytest.approx((0.0, 1.0))
        r2 = best_with_m_jumps(p, 2)
        assert r2.minimizer.breakpoints == pytest.approx((0.25, 0.75))
        assert r2.minimizer.values == pytest.approx((0.0, 0.5, 1.0))
        assert r1.energy.total == pytest.approx(r2.energy.total, abs=1e-12)

    def test_never_beaten_by_explicit_competitors(self):
        # The dynamic program is a global minimum over its grid, so any
        # grid-representable competitor has at least its energy.
        p = tie_problem(n_cells=400, n_levels=41)
        r = solve(p)
        g = LinearData((0.0, 1.0))
        for m in (1, 2, 4):
            comp = uniform_step_minimizer(1.0, m)
            assert r.energy.total <= energy(comp, g, K1, p.lam).total + 1e-12

    def test_unpinned_beats_quantization(self):
        p = OracleProblem(data=LinearData((0.0, 1.0)), kernel=K1, lam=16 / 3, n_cells=400, n_levels=41)
        r = solve(p)
        comp = quantize(LinearData((0.0, 1.0)), 0.25)
        assert r.energy.total <= energy(comp, LinearData((0.0, 1.0)), K1, p.lam).total + 1e-12

    def test_refinement_never_raises_energy(self):
        # The finer grid contains every coarse-grid candidate.
        coarse = solve(tie_problem(100, 51))
        fine = solve(tie_problem(200, 101))
        assert fine.energy.total <= coarse.energy.total + 1e-12
        assert fine.energy.total == pytest.approx(13 / 18, rel=1e-10)

    def test_tie_scan_skips_infeasible_counts(self):
        p = OracleProblem(
            data=LinearData((0.0, 1.0)),
            kernel=K1,
            lam=16 / 3,
            n_cells=20,
            n_levels=3,
            endpoint_pin=(0.0, 1.0),
        )
        r = solve(p, tie_scan_jumps=5)
        assert all(t.jump_count != 0 for t in r.ties)
        # A budget above the 7 edges of 8 pinned cells: m = 0 misses the
        # pins, m = 8..10 has no sequence.
        samples = np.cumsum(np.random.default_rng(7).normal(size=9))
        pinned = signal_problem(
            GridSignal((0.0, 1.0), samples), K1, 200.0, n_levels=MAX_LEVELS,
            endpoint_pin=(float(samples[0]), float(samples[-1])),
        )
        seqs = _budget_pass(_build_tableau(pinned), MAX_JUMP_BUDGET)
        assert [seq is None for seq in seqs] == [True] + [False] * 7 + [True] * 3


class TestMonotoneBattery:
    def test_jump_counts_respect_bounds(self):
        rng = np.random.default_rng(41)
        for lam in (1.0, 5.0, 16 / 3, 20.0):
            for _ in range(3):
                raw = np.abs(rng.normal(size=121))
                samples = np.cumsum(raw)
                samples = (samples - samples[0]) / (samples[-1] - samples[0])
                g = GridSignal((0.0, 1.0), samples)
                p = signal_problem(g, K1, lam, n_levels=61)
                r = solve(p)
                cap = float(samples.max() - samples.min())
                bound = jump_bounds(K1, 0.0, 1.0, lam, mass_cap=cap).jumps_monotone_data
                assert r.jump_count <= bound
                vals = np.asarray(r.minimizer.values)
                assert np.all(np.diff(vals) >= -1e-12)
                assert vals.min() >= samples.min() - 1e-12
                assert vals.max() <= samples.max() + 1e-12


@st.composite
def tiny_problems(draw):
    """Random sampled data on n <= 5 cells, L <= 4 random levels, any kernel."""
    n = draw(st.integers(1, 5))
    n_levels = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["kwc", "linear", "potts"]))
    param = draw(st.floats(0.1, 5.0))
    kernel = {"kwc": kwc_kernel(param), "potts": potts_kernel(param), "linear": linear_kernel()}[kind]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    samples = rng.uniform(-1.0, 1.0, size=n + 1)
    lo, hi = samples.min(), samples.max()
    levels = np.unique(np.concatenate(([lo], rng.uniform(lo, hi, size=n_levels - 1))))
    pin = None
    if draw(st.booleans()):
        pin = tuple(float(levels[i]) for i in rng.integers(0, levels.size, size=2))
    return OracleProblem(
        data=SampledData(GridSignal((0.0, 1.0), samples)),
        kernel=kernel,
        lam=draw(st.floats(0.1, 100.0)),
        levels=levels,
        endpoint_pin=pin,
        tie_tolerance=draw(st.sampled_from([1e-9, 0.05, 0.5])),
    )


def enumerate_optima(problem):
    """Energy of every level sequence, by brute force over itertools.product.

    Returns (optimum by jump count, evaluator of a cell-value vector).
    """
    samples = problem.data.signal.samples
    n = samples.size - 1
    levels = np.asarray(problem.levels)
    gmid = 0.5 * (samples[:-1] + samples[1:])

    def evaluate(values):
        fidelity = 0.5 * problem.lam * np.sum((values - gmid) ** 2) / n
        return fidelity + float(np.sum(problem.kernel.eval(np.abs(np.diff(values)))))

    optima = {}
    for seq in itertools.product(range(levels.size), repeat=n):
        if problem.endpoint_pin is not None:
            ends = tuple(levels[[seq[0], seq[-1]]])
            if ends != problem.endpoint_pin:
                continue
        m = sum(a != b for a, b in zip(seq, seq[1:]))
        optima[m] = min(optima.get(m, math.inf), evaluate(levels[list(seq)]))
    return optima, evaluate


def assert_close(value, expected):
    assert abs(value - expected) <= 1e-12 * max(1.0, abs(expected))


class TestAgainstEnumeration:
    @settings(max_examples=300)
    @given(tiny_problems())
    def test_free_and_budgeted_optima(self, problem):
        optima, evaluate = enumerate_optima(problem)
        n = problem.resolved_cells()
        if not optima:  # one cell pinned to two different levels
            with pytest.raises(ConfigError):
                solve(problem)
            return
        best = solve(problem)
        assert_close(best.energy.total, min(optima.values()))
        assert_close(evaluate(sequence_from_result(best, problem)), best.energy.total)
        for m in range(n):
            if m not in optima:
                with pytest.raises(ConfigError):
                    best_with_m_jumps(problem, m)
                continue
            res = best_with_m_jumps(problem, m)
            assert res.jump_count == m
            assert_close(res.energy.total, optima[m])
            assert_close(evaluate(sequence_from_result(res, problem)), res.energy.total)

    @settings(max_examples=300)
    @given(tiny_problems())
    def test_tie_scan_returns_true_optima(self, problem):
        optima, evaluate = enumerate_optima(problem)
        if not optima:
            return
        best = solve(problem, tie_scan_jumps=problem.resolved_cells() - 1)
        window = problem.tie_tolerance * max(1.0, abs(best.energy.total))
        for tie in best.ties:
            assert_close(tie.energy.total, optima[tie.jump_count])
            assert_close(evaluate(sequence_from_result(tie, problem)), tie.energy.total)
            assert tie.energy.total <= best.energy.total + window


def reference_dp(tab, budget):
    """The oracle's dynamic programs as plain loops over cells, levels k -> l
    and jump counts j.

    Same float operations and tie-breaking as the oracle: the smallest k,
    then the smallest final level, and a jump only when strictly cheaper
    than staying.  Returns ((energy, sequence) of the free problem,
    [(energy, sequence) or None for m = 0..budget]).
    """
    n, L = tab.cost.shape
    inf = math.inf
    first = [tab.cost[0, l] if tab.pin is None or l == tab.pin[0] else inf for l in range(L)]
    ends = range(L) if tab.pin is None else [tab.pin[1]]

    def best_end(values):
        end, best = None, inf
        for l in ends:
            if values[l] < best:
                end, best = l, values[l]
        return end, best

    D, parent = list(first), {}
    for i in range(1, n):
        new = []
        for l in range(L):
            best, arg = inf, 0
            for k in range(L):
                t = D[k] + tab.kmat[k, l]
                if t < best:
                    best, arg = t, k
            parent[i, l] = arg
            new.append(best + tab.cost[i, l])
        D = new
    end, free_energy = best_end(D)
    seq = [end]
    for i in range(n - 1, 0, -1):
        seq.append(parent[i, seq[-1]])
    free = (free_energy, np.array(seq[::-1]))

    E = [first] + [[inf] * L for _ in range(budget)]
    back = {}
    for i in range(1, n):
        new = []
        for j in range(budget + 1):
            row = []
            for l in range(L):
                best, prev = E[j][l], (j, l)
                if j > 0:
                    jumped, arg = inf, 0
                    for k in range(L):
                        if k != l:
                            t = E[j - 1][k] + tab.kmat[k, l]
                            if t < jumped:
                                jumped, arg = t, k
                    if jumped < best:
                        best, prev = jumped, (j - 1, arg)
                back[i, j, l] = prev
                row.append(best + tab.cost[i, l])
            new.append(row)
        E = new
    budgets = []
    for m in range(budget + 1):
        end, energy_m = best_end(E[m])
        if end is None:
            budgets.append(None)
            continue
        state, seq = (m, end), [end]
        for i in range(n - 1, 0, -1):
            state = back[(i, *state)]
            seq.append(state[1])
        budgets.append((energy_m, np.array(seq[::-1])))
    return free, budgets


def random_problem(seed):
    """Sampled random-walk data on <= 30 cells, <= 40 random levels.

    The seed picks the kernel, whether both ends are pinned, and whether
    data, levels and weight are dyadic, which makes exact ties common.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 31))
    samples = np.cumsum(rng.normal(size=n + 1))
    extra = rng.uniform(samples.min(), samples.max(), size=int(rng.integers(0, 39)))
    lam = float(np.exp(rng.uniform(-1.0, 6.0)))
    if (seed // 6) % 2:
        samples, extra, lam = np.round(2 * samples) / 2, np.round(4 * extra) / 4, float(round(lam) + 1)
    lo, hi = samples.min(), samples.max()
    levels = np.unique(np.concatenate(([lo, hi], np.clip(extra, lo, hi))))
    kernel = (kwc_kernel(rng.uniform(0.2, 5.0)), linear_kernel(), potts_kernel(rng.uniform(0.05, 1.0)))[seed % 3]
    return OracleProblem(
        data=SampledData(GridSignal((0.0, 1.0), samples)),
        kernel=kernel,
        lam=lam,
        levels=levels,
        endpoint_pin=None if seed % 2 else tuple(float(p) for p in rng.uniform(lo, hi, size=2)),
    )


def also_skipping_every_level(test):
    """Run ``test`` as it is, then with every free pass skipping dominated
    source levels (``_free_pass`` from one level on)."""

    @functools.wraps(test)
    def run(*args, **kwargs):
        test(*args, **kwargs)
        with oracle_constants(MIN_SKIP_LEVELS=1):
            test(*args, **kwargs)

    return run


class TestAgainstReferenceDP:
    @pytest.mark.parametrize("seed", range(30))
    @also_skipping_every_level
    def test_free_solve_and_every_budget(self, seed):
        problem = random_problem(seed)
        tab = _build_tableau(problem)
        budget = min(MAX_JUMP_BUDGET, tab.cost.shape[0] - 1)
        (free_energy, free_seq), budgets = reference_dp(tab, budget)
        best = solve(problem)
        assert np.array_equal(sequence_from_result(best, problem), tab.levels[free_seq])
        assert_close(best.energy.total, free_energy)
        seqs = _budget_pass(tab, budget)
        assert len(seqs) == len(budgets)
        for seq, ref in zip(seqs, budgets):
            if ref is None:
                assert seq is None
                continue
            assert np.array_equal(seq, ref[1])
            assert_close(_result_from_sequence(problem, tab, seq).energy.total, ref[0])


def budget_optimum(tab, m):
    """Optimal energy with exactly m jumps by a value-only DP: no parent tables."""
    n, L = tab.cost.shape
    jump = tab.kmat + np.diag(np.full(L, np.inf))
    E = np.full((m + 1, L), np.inf)
    E[0, tab.pin[0]] = tab.cost[0, tab.pin[0]]
    for i in range(1, n):
        E[1:] = np.minimum(E[1:], np.min(E[:-1, :, None] + jump, axis=1))
        E += tab.cost[i]
    return E[m, tab.pin[1]]


class TestParentTables:
    def test_level_cap_fits_the_int16_parent_tables(self):
        assert MAX_LEVELS <= np.iinfo(np.int16).max

    @pytest.mark.parametrize("m", [1, 2, 10])
    def test_pinned_budgets_at_the_level_cap(self, m):
        problem = OracleProblem(
            data=LinearData((0.0, 1.0)), kernel=K1, lam=200.0, n_cells=30,
            n_levels=MAX_LEVELS, endpoint_pin=(0.0, 1.0),
        )
        tab = _build_tableau(problem)
        assert tab.pin == (0, MAX_LEVELS - 1)
        res = best_with_m_jumps(problem, m)
        idx = np.searchsorted(tab.levels, sequence_from_result(res, problem))
        assert res.jump_count == m
        assert (idx[0], idx[-1]) == tab.pin
        # Backtracking reads level indices above 255 from the parent table.
        assert idx[:-1].max() > 255
        assert_close(res.energy.total, budget_optimum(tab, m))


def relax_inputs(kind, seed, L=37):
    """Source row and transposed kernel for one transition.

    ``dyadic`` draws both from quarter integers in [0, 1), so most rows
    have exactly tied minima; ``inf`` puts inf on the kernel diagonal (the
    budgeted pass's jump kernel) and in about a third of the source.
    """
    rng = np.random.default_rng(seed)
    if kind == "dyadic":
        return rng.integers(0, 4, size=L) / 4, rng.integers(0, 4, size=(L, L)) / 4
    src, kernel_t = rng.normal(size=L), rng.random((L, L))
    if kind == "inf":
        src[rng.random(L) < 0.3] = np.inf
        np.fill_diagonal(kernel_t, np.inf)
    return src, kernel_t


class TestRelax:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kind", ["random", "dyadic", "inf"])
    def test_matches_the_broadcast_reference(self, kind, seed):
        src, kernel_t = relax_inputs(kind, seed)
        L = src.size
        ref = src[None, :] + kernel_t
        ref_arg = ref.argmin(axis=1)
        ref_min = ref[np.arange(L), ref_arg]
        if kind == "dyadic":
            assert np.sum(ref == ref_min[:, None]) > 2 * L  # exact ties to break
        # All rows, a block of rows as one thread's slice holds them, the last row.
        for s, e in ((0, L), (5, 23), (L - 1, L)):
            trans = np.full((e - s, L), np.nan)
            arg, best = _relax(src, kernel_t[s:e], trans, np.arange(e - s) * L)
            assert np.array_equal(arg, ref_arg[s:e])
            assert best.tobytes() == ref_min[s:e].tobytes()

    def test_all_inf_source_row_is_never_taken(self):
        _, kernel_t = relax_inputs("inf", 0)
        L = kernel_t.shape[0]
        arg, best = _relax(np.full(L, np.inf), kernel_t, np.empty((L, L)), np.arange(L) * L)
        assert np.all(arg == 0) and np.all(best == np.inf)
        # The budgeted pass jumps only on a strictly smaller value.
        assert not np.any(best < np.full(L, np.inf))


class TestProblemValidation:
    @pytest.mark.parametrize("lam", [math.nan, math.inf, -1.0])
    def test_weight_must_be_finite_and_non_negative(self, lam):
        with pytest.raises(ConfigError):
            OracleProblem(data=LinearData((0.0, 1.0)), kernel=K1, lam=lam, n_cells=10)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
    def test_tie_tolerance_must_be_finite_and_non_negative(self, tol):
        with pytest.raises(ConfigError, match="tie_tolerance"):
            OracleProblem(
                data=LinearData((0.0, 1.0)), kernel=K1, lam=5.0, n_cells=20, n_levels=11, tie_tolerance=tol
            )

    @pytest.mark.parametrize("m", [2.5, "2", True, None, -1])
    def test_jump_count_must_be_a_non_negative_integer(self, m):
        with pytest.raises(ConfigError, match="jump count"):
            best_with_m_jumps(tie_problem(n_cells=10, n_levels=5), m)

    @pytest.mark.parametrize("scan", [2.5, "2", True, -1])
    def test_tie_scan_must_be_a_non_negative_integer(self, scan):
        with pytest.raises(ConfigError, match="tie_scan_jumps"):
            solve(tie_problem(n_cells=10, n_levels=5), tie_scan_jumps=scan)

    @pytest.mark.parametrize("value", [2.5, "5", True, 0, -3])
    @pytest.mark.parametrize("key", ["n_cells", "n_levels"])
    def test_grid_sizes_must_be_positive_integers(self, key, value):
        with pytest.raises(ConfigError, match=key):
            OracleProblem(data=LinearData((0.0, 1.0)), kernel=K1, lam=1.0, **{"n_cells": 10, key: value})

    def test_numpy_integer_sizes_accepted(self):
        p = OracleProblem(data=LinearData((0.0, 1.0)), kernel=K1, lam=20.0, n_cells=np.int64(10), n_levels=np.int32(5))
        assert best_with_m_jumps(p, np.int64(1)).jump_count == 1
        assert solve(p, tie_scan_jumps=np.int16(2)).to_json_dict() == solve(p, tie_scan_jumps=2).to_json_dict()

    def test_zero_tie_tolerance_accepted(self):
        p = OracleProblem(data=LinearData((0.0, 1.0)), kernel=K1, lam=5.0, n_cells=20, n_levels=11, tie_tolerance=0.0)
        best = solve(p, tie_scan_jumps=4)
        assert all(t.energy.total <= best.energy.total for t in best.ties)

    def test_cell_limit(self):
        p = OracleProblem(data=LinearData((0.0, 1.0)), kernel=K1, lam=1.0, n_cells=4000)
        with pytest.raises(ConfigError):
            solve(p)

    def test_level_limit(self):
        p = OracleProblem(data=LinearData((0.0, 1.0)), kernel=K1, lam=1.0, n_cells=50, n_levels=500)
        with pytest.raises(ConfigError):
            solve(p)

    @pytest.mark.parametrize("n_levels", [10**8, 2**63])
    def test_level_limit_is_checked_before_the_grid_is_built(self, n_levels):
        p = OracleProblem(data=LinearData((0.0, 1.0)), kernel=K1, lam=1.0, n_cells=50, n_levels=n_levels)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match=f"^{n_levels} levels exceeds the limit {MAX_LEVELS}"):
                p.resolved_levels()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6

    def test_analytic_data_requires_cell_count(self):
        p = OracleProblem(data=LinearData((0.0, 1.0)), kernel=K1, lam=1.0)
        with pytest.raises(ConfigError):
            solve(p)

    def test_infeasible_pinned_jump_count(self):
        p = OracleProblem(
            data=LinearData((0.0, 1.0)),
            kernel=K1,
            lam=1.0,
            n_cells=10,
            n_levels=3,
            endpoint_pin=(0.0, 1.0),
        )
        with pytest.raises(ConfigError):
            best_with_m_jumps(p, 0)

    def test_levels_outside_data_range_rejected(self):
        p = OracleProblem(
            data=LinearData((0.0, 1.0)),
            kernel=K1,
            lam=1.0,
            n_cells=50,
            levels=np.linspace(-1.0, 2.0, 31),
        )
        with pytest.raises(ConfigError):
            solve(p)


    @pytest.mark.parametrize("pin", [(0.0, 1.5), (-0.2, 1.0), (0.0, math.nan)])
    def test_pin_outside_level_range_rejected(self, pin):
        p = OracleProblem(
            data=LinearData((0.0, 1.0)), kernel=K1, lam=1.0, n_cells=10, n_levels=11, endpoint_pin=pin
        )
        with pytest.raises(ConfigError, match="endpoint_pin"):
            solve(p)
        with pytest.raises(ConfigError, match="endpoint_pin"):
            best_with_m_jumps(p, 1)

    @pytest.mark.parametrize("pin", [5, True, [None, 1.0], (0.0, 0.5, 1.0), "ab"], ids=str)
    def test_pin_that_is_not_two_finite_numbers_rejected(self, pin):
        p = OracleProblem(
            data=LinearData((0.0, 1.0)), kernel=K1, lam=1.0, n_cells=10, n_levels=11, endpoint_pin=pin
        )
        with pytest.raises(ConfigError, match="endpoint_pin"):
            solve(p)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, None, True, "0.5"], ids=str)
    def test_levels_must_be_finite_numbers(self, bad):
        p = OracleProblem(data=LinearData((0.0, 1.0)), kernel=K1, lam=1.0, n_cells=10, levels=[0.0, bad, 1.0])
        with pytest.raises(ConfigError, match="levels must be finite"):
            solve(p)

    def test_pin_inside_level_range_goes_to_nearest_level(self):
        # Within the 1e-9 slack of the end levels, and between levels.
        for pin, ends in (((-1e-12, 1.0 + 1e-12), (0.0, 1.0)), ((0.04, 0.96), (0.0, 1.0)), ((0.26, 0.74), (0.3, 0.7))):
            p = OracleProblem(
                data=LinearData((0.0, 1.0)), kernel=K1, lam=1.0, n_cells=10, n_levels=11, endpoint_pin=pin
            )
            seq = sequence_from_result(solve(p), p)
            assert (seq[0], seq[-1]) == pytest.approx(ends, abs=1e-12)


class TestResultShape:
    def test_sequence_reconstruction(self):
        p = tie_problem()
        r = solve(p)
        seq = sequence_from_result(r, p)
        assert len(seq) == 100
        assert seq[0] == pytest.approx(0.0)
        assert seq[-1] == pytest.approx(1.0)
        levels = p.resolved_levels()
        assert np.all(np.isin(seq, levels))

    def test_json_dict_shape(self):
        r = solve(tie_problem(), tie_scan_jumps=3)
        d = r.to_json_dict()
        assert set(d) == {"minimizer", "energy", "jump_count", "ties"}
        assert set(d["minimizer"]) == {"domain", "breakpoints", "values"}
        assert all(set(t) == {"minimizer", "energy", "jump_count", "ties"} for t in d["ties"])

    def test_flat_kernel_supported(self):
        p = OracleProblem(
            data=LinearData((0.0, 1.0)),
            kernel=potts_kernel(0.2),
            lam=20.0,
            n_cells=100,
            n_levels=41,
        )
        r = solve(p)
        # A flat per-jump charge of 0.2 beats the constant's fidelity 20/24.
        assert r.jump_count >= 1
        assert r.energy.total < 20.0 / 24.0
        assert np.isfinite(r.energy.total)


@contextmanager
def oracle_constants(**values):
    """Set module constants of the oracle for the block (names without the
    leading underscore)."""
    with pytest.MonkeyPatch.context() as mp:
        for name, value in values.items():
            mp.setattr(oracle_mod, f"_{name}", value)
        yield mp


# Every budgeted pass pruned, none sent to the dense pass for its survivor share.
ALWAYS_PRUNE = {"MIN_PRUNE_BUDGET": 0, "MIN_PRUNE_WORK": 0, "MAX_SURVIVORS": 1.0}
NEVER_PRUNE = {"MIN_PRUNE_WORK": math.inf}


def spy_on(mp, name):
    """Record the arguments and results of the oracle's function ``name``."""
    calls = []
    real = getattr(oracle_mod, name)

    def spy(*args):
        out = real(*args)
        calls.append((args, out))
        return out

    mp.setattr(oracle_mod, name, spy)
    return calls


@st.composite
def pruning_problems(draw):
    """Random-walk data on <= 30 cells, <= 12 levels, any kernel, free or
    pinned ends; dyadic data, levels and weight make exact ties common."""
    n = draw(st.integers(1, 30))
    n_levels = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["kwc", "linear", "potts"]))
    param = draw(st.floats(0.05, 5.0))
    kernel = {"kwc": kwc_kernel(param), "potts": potts_kernel(param), "linear": linear_kernel()}[kind]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    samples = np.cumsum(rng.normal(size=n + 1))
    lam = draw(st.floats(0.1, 300.0))
    extra = rng.uniform(samples.min(), samples.max(), size=n_levels - 1)
    if draw(st.booleans()):
        samples, extra, lam = np.round(2 * samples) / 2, np.round(4 * extra) / 4, float(round(lam) + 1)
    lo, hi = samples.min(), samples.max()
    levels = np.unique(np.concatenate(([lo], np.clip(extra, lo, hi))))
    pin = None
    if draw(st.booleans()):
        pin = tuple(float(levels[i]) for i in rng.integers(0, levels.size, size=2))
    return OracleProblem(
        data=SampledData(GridSignal((0.0, 1.0), samples)),
        kernel=kernel,
        lam=lam,
        levels=levels,
        endpoint_pin=pin,
        tie_tolerance=draw(st.sampled_from([1e-9, 0.05, 0.5])),
    )


def outcome(call):
    """``to_json_dict()`` of a result, or the message of its ConfigError."""
    try:
        return call().to_json_dict()
    except ConfigError as err:
        return f"ConfigError: {err}"


class TestPrunedPass:
    @settings(max_examples=150)
    @given(pruning_problems(), st.floats(0.0, 1.0))
    @also_skipping_every_level
    def test_rows_within_the_threshold_match_the_dense_pass_bit_for_bit(self, problem, where):
        tab = _build_tableau(problem)
        budget = min(MAX_JUMP_BUDGET, tab.cost.shape[0] - 1)
        seq, free, bound = oracle_mod._solve_free(tab, bounds=True)
        if seq is None:  # one cell pinned to two different levels
            return
        (_, free_seq), budgets = reference_dp(tab, budget)
        assert np.array_equal(seq, free_seq)
        dense = _budget_pass(tab, budget)
        # The bound is tight: the free optimum passes through every cell.
        np.testing.assert_allclose(bound.min(axis=1), free, rtol=1e-12, atol=0)
        # With every state kept (pinned ends too), the pruned pass is the dense one.
        kept_all = oracle_mod._pruned_pass(tab, budget, np.ones(bound.shape, dtype=bool))[0]
        for seq_all, dense_seq in zip(kept_all, dense):
            assert (seq_all is None and dense_seq is None) or np.array_equal(seq_all, dense_seq)
        feasible = [ref[0] for ref in budgets if ref is not None]
        # A threshold from the free optimum up to the largest row optimum:
        # the rows at most it must come out as in the dense pass.
        threshold = free + where * (max(feasible) - free)
        seqs, values = oracle_mod._pruned_pass(tab, budget, oracle_mod._survivors(bound, threshold))
        for m, (ref, dense_seq) in enumerate(zip(budgets, dense)):
            if ref is None:
                assert dense_seq is None and seqs[m] is None and values[m] == math.inf
            elif ref[0] <= threshold:
                assert np.array_equal(seqs[m], ref[1])
                assert np.array_equal(seqs[m], dense_seq)
                assert values[m] == ref[0]
            else:
                assert values[m] >= ref[0]

    @settings(max_examples=100)
    @given(pruning_problems(), st.sampled_from([(1e-3, 1e-2), (0.0,), (0.0, 1e-12, 1e-6)]))
    @also_skipping_every_level
    def test_best_with_m_jumps_equals_the_dense_route(self, problem, widths):
        tab = _build_tableau(problem)
        n = tab.cost.shape[0]
        budgets = range(min(MAX_JUMP_BUDGET, n - 1) + 1)
        # The dense route's answers: rows 0..m of one dense pass are those
        # of a pass with budget m.
        expected = [
            f"ConfigError: no admissible sequence with exactly {m} jumps"
            if seq is None
            else _result_from_sequence(problem, tab, seq).to_json_dict()
            for m, seq in enumerate(_budget_pass(tab, budgets[-1]))
        ]
        with oracle_constants(**ALWAYS_PRUNE, WIDTHS=widths):
            assert [outcome(lambda: best_with_m_jumps(problem, m)) for m in budgets] == expected

    @settings(max_examples=100)
    @given(pruning_problems())
    @also_skipping_every_level
    def test_tie_scan_equals_the_dense_route(self, problem):
        scan = min(MAX_JUMP_BUDGET, problem.resolved_cells() - 1)
        with oracle_constants(**NEVER_PRUNE):
            expected = outcome(lambda: solve(problem, tie_scan_jumps=scan))
        with oracle_constants(**ALWAYS_PRUNE):
            assert outcome(lambda: solve(problem, tie_scan_jumps=scan)) == expected


def walk_problem(n_cells, n_levels, seed=3, pinned=False):
    """A normalised random walk at lam = 200; pinned to its end values."""
    walk = np.cumsum(np.random.default_rng(seed).normal(size=n_cells + 1))
    g = GridSignal((0.0, 1.0), (walk - walk.min()) / (walk.max() - walk.min()))
    pin = (float(g.samples[0]), float(g.samples[-1])) if pinned else None
    return signal_problem(g, K1, 200.0, n_levels=n_levels, endpoint_pin=pin)


class TestPrunedRoutes:
    def test_a_failed_certificate_still_ends_exact(self):
        # At a zero width only states on a free optimum survive; the free
        # optimum has 8 jumps, so no other count fits there at first.
        problem = walk_problem(60, 100)
        tab = _build_tableau(problem)
        assert solve(problem).jump_count == 8
        free = oracle_mod._solve_free(tab)[1]
        dense = _budget_pass(tab, MAX_JUMP_BUDGET)
        with oracle_constants(WIDTHS=(0.0, 1e-2)) as mp:
            passes = spy_on(mp, "_pruned_pass")
            for m in (5, 7, 9, 10):
                passes.clear()
                res = best_with_m_jumps(problem, m)
                assert res.to_json_dict() == _result_from_sequence(problem, tab, dense[m]).to_json_dict()
                (_, budget, keep), (_, values) = passes[0]
                assert budget == m and not values[m] <= free
                assert len(passes) >= 2  # widened, or re-run at the failed pass's value

    def test_too_many_survivors_run_the_dense_pass(self):
        problem = walk_problem(60, 100)
        expected = [best_with_m_jumps(problem, m).to_json_dict() for m in (3, 10)]
        with oracle_constants(MAX_SURVIVORS=0.0) as mp:
            passes, dense = spy_on(mp, "_pruned_pass"), spy_on(mp, "_budget_pass")
            assert [best_with_m_jumps(problem, m).to_json_dict() for m in (3, 10)] == expected
            assert passes == [] and [args[1] for args, _ in dense] == [3, 10]
            scan = solve(tie_problem(400, 101), tie_scan_jumps=4)
            assert passes == [] and len(dense) == 3
        with oracle_constants(**NEVER_PRUNE):
            assert scan.to_json_dict() == solve(tie_problem(400, 101), tie_scan_jumps=4).to_json_dict()

    def test_tie_scan_at_the_critical_weight_matches_the_dense_pass(self):
        problem = tie_problem(400, 101)
        with oracle_constants() as mp:
            passes, dense = spy_on(mp, "_pruned_pass"), spy_on(mp, "_budget_pass")
            scan = solve(problem, tie_scan_jumps=4)
            assert len(passes) == 1 and dense == []
            (_, budget, keep), _ = passes[0]
            assert budget == 4 and keep.mean() < oracle_mod._MAX_SURVIVORS
        with oracle_constants(**NEVER_PRUNE):
            assert scan.to_json_dict() == solve(problem, tie_scan_jumps=4).to_json_dict()
        assert {scan.jump_count} | {t.jump_count for t in scan.ties} == {1, 2}

    def test_ten_jumps_at_the_cap(self):
        problem = walk_problem(MAX_CELLS, MAX_LEVELS, seed=0)
        tab = _build_tableau(problem)
        with oracle_constants() as mp:
            passes = spy_on(mp, "_pruned_pass")
            res = best_with_m_jumps(problem, MAX_JUMP_BUDGET)
            # Certified on the first width, with a few percent of the states.
            (_, _, keep), _ = passes[0]
            assert len(passes) == 1 and keep.mean() < 0.1
        seq = _budget_pass(tab, MAX_JUMP_BUDGET)[MAX_JUMP_BUDGET]
        assert np.array_equal(np.searchsorted(tab.levels, sequence_from_result(res, problem)), seq)
        assert res.to_json_dict() == _result_from_sequence(problem, tab, seq).to_json_dict()

    def test_pruning_threshold(self):
        worth = oracle_mod._worth_pruning
        assert worth(MAX_JUMP_BUDGET, MAX_LEVELS) and worth(4, 101) and worth(3, 82)
        assert not worth(2, MAX_LEVELS) and not worth(MAX_JUMP_BUDGET, 44) and not worth(3, 81)

    def test_bounds_do_not_depend_on_the_thread_count(self, monkeypatch):
        tab = _build_tableau(walk_problem(50, 120, pinned=True))
        ran_on = []
        real = oracle_mod._free_pass

        def spy(*args):
            ran_on.append(threading.get_ident())
            return real(*args)

        monkeypatch.setattr(oracle_mod, "_free_pass", spy)
        monkeypatch.setattr(oracle_mod, "_MIN_SIDE_THREAD_LEVELS", 0)
        results = []
        for cpus in (1, 2):
            monkeypatch.setattr(oracle_mod, "_usable_cpus", lambda c=cpus: c)
            seq, free, bound = oracle_mod._solve_free(tab, bounds=True)
            results.append((seq.tobytes(), free, bound.tobytes()))
        # Four passes, one of them (the backward pass on 2 CPUs) on the helper thread.
        assert len(ran_on) == 4 and ran_on.count(threading.get_ident()) == 3
        assert results[0] == results[1]

    @pytest.mark.parametrize("failing", ["forward", "backward", "both"])
    def test_a_failing_bound_pass_raises_in_the_caller(self, failing, monkeypatch):
        tab = _build_tableau(walk_problem(50, 120, pinned=True))
        real = oracle_mod._free_pass
        failed = threading.Event()

        def flaky(cost, *args):
            side = "forward" if cost is tab.cost else "backward"
            if failing in (side, "both"):
                failed.set()
                raise RuntimeError(f"{side} pass failed")
            failed.wait(timeout=5)  # still running when the other pass fails
            return real(cost, *args)

        monkeypatch.setattr(oracle_mod, "_free_pass", flaky)
        monkeypatch.setattr(oracle_mod, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(oracle_mod, "_MIN_SIDE_THREAD_LEVELS", 0)
        before = set(threading.enumerate())
        # The caller's own (forward) failure wins when both fail.
        raised = "backward" if failing == "backward" else "forward"
        with pytest.raises(RuntimeError, match=f"^{raised} pass failed$"):
            oracle_mod._solve_free(tab, bounds=True)
        assert set(threading.enumerate()) == before


@st.composite
def free_pass_problems(draw):
    """Instances for one free pass, on explicit non-uniform levels (L = 1
    and 2 among them), free or pinned ends: random-walk or constant data
    with any kernel, or dyadic data, levels, weight and cell width with a
    linear or Potts kernel, where K(w, k) + K(k, l) = K(w, l) is exact and
    exact ties are common."""
    kind = draw(st.sampled_from(["walk", "constant", "dyadic"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_levels = draw(st.one_of(st.sampled_from([1, 2]), st.integers(1, 40)))
    if kind == "dyadic":
        n = draw(st.sampled_from([1, 2, 4, 8, 16, 32]))
        samples = rng.integers(0, 16, size=n + 1) / 4
        grid = np.arange(samples.min(), samples.max() + 1 / 16, 1 / 8)
        levels = np.unique(np.concatenate(([grid[0]], rng.choice(grid, size=n_levels - 1))))
        kernel = draw(st.sampled_from([linear_kernel(), potts_kernel(0.25), potts_kernel(0.5), potts_kernel(1.0)]))
        lam = float(draw(st.integers(0, 64)))
    else:
        n = draw(st.integers(1, 40))
        if kind == "walk":
            samples = np.cumsum(rng.normal(size=n + 1))
            lo, hi = samples.min(), samples.max()
        else:
            samples = np.full(n + 1, rng.normal())
            lo, hi = samples[0] - 0.5, samples[0] + 0.5
        levels = np.unique(np.concatenate(([lo], rng.uniform(lo, hi, size=n_levels - 1))))
        param = draw(st.floats(0.05, 5.0))
        kernel = draw(st.sampled_from([kwc_kernel(param), linear_kernel(), potts_kernel(param)]))
        lam = draw(st.floats(0.0, 300.0))
    pin = None
    if draw(st.booleans()):
        pin = tuple(float(levels[i]) for i in rng.integers(0, levels.size, size=2))
    return OracleProblem(
        data=SampledData(GridSignal((0.0, 1.0), samples)), kernel=kernel, lam=lam, levels=levels, endpoint_pin=pin
    )


def free_pass_outputs(tab, backward):
    """Last row, every row and the parent table of one free pass, forward
    from the first pin or backward over the reversed cells from the last."""
    n, L = tab.cost.shape
    cost = tab.cost[::-1] if backward else tab.cost
    start = None
    if tab.pin is not None:
        start = np.full(L, np.inf)
        start[tab.pin[1 if backward else 0]] = 0.0
    parents, values = np.zeros((n, L), dtype=np.int16), np.empty((n, L))
    last = oracle_mod._free_pass(cost, tab.kmat, start, parents, values.__setitem__)
    return last.tobytes(), values.tobytes(), parents.tobytes()


class TestSkippingFreePass:
    @settings(max_examples=400)
    @given(free_pass_problems(), st.booleans())
    def test_equals_the_dense_pass_bit_for_bit(self, problem, backward):
        tab = _build_tableau(problem)
        outputs = []
        for levels in (math.inf, 1):
            with oracle_constants(MIN_SKIP_LEVELS=levels):
                outputs.append(free_pass_outputs(tab, backward))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("pinned", [False, True])
    def test_skips_most_levels_of_a_random_walk(self, pinned):
        tab = _build_tableau(walk_problem(300, 300, pinned=pinned))
        with oracle_constants() as mp:
            relaxed = spy_on(mp, "_relax")
            skipped = free_pass_outputs(tab, backward=pinned)
            widths = [args[0].size for args, _ in relaxed]
        with oracle_constants(MIN_SKIP_LEVELS=math.inf):
            assert free_pass_outputs(tab, backward=pinned) == skipped
        # The first transition has no witnesses and reads every level.
        assert len(widths) == 299 and widths[0] == 300 and np.mean(widths) < 100

    def test_skipping_threshold(self):
        # The battery (61 levels) and the tie scans (101, 201) stay dense.
        assert 201 < oracle_mod._MIN_SKIP_LEVELS <= MAX_LEVELS


def two_table_bound(tab):
    """F + B - cost from a forward and a backward free pass, each into a
    table of its own."""
    n, L = tab.cost.shape
    start = end = None
    if tab.pin is not None:
        start, end = np.full((2, L), np.inf)
        start[tab.pin[0]] = end[tab.pin[1]] = 0.0
    forward, backward = np.empty((n, L)), np.empty((n, L))
    oracle_mod._free_pass(tab.cost, tab.kmat, start, None, forward.__setitem__)
    oracle_mod._free_pass(tab.cost[::-1], tab.kmat, end, None, backward[::-1].__setitem__)
    return forward + backward - tab.cost


class TestBoundTable:
    """Both bound passes write into one table (``_solve_free``)."""

    @settings(max_examples=200)
    @given(free_pass_problems())
    def test_one_table_equals_two_tables_bit_for_bit(self, problem):
        tab = _build_tableau(problem)
        expected = two_table_bound(tab).tobytes()
        for cpus in (1, 2):
            with oracle_constants(usable_cpus=lambda c=cpus: c, MIN_SIDE_THREAD_LEVELS=0):
                assert oracle_mod._solve_free(tab, bounds=True)[2].tobytes() == expected

    @settings(max_examples=200)
    @given(free_pass_problems())
    def test_the_kernel_matrix_is_symmetric_bit_for_bit(self, problem):
        # The passes read kmat[l, k] as the cost from source k to target l.
        kmat = _build_tableau(problem).kmat
        assert kmat.tobytes() == kmat.T.tobytes()

    def test_budgeted_passes_leave_the_kernel_matrix_as_it_is(self):
        # Each puts inf on the diagonal of its own copy; the free passes read tab.kmat.
        tab = _build_tableau(walk_problem(30, 40))
        before = tab.kmat.tobytes()
        _budget_pass(tab, 3)
        oracle_mod._pruned_pass(tab, 3, np.ones(tab.cost.shape, dtype=bool))
        assert tab.kmat.tobytes() == before

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_the_bounds_hold_one_table(self, cpus):
        tab = _build_tableau(walk_problem(2000, 250))
        table = tab.cost.nbytes
        with oracle_constants(usable_cpus=lambda: cpus, MIN_SIDE_THREAD_LEVELS=0):
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                oracle_mod._solve_free(tab, bounds=True, sequence=False)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # One n x L float table and two L x L transition buffers; two tables
        # would be above 2.
        assert peak < 1.6 * table


@st.composite
def linear_problems(draw):
    """Linear data, whose cell moments are exact, on <= 40 cells and <= 30
    uniform levels; any kernel, free or pinned to the data's end values."""
    slope, intercept = draw(st.floats(-3.0, 3.0)), draw(st.floats(-2.0, 2.0))
    kind = draw(st.sampled_from(["kwc", "linear", "potts"]))
    param = draw(st.floats(0.05, 5.0))
    kernel = {"kwc": kwc_kernel(param), "potts": potts_kernel(param), "linear": linear_kernel()}[kind]
    return OracleProblem(
        data=LinearData((0.0, 1.0), slope, intercept),
        kernel=kernel,
        lam=draw(st.floats(0.0, 300.0)),
        n_cells=draw(st.integers(1, 40)),
        n_levels=draw(st.integers(1, 30)),
        endpoint_pin=(intercept, slope + intercept) if draw(st.booleans()) else None,
        tie_tolerance=draw(st.sampled_from([1e-9, 0.05, 0.5])),
    )


class TestEnergyBreakdown:
    @settings(max_examples=150)
    @given(linear_problems())
    def test_terms_add_up_and_match_the_energy_of_the_minimizer(self, problem):
        n = problem.resolved_cells()
        try:
            best = solve(problem, tie_scan_jumps=min(4, n - 1))
        except ConfigError:  # one cell pinned to two different levels
            return
        results = [best, *best.ties]
        for m in range(min(MAX_JUMP_BUDGET, n - 1) + 1):
            try:
                results.append(best_with_m_jumps(problem, m))
            except ConfigError:  # no sequence with m jumps meets the pins
                pass
        for res in results:
            parts = res.energy
            assert parts.tv_k + parts.fidelity == parts.total
            expected = energy(res.minimizer, problem.data, problem.kernel, problem.lam)
            for name in ("tv_k", "fidelity", "total"):
                gap = abs(getattr(parts, name) - getattr(expected, name))
                assert gap <= 1e-12 * max(1.0, abs(expected.total))
