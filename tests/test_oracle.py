"""Unit tests for the discrete global minimizer (dynamic program)."""

import dataclasses
import functools
import itertools
import math
import tracemalloc
import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kwcseg.oracle as oracle_mod
from kwcseg.errors import ConfigError
from kwcseg.exact import jump_bounds, uniform_step_minimizer
from kwcseg.experiments import generate_signal
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
from kwcseg.pwc import GridSignal, LinearData, PiecewiseConstant, SineData, energy

from proof_devices import quantize, sequence_from_result

K1 = kwc_kernel(1.0)


class TestValidation:
    def test_non_finite_sampled_data_rejected(self):
        with pytest.raises(ConfigError, match="finite"):
            signal_problem(GridSignal((0.0, 1.0), np.array([0.0, np.nan, 1.0])), K1, 5.0)

    def test_negative_tie_scan_rejected(self):
        with pytest.raises(ConfigError, match="tie_scan_jumps"):
            solve(tie_problem(n_cells=10, n_levels=5), tie_scan_jumps=-3)

    def test_sine_levels_and_pins_may_reach_the_crest(self):
        # sin(3 pi x) is 1 at x = 1/6, so 1 lies in the data range.
        sine = SineData((0.0, 1.0))
        on_levels = OracleProblem(data=sine, kernel=K1, lam=150.0, n_cells=50, levels=[-1, 0, 1])
        assert set(solve(on_levels).minimizer.values) <= {-1.0, 0.0, 1.0}
        pinned = OracleProblem(data=sine, kernel=K1, lam=150.0, n_cells=50, n_levels=21, endpoint_pin=(0.0, 1.0))
        assert solve(pinned).minimizer.values[-1] == 1.0


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

    def test_a_protocol_signal_is_oracle_data_as_it_is(self):
        g = generate_signal("noisy_steps", n=121, seed=3)
        direct = OracleProblem(data=g, kernel=K1, lam=50.0, n_levels=41)
        assert direct == signal_problem(g, K1, 50.0, n_levels=41)
        r = solve(direct, tie_scan_jumps=3)
        assert r.to_json_dict() == solve(signal_problem(g, K1, 50.0, n_levels=41), tie_scan_jumps=3).to_json_dict()
        assert r.jump_count == 2 and direct.resolved_cells() == 120
        assert best_with_m_jumps(direct, 4).to_json_dict() == best_with_m_jumps(
            signal_problem(g, K1, 50.0, n_levels=41), 4
        ).to_json_dict()

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
        seqs = _budget_pass(_build_tableau(pinned), MAX_JUMP_BUDGET)[0]
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
        data=GridSignal((0.0, 1.0), samples),
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
    samples = problem.data.samples
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


def cost_table(tab):
    """The (cells x levels) table of fidelity costs: every cost row the
    passes read, stacked."""
    return np.stack(list(oracle_mod._cost_rows(tab)))


def reference_dp(tab, budget):
    """The oracle's dynamic programs as plain loops over cells, levels k -> l
    and jump counts j.

    Same float operations and tie-breaking as the oracle: the smallest k,
    then the smallest final level, and a jump only when strictly cheaper
    than staying.  Returns ((energy, sequence) of the free problem,
    [(energy, sequence) or None for m = 0..budget]).
    """
    cost = cost_table(tab)
    n, L = cost.shape
    inf = math.inf
    first = [cost[0, l] if tab.pin is None or l == tab.pin[0] else inf for l in range(L)]
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
            new.append(best + cost[i, l])
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
                row.append(best + cost[i, l])
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
        data=GridSignal((0.0, 1.0), samples),
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
        budget = min(MAX_JUMP_BUDGET, tab.shape[0] - 1)
        (free_energy, free_seq), budgets = reference_dp(tab, budget)
        best = solve(problem)
        assert np.array_equal(sequence_from_result(best, problem), tab.levels[free_seq])
        assert_close(best.energy.total, free_energy)
        seqs = _budget_pass(tab, budget)[0]
        assert len(seqs) == len(budgets)
        for seq, ref in zip(seqs, budgets):
            if ref is None:
                assert seq is None
                continue
            assert np.array_equal(seq, ref[1])
            assert_close(_result_from_sequence(problem, tab, seq).energy.total, ref[0])


def budget_optimum(tab, m):
    """Optimal energy with exactly m jumps by a value-only DP: no parent tables."""
    cost = cost_table(tab)
    n, L = cost.shape
    jump = tab.kmat + np.diag(np.full(L, np.inf))
    E = np.full((m + 1, L), np.inf)
    E[0, tab.pin[0]] = cost[0, tab.pin[0]]
    for i in range(1, n):
        E[1:] = np.minimum(E[1:], np.min(E[:-1, :, None] + jump, axis=1))
        E += cost[i]
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
        # All rows, a block of rows, the last row.
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

    @pytest.mark.parametrize(
        "n_cells, m, message",
        [
            (20, 11, "jump budget 11 exceeds the limit 10"),
            (10, 10, "cannot place 10 jumps with only 10 cells"),
            (5, 7, "cannot place 7 jumps with only 5 cells"),
        ],
        ids=["budget_above_10", "m_equals_cells", "m_above_cells"],
    )
    def test_jump_budget_limits(self, n_cells, m, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            best_with_m_jumps(tie_problem(n_cells=n_cells, n_levels=5), m)
        assert best_with_m_jumps(tie_problem(n_cells=n_cells, n_levels=5), min(n_cells - 1, 10)).jump_count > 0

    @pytest.mark.parametrize("levels", [[0.0, 0.5, 0.5, 1.0], [1.0, 0.5, 0.0]], ids=["repeated", "decreasing"])
    def test_levels_must_be_strictly_increasing(self, levels):
        with pytest.raises(ConfigError, match="levels must be strictly increasing"):
            solve(OracleProblem(data=LinearData((0.0, 1.0)), kernel=K1, lam=5.0, n_cells=10, levels=levels))

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

    @pytest.mark.parametrize(
        "data, cause",
        [
            (SineData((0.0, 1e300), omega=1e10), r"integral of g over the cell \[0.0, .*\] is nan"),
            (LinearData((0.0, 1e300), slope=1e10), r"range \[0.0, inf\] is not a finite interval"),
            (LinearData((0.0, 1e200)), r"integral of g over the cell \[0.0, .*\] is inf"),
            (PiecewiseConstant((0.0, 1.0), (0.5,), (0.0, 1e308)), r"integral of g\^2 over the cell \[0.5, .*\] is inf"),
        ],
        ids=["sine_phase", "linear_values", "linear_cube", "steps_square"],
    )
    def test_data_that_overflow_floats_are_named(self, data, cause):
        p = OracleProblem(data=data, kernel=K1, lam=5.0, n_cells=10, n_levels=5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for question in (solve, functools.partial(solve, tie_scan_jumps=2), lambda q: best_with_m_jumps(q, 1)):
                with pytest.raises(ConfigError, match=f"^the data overflow floats: .*{cause}"):
                    question(p)

    def test_one_cell_with_two_pins_is_named(self):
        p = OracleProblem(data=LinearData((0.0, 1.0)), kernel=K1, lam=1.0, n_cells=1, n_levels=3, endpoint_pin=(0.0, 1.0))
        with pytest.raises(ConfigError, match="^a single cell cannot take two different pinned levels$"):
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
    """Record the positional arguments and results of the oracle's function
    ``name``."""
    calls = []
    real = getattr(oracle_mod, name)

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
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
        data=GridSignal((0.0, 1.0), samples),
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
        n, L = tab.shape
        budget = min(MAX_JUMP_BUDGET, n - 1)
        seq = oracle_mod._solve_free(tab)
        if seq is None:  # one cell pinned to two different levels
            return
        behind, free = oracle_mod._behind(tab)
        bound = two_table_bound(tab)
        (_, free_seq), budgets = reference_dp(tab, budget)
        assert np.array_equal(seq, free_seq)
        dense, dense_values = _budget_pass(tab, budget)
        # The bound is tight: the free optimum passes through every cell.
        np.testing.assert_allclose(bound.min(axis=1), free, rtol=1e-12, atol=0)
        # At an infinite threshold every state is kept (pinned ends too), and
        # the pruned pass is the dense one.
        with oracle_constants(MAX_SURVIVORS=1.0) as mp:
            read = spy_on(mp, "_read_rows")
            kept_all, kept_all_values, all_seq = oracle_mod._pruned_pass(tab, budget, behind, math.inf)
            assert [s.tolist() for s in read_kept(read)[0]] == [list(range(L))] * n
        for seq_all, dense_seq in zip(kept_all, dense):
            assert (seq_all is None and dense_seq is None) or np.array_equal(seq_all, dense_seq)
        assert kept_all_values.tobytes() == dense_values.tobytes()
        assert np.array_equal(all_seq, seq)
        feasible = [ref[0] for ref in budgets if ref is not None]
        # A threshold from the free optimum up to the largest row optimum:
        # the rows at most it must come out as in the dense pass.
        threshold = free + where * (max(feasible) - free)
        with oracle_constants(MAX_SURVIVORS=1.0):
            seqs, values, scan_seq = oracle_mod._pruned_pass(tab, budget, behind, threshold)
        assert np.array_equal(scan_seq, seq)
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
        n = tab.shape[0]
        budgets = range(min(MAX_JUMP_BUDGET, n - 1) + 1)
        # The dense route's answers: rows 0..m of one dense pass are those
        # of a pass with budget m.
        expected = [
            f"ConfigError: no admissible sequence with exactly {m} jumps"
            if seq is None
            else _result_from_sequence(problem, tab, seq).to_json_dict()
            for m, seq in enumerate(_budget_pass(tab, budgets[-1])[0])
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


def kept_share(kept, n_levels):
    """The share of the states (cell, level) that ``kept`` keeps."""
    return sum(s.size for s in kept) / (len(kept) * n_levels)


def read_kept(calls):
    """The kept levels of each ``_read_rows`` call recorded by ``spy_on``."""
    return [args[3] for args, _ in calls]


def rows_read(calls):
    """The rows that each ``_read_rows`` call recorded by ``spy_on``
    backtracked (the rows it returned a sequence for)."""
    return [[m for m, seq in enumerate(out[0]) if seq is not None] for _, out in calls]


def assert_reads_only_what_is_returned(problem, budgets, scan):
    """``best_with_m_jumps(problem, m)`` for each m in ``budgets`` reads row
    m alone in every pass, dense or pruned (there only when it certifies),
    and never the free row; the tie scan of ``scan`` jumps reads the free
    row and, on the pruned route, only the rows of value at most its
    threshold."""
    with oracle_constants() as mp:
        passes, read = spy_on(mp, "_pruned_pass"), spy_on(mp, "_read_rows")
        for m in budgets:
            passes.clear()
            read.clear()
            outcome(lambda: best_with_m_jumps(problem, m))
            assert all(rows in ([], [m]) for rows in rows_read(read))
            for (_, _, _, threshold), out in passes:
                if out is not None:
                    seqs, values, free_seq = out
                    read_m = [m] if values[m] <= threshold else []
                    assert free_seq is None and [k for k, seq in enumerate(seqs) if seq is not None] == read_m
        passes.clear()
        read.clear()
        if isinstance(outcome(lambda: solve(problem, tie_scan_jumps=scan)), str):
            return  # one cell pinned to two different levels
    pruned = [(args[3], out) for args, out in passes if out is not None]
    if not pruned:  # the dense route reads every row
        assert len(read) == 1 and rows_read(read)[0] == [m for m, v in enumerate(read[0][1][1]) if v < math.inf]
        return
    [(threshold, _)] = pruned
    [rows], [(_, values)] = rows_read(read), [out for _, out in read]
    free = len(values) - 1
    assert rows == [m for m in range(free) if values[m] <= threshold] + [free]


class TestPrunedRoutes:
    def test_a_failed_certificate_still_ends_exact(self):
        # At a zero width only states on a free optimum survive; the free
        # optimum has 8 jumps, so no other count fits there at first.
        problem = walk_problem(60, 100)
        tab = _build_tableau(problem)
        assert solve(problem).jump_count == 8
        free = oracle_mod._behind(tab)[1]
        dense = _budget_pass(tab, MAX_JUMP_BUDGET)[0]
        with oracle_constants(WIDTHS=(0.0, 1e-2)) as mp:
            passes, read = spy_on(mp, "_pruned_pass"), spy_on(mp, "_read_rows")
            for m in (5, 7, 9, 10):
                passes.clear()
                read.clear()
                res = best_with_m_jumps(problem, m)
                assert res.to_json_dict() == _result_from_sequence(problem, tab, dense[m]).to_json_dict()
                (_, budget, _, _), (_, values, _) = passes[0]
                assert budget == m and not values[m] <= free
                assert len(passes) >= 2  # widened, or re-run at the failed pass's value
                # At the zero width only the free optimum's states are kept.
                assert kept_share(read_kept(read)[0], 100) <= 0.02

    def test_too_many_survivors_run_the_dense_pass(self):
        problem = walk_problem(60, 100)
        expected = [best_with_m_jumps(problem, m).to_json_dict() for m in (3, 10)]
        with oracle_constants(MAX_SURVIVORS=0.0) as mp:
            passes, dense = spy_on(mp, "_pruned_pass"), spy_on(mp, "_budget_pass")
            read = spy_on(mp, "_read_rows")
            assert [best_with_m_jumps(problem, m).to_json_dict() for m in (3, 10)] == expected
            assert [out for _, out in passes] == [None, None] and [args[1] for args, _ in dense] == [3, 10]
            scan = solve(tie_problem(400, 101), tie_scan_jumps=4)
            assert [out for _, out in passes] == [None] * 3 and len(dense) == 3
            assert len(read) == len(dense)  # no pruned pass reached its rows
        with oracle_constants(**NEVER_PRUNE):
            assert scan.to_json_dict() == solve(tie_problem(400, 101), tie_scan_jumps=4).to_json_dict()

    def test_tie_scan_at_the_critical_weight_matches_the_dense_pass(self):
        problem = tie_problem(400, 101)
        with oracle_constants() as mp:
            passes, dense = spy_on(mp, "_pruned_pass"), spy_on(mp, "_budget_pass")
            read = spy_on(mp, "_read_rows")
            scan = solve(problem, tie_scan_jumps=4)
            assert len(passes) == 1 and dense == []
            (_, budget, _, _), _ = passes[0]
            assert budget == 4 and kept_share(read_kept(read)[0], 101) < oracle_mod._MAX_SURVIVORS
        with oracle_constants(**NEVER_PRUNE):
            assert scan.to_json_dict() == solve(problem, tie_scan_jumps=4).to_json_dict()
        assert {scan.jump_count} | {t.jump_count for t in scan.ties} == {1, 2}

    def test_ten_jumps_at_the_cap(self):
        problem = walk_problem(MAX_CELLS, MAX_LEVELS, seed=0)
        tab = _build_tableau(problem)
        with oracle_constants() as mp:
            passes, read = spy_on(mp, "_pruned_pass"), spy_on(mp, "_read_rows")
            res = best_with_m_jumps(problem, MAX_JUMP_BUDGET)
            # Certified on the first width, with a few percent of the states.
            assert len(passes) == 1 and kept_share(read_kept(read)[0], MAX_LEVELS) < 0.1
        seq = _budget_pass(tab, MAX_JUMP_BUDGET)[0][MAX_JUMP_BUDGET]
        assert np.array_equal(np.searchsorted(tab.levels, sequence_from_result(res, problem)), seq)
        assert res.to_json_dict() == _result_from_sequence(problem, tab, seq).to_json_dict()

    @staticmethod
    def tie_thresholds(problem, scan):
        """The thresholds of the tie scan's pruned passes, and the scan's
        tie window best + tol."""
        with oracle_constants(**ALWAYS_PRUNE) as mp:
            passes = spy_on(mp, "_pruned_pass")
            best = solve(problem, tie_scan_jumps=scan).energy.total
        return [args[3] for args, _ in passes], best + problem.tie_tolerance * max(1.0, abs(best))

    @settings(max_examples=150)
    @given(pruning_problems())
    def test_the_tie_threshold_covers_the_tie_window(self, problem):
        scan = min(MAX_JUMP_BUDGET, problem.resolved_cells() - 1)
        try:
            thresholds, window = self.tie_thresholds(problem, scan)
        except ConfigError:  # one cell pinned to two different levels: no pass
            return
        assert len(thresholds) == 1 and thresholds[0] >= window

    @pytest.mark.parametrize("size", [(400, 101), (800, 201), (1000, 400), (2000, 400)])
    @pytest.mark.parametrize("scan", [3, 4])
    def test_the_tie_threshold_covers_the_window_of_the_critical_weight(self, size, scan):
        thresholds, window = self.tie_thresholds(tie_problem(*size), scan)
        assert len(thresholds) == 1 and thresholds[0] >= window

    def test_too_many_survivors_stop_the_pass_partway(self):
        problem = dataclasses.replace(walk_problem(60, 100), tie_tolerance=5e-3)
        tab = _build_tableau(problem)
        with oracle_constants(MAX_SURVIVORS=1.0) as mp:
            passes = spy_on(mp, "_pruned_pass")
            solve(problem, tie_scan_jumps=3)
            [((_, _, behind, threshold), _)] = passes
            relaxed, read = spy_on(mp, "_relax"), spy_on(mp, "_read_rows")
            oracle_mod._pruned_pass(tab, 3, behind, threshold)
            full, share = len(relaxed), kept_share(read_kept(read)[0], 100)
        assert full == 2 * 59 and share > 0.05  # a free and a budgeted transition per cell
        # A limit at half the survivors is crossed about halfway.
        with oracle_constants(MAX_SURVIVORS=share / 2) as mp:
            relaxed = spy_on(mp, "_relax")
            assert oracle_mod._pruned_pass(tab, 3, behind, threshold) is None
            assert 0 < len(relaxed) < full
            passes = spy_on(mp, "_pruned_pass")
            scans = [outcome(lambda: solve(problem, tie_scan_jumps=m)) for m in (3, 10)]
            answers = [outcome(lambda: best_with_m_jumps(problem, m)) for m in range(3, 11)]
            stopped = [out is None for _, out in passes]
        assert stopped[:2] == [True, True] and any(stopped[2:])
        with oracle_constants(**NEVER_PRUNE):
            assert scans == [outcome(lambda: solve(problem, tie_scan_jumps=m)) for m in (3, 10)]
            assert answers == [outcome(lambda: best_with_m_jumps(problem, m)) for m in range(3, 11)]

    @settings(max_examples=100)
    @given(pruning_problems())
    @also_skipping_every_level
    def test_each_question_reads_only_the_rows_it_returns(self, problem):
        budget = min(MAX_JUMP_BUDGET, problem.resolved_cells() - 1)
        with oracle_constants(**ALWAYS_PRUNE):
            assert_reads_only_what_is_returned(problem, range(budget + 1), budget)
        with oracle_constants(**NEVER_PRUNE):
            assert_reads_only_what_is_returned(problem, range(budget + 1), budget)

    def test_a_cap_walk_reads_only_the_rows_it_returns(self):
        assert_reads_only_what_is_returned(walk_problem(MAX_CELLS, MAX_LEVELS, seed=0), [6, 10], MAX_JUMP_BUDGET)

    def test_pruning_threshold(self):
        worth = oracle_mod._worth_pruning
        assert worth(MAX_JUMP_BUDGET, MAX_LEVELS) and worth(4, 101) and worth(3, 82)
        assert not worth(2, MAX_LEVELS) and not worth(MAX_JUMP_BUDGET, 44) and not worth(3, 81)


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
        data=GridSignal((0.0, 1.0), samples), kernel=kernel, lam=lam, levels=levels, endpoint_pin=pin
    )


def free_pass_outputs(tab, backward):
    """Last row, every row and the parent table of one free pass, forward
    from the first pin or backward over the reversed cells from the last."""
    n, L = tab.shape
    start = oracle_mod._pins(tab)[1 if backward else 0]
    parents, values = np.zeros((n, L), dtype=np.int16), np.empty((n, L))
    last = oracle_mod._free_pass(tab, start, parents, values.__setitem__, backward=backward)
    return last.tobytes(), values.tobytes(), parents.tobytes()


def windowed_outputs(tab):
    """The free solve's sequence and its pass's last row, by the pass that
    keeps only the parents (no ``on_row``)."""
    n, L = tab.shape
    last = oracle_mod._free_pass(tab, oracle_mod._pins(tab)[0], np.zeros((n, L), dtype=np.int16))
    return oracle_mod._solve_free(tab).tobytes(), last.tobytes()


@st.composite
def wide_walks(draw):
    """Random walks on <= 120 cells over 250-400 uniform levels, any kernel,
    free or pinned to the walk's end values."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    walk = np.cumsum(rng.normal(size=draw(st.integers(2, 120)) + 1))
    param = draw(st.floats(0.05, 5.0))
    kernel = draw(st.sampled_from([kwc_kernel(param), linear_kernel(), potts_kernel(param)]))
    pin = (float(walk[0]), float(walk[-1])) if draw(st.booleans()) else None
    return signal_problem(
        GridSignal((0.0, 1.0), walk), kernel, draw(st.floats(0.5, 1000.0)),
        n_levels=draw(st.integers(oracle_mod._MIN_SKIP_LEVELS, MAX_LEVELS)), endpoint_pin=pin,
    )


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

    @settings(max_examples=40)
    @given(wide_walks())
    def test_the_windowed_free_solve_equals_the_dense_pass(self, problem):
        tab = _build_tableau(problem)
        windowed = windowed_outputs(tab)
        with oracle_constants(MIN_SKIP_LEVELS=math.inf):
            assert windowed_outputs(tab) == windowed

    @settings(max_examples=400)
    @given(free_pass_problems())
    def test_windowed_rows_at_any_level_count(self, problem):
        tab = _build_tableau(problem)
        if oracle_mod._solve_free(tab) is None:  # one cell pinned to two different levels
            return
        outputs = []
        for levels in (math.inf, 1):
            with oracle_constants(MIN_SKIP_LEVELS=levels):
                outputs.append(windowed_outputs(tab))
        assert outputs[0] == outputs[1]

    def test_the_free_solve_forms_few_rows_of_a_random_walk(self):
        tab = _build_tableau(walk_problem(300, 300))
        with oracle_constants() as mp:
            relaxed = spy_on(mp, "_relax")
            oracle_mod._solve_free(tab)
            rows = [args[2].shape[0] for args, _ in relaxed]
        # The first and the last transition form every row.
        assert len(rows) == 299 and rows[0] == rows[-1] == 300 and np.mean(rows) < 150


def two_table_bound(tab):
    """F + B - cost from a forward and a backward free pass, each into a
    table of its own."""
    n, L = tab.shape
    start, end = oracle_mod._pins(tab)
    forward, backward = np.empty((n, L)), np.empty((n, L))
    oracle_mod._free_pass(tab, start, None, forward.__setitem__)
    oracle_mod._free_pass(tab, end, None, backward[::-1].__setitem__, backward=True)
    return forward + backward - cost_table(tab)


def pruned_kept(tab, behind, threshold):
    """The kept levels of each cell (None when the pass stops at a cell
    that keeps none) and the output of the pruned pass at ``threshold``,
    which never stops for its survivors here."""
    with oracle_constants(MAX_SURVIVORS=1.0) as mp:
        read = spy_on(mp, "_read_rows")
        rows = oracle_mod._pruned_pass(tab, min(2, tab.shape[0] - 1), behind, threshold)
    return (read_kept(read)[0] if read else None), rows


class TestBoundTable:
    """The bounds come from one table of backward rows (``_behind``) and
    free rows over the kept states only (``_pruned_pass``)."""

    @settings(max_examples=200)
    @given(free_pass_problems(), st.floats(-0.1, 1.1))
    def test_one_table_equals_two_tables_bit_for_bit(self, problem, where):
        tab = _build_tableau(problem)
        bound = two_table_bound(tab)
        behind, free = oracle_mod._behind(tab)
        thresholds = [math.inf]
        if math.isfinite(free):
            thresholds.append(free + where * (bound[np.isfinite(bound)].max() - free))
        for threshold in thresholds:
            kept, rows = pruned_kept(tab, behind, threshold)
            mask = bound <= oracle_mod._cut(threshold)
            if kept is None:  # a cell keeps no level: no rows
                assert not mask.any(axis=1).all() and rows[2] is None and np.isinf(rows[1]).all()
            else:
                assert [s.tolist() for s in kept] == [np.flatnonzero(row).tolist() for row in mask]

    @settings(max_examples=100)
    @given(free_pass_problems())
    def test_the_screen_drops_no_state_that_the_cut_keeps(self, problem):
        # At a threshold whose cut is the bound of a state, with no float
        # between them, the pass keeps what it keeps with no screen at all;
        # for each of the 16 least bounds.
        tab = _build_tableau(problem)
        bound = two_table_bound(tab)
        behind = oracle_mod._behind(tab)[0]
        for at in np.unique(bound[np.isfinite(bound)])[:16]:
            threshold = at - 1e-9 * max(1.0, abs(at))
            while oracle_mod._cut(threshold) < at:
                threshold = np.nextafter(threshold, math.inf)
            while oracle_mod._cut(np.nextafter(threshold, -math.inf)) >= at:
                threshold = np.nextafter(threshold, -math.inf)
            screened = pruned_kept(tab, behind, float(threshold))
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(oracle_mod, "_slack", lambda tab: 0.0)  # no screen
                assert repr(pruned_kept(tab, behind, float(threshold))) == repr(screened)

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
        with oracle_constants(MAX_SURVIVORS=1.0):
            oracle_mod._pruned_pass(tab, 3, oracle_mod._behind(tab)[0], math.inf)
        assert tab.kmat.tobytes() == before

    @staticmethod
    def peak_tables(ask, n_cells, n_levels):
        """The traced peak of ``ask()`` in n x L float tables."""
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            ask()
            return tracemalloc.get_traced_memory()[1] / (n_cells * n_levels * 8)
        finally:
            tracemalloc.stop()

    def test_the_free_solve_holds_no_cost_table(self):
        # Its int16 parent table (a quarter of one) and L x L buffers.
        problem = walk_problem(2000, 250)
        assert self.peak_tables(lambda: solve(problem), 2000, 250) < 1.25

    @pytest.mark.parametrize("seed", [1, 2])
    def test_the_bounds_hold_one_table(self, seed):
        # A budgeted question adds the one table of backward rows to what a
        # free solve holds; two tables would be above 2.
        problem = walk_problem(2000, 250, seed=seed)
        assert self.peak_tables(lambda: best_with_m_jumps(problem, 10), 2000, 250) < 2.0
        assert self.peak_tables(lambda: solve(problem, tie_scan_jumps=10), 2000, 250) < 2.0


class TestCostRows:
    @pytest.mark.parametrize(
        "n", [1, oracle_mod._BLOCK_CELLS - 1, oracle_mod._BLOCK_CELLS, oracle_mod._BLOCK_CELLS + 1, MAX_CELLS]
    )
    def test_rows_equal_the_whole_table_bit_for_bit(self, n):
        sampled = walk_problem(n, 37)
        analytic = OracleProblem(data=LinearData((0.0, 1.0), 2.0, -0.5), kernel=K1, lam=7.0, n_cells=n, n_levels=37)
        for problem in (sampled, analytic):
            tab = _build_tableau(problem)
            m0, m1, m2 = (m[:, None] for m in tab.moments)
            lv = tab.levels[None, :]
            table = 0.5 * problem.lam * (m0 * lv * lv - 2.0 * m1 * lv + m2)
            assert cost_table(tab).tobytes() == table.tobytes()
            backward = np.stack(list(oracle_mod._cost_rows(tab, backward=True)))
            assert backward.tobytes() == table[::-1].tobytes()
            # A minimizer's fidelity is priced from the same floats.
            seq = np.random.default_rng(n).integers(0, 37, size=n)
            fidelity = _result_from_sequence(problem, tab, seq).energy.fidelity
            assert fidelity == float(table[np.arange(n), seq].sum())


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


@st.composite
def step_problems(draw):
    """Step data (a ``PiecewiseConstant``, whose cell moments are exact) with
    up to 3 jumps, one at a cell edge half the time, on <= 40 cells and
    <= 30 uniform levels; any kernel, free or pinned to the data's end values."""
    n_cells = draw(st.integers(1, 40))
    cuts = draw(st.lists(st.floats(0.01, 0.99), max_size=3, unique=True))
    if n_cells > 1 and draw(st.booleans()):
        cuts.append(draw(st.integers(1, n_cells - 1)) / n_cells)
    values = draw(st.lists(st.floats(-2.0, 2.0), min_size=len(set(cuts)) + 1, max_size=len(set(cuts)) + 1))
    steps = PiecewiseConstant((0.0, 1.0), tuple(sorted(set(cuts))), tuple(values))
    kind = draw(st.sampled_from(["kwc", "linear", "potts"]))
    param = draw(st.floats(0.05, 5.0))
    kernel = {"kwc": kwc_kernel(param), "potts": potts_kernel(param), "linear": linear_kernel()}[kind]
    return OracleProblem(
        data=steps,
        kernel=kernel,
        lam=draw(st.floats(0.0, 300.0)),
        n_cells=n_cells,
        n_levels=draw(st.integers(1, 30)),
        endpoint_pin=(steps.values[0], steps.values[-1]) if draw(st.booleans()) else None,
        tie_tolerance=draw(st.sampled_from([1e-9, 0.05, 0.5])),
    )


class TestEnergyBreakdown:
    @settings(max_examples=150)
    @given(st.one_of(linear_problems(), step_problems()))
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


def walk_instance(seed, kernel, lam, pinned):
    """A seeded random walk of 40-243 cells on 30-117 explicit levels: the
    samples, the levels, and a problem builder that the maps below reuse."""
    rng = np.random.default_rng(seed)
    n_cells, n_levels = int(rng.integers(40, 244)), int(rng.integers(30, 118))
    samples = np.cumsum(rng.normal(size=n_cells + 1))
    levels = np.linspace(samples.min(), samples.max(), n_levels)

    def problem(samples, levels, lam=lam, domain=(0.0, 1.0)):
        pin = (samples[0], samples[-1]) if pinned else None
        return signal_problem(GridSignal(domain, samples), kernel, lam, levels=levels, endpoint_pin=pin)

    return samples, levels, problem


def assert_same_optimum(a, b, rtol):
    assert a.jump_count == b.jump_count
    if rtol == 0:
        assert a.energy.total == b.energy.total
    else:
        assert a.energy.total == pytest.approx(b.energy.total, rel=rtol, abs=0)


class TestMetamorphic:
    """Maps of the data that the minimum commutes with, each moving the levels
    with the data: equal jump counts, and energies bit-equal where the map is
    exact in floats, within 1e-12 where it reorders sums."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("pinned", [False, True], ids=["free", "pinned"])
    @pytest.mark.parametrize("lam", [20.0, 200.0])
    @pytest.mark.parametrize("kernel", [K1, linear_kernel(), potts_kernel(0.3)], ids=["kwc", "linear", "potts"])
    def test_reflection_negation_shift_and_scaling(self, kernel, lam, pinned, seed):
        g, levels, problem = walk_instance(seed, kernel, lam, pinned)
        base = solve(problem(g, levels))
        assert_same_optimum(solve(problem(g[::-1], levels)), base, rtol=1e-12)
        assert_same_optimum(solve(problem(-g, -levels[::-1])), base, rtol=0)
        assert_same_optimum(solve(problem(g + 3.0, levels + 3.0)), base, rtol=1e-12)
        assert_same_optimum(solve(problem(g, levels, lam=lam / 4, domain=(0.0, 4.0))), base, rtol=0)

    @pytest.mark.parametrize("m", [0, 1, 3])
    @pytest.mark.parametrize("pinned", [False, True], ids=["free", "pinned"])
    @pytest.mark.parametrize("lam", [20.0, 200.0])
    @pytest.mark.parametrize("kernel", [K1, linear_kernel(), potts_kernel(0.3)], ids=["kwc", "linear", "potts"])
    def test_jump_budget_under_reflection(self, kernel, lam, pinned, m):
        g, levels, problem = walk_instance(0, kernel, lam, pinned)
        base = outcome(lambda: best_with_m_jumps(problem(g, levels), m))
        reflected = outcome(lambda: best_with_m_jumps(problem(g[::-1], levels), m))
        if isinstance(base, str):
            assert reflected == base
        else:
            assert reflected["jump_count"] == base["jump_count"] == m
            assert reflected["energy"]["total"] == pytest.approx(base["energy"]["total"], rel=1e-12, abs=0)
