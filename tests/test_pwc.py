"""Unit tests for piecewise-constant functions, energies, and helpers."""

import bisect
import json
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kwcseg.errors import ConfigError
from kwcseg.experiments import write_csv
from kwcseg.kernel import kwc_kernel, linear_kernel
from kwcseg.oracle import OracleProblem, _build_tableau, signal_problem, solve
from kwcseg.pwc import (
    GridSignal,
    LinearData,
    PiecewiseConstant,
    SineData,
    energy,
    fidelity,
    tv_kernel,
)

from proof_devices import clamp, dispersion, fidelity_by_quadrature, quantize, tv


def random_pwc(rng, domain=(0.0, 1.0), max_jumps=6):
    m = int(rng.integers(0, max_jumps + 1))
    breaks = np.sort(rng.uniform(domain[0] + 1e-3, domain[1] - 1e-3, size=m))
    while np.any(np.diff(breaks) < 1e-6):
        breaks = np.sort(rng.uniform(domain[0] + 1e-3, domain[1] - 1e-3, size=m))
    values = rng.uniform(-1.0, 2.0, size=m + 1)
    return PiecewiseConstant(domain, tuple(breaks), tuple(values))


class TestConstruction:
    def test_rejects_unsorted_breakpoints(self):
        with pytest.raises(ValueError):
            PiecewiseConstant((0, 1), (0.6, 0.3), (0.0, 1.0, 2.0))

    def test_rejects_value_count_mismatch(self):
        with pytest.raises(ValueError):
            PiecewiseConstant((0, 1), (0.5,), (0.0, 1.0, 2.0))

    def test_rejects_breakpoints_outside_domain(self):
        with pytest.raises(ValueError):
            PiecewiseConstant((0, 1), (1.5,), (0.0, 1.0))

    def test_zero_size_jumps_normalized_away(self):
        u = PiecewiseConstant((0, 1), (0.3, 0.6), (1.0, 1.0, 2.0))
        assert u.breakpoints == (0.6,)
        assert u.values == (1.0, 2.0)

    def test_left_continuity_at_breakpoints(self):
        u = PiecewiseConstant((0, 1), (0.5,), (0.0, 1.0))
        x = np.array([0.2, 0.5, 0.7])
        np.testing.assert_array_equal(u(x), [0.0, 0.0, 1.0])

    def test_json_round_trip(self):
        u = PiecewiseConstant((0.0, 2.0), (0.25, 1.5), (0.0, -1.0, 3.0))
        d = u.to_json_dict()
        assert set(d) == {"domain", "breakpoints", "values"}
        w = PiecewiseConstant.from_json_dict(json.loads(json.dumps(d)))
        assert w.domain == u.domain
        assert w.breakpoints == u.breakpoints
        assert w.values == u.values

    @pytest.mark.parametrize(
        "domain, values, field",
        [
            ((0.0, 1.0), (0.0, math.nan), "values"),
            ((0.0, 1.0), (math.inf, 1.0), "values"),
            ((0.0, math.inf), (0.0, 1.0), "domain"),
            ((-math.inf, 1.0), (0.0, 1.0), "domain"),
        ],
    )
    def test_rejects_non_finite_values_and_domain(self, domain, values, field):
        with pytest.raises(ConfigError, match=field):
            PiecewiseConstant(domain, (0.5,), values)


class TestAnalyticData:
    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"domain": (0.0, math.inf)}, "domain"),
            ({"domain": (math.nan, 1.0)}, "domain"),
            ({"domain": (0.0, 1.0), "slope": math.nan}, "slope"),
            ({"domain": (0.0, 1.0), "intercept": -math.inf}, "intercept"),
        ],
    )
    def test_linear_data_rejects_non_finite_fields(self, kwargs, field):
        with pytest.raises(ConfigError, match=field):
            LinearData(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"domain": (0.0, math.inf)}, "domain"),
            ({"domain": (0.0, 1.0), "amplitude": math.inf}, "amplitude"),
            ({"domain": (0.0, 1.0), "omega": math.nan}, "omega"),
        ],
    )
    def test_sine_data_rejects_non_finite_fields(self, kwargs, field):
        with pytest.raises(ConfigError, match=field):
            SineData(**kwargs)

    @pytest.mark.parametrize("omega", [0, 0.0, -0.0, 5e-324, -(2.0**-101)])
    def test_sine_data_rejects_a_zero_omega(self, omega):
        # The moments divide by omega: at 0 they would be nan, and below
        # the envelope's 2**-100 sin(2 omega x) loses its digits.
        with pytest.raises(ConfigError, match=re.escape("omega must be nonzero: |omega| = ") + ".* is outside the magnitude envelope"):
            SineData((0.0, 1.0), 1.0, omega)

    def test_sine_cells_whose_omega_w_rounds_to_zero_read_the_left_edge(self):
        # omega w underflows to 0 on these cells: each mean is s at the
        # cell's left edge, 0 here, with no NaN and no warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mean, spread = SineData((0.0, 1e-300), 1.0, 2.0**-100).moments(np.linspace(0.0, 1e-300, 11))
        assert np.all(mean == 0.0) and np.all(np.isfinite(spread))

    @pytest.mark.parametrize("domain", [(0.0, 1.0), (-1.0, 2.0), (0.2, 0.3), (-3.0, -1.0), (1 / 6, 0.5), (0.0, 1 / 6)])
    @pytest.mark.parametrize("omega", [3.0 * math.pi, -3.0 * math.pi, 1e-6, 1.0, 7.5, -0.2, 40.0])
    @pytest.mark.parametrize("amplitude", [1.0, -2.5, 0.3])
    def test_sine_range_holds_the_data_and_is_attained(self, domain, omega, amplitude):
        data = SineData(domain, amplitude, omega)
        lo, hi = data.value_range()
        x = np.linspace(*domain, 20001)
        v = data(x)
        slack = 4 * 2.0**-52 * abs(amplitude)
        assert lo - slack <= v.min() and v.max() <= hi + slack
        assert refined_extreme(data, x, int(v.argmin()), -1.0) == pytest.approx(lo, rel=0, abs=slack)
        assert refined_extreme(data, x, int(v.argmax()), 1.0) == pytest.approx(hi, rel=0, abs=slack)


def refined_extreme(data, x, i, sign):
    """The extreme value (sign 1: the largest, -1: the least) of ``data``
    between the samples on either side of x[i], by ternary search."""
    def f(t):
        return sign * float(data(t))

    lo, hi = x[max(i - 1, 0)], x[min(i + 1, x.size - 1)]
    for _ in range(200):
        a, b = lo + (hi - lo) / 3, hi - (hi - lo) / 3
        if f(a) < f(b):
            lo = a
        else:
            hi = b
    return sign * max(f(lo), f(hi), f(x[i]))


class TestGridSignal:
    def test_uniform_grid(self):
        g = GridSignal((0.0, 1.0), np.linspace(0, 1, 5))
        np.testing.assert_allclose(g.x(), [0.0, 0.25, 0.5, 0.75, 1.0])
        assert g.h == pytest.approx(0.25)
        assert g.n == 5

    def test_a_spacing_that_rounds_to_zero_is_rejected(self):
        # 5e-324 / 2 rounds to 0.0; over one gap the spacing is 5e-324
        # itself.  Both lie below the envelope's least spacing, 2**-100.
        below = r", below the magnitude envelope's 2\*\*-100$"
        with pytest.raises(ConfigError, match=r"domain \[0.0, 5e-324\] is too narrow for n = 3 nodes: .* is 0.0" + below):
            GridSignal((0, 5e-324), [1, 1, 1])
        with pytest.raises(ConfigError, match=r"domain \[0.0, 5e-324\] is too narrow for n = 2 nodes: .* is 5e-324" + below):
            GridSignal((0, 5e-324), [1, 1])
        assert GridSignal((0, 2.0**-100), [1, 1]).h == 2.0**-100

    def test_the_open_float_range_cases_are_one_error_each(self):
        # A width that overflows (h = inf, a NaN first node) and a spacing
        # whose interpolant slope overflows: each is one ConfigError, with no
        # warning, that names the domain or the spacing and the envelope.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=re.escape("domain = -1e+308 is outside the magnitude envelope |x| <= 2**100")):
                GridSignal((-1e308, 1e308), [0, 1, 2])
            with pytest.raises(ConfigError, match=re.escape(
                "the domain [0.0, 1e-300] is too narrow for n = 2 nodes: their spacing (b - a)/(n - 1) is 1e-300, "
                "below the magnitude envelope's 2**-100"
            )):
                GridSignal((0, 1e-300), [0, 1e10])

    @pytest.mark.parametrize("origin", [1.0, -3.0, 1e6, -1e9, 2.0**60, 1e-300])
    def test_a_grid_is_accepted_exactly_when_its_nodes_increase(self, origin):
        # Spacings from 1/4 to 12 ulps of the domain's magnitude: a grid is
        # rejected exactly when two of its nodes are one float.
        ulp = math.ulp(origin)
        seen = set()
        for n in (2, 3, 6, 17, 40):
            for k in np.arange(0.25, 12.0, 0.25):
                domain = (origin, origin + float(k) * ulp * (n - 1))
                if not domain[0] < domain[1]:
                    continue
                apart = bool(np.all(np.diff(np.linspace(*domain, n)) > 0))
                seen.add(apart)
                try:
                    GridSignal(domain, np.zeros(n))
                except ConfigError as err:
                    # ... or, at 1e-300, when the spacing is below the envelope.
                    wide = (domain[1] - domain[0]) / (n - 1) >= 2.0**-100
                    assert not (apart and wide) and f"is too narrow for n = {n} nodes" in str(err)
                else:
                    assert apart
        assert seen == {True, False}

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(21)
        g = GridSignal((0.0, 1.0), rng.normal(size=17))
        path = tmp_path / "signal.csv"
        write_csv(path, ("x", "value"), (g.x(), g.samples))
        first = path.read_text().splitlines()[0]
        assert first == "x,value"
        back = GridSignal.from_csv(path)
        assert back.domain == g.domain
        np.testing.assert_allclose(back.samples, g.samples, rtol=0, atol=1e-15)

    def test_csv_spacing_is_checked_relative_to_the_spacing(self, tmp_path):
        path = tmp_path / "signal.csv"
        # Spacings 1e-14, 4.9e-13 and 4e-13: not uniform, however small.
        path.write_text("x,value\n0,0\n1e-14,1\n5e-13,2\n9e-13,3\n")
        with pytest.raises(ConfigError, match="nodes are not uniformly spaced"):
            GridSignal.from_csv(path)
        path.write_text("x,value\n0,0\n3e-13,1\n6e-13,2\n9e-13,3\n")
        g = GridSignal.from_csv(path)
        assert g.domain == (0.0, 9e-13)
        np.testing.assert_allclose(g.x(), [0.0, 3e-13, 6e-13, 9e-13], rtol=1e-15, atol=0)
        assert g.samples.tolist() == [0.0, 1.0, 2.0, 3.0]

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_csv_rejects_non_finite_samples(self, tmp_path, bad):
        path = tmp_path / "signal.csv"
        path.write_text(f"x,value\n0,0\n0.5,{bad}\n1,1\n")
        with pytest.raises(ConfigError, match="finite"):
            GridSignal.from_csv(path)

    @pytest.mark.parametrize("through_oracle", [False, True], ids=["direct", "signal_problem"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_rejects_non_finite_samples(self, bad, through_oracle):
        samples = [0.0, bad, 1.0]
        with pytest.raises(ConfigError, match="finite"):
            if through_oracle:
                signal_problem(GridSignal((0.0, 1.0), samples), kwc_kernel(1.0), 5.0)
            else:
                GridSignal((0.0, 1.0), samples)


class TestTotalVariation:
    def test_constant_has_zero_variation(self):
        assert tv(PiecewiseConstant((0, 1), (), (0.7,))) == 0.0

    def test_single_unit_jump(self):
        assert tv(PiecewiseConstant((0, 1), (0.5,), (0.0, 1.0))) == 1.0

    def test_up_down_path(self):
        u = PiecewiseConstant((0, 1), (0.3, 0.6), (0.0, 1.0, 0.5))
        assert tv(u) == pytest.approx(1.5)

    def test_kernel_variation_reference_values(self):
        k = kwc_kernel(1.0)
        one = PiecewiseConstant((0, 1), (0.5,), (0.0, 1.0))
        assert tv_kernel(one, k) == pytest.approx(0.5)
        two = PiecewiseConstant((0, 1), (0.3, 0.6), (0.0, 0.5, 1.0))
        assert tv_kernel(two, k) == pytest.approx(2.0 / 3.0)
        assert tv_kernel(PiecewiseConstant((0, 1), (), (0.2,)), k) == 0.0

    def test_linear_kernel_reduces_to_plain_variation(self):
        rng = np.random.default_rng(22)
        k = linear_kernel()
        for _ in range(50):
            u = random_pwc(rng)
            assert tv_kernel(u, k) == pytest.approx(tv(u), abs=1e-13)

    def test_splitting_one_jump_lowers_kernel_variation(self):
        k = kwc_kernel(1.0)
        whole = PiecewiseConstant((0, 1), (0.5,), (0.0, 1.0))
        split = PiecewiseConstant((0, 1), (0.4, 0.6), (0.0, 0.5, 1.0))
        assert tv_kernel(split, k) > tv_kernel(whole, k)
        assert tv(split) == pytest.approx(tv(whole))


class TestFidelity:
    def test_matching_data_costs_nothing(self):
        u = PiecewiseConstant((0, 1), (0.25, 0.5), (0.0, 2.0, -1.0))
        assert fidelity(u, u, 7.0) == 0.0

    def test_symmetric_step_against_ramp(self):
        # One step of half-height s against slope-one data costs (2s)^3/12.
        for s in (0.5, 1.0, 2.0):
            u = PiecewiseConstant((-s, s), (0.0,), (-s, s))
            g = LinearData((-s, s))
            assert fidelity(u, g, 2.0) == pytest.approx((2 * s) ** 3 / 12, rel=1e-13)

    def test_three_plateau_family_closed_form(self):
        g = LinearData((-1, 1))
        for z in (0.0, 0.3, -0.5):
            u = PiecewiseConstant((-1, 1), (-(1 - z) / 2, (1 + z) / 2), (-1.0, z, 1.0))
            assert fidelity(u, g, 2.0) == pytest.approx(z * z / 2 + 1 / 6, rel=1e-12)

    def test_scales_linearly_in_weight(self):
        u = PiecewiseConstant((0, 1), (0.5,), (0.0, 1.0))
        g = LinearData((0, 1))
        assert fidelity(u, g, 10.0) == pytest.approx(5 * fidelity(u, g, 2.0), rel=1e-13)

    @pytest.mark.parametrize(
        "data",
        [
            LinearData((0, 1), 1.3, -0.2),
            SineData((0, 1)),
            PiecewiseConstant((0, 1), (0.1, 0.35, 0.36, 0.8), (0.5, -1.0, 2.0, 0.0, 1.5)),
            GridSignal((0, 1), np.random.default_rng(26).normal(size=23).cumsum()),
        ],
        ids=["linear", "sine", "steps", "grid"],
    )
    def test_quadrature_agrees_with_closed_form(self, data):
        rng = np.random.default_rng(23)
        for _ in range(10):
            u = random_pwc(rng)
            exact = fidelity(u, data, 3.0)
            quad = fidelity_by_quadrature(u, data, 3.0)
            assert quad == pytest.approx(exact, rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize(
        "data, expected",
        [
            (PiecewiseConstant((0, 1), (5e-13, 1 - 1e-12), (1.0, 0.0, 1.0)), 0.0),
            (GridSignal((0, 1), [0.0, 0.0, 1.0]), pytest.approx(1 / 6, rel=1e-9)),
        ],
        ids=["steps", "grid"],
    )
    def test_kinks_beyond_the_ends_of_u_are_left_out(self, data, expected):
        # u's ends lie within the domain tolerance inside the data's, and a
        # breakpoint or node lies beyond each of them.
        assert fidelity(PiecewiseConstant((1e-12, 1 - 2e-12), (), (0.0,)), data, 2.0) == expected

    def test_a_domain_that_misses_half_of_a_tiny_one_is_rejected(self):
        # The ends may differ by a share of the data's width, not by 1e-9.
        with pytest.raises(ConfigError, match="domain mismatch"):
            fidelity(PiecewiseConstant((0, 1e-10), (), (0.0,)), LinearData((0, 2e-10)), 1.0)

    def test_energy_breakdown_sums(self):
        u = PiecewiseConstant((0, 1), (0.5,), (0.0, 1.0))
        e = energy(u, LinearData((0, 1)), kwc_kernel(1.0), 16 / 3)
        assert e.tv_k == pytest.approx(0.5)
        assert e.fidelity == pytest.approx(2.0 / 9.0)
        assert e.total == pytest.approx(e.tv_k + e.fidelity, abs=1e-15)
        assert e.total == pytest.approx(13.0 / 18.0, rel=1e-13)

    @pytest.mark.parametrize(
        "build, name",
        [
            (lambda: (PiecewiseConstant((0, 1), (), (1e200,)), PiecewiseConstant((0, 1), (0.5,), (0, 1))), "values = "),
            (lambda: (PiecewiseConstant((0, 1), (), (1e200,)), LinearData((0, 1))), "values = "),
            (lambda: (PiecewiseConstant((0, 1), (), (1e200,)), SineData((0, 1))), "values = "),
            (lambda: (PiecewiseConstant((0, 1), (), (1e200,)), GridSignal((0, 1), [0.0, 1.0, 0.5])), "values = "),
            # Samples whose sum, or whose squares, overflow floats.
            (lambda: (PiecewiseConstant((0, 1), (0.5,), (0, 1)), GridSignal((0, 1), [1e308] * 3)), "grid samples "),
            (lambda: (PiecewiseConstant((0, 1), (0.5,), (0, 1)), GridSignal((0, 1), [-1e308, 1e308, -1e308])), "grid samples "),
        ],
        ids=["steps", "linear", "sine", "grid", "grid-1e308", "grid-alternating"],
    )
    def test_a_misfit_beyond_float_range_is_an_infinite_energy(self, build, name):
        # A squared misfit beyond float range was an infinite energy.  It
        # needs a value or sample beyond the envelope: one ConfigError that
        # names it, before any work.
        with pytest.raises(ConfigError, match=f"^{name}.*the magnitude envelope"):
            build()

    def test_a_sampled_misfit_near_the_float_range_is_finite(self):
        # Samples 0 and 3e154 lie outside the envelope.  At its edge, 0 and
        # 2**100, the oracle reads the cell midpoint and answers the level
        # 2**99; the exact fidelity of that minimizer is (lam / 2) 2**198 / 3.
        with pytest.raises(ConfigError, match="grid samples must be finite, within the magnitude envelope"):
            GridSignal((0, 1), [0, 3e154])
        d = GridSignal((0, 1), [0, 2.0**100])
        r = solve(signal_problem(d, kwc_kernel(1.0), 1.0, n_levels=5))
        assert r.minimizer.values == (2.0**99,)
        assert energy(r.minimizer, d, kwc_kernel(1.0), 1.0).total == pytest.approx(2.0**197 / 3, rel=1e-15)


class TestQuantize:
    def test_ramp_quarter_levels(self):
        u = quantize(LinearData((0, 1)), 0.25)
        assert u.breakpoints == pytest.approx((0.25, 0.5, 0.75))
        assert u.values == pytest.approx((0.0, 0.25, 0.5, 0.75))

    def test_constant_data_single_plateau(self):
        u = quantize(LinearData((0, 1), 0.0, 0.6), 0.25)
        assert u.breakpoints == ()
        assert u.values == (0.5,)

    def test_sup_error_bounded_by_step(self):
        eta = 0.5
        u = quantize(SineData((0, 1)), eta)
        x = np.linspace(0, 1, 4001)
        err = np.abs(u(x) - np.sin(3 * math.pi * x))
        assert np.max(err) <= eta + 1e-12

    def test_kernel_variation_ratio_approaches_one(self):
        # Jumps of size eta cost K(eta) each, so the kernel-to-plain variation
        # ratio is 1/(1+eta) and improves as the quantization refines.
        k = kwc_kernel(1.0)
        ratios = []
        for eta in (0.2, 0.1, 0.05, 0.01):
            u = quantize(LinearData((0, 1)), eta)
            ratio = tv_kernel(u, k) / tv(u)
            assert ratio == pytest.approx(1 / (1 + eta), rel=1e-12)
            ratios.append(ratio)
        assert all(b > a for a, b in zip(ratios, ratios[1:]))


class TestClamp:
    def test_clamps_and_merges(self):
        u = PiecewiseConstant((0, 1), (0.3, 0.6), (-2.0, -1.0, 0.5))
        c = clamp(u, 0.0, 1.0)
        assert c.breakpoints == (0.6,)
        assert c.values == (0.0, 0.5)

    def test_inside_range_is_unchanged(self):
        u = PiecewiseConstant((0, 1), (0.4,), (0.2, 0.9))
        c = clamp(u, 0.0, 1.0)
        assert c.breakpoints == u.breakpoints
        assert c.values == u.values

    def test_idempotent(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            u = random_pwc(rng)
            once = clamp(u, 0.0, 1.0)
            twice = clamp(once, 0.0, 1.0)
            assert once.breakpoints == twice.breakpoints
            assert once.values == twice.values

    def test_never_increases_variation(self):
        rng = np.random.default_rng(25)
        for _ in range(50):
            u = random_pwc(rng)
            assert tv(clamp(u, 0.0, 1.0)) <= tv(u) + 1e-13


class TestDispersion:
    def test_single_full_jump_is_concentrated(self):
        u = PiecewiseConstant((0, 1), (0.5,), (0.0, 1.0))
        assert dispersion(u, 1.0) == 0.0

    def test_even_split_is_half_dispersed(self):
        u = PiecewiseConstant((0, 1), (0.3, 0.6), (0.0, 0.5, 1.0))
        assert dispersion(u, 1.0) == pytest.approx(0.5)

    def test_no_jumps_is_fully_dispersed(self):
        u = PiecewiseConstant((0, 1), (), (0.3,))
        assert dispersion(u, 1.0) == pytest.approx(1.0)


class TestEnergyGapBounds:
    """Quantitative penalties for spreading a single jump into two."""

    @staticmethod
    def _two_jump_competitor(delta, rho, alpha, beta):
        # Split the jump of size rho into delta*rho then (1-delta)*rho, with
        # each sub-jump where the data crosses the midpoint of its plateaus.
        v0, v1, v2 = 0.0, delta * rho, rho
        b1 = alpha + (v0 + v1) / 2 * (beta - alpha) / rho
        b2 = alpha + (v1 + v2) / 2 * (beta - alpha) / rho
        return PiecewiseConstant((alpha, beta), (b1, b2), (v0, v1, v2))

    def test_fidelity_advantage_is_bounded(self):
        # Splitting can lower fidelity by at most (lam/2) d(1-d) rho^2 (b-a).
        alpha, beta, rho, lam = 0.0, 0.5, 0.5, 1.0
        g = LinearData((alpha, beta), slope=rho / (beta - alpha))
        u0 = PiecewiseConstant((alpha, beta), ((alpha + beta) / 2,), (0.0, rho))
        base = fidelity(u0, g, lam)
        for delta in np.linspace(0.1, 0.9, 9):
            udelta = self._two_jump_competitor(delta, rho, alpha, beta)
            advantage = base - fidelity(udelta, g, lam)
            cap = (lam / 2) * delta * (1 - delta) * rho**2 * (beta - alpha)
            assert advantage <= cap + 1e-12

    def test_net_energy_penalty_below_critical_weight(self):
        # When the pairwise gain beats the fidelity advantage rate, splitting
        # raises the energy by at least a dispersion-proportional amount.
        from kwcseg.kernel import derive_constants

        alpha, beta, rho, lam = 0.0, 0.5, 0.5, 1.0
        k = kwc_kernel(1.0)
        gain = derive_constants(k, rho).split_gain
        margin = gain - (lam / 2) * (beta - alpha)
        assert margin > 0
        g = LinearData((alpha, beta), slope=rho / (beta - alpha))
        u0 = PiecewiseConstant((alpha, beta), ((alpha + beta) / 2,), (0.0, rho))
        e0 = energy(u0, g, k, lam).total
        for delta in np.linspace(0.1, 0.9, 9):
            udelta = self._two_jump_competitor(delta, rho, alpha, beta)
            ed = energy(udelta, g, k, lam).total
            floor = margin * delta * (1 - delta) * rho**2
            assert ed - e0 >= floor - 1e-12


class TestGridSignalData:
    def test_sampled_matches_exact_on_grid_functions(self):
        # Sampled data is integrated as its linear interpolant: a unit step
        # sampled on 400 nodes ramps from 0 to 1 over one spacing h, where
        # (1/2 - g)^2 integrates to h / 12, and misses 1/2 by 1/2 elsewhere.
        n = 400
        x = np.linspace(0, 1, n)
        samples = np.where(x < 0.5, 0.0, 1.0)
        data = GridSignal((0.0, 1.0), samples)
        u = PiecewiseConstant((0, 1), (), (0.5,))
        val = fidelity(u, data, 2.0)
        h = 1.0 / (n - 1)
        assert val == pytest.approx(0.25 * (1.0 - h) + h / 12.0, rel=1e-14)


def cell_by_cell_moments(data, edges) -> list:
    """Each cell's mean of g and spread about it, one cell at a time on
    Python floats: linear data's midpoint value and w (slope w)^2 / 12, sine
    data's closed forms, and the pieces of a step function (between its
    breakpoints, flat) or of a grid signal (between its nodes, linear)
    pooled: their means weighted by their shares of the cell, and their
    spreads plus w (mean - cell mean)^2, each added left to right from 0.
    A grid signal's pieces are those of g / 2 (from q0 = g0/4 to q1 =
    g1/4: mean q0 + q1, spread w h (h / 3) with h = q1 - q0), pooled about
    the cell's first piece, and the pooled mean and spread are scaled back
    by 2 and 4."""
    out = []
    for x0, x1 in zip(edges.tolist(), edges[1:].tolist()):
        w = x1 - x0
        if isinstance(data, LinearData):
            rise = data.slope * w
            mean, spread = data.slope * (0.5 * (x0 + x1)) + data.intercept, w * (rise * rise) / 12.0
        elif isinstance(data, SineData):
            a, om = data.amplitude, data.omega
            p0, p1 = om * x0, om * x1
            m = (np.cos(p0) - np.cos(p1)) / (om * w) if om * w != 0 else np.sin(p0)
            q = w / 2.0 - (np.sin(2.0 * p1) - np.sin(2.0 * p0)) / (4.0 * om) - w * (m * m)
            mean, spread = a * m, a * (a * np.maximum(q, 0.0))
        elif isinstance(data, PiecewiseConstant):
            cuts = [x0, *(b for b in data.breakpoints if x0 < b < x1), x1]
            mean, spread = pooled([(hi - lo, data(0.5 * (lo + hi)), 0.0) for lo, hi in zip(cuts, cuts[1:])], w)
        else:
            cuts = [x0, *(x for x in data.x().tolist() if x0 < x < x1), x1]
            pieces = []
            for lo, hi in zip(cuts, cuts[1:]):
                q0, q1 = 0.25 * data(lo), 0.25 * data(hi)
                h = q1 - q0
                pieces.append((hi - lo, q0 + q1, (hi - lo) * h * (h / 3.0)))
            first = pieces[0][1]
            off, spread = pooled([(width, m - first, q) for width, m, q in pieces], w)
            mean, spread = 2.0 * (first + off), 4.0 * spread
        out.append((float(mean), float(spread)))
    return out


def pooled(pieces, w) -> tuple:
    """The mean and spread of a cell of width w from its pieces (width,
    mean, spread), each sum added left to right from 0."""
    mean = sum(m * (width / w if w > 0 else 1.0) for width, m, _ in pieces)
    return mean, sum(width * ((m - mean) * (m - mean)) + q for width, m, q in pieces)


def sine_spread_by_quadrature(data, x0, x1) -> float:
    """The spread of sine data about their mean over [x0, x1], by 20-point
    Gauss-Legendre quadrature with ``math.fsum``: exact up to its own
    rounding on a cell far shorter than the sine's period."""
    t, weights = (a.tolist() for a in np.polynomial.legendre.leggauss(20))
    c, h = 0.5 * (x0 + x1), 0.5 * (x1 - x0)
    g = [float(data(c + h * ti)) for ti in t]
    mean = math.fsum(wi * gi for wi, gi in zip(weights, g)) / 2.0
    return h * math.fsum(wi * (gi - mean) ** 2 for wi, gi in zip(weights, g))


def bits(pairs) -> list:
    """Each float in hex: equal lists are equal bit for bit, signed zeros included."""
    return [tuple(float(m).hex() for m in pair) for pair in pairs]


@st.composite
def data_on_cells(draw, kinds=("linear", "sine", "steps", "grid")):
    """Uniform cell edges over a domain, tiny cells far from the origin
    among them, and data of one of the kinds on that domain.  Step data
    hold 0 to 3 breakpoints inside each cell, and some breakpoints on
    edges."""
    a = draw(st.sampled_from([0.0, -3.0, 1e6, -1e9]))
    b = a + draw(st.sampled_from([1.0, 1e-3, 1e-6])) * draw(st.floats(0.5, 2.0))
    n = draw(st.integers(1, 40))
    edges = np.linspace(a, b, n + 1)
    real = st.floats(-1e3, 1e3)
    kind = draw(st.sampled_from(kinds))
    if kind == "linear":
        return edges, LinearData((a, b), draw(real), draw(real))
    if kind == "sine":
        return edges, SineData((a, b), draw(real), draw(st.floats(0.1, 30.0)) / (b - a))
    if kind == "grid":
        samples = draw(st.lists(real, min_size=2, max_size=60))
        # No more samples than the floats resolve nodes for on [a, b].
        while not np.all(np.diff(np.linspace(a, b, len(samples))) > 0):
            samples.pop()
        return edges, GridSignal((a, b), samples)
    inside = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    bps = set()
    for x0, x1 in zip(edges[:-1], edges[1:]):
        bps.update(x0 + f * (x1 - x0) for f in draw(st.lists(inside, max_size=3)))
    bps.update(draw(st.lists(st.sampled_from(edges.tolist()), max_size=4)))
    bps = sorted(float(x) for x in bps if a < x < b)
    values = draw(st.lists(real, min_size=len(bps) + 1, max_size=len(bps) + 1))
    return edges, PiecewiseConstant((a, b), tuple(bps), tuple(values))


class TestCellMoments:
    @settings(max_examples=300)
    @given(data_on_cells())
    def test_every_kind_gives_each_cell_its_own_moments_bit_for_bit(self, case):
        edges, data = case
        mean, spread = data.moments(edges)
        assert bits(zip(mean, spread)) == bits(cell_by_cell_moments(data, edges))

    @settings(max_examples=100)
    @given(data_on_cells())
    def test_the_oracle_tableau_holds_the_data_moments(self, case):
        # A grid signal is read at each cell's midpoint, with spread 0;
        # every other kind gives its own moments.
        edges, data = case
        n = edges.size - 1
        tab = _build_tableau(OracleProblem(data=data, kernel=kwc_kernel(1.0), lam=1.0, n_cells=n, n_levels=5))
        a, b = data.domain
        assert bits([(m,) for m in tab.moments[0]]) == bits([((b - a) / n,)] * n)
        if isinstance(data, GridSignal):
            expected = [(data(0.5 * (x0 + x1)), 0.0) for x0, x1 in zip(edges.tolist(), edges[1:].tolist())]
        else:
            expected = zip(*data.moments(edges))
        assert bits(tab.moments[1:].T) == bits(expected)

    @settings(max_examples=300)
    @given(
        st.floats(-10.0, 10.0),
        st.integers(-12, -4),
        st.floats(1.0, 10.0),
        st.floats(0.1, 30.0),
        st.floats(-1e3, 1e3),
    )
    def test_a_tiny_sine_cell_has_its_spread_within_the_stated_bound(self, x0, power, mantissa, omega, amplitude):
        # The spread is a difference that cancels on a small cell; its error
        # is within 16 u a^2 (1 / |omega| + X + w) (``SineData.moments``).
        edges = np.array([x0, x0 + mantissa * 10.0**power])
        data = SineData(tuple(edges.tolist()), amplitude, omega)
        _, spread = data.moments(edges)
        w, X = edges[1] - edges[0], np.abs(edges).max()
        reference = sine_spread_by_quadrature(data, *edges.tolist())
        assert abs(spread[0] - reference) <= 16 * 2.0**-53 * amplitude**2 * (1 / omega + X + w)

    def test_a_cell_of_three_pieces_adds_them_left_to_right(self):
        # ((0 + p0) + p1) + p2 rounds otherwise than p0 + (p1 + p2) here.
        data = PiecewiseConstant((0.0, 1.0), (0.1, 0.2), (1.0, 1e16, -1e16))
        mean, _ = data.moments(np.array([0.0, 0.3]))
        assert mean[0].hex() == sum([1.0 * (0.1 / 0.3), 1e16 * ((0.2 - 0.1) / 0.3), -1e16 * ((0.3 - 0.2) / 0.3)]).hex()


def exact_interpolant(data: GridSignal):
    """The linear interpolant of a grid signal's float nodes and samples, as
    a function of a float x, in exact rationals."""
    nodes = [Fraction(x) for x in data.x().tolist()]
    samples = [Fraction(v) for v in data.samples.tolist()]

    def g(x):
        x = Fraction(x)
        j = min(max(bisect.bisect_right(nodes, x) - 1, 0), len(nodes) - 2)
        return samples[j] + (samples[j + 1] - samples[j]) * (x - nodes[j]) / (nodes[j + 1] - nodes[j])

    return g


def exact_cell(data: GridSignal, g, x0: float, x1: float) -> tuple:
    """The cell [x0, x1] of a grid signal in exact rationals: its width W,
    the mean and spread of the interpolant g over it, its count P of
    pieces between nodes, the largest |sample| M at the ends of the node
    intervals it meets, and the range D of g on it."""
    nodes = data.x().tolist()
    cuts = [x0, *(x for x in nodes if x0 < x < x1), x1]
    values = [g(x) for x in cuts]
    lo = min(max(bisect.bisect_right(nodes, x0) - 1, 0), len(nodes) - 2)
    hi = max(bisect.bisect_left(nodes, x1), lo + 1)
    M = Fraction(max(abs(data.samples[lo:hi + 1])))
    W = Fraction(x1) - Fraction(x0)
    if W == 0:
        return W, values[0], Fraction(0), 1, M, Fraction(0)
    first = second = Fraction(0)
    for lo, hi, g0, g1 in zip(cuts, cuts[1:], values, values[1:]):
        w = Fraction(hi) - Fraction(lo)
        first += w * (g0 + g1) / 2
        second += w * (g0 * g0 + g0 * g1 + g1 * g1) / 3
    mean = first / W
    return W, mean, second - W * mean * mean, len(cuts) - 1, M, max(values) - min(values)


U, T = Fraction(2) ** -53, Fraction(2) ** -1074


def moments_error(P, M, D) -> Fraction:
    """e = 16 u M + (P + 8) u D + 4 P t, the bound on a cell's mean that
    ``GridSignal.moments`` states (t the smallest float, for underflow)."""
    return 16 * U * M + (P + 8) * U * D + 4 * P * T


class TestExactGridMoments:
    @settings(max_examples=200)
    @given(data_on_cells(kinds=("grid",)))
    def test_the_moments_are_the_interpolants_within_the_stated_bound(self, case):
        # ``GridSignal.moments``: the mean within e and the spread within 3
        # W e (D + e) + 8 P t, on tiny cells far from 0 too.
        edges, data = case
        mean, spread = data.moments(edges)
        g = exact_interpolant(data)
        for x0, x1, m, q in zip(edges.tolist(), edges[1:].tolist(), mean.tolist(), spread.tolist()):
            W, mu, Q, P, M, D = exact_cell(data, g, x0, x1)
            e = moments_error(P, M, D)
            assert abs(Fraction(m) - mu) <= e
            assert abs(Fraction(q) - Q) <= 3 * W * e * (D + e) + 8 * P * T

    def test_a_grid_whose_nodes_coincide_is_rejected(self):
        # Six nodes on a domain of 4 ulps: the middle two are one float, at
        # which the interpolant would read one of the samples 8 and 0 and
        # never the other.  Five nodes on it are apart, and each is read.
        domain = (-1e9, -999999999.9999995)
        x = np.linspace(*domain, 6)
        assert x[2] == x[3] and np.unique(x).size == 5
        with pytest.raises(
            ConfigError,
            match=r"^the domain \[-1000000000.0, -999999999.9999995\] is too narrow for n = 6 nodes: "
            r".* so that nodes coincide in floats$",
        ):
            GridSignal(domain, [0, 0, 8, 0, 0, 0])
        data = GridSignal(domain, [0, 0, 8, 0, 0])
        assert np.all(np.diff(data.x()) > 0)
        assert data(data.x()).tolist() == [0, 0, 8, 0, 0]

    @pytest.mark.parametrize("offset", [0.0, 1e3, -1e6])
    @settings(max_examples=100)
    @given(case=data_on_cells(kinds=("grid",)), data=st.data())
    def test_the_fidelity_is_within_its_stated_bound(self, offset, case, data):
        # ``fidelity`` from the moments' bound: (lam / 2) sum (W e (2 |v -
        # mu| + e) + s) + (n + 5) u F, for data and plateaus moved by one
        # offset, so that the mean rounds at the offset's magnitude.
        edges, d = case
        edges = np.unique(edges)
        d = GridSignal(d.domain, d.samples + offset)
        n = edges.size - 1
        values = [v + offset for v in data.draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n))]
        u = PiecewiseConstant(d.domain, tuple(edges[1:-1].tolist()), tuple(values))
        lam = 3.0
        g = exact_interpolant(d)
        exact = bound = Fraction(0)
        plateaus = (u.domain[0], *u.breakpoints, u.domain[1])
        for x0, x1, v in zip(plateaus, plateaus[1:], u.values):
            W, mu, Q, P, M, D = exact_cell(d, g, x0, x1)
            e = moments_error(P, M, D)
            exact += W * (v - mu) ** 2 + Q
            bound += W * e * (2 * abs(v - mu) + e) + 3 * W * e * (D + e) + 8 * P * T
        F = fidelity(u, d, lam)
        lam2 = Fraction(lam) / 2
        assert abs(Fraction(F) - lam2 * exact) <= lam2 * bound + (len(u.values) + 5) * U * Fraction(F)


@st.composite
def plateaus_on_data(draw):
    """Data and cell edges as ``data_on_cells`` draws them, without repeated
    edges, one value per cell, each unlike its neighbours', and, in some
    draws for a grid signal, every k-th node added to the edges, so that
    nodes lie both on and between edges."""
    edges, data = draw(data_on_cells())
    edges = np.unique(edges)
    if isinstance(data, GridSignal) and draw(st.booleans()):
        edges = np.union1d(edges, data.x()[:: draw(st.integers(1, 3))])
    n = edges.size - 1
    values = draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n, unique=True))
    return edges, data, values


class TestCellMisfits:
    @settings(max_examples=300)
    @given(plateaus_on_data())
    def test_fidelity_adds_each_plateaus_cell_misfit_bit_for_bit(self, case):
        # Every kind: the fidelity of the step function whose plateaus are
        # the cells is (lam / 2) times the sum, left to right from 0, of w
        # (v - mean)^2 + spread over the cells' moments.
        edges, data, values = case
        u = PiecewiseConstant(data.domain, tuple(edges[1:-1].tolist()), tuple(values))
        moments = cell_by_cell_moments(data, edges)
        edges = edges.tolist()
        expected = [(x1 - x0) * ((v - m) * (v - m)) + q for x0, x1, v, (m, q) in zip(edges, edges[1:], values, moments)]
        assert fidelity(u, data, 3.0).hex() == (0.5 * 3.0 * sum(expected)).hex()
