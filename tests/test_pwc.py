"""Unit tests for piecewise-constant functions, energies, and helpers."""

import json
import math

import numpy as np
import pytest

from kwcseg.errors import ConfigError
from kwcseg.experiments import write_csv
from kwcseg.kernel import kwc_kernel, linear_kernel
from kwcseg.oracle import signal_problem
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

    @pytest.mark.parametrize("domain", [(0.0, 1.0), (-1.0, 2.0), (0.2, 0.3), (-3.0, -1.0), (1 / 6, 0.5), (0.0, 1 / 6)])
    @pytest.mark.parametrize("omega", [3.0 * math.pi, -3.0 * math.pi, 0.0, 1.0, 7.5, -0.2, 40.0])
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

    def test_quadrature_agrees_with_closed_form(self):
        rng = np.random.default_rng(23)
        for data in (LinearData((0, 1), 1.3, -0.2), SineData((0, 1))):
            for _ in range(10):
                u = random_pwc(rng)
                exact = fidelity(u, data, 3.0)
                quad = fidelity_by_quadrature(u, data, 3.0)
                assert quad == pytest.approx(exact, rel=1e-10, abs=1e-10)

    def test_energy_breakdown_sums(self):
        u = PiecewiseConstant((0, 1), (0.5,), (0.0, 1.0))
        e = energy(u, LinearData((0, 1)), kwc_kernel(1.0), 16 / 3)
        assert e.tv_k == pytest.approx(0.5)
        assert e.fidelity == pytest.approx(2.0 / 9.0)
        assert e.total == pytest.approx(e.tv_k + e.fidelity, abs=1e-15)
        assert e.total == pytest.approx(13.0 / 18.0, rel=1e-13)

    @pytest.mark.parametrize(
        "data", [PiecewiseConstant((0, 1), (0.5,), (0, 1)), LinearData((0, 1))], ids=["steps", "linear"]
    )
    def test_a_misfit_beyond_float_range_is_an_infinite_energy(self, data):
        # Step data squares its misfit with float **, which raises on
        # overflow; the energy is inf for it as for analytic data.
        e = energy(PiecewiseConstant((0, 1), (), (1e200,)), data, kwc_kernel(1.0), 1.0)
        assert e.fidelity == math.inf and e.total == math.inf


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
        # Midpoint integration of sampled data agrees with the closed form
        # once the underlying signal is itself piecewise constant on cells.
        n = 400
        x = np.linspace(0, 1, n)
        samples = np.where(x < 0.5, 0.0, 1.0)
        data = GridSignal((0.0, 1.0), samples)
        u = PiecewiseConstant((0, 1), (), (0.5,))
        val = fidelity(u, data, 2.0)
        assert val == pytest.approx(0.25, rel=1e-2)
