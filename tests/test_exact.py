"""Unit tests for closed-form energies, tie points, and jump-count bounds
on linear data."""

import decimal
import math
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kwcseg.exact import (
    EqualJumpVerdict,
    critical_lambda,
    equal_jump_verdict,
    jump_bounds,
    lambda_for_jump_count,
    optimal_jump_location,
    transition_lambda,
    uniform_step_energy,
    uniform_step_minimizer,
)
from kwcseg.kernel import derive_constants, kwc_kernel, linear_kernel, potts_kernel
from kwcseg.errors import ConfigError
from kwcseg.pwc import MAX_NODES, GridSignal, LinearData, PiecewiseConstant, SineData, energy

from proof_devices import dispersion, split_cost_derivative

LOG_UNIFORM = st.floats(math.log(0.05), math.log(20.0)).map(math.exp)


class TestUniformStepEnergy:
    def test_closed_form_per_unit_length(self):
        # With spacing d = L/m the per-unit-length energy is
        # 1/(d+1) + lam * d^2 / 24.
        for L in (0.5, 1.0, 2.0, 5.0):
            for m in (1, 2, 3, 7):
                for lam in (0.0, 1.0, 16 / 3, 40.0):
                    d = L / m
                    expected = 1.0 / (d + 1.0) + lam * d * d / 24.0
                    got = uniform_step_energy(L, m, lam)
                    assert got == pytest.approx(expected, rel=1e-13)

    def test_tie_value_at_critical_weight(self):
        assert uniform_step_energy(1, 1, 16 / 3) == pytest.approx(13 / 18, rel=1e-14)
        assert uniform_step_energy(1, 2, 16 / 3) == pytest.approx(13 / 18, rel=1e-14)

    def test_zero_weight_limit_is_one(self):
        assert uniform_step_energy(1, 10**6, 0.0) == pytest.approx(1.0, abs=1e-5)

    def test_matches_assembled_energy_on_grid(self):
        # The formula agrees with the generic energy of the assembled
        # minimizer to machine precision across a parameter grid.
        k = kwc_kernel(1.0)
        for L in (0.5, 1.0, 2.0, 3.0, 5.0):
            for m in (1, 2, 3, 4, 6):
                for lam in (0.5, 1.0, 16 / 3, 12.0, 40.0):
                    u = uniform_step_minimizer(L, m)
                    total = energy(u, LinearData((0.0, L)), k, lam).total
                    per_unit = uniform_step_energy(L, m, lam)
                    assert total == pytest.approx(L * per_unit, rel=1e-12)

    def test_unimodal_in_jump_count(self):
        # As a function of m the energy decreases to a single minimum and
        # rises afterwards (discrete convexity in the spacing).
        for lam in (2.0, 16 / 3, 30.0, 120.0):
            vals = [uniform_step_energy(1, m, lam) for m in range(1, 40)]
            diffs = np.sign(np.diff(vals))
            switches = np.count_nonzero(np.diff(diffs[diffs != 0]))
            assert switches <= 1

    def test_spacing_cost_is_convex(self):
        lam = 16 / 3
        d = np.linspace(0.05, 3.0, 200)
        f = 1.0 / (d + 1.0) + lam * d * d / 24.0
        second = np.diff(f, 2)
        assert np.all(second > 0)

    @pytest.mark.parametrize(
        "kernel, cost",
        [
            (potts_kernel(1.0), lambda d: 1.0),
            (potts_kernel(0.3), lambda d: 0.3),
            (linear_kernel(), lambda d: d),
            (kwc_kernel(2.0), lambda d: d / (1.0 + 2.0 * d)),
        ],
        ids=["potts", "potts_height_0.3", "linear", "kwc_kappa_2"],
    )
    def test_any_other_kernel_follows_the_ladder_formula(self, kernel, cost):
        # m jumps of size d = L/m cost m K(d); the m - 1 full plateaus and the
        # two half ones misfit by m d^3 / 12 in all, so E/L = K(d)/d + lam d^2 / 24.
        for L in (0.5, 1.0, 3.0):
            for m in (1, 2, 5):
                for lam in (0.0, 16 / 3, 40.0):
                    d = L / m
                    expected = cost(d) / d + lam * d * d / 24.0
                    assert uniform_step_energy(L, m, lam, kernel) == pytest.approx(expected, rel=1e-12)

    def test_a_potts_jump_that_underflows_to_zero_is_rejected(self):
        # L / m rounded to 0.0, so K(d) / d = height / 0.  L lies outside
        # the envelope; at its least L and most jumps, d = 2**-200.
        with pytest.raises(ConfigError, match=re.escape("L = 5e-324 is outside the magnitude envelope [2**-100, 2**100]")):
            uniform_step_energy(5e-324, 2, 1.0, potts_kernel(1.0))
        assert uniform_step_energy(2.0**-100, 2**100, 1.0, potts_kernel(1.0)) == 2.0**200 + 2.0**-400 / 24.0

    def test_jump_counts_above_their_caps_are_rejected(self):
        # m = 10**400 ended in an OverflowError (int too large to convert
        # to float), and the ladder had no cap at all.
        for call in (
            lambda m: transition_lambda(1.0, m),
            lambda m: lambda_for_jump_count(1.0, m),
            lambda m: uniform_step_energy(1.0, m, 1.0),
        ):
            with pytest.raises(ConfigError, match=f"jump count m = {10**400} exceeds the limit {2**100}"):
                call(10**400)
            with pytest.raises(ConfigError, match=f"exceeds the limit {2**100}"):
                call(2**100 + 1)
            assert 0 < call(2**100) < math.inf
        with pytest.raises(ConfigError, match=f"jump count m = {MAX_NODES + 1} exceeds the limit {MAX_NODES}"):
            uniform_step_minimizer(1.0, MAX_NODES + 1)
        assert uniform_step_minimizer(1.0, 1000).jump_count == 1000

    @pytest.mark.parametrize("kernel", [None, potts_kernel(1.0)], ids=["default", "potts"])
    @pytest.mark.parametrize("m", [0, -2, 1.5, 2.0], ids=["zero", "negative", "fraction", "float"])
    def test_ladder_size_must_be_a_positive_integer(self, kernel, m):
        with pytest.raises(ValueError, match="jump count m"):
            uniform_step_energy(1.0, m, 1.0, kernel)
        with pytest.raises(ValueError, match="jump count m"):
            uniform_step_minimizer(1.0, m)


class TestUniformStepMinimizer:
    def test_single_jump_structure(self):
        u = uniform_step_minimizer(1, 1)
        assert u.breakpoints == pytest.approx((0.5,))
        assert u.values == pytest.approx((0.0, 1.0))

    def test_two_jump_structure(self):
        u = uniform_step_minimizer(1, 2)
        assert u.breakpoints == pytest.approx((0.25, 0.75))
        assert u.values == pytest.approx((0.0, 0.5, 1.0))

    def test_equal_jumps_and_spacings(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            L = rng.uniform(0.3, 6.0)
            m = int(rng.integers(1, 9))
            u = uniform_step_minimizer(L, m)
            jumps = np.diff(u.values)
            np.testing.assert_allclose(jumps, jumps[0], rtol=1e-12)
            if m > 1:
                gaps = np.diff(u.breakpoints)
                np.testing.assert_allclose(gaps, L / m, rtol=1e-12)

    def test_breakpoints_at_plateau_midlevels(self):
        # Each jump sits where the ramp crosses the midpoint of the two
        # neighbouring plateau values: the stationarity condition for the
        # jump position.
        for L, m in ((1.0, 1), (1.0, 2), (2.0, 3), (5.0, 4)):
            u = uniform_step_minimizer(L, m)
            for i, b in enumerate(u.breakpoints):
                mid = (u.values[i] + u.values[i + 1]) / 2
                assert b == pytest.approx(mid, rel=1e-12)


class TestCriticalLambda:
    def test_unit_length_value(self):
        res = critical_lambda(1.0)
        assert res.lam == pytest.approx(16 / 3, rel=1e-15)
        assert res.tied_jump_counts == (1, 2)

    def test_closed_form_over_lengths(self):
        for L in (0.5, 1.0, 2.0, 5.0):
            res = critical_lambda(L)
            assert res.lam == pytest.approx(32 / (L * (L + 1) * (L + 2)), rel=1e-13)

    def test_tie_is_exact(self):
        for L in (0.5, 1.0, 2.0, 5.0):
            lam = critical_lambda(L).lam
            e1 = uniform_step_energy(L, 1, lam)
            e2 = uniform_step_energy(L, 2, lam)
            assert abs(e1 - e2) <= 1e-12

    def test_higher_counts_strictly_worse_at_tie(self):
        lam = critical_lambda(1.0).lam
        e1 = uniform_step_energy(1, 1, lam)
        for m in range(3, 21):
            assert uniform_step_energy(1, m, lam) > e1 + 1e-6

    def test_argmin_enumeration_matches_tie(self):
        lam = critical_lambda(1.0).lam
        vals = {m: uniform_step_energy(1, m, lam) for m in range(1, 30)}
        best = min(vals.values())
        winners = sorted(m for m, v in vals.items() if v <= best + 1e-12)
        assert winners == [1, 2]

    def test_json_dict(self):
        d = critical_lambda(1.0).to_json_dict()
        assert d["lambda"] == pytest.approx(16 / 3)
        assert d["tied_jump_counts"] == [1, 2]

    @settings(max_examples=200)
    @given(st.floats(-100.0, 100.0).map(lambda e: 2.0**e))
    def test_critical_weight_is_the_first_transition(self, L):
        # One formula for the 1-2 tie; 2^5 / (L (L+1) (L+2)) is the identity
        # it meets up to rounding, across the magnitude envelope.
        lam = critical_lambda(L).lam
        assert lam == transition_lambda(L, 1)
        assert lam == pytest.approx(32 / (L * (L + 1) * (L + 2)), rel=1e-15, abs=0)

    def test_transition_matches_critical_at_first_step(self):
        assert transition_lambda(1.0, 1) == pytest.approx(16 / 3, rel=1e-13)

    def test_transition_points_are_exact_ties(self):
        for L in (1.0, 2.0):
            for m in (1, 2, 3, 5):
                lam = transition_lambda(L, m)
                em = uniform_step_energy(L, m, lam)
                em1 = uniform_step_energy(L, m + 1, lam)
                assert abs(em - em1) <= 1e-12

    def test_lambda_for_jump_count_selects_target(self):
        for m in (2, 3, 4, 6):
            lam = lambda_for_jump_count(1.0, m)
            vals = {j: uniform_step_energy(1.0, j, lam) for j in range(1, 4 * m)}
            assert min(vals, key=vals.get) == m

    @pytest.mark.parametrize("L", [0.5, 1.0, 2.0, 5.0])
    def test_lambda_for_one_jump_makes_the_one_jump_ladder_strict(self, L):
        # Exact ladder energies 1/(d + 1) + lam d^2 / 24 at d = L/m, in rationals.
        lam = Fraction(lambda_for_jump_count(L, 1))

        def exact(m):
            d = Fraction(L) / m
            return 1 / (d + 1) + lam * d * d / 24

        assert all(exact(1) < exact(m) for m in range(2, 200))
        assert all(uniform_step_energy(L, 1, float(lam)) < uniform_step_energy(L, m, float(lam)) for m in range(2, 200))

    def test_weight_ordering_of_transitions(self):
        lams = [transition_lambda(1.0, m) for m in range(1, 8)]
        assert all(b > a for a, b in zip(lams, lams[1:]))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_length_or_weight_is_rejected(self, bad):
        kernels = (None, potts_kernel(1.0))
        calls = [
            lambda: critical_lambda(bad),
            lambda: transition_lambda(bad, 2),
            lambda: uniform_step_minimizer(bad, 2),
            *(lambda k=k: uniform_step_energy(bad, 2, 1.0, k) for k in kernels),
            *(lambda k=k: uniform_step_energy(1.0, 2, bad, k) for k in kernels),
        ]
        for call in calls:
            with pytest.raises(ValueError):
                call()

    def test_a_weight_beyond_float_range_is_rejected(self):
        # 24 / ((d1 + d2)(1 + d1)(1 + d2)) with d1 = L / m overflowed for a
        # subnormal L, and at m = 3 both L / m and L / (m + 1) rounded to
        # 0.0.  L lies outside the envelope.
        for m in (1, 3):
            with pytest.raises(ConfigError, match=re.escape("L = 5e-324 is outside the magnitude envelope")):
                transition_lambda(5e-324, m)

    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda: critical_lambda(1e308), "L = 1e+308"),
            (lambda: critical_lambda(1e110), "L = 1e+110"),
            (lambda: transition_lambda(1e110, 3), "L = 1e+110"),
            (lambda: lambda_for_jump_count(1e110, 2), "L = 1e+110"),
            # Each transition weight was about 1e-179, so their product underflowed.
            (lambda: lambda_for_jump_count(1e60, 2), "L = 1e+60"),
            (lambda: lambda_for_jump_count(1e-200, 2), "L = 1e-200"),
        ],
        ids=["critical_1e308", "critical_1e110", "transition_1e110", "weight_1e110", "weight_1e60", "weight_1e-200"],
    )
    def test_a_weight_that_rounds_to_zero_or_overflows_is_rejected(self, call, name):
        # Each weight rounded to 0.0 or overflowed; each L lies outside the
        # envelope, inside which every weight is a float above 0.
        with pytest.raises(ConfigError, match=f"^{re.escape(name)} is outside the magnitude envelope"):
            call()
        for L in (2.0**-100, 2.0**100):
            for weight in (critical_lambda(L).lam, transition_lambda(L, 3), lambda_for_jump_count(L, 2)):
                assert 0 < weight < math.inf


class TestOptimalJumpLocation:
    def test_ramp_midpoint(self):
        assert optimal_jump_location(LinearData((0, 1)), 0.0, 1.0) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_shifted_segment(self):
        assert optimal_jump_location(LinearData((0, 1)), 0.2, 0.8) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_window_below_the_float_spacing_ends_at_adjacent_floats(self):
        # 1e-12 of a window of 2^-40 lies far below the float spacing at 1
        # (2^-52), so the stop at adjacent floats ends the bisection.
        alpha, beta = 1.0, 1.0 + 2.0**-40
        loc = optimal_jump_location(LinearData((0, 2)), alpha, beta)
        mid = 1.0 + 2.0**-41
        assert math.nextafter(loc, 0.0) < mid <= loc
        assert alpha < loc < beta

    def test_location_tolerance_is_no_argument(self):
        with pytest.raises(TypeError, match="tol"):
            optimal_jump_location(LinearData((0, 1)), 0.0, 1.0, tol=1e-12)

    def test_constant_data_degenerates_to_left_end(self):
        loc = optimal_jump_location(LinearData((0, 1), 0.0, 0.5), 0.2, 0.9)
        assert loc == pytest.approx(0.2, abs=1e-12)

    def test_crosses_endpoint_midlevel(self):
        # For monotone data the jump goes where the data crosses the
        # midpoint of its endpoint values.
        data = SineData((0.0, 1.0))
        rng = np.random.default_rng(33)
        for _ in range(20):
            alpha = rng.uniform(0.0, 0.12)
            beta = rng.uniform(alpha + 0.02, 1 / 6)  # rising stretch of the wave
            star = optimal_jump_location(data, alpha, beta)
            mid = (math.sin(3 * math.pi * alpha) + math.sin(3 * math.pi * beta)) / 2
            assert math.sin(3 * math.pi * star) == pytest.approx(mid, abs=1e-9)
            assert alpha <= star <= beta


    def test_decreasing_data(self):
        # g = 1 - 2x on (0.1, 0.7) runs from 0.8 to -0.4; it crosses the mid-level 0.2 at 0.4.
        loc = optimal_jump_location(LinearData((0, 1), slope=-2.0, intercept=1.0), 0.1, 0.7)
        assert loc == pytest.approx(0.4, abs=1e-12)
        # The wave falls from 1 to -1 on (1/6, 1/2); it crosses 0 at 1/3.
        assert optimal_jump_location(SineData((0.0, 1.0)), 1 / 6, 1 / 2) == pytest.approx(1 / 3, abs=1e-12)

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["increasing", "decreasing"])
    def test_sampled_data_crosses_its_interpolated_mid_level(self, sign):
        xs = np.linspace(0.0, 1.0, 11)
        ys = sign * xs**2
        data = GridSignal((0.0, 1.0), ys)
        alpha, beta = 0.05, 0.95
        mid = 0.5 * (data(alpha) + data(beta))
        # The inverse of the piecewise-linear interpolant, read off increasing samples.
        expected = np.interp(sign * mid, sign * ys, xs)
        assert optimal_jump_location(data, alpha, beta) == pytest.approx(expected, abs=1e-12)

    def test_sampled_data_that_is_not_monotone_is_rejected(self):
        wave = GridSignal((0.0, 1.0), np.sin(3 * np.pi * np.linspace(0.0, 1.0, 31)))
        with pytest.raises(ConfigError, match="not monotone"):
            optimal_jump_location(wave, 0.0, 0.5)
        # The rising stretch alone is monotone.
        assert 0.0 < optimal_jump_location(wave, 0.0, 1 / 6) < 1 / 6

    @pytest.mark.parametrize("scale", [1.0, 1e-13, 1e13], ids=["unit", "tiny", "huge"])
    def test_the_monotone_test_is_relative_to_the_samples(self, scale):
        zigzag = GridSignal((0.0, 1.0), scale * np.array([0.0, 1.0, 0.5, 2.0]))
        with pytest.raises(ConfigError, match="not monotone"):
            optimal_jump_location(zigzag, 0.0, 1.0)

    @pytest.mark.parametrize("width", [3.0, 3e-12, 3e12], ids=["unit", "tiny", "huge"])
    def test_the_default_tolerance_is_relative_to_the_window(self, width):
        # Linear samples cross their mid-level on [width/3, 2 width/3] at width/2.
        ramp = GridSignal((0.0, width), np.array([0.0, 1.0, 2.0, 3.0]))
        loc = optimal_jump_location(ramp, width / 3, 2 * width / 3)
        assert loc == pytest.approx(width / 2, rel=1e-11, abs=0)

    @pytest.mark.parametrize("width", [3.0, 3e-12, 3e12], ids=["unit", "tiny", "huge"])
    def test_the_node_window_is_relative_to_the_spacing(self, width):
        # The samples rise on [width/3, width]; the fall before it lies outside.
        data = GridSignal((0.0, width), np.array([5.0, 0.0, 1.0, 2.0]))
        loc = optimal_jump_location(data, width / 3, width)
        assert loc == pytest.approx(2 * width / 3, rel=1e-11, abs=0)


class TestEqualJumpVerdict:
    def test_forced_across_parameter_grid(self):
        for c in (0.5, 1.0, 2.0):
            for lam in (1.0, 16 / 3, 50.0):
                rep = equal_jump_verdict(kwc_kernel(1.0), c, lam)
                assert rep.verdict is EqualJumpVerdict.FORCED
                assert rep.sign_pattern in ("+", "-", "+-")

    def test_forced_at_large_weight(self):
        rep = equal_jump_verdict(kwc_kernel(1.0), 1.0, 1000.0)
        assert rep.verdict is EqualJumpVerdict.FORCED
        assert rep.sign_pattern == "+"

    def test_degenerate_kernel_is_inconclusive(self):
        # A linear cost with no fidelity pressure leaves all splits tied,
        # so no equal-jump conclusion can be drawn.
        rep = equal_jump_verdict(linear_kernel(), 1.0, 0.0)
        assert rep.verdict is EqualJumpVerdict.INCONCLUSIVE

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            equal_jump_verdict(kwc_kernel(1.0), 0.0, 1.0)
        with pytest.raises(ValueError):
            equal_jump_verdict(kwc_kernel(1.0), 1.0, -1.0)

    @pytest.mark.parametrize(
        "c, lam", [(math.inf, 1.0), (math.nan, 1.0), (1.0, math.inf), (1.0, math.nan)]
    )
    def test_rejects_non_finite_arguments(self, c, lam):
        with pytest.raises(ValueError, match="finite"):
            equal_jump_verdict(kwc_kernel(1.0), c, lam)

    @pytest.mark.parametrize("kappa, c", [(1.0, 1e308), (1e200, 1e200)])
    def test_terms_out_of_float_range_are_rejected(self, kappa, c):
        # (1 + kappa c) ** 3 raised OverflowError at c = 1e308.  At kappa = c
        # = 1e200, kappa c was inf, so phi(0) was 0.0 and phi(c) inf / inf =
        # nan.  Each lies outside the envelope, which names c or kappa; at
        # its edge, kappa = c = 2**100, phi(c) ~ 1 / c gives "+".
        name = f"c = {c!r}" if kappa == 1.0 else f"kappa = {kappa!r}"
        with pytest.raises(ConfigError, match=re.escape(f"{name} is outside the magnitude envelope")):
            equal_jump_verdict(kwc_kernel(kappa), c, 1.0)
        assert equal_jump_verdict(kwc_kernel(2.0**100), 2.0**100, 1.0).sign_pattern == "+"

    def test_flat_and_linear_kernels(self):
        # Both split costs are constant for |z| < c: any fidelity weight
        # makes E' = (lam / 2) z positive, and lam = 0 ties every split.
        for k in (linear_kernel(), potts_kernel(1.0)):
            assert equal_jump_verdict(k, 1.0, 16 / 3).sign_pattern == "+"
            rep = equal_jump_verdict(k, 1.0, 0.0)
            assert rep.sign_pattern == ""
            assert rep.verdict is EqualJumpVerdict.INCONCLUSIVE

    def test_thresholds_of_the_rational_kernel(self):
        # phi(0) = 4 kappa / (1 + kappa c)^3 and phi(c) = 4 kappa (1 + kappa c) / (1 + 2 kappa c)^2;
        # kappa = c = 1 gives 1/2 and 8/9, so lam = 1 and lam = 16/9 sit on the edges.
        k = kwc_kernel(1.0)
        assert equal_jump_verdict(k, 1.0, 1.0).sign_pattern == "-"
        assert equal_jump_verdict(k, 1.0, 1.5).sign_pattern == "+-"
        assert equal_jump_verdict(k, 1.0, 16 / 9).sign_pattern == "+"
        assert equal_jump_verdict(k, 1.0, 0.0).sign_pattern == "-"
        assert set(equal_jump_verdict(k, 1.0, 1.5).to_json_dict()) == {"verdict", "sign_pattern"}

    @settings(max_examples=300)
    @given(
        kind=st.sampled_from(("kwc", "linear", "potts")),
        p=LOG_UNIFORM,
        c=LOG_UNIFORM,
        lam=st.one_of(st.just(0.0), st.floats(-5.0, 8.0).map(math.exp)),
    )
    @example(kind="kwc", p=1.0, c=math.exp(1e-14), lam=1.0)
    def test_sign_pattern_matches_a_dense_scan(self, kind, p, c, lam):
        # Brute force: the compressed signs of E'(z) on a dense grid of (0, c),
        # skipping samples whose |E'| is within 1e-10 of the sizes of its two
        # terms, where rounding may decide the sign.  A sign region can be too
        # thin for any float sample to resolve: at kappa = lam = 1 and
        # c = exp(1e-14), E' > 0 only below z* = 1.7e-7, by at most 1e-21.  So
        # the scan also takes exact signs on both sides of the crossing z*
        # (``exact_kwc_signs``).
        kernel = {"kwc": kwc_kernel, "linear": lambda _: linear_kernel(), "potts": potts_kernel}[kind](p)
        z = np.concatenate((c * np.linspace(0.0, 1.0, 4001)[1:-1], c * np.geomspace(1e-6, 1.0, 2001)[:-1]))
        z = z[(z > 0) & (z < c)]
        slope, split = 0.5 * lam * z, split_cost_derivative(kernel, c, z)
        deriv, size = slope + split, np.abs(slope) + np.abs(split)
        samples = [(x, d > 0) for x, d, s in zip(z, deriv, size) if abs(d) > 1e-10 * s]
        if kind == "kwc" and lam > 0:
            samples += exact_kwc_signs(p, c, lam)
        signs = [("+" if positive else "-") for _, positive in sorted(samples)]
        pattern = "".join(s for i, s in enumerate(signs) if i == 0 or s != signs[i - 1])
        rep = equal_jump_verdict(kernel, c, lam)
        assert rep.sign_pattern == pattern
        assert rep.forced == (pattern in ("+", "-", "+-"))


def exact_kwc_signs(kappa, c, lam):
    """[(z, E'(z) > 0)] at z*/2 and (z* + c)/2 for the rational kernel, in
    exact arithmetic on the float inputs, when the crossing z* lies in (0, c).

    E'(z) / z = lam / 2 - 4 c' / (kappa^2 (c'^2 - z^2)^2) with c' = c + 1/kappa,
    so z*^2 = c'^2 - sqrt(8 c' / lam) / kappa, here to 60 digits.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        k, cd = Decimal(kappa), Decimal(c)
        cp = cd + 1 / k
        t = cp * cp - (8 * cp / Decimal(lam)).sqrt() / k
        if not 0 < t < cd * cd:
            return []
        star = t.sqrt()
        points = (float(star / 2), float((star + cd) / 2))
    k, cp = Fraction(kappa), Fraction(c) + 1 / Fraction(kappa)
    return [(z, Fraction(lam) / 2 > 4 * cp / (k * k * (cp * cp - Fraction(z) ** 2) ** 2)) for z in points]


class TestJumpBounds:
    def test_reference_counts(self):
        rep = jump_bounds(kwc_kernel(1.0), 0.0, 1.0, 16 / 3, mass_cap=1.0)
        assert rep.jumps_monotone_data == 5
        assert rep.jumps_any_data == 11
        assert rep.failure is None
        assert rep.restricted_to_step_functions is False

    def test_zero_weight_allows_single_jump_only(self):
        rep = jump_bounds(kwc_kernel(1.0), 0.0, 1.0, 0.0, mass_cap=1.0)
        assert rep.jumps_any_data == 1
        assert rep.jumps_monotone_data == 1

    def test_bounds_monotone_in_weight(self):
        prev_any, prev_mono = 0, 0
        for lam in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0):
            rep = jump_bounds(kwc_kernel(1.0), 0.0, 1.0, lam, mass_cap=1.0)
            assert rep.jumps_any_data >= prev_any
            assert rep.jumps_monotone_data >= prev_mono
            assert rep.jumps_monotone_data <= rep.jumps_any_data
            prev_any, prev_mono = rep.jumps_any_data, rep.jumps_monotone_data

    @pytest.mark.parametrize("kappa", [2e4, 1e5])
    def test_stiff_rational_kernel_bound_is_not_restricted(self, kappa):
        rep = jump_bounds(kwc_kernel(kappa), 0.0, 1.0, 5.0, mass_cap=1.0)
        assert rep.restricted_to_step_functions is False

    def test_flat_kernel_bound_is_class_restricted(self):
        rep = jump_bounds(potts_kernel(1.0), 0.0, 1.0, 16 / 3, mass_cap=1.0)
        assert rep.restricted_to_step_functions is True
        assert rep.jumps_any_data >= rep.jumps_monotone_data

    def test_linear_kernel_gets_no_bounds_and_says_why(self):
        # K(a) + K(b) = K(a + b): splitting a jump gains nothing, so there is no split gain.
        rep = jump_bounds(linear_kernel(), 0.0, 1.0, 16 / 3, mass_cap=1.0)
        assert (rep.jumps_any_data, rep.jumps_monotone_data, rep.constants) == (None, None, None)
        assert "no positive split gain" in rep.failure
        assert rep.to_json_dict()["failure"] == rep.failure
        assert "constants" not in rep.to_json_dict()

    def test_monotone_bound_scales_with_oscillation(self):
        small = jump_bounds(kwc_kernel(1.0), 0.0, 1.0, 10.0, mass_cap=0.5)
        large = jump_bounds(kwc_kernel(1.0), 0.0, 1.0, 10.0, mass_cap=2.0)
        assert large.jumps_monotone_data >= small.jumps_monotone_data


    def test_tiny_split_gain_still_gives_bounds(self):
        # kappa = 1, M = 3e6: the exact gain 2/((1 + M/2)(1 + M)) is about 4.4e-13.
        M = 3e6
        gain = 2.0 / ((1.0 + M / 2.0) * (1.0 + M))
        rep = jump_bounds(kwc_kernel(1.0), 0.0, 1.0, 1.0, mass_cap=M)
        assert rep.failure is None
        assert rep.constants.split_gain == pytest.approx(gain, rel=1e-15)
        assert isinstance(rep.jumps_monotone_data, int)
        assert isinstance(rep.jumps_any_data, int)
        # floor(lam (b - a) / (2 gain)) + 1, up to the roundoff guard of the floor.
        assert rep.jumps_monotone_data == pytest.approx(1.0 / (2.0 * gain), rel=1e-11)
        assert rep.jumps_monotone_data <= rep.jumps_any_data


    def test_huge_ratio_bound_is_floor_plus_one(self):
        # r = lam / (2 gain) = (1 + M/2)(1 + M) / 4 = 1125001125000.25 for kappa = 1, M = 3e6.
        rep = jump_bounds(kwc_kernel(1.0), 0.0, 1.0, 1.0, mass_cap=3e6)
        assert rep.jumps_monotone_data == 1125001125001

    def test_integer_ratios_snap_up_and_others_do_not(self):
        # On (0, 0.1), lam = 2 k gain / 0.1 makes 0.1 lam / (2 gain) = k up to
        # roundoff, which lands below k for some k (k = 7 gives 6.999999999999999).
        gain = derive_constants(kwc_kernel(1.0), 1.0).split_gain
        for k in range(1, 2001):
            lam = k * 2.0 * gain / 0.1
            rep = jump_bounds(kwc_kernel(1.0), 0.0, 0.1, lam, mass_cap=1.0)
            assert rep.jumps_monotone_data == k + 1
            below = jump_bounds(kwc_kernel(1.0), 0.0, 0.1, lam * (1.0 - 1e-9), mass_cap=1.0)
            assert below.jumps_monotone_data == k


class TestSplitPenaltyLowerBound:
    def test_two_jump_competitors_pay_for_dispersion(self):
        # Splitting the single optimal jump of a unit ramp into two jumps
        # costs at least a dispersion-proportional penalty whenever the
        # pairwise gain dominates the fidelity advantage rate.
        k = kwc_kernel(1.0)
        lam, rho = 1.0, 1.0
        gain = derive_constants(k, rho).split_gain
        margin = gain - lam / 2
        assert margin > 0
        g = LinearData((0.0, 1.0))
        u0 = PiecewiseConstant((0.0, 1.0), (0.5,), (0.0, 1.0))
        e0 = energy(u0, g, k, lam).total
        rng = np.random.default_rng(32)
        for delta in np.linspace(0.1, 0.9, 9):
            for _ in range(10):
                p = np.sort(rng.uniform(0.05, 0.95, size=2))
                if p[1] - p[0] < 1e-3:
                    continue
                v = PiecewiseConstant((0.0, 1.0), tuple(p), (0.0, delta, 1.0))
                ev = energy(v, g, k, lam).total
                floor = (margin / 2) * dispersion(v, rho) * rho**2
                assert ev - e0 >= floor - 1e-12


def random_steps(rng, domain, jumps):
    """A step function on ``domain`` with up to ``jumps`` jumps at seeded places and heights."""
    a, b = domain
    breakpoints = np.unique(rng.uniform(a, b, size=rng.integers(0, jumps + 1)))
    return PiecewiseConstant(domain, tuple(breakpoints), tuple(rng.uniform(-2.0, 2.0, size=breakpoints.size + 1)))


def scaled(u, scale):
    """The step function u(x / scale) on the domain scaled by ``scale``."""
    return PiecewiseConstant(tuple(scale * x for x in u.domain), tuple(scale * x for x in u.breakpoints), u.values)


class TestMetamorphic:
    """The domain scaled by 4 or 1/4 with lam scaled inversely.  Powers of
    two scale floats exactly, so the closed forms must give the same
    results bit for bit, as the oracle does (tests/test_oracle.py)."""

    @pytest.mark.parametrize("scale", [4.0, 0.25])
    @pytest.mark.parametrize("kernel", [kwc_kernel(1.0), linear_kernel(), potts_kernel(0.3)], ids=["kwc", "linear", "potts"])
    def test_jump_bounds_keep_their_counts(self, kernel, scale):
        rng = np.random.default_rng(17)
        for _ in range(300):
            a = rng.uniform(-10.0, 10.0)
            b = a + rng.uniform(0.01, 10.0)
            lam, mass_cap = rng.uniform(0.0, 500.0), rng.uniform(0.1, 5.0)
            base = jump_bounds(kernel, a, b, lam, mass_cap)
            image = jump_bounds(kernel, scale * a, scale * b, lam / scale, mass_cap)
            assert (image.jumps_monotone_data, image.jumps_any_data) == (base.jumps_monotone_data, base.jumps_any_data)

    @pytest.mark.parametrize("scale", [4.0, 0.25])
    def test_step_function_energy_is_bit_equal(self, scale):
        rng = np.random.default_rng(18)
        kernel = kwc_kernel(1.0)
        for _ in range(300):
            a = rng.uniform(-5.0, 5.0)
            domain = (a, a + rng.uniform(0.1, 5.0))
            u, lam = random_steps(rng, domain, 6), rng.uniform(0.0, 200.0)
            image = scaled(u, scale)
            slope, intercept = rng.uniform(-3.0, 3.0), rng.uniform(-1.0, 1.0)
            ramp = LinearData(domain, slope, intercept)
            ramp_image = LinearData(image.domain, slope / scale, intercept)
            assert energy(image, ramp_image, kernel, lam / scale) == energy(u, ramp, kernel, lam)
            steps = random_steps(rng, domain, 4)
            assert energy(image, scaled(steps, scale), kernel, lam / scale) == energy(u, steps, kernel, lam)
