"""Unit tests for jump-cost kernels, their structural conditions, and split costs."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kwcseg.errors import LARGEST, SMALLEST, ConfigError
from kwcseg.kernel import (
    VALID_KINDS,
    JumpKernel,
    KernelConstants,
    check_conditions,
    derive_constants,
    kwc_kernel,
    linear_kernel,
    potts_kernel,
)

from proof_devices import split_cost, split_cost_derivative


class TestKwcKernelValues:
    def test_reference_points(self):
        k = kwc_kernel(1.0)
        assert k.eval(0.0) == 0.0
        assert k.eval(1.0) == pytest.approx(0.5, abs=1e-15)
        assert k.eval(3.0) == pytest.approx(0.75, abs=1e-15)

    def test_closed_form_matches_generic_kappa(self):
        rng = np.random.default_rng(11)
        for kappa in (0.5, 1.0, 2.0):
            k = kwc_kernel(kappa)
            s = rng.uniform(0.0, 10.0, size=200)
            expected = s / (1.0 + kappa * s)
            np.testing.assert_allclose(k.eval(s), expected, rtol=0, atol=1e-14)

    def test_bounded_below_inverse_kappa(self):
        for kappa in (0.5, 1.0, 2.0):
            k = kwc_kernel(kappa)
            s = np.linspace(0.0, 1e6, 1000)
            assert np.all(k.eval(s) < 1.0 / kappa + 1e-12)

    def test_monotone_nondecreasing(self):
        rng = np.random.default_rng(12)
        k = kwc_kernel(1.3)
        s = np.sort(rng.uniform(0.0, 20.0, size=500))
        vals = k.eval(s)
        assert np.all(np.diff(vals) >= -1e-15)

    @pytest.mark.parametrize("kappa", [1e300, 1.7e308])
    def test_jumps_whose_kappa_rho_overflows_cost_about_one_over_kappa(self, kappa):
        # kappa rho overflowed at such a kappa, which lies outside the
        # envelope: one ConfigError that names it.  At the envelope's
        # largest kappa and the largest jump between two levels kappa rho
        # stays finite, so K is rho / (1 + kappa rho) with no warning.
        with pytest.raises(ConfigError, match=re.escape(f"kappa = {kappa!r} is outside the magnitude envelope [2**-100")):
            kwc_kernel(kappa)
        kappa = 2.0**100
        k = kwc_kernel(kappa)
        s = np.array([0.0, 1.0, 2e10, 2.0**202])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = k.eval(s)
            units = [k.unit_cost(rho) for rho in s[1:]]
        assert k.eval(2e10) == vals[2] and k.eval(0.0) == 0.0
        assert vals[1] == 1.0 / (1.0 + kappa) and np.all(np.diff(vals) >= 0)
        np.testing.assert_allclose(vals[1:], 1.0 / kappa, rtol=1e-10, atol=0)
        assert units == [1 / (1 + kappa * rho) for rho in s[1:]] and units[-1] <= units[0]

    def test_overflow_leaves_every_other_cost_bit_for_bit(self):
        s = np.random.default_rng(13).uniform(0.0, 1e6, size=1000)
        for kappa in (0.5, 1.0, 2.0):
            assert np.array_equal(kwc_kernel(kappa).eval(s), s / (1.0 + s * kappa))
            assert [kwc_kernel(kappa).unit_cost(r) for r in s[:50]] == [1 / (1 + kappa * r) for r in s[:50]]

    def test_vanishing_slope_gap_near_zero(self):
        # |K(r)/r - 1| <= kappa * r: the per-unit cost approaches the unit
        # slope at small jumps at a linear rate.
        for kappa in (0.5, 1.0, 2.0):
            k = kwc_kernel(kappa)
            for r in (1e-1, 1e-3, 1e-6):
                assert abs(k.eval(r) / r - 1.0) <= kappa * r + 1e-15

    def test_kernel_is_frozen_dataclass(self):
        k = kwc_kernel(1.0)
        with pytest.raises(Exception):
            k.kappa = 2.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigError):
            kwc_kernel(0.0)
        with pytest.raises(ConfigError):
            kwc_kernel(-1.0)
        with pytest.raises(ConfigError):
            potts_kernel(0.0)
        with pytest.raises(ConfigError):
            JumpKernel(kind="mystery")
        for bad in (math.inf, math.nan):
            with pytest.raises(ConfigError):
                kwc_kernel(bad)
            with pytest.raises(ConfigError):
                potts_kernel(bad)


@pytest.mark.parametrize("kernel", [kwc_kernel(1.0), linear_kernel(), potts_kernel(1.0)], ids=VALID_KINDS)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0, -5e-324])
def test_eval_rejects_a_jump_size_that_is_not_finite_and_non_negative(kernel, bad):
    # One ConfigError and no warning, for a scalar and for an array that
    # holds the size among good ones; the largest finite jump between two
    # levels of the envelope still has a cost.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rho in (bad, np.array([0.0, 0.5, bad, 2.0])):
            with pytest.raises(ConfigError, match="^jump size must be finite and non-negative$"):
                kernel.eval(rho)
        assert kernel.eval(np.array([0.0, 2.0**101])).tolist() == [0.0, kernel.eval(2.0**101)]


class TestDerivedConstants:
    def test_values_at_mass_cap_two(self):
        c = derive_constants(kwc_kernel(1.0), 2.0)
        assert c.split_gain == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert c.linear_floor == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert c.bound_rate == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_values_at_mass_cap_one(self):
        c = derive_constants(kwc_kernel(1.0), 1.0)
        assert c.split_gain == pytest.approx(2.0 / 3.0, abs=1e-3)
        assert c.linear_floor == pytest.approx(0.5, abs=1e-12)
        assert c.bound_rate == pytest.approx(0.5, abs=1e-3)

    def test_bound_rate_combines_components_exactly(self):
        for cap in (0.5, 1.0, 2.0, 4.0):
            c = derive_constants(kwc_kernel(1.0), cap)
            assert c.bound_rate == min(c.linear_floor / cap, c.split_gain)

    def test_split_gain_attained_on_diagonal(self):
        # For this kernel family the worst split of the cap is the even one:
        # (2 K(1) - K(2)) / 1 = 2 kappa / ((1 + kappa)(1 + 2 kappa)) at M = 2.
        for kappa in (0.5, 1.0, 2.0):
            k = kwc_kernel(kappa)
            c = derive_constants(k, 2.0)
            assert c.split_gain == pytest.approx(2 * k.eval(1.0) - k.eval(2.0), abs=1e-15)
            assert c.split_gain == pytest.approx(2 * kappa / ((1 + kappa) * (1 + 2 * kappa)), abs=1e-15)

    def test_potts_values(self):
        c = derive_constants(potts_kernel(3.0), 2.0)
        assert c.split_gain == 3.0
        assert c.linear_floor == 1.5
        assert c.bound_rate == 0.75

    @pytest.mark.parametrize("cap", [0.0, -1.0, math.inf, math.nan])
    def test_mass_cap_must_be_positive_and_finite(self, cap):
        with pytest.raises(ValueError):
            derive_constants(kwc_kernel(1.0), cap)
        with pytest.raises(ValueError):
            check_conditions(kwc_kernel(1.0), cap)

    def test_linear_floor_uses_cap_endpoint(self):
        k = kwc_kernel(1.0)
        for cap in (0.5, 1.0, 3.0):
            c = derive_constants(k, cap)
            assert c.linear_floor == pytest.approx(k.eval(cap) / cap, abs=1e-12)


# Log-uniform over the magnitude envelope [2**-100, 2**100].
ENVELOPE = st.floats(math.log2(SMALLEST), math.log2(LARGEST)).map(lambda e: 2.0**e)


@st.composite
def kernels_and_caps(draw):
    kind = draw(st.sampled_from(["kwc", "potts"]))
    param = draw(st.floats(0.05, 20.0))
    kernel = kwc_kernel(param) if kind == "kwc" else potts_kernel(param)
    return kernel, draw(st.floats(0.05, 20.0)), draw(st.integers(0, 2**32 - 1))


class TestClosedFormConstants:
    @settings(max_examples=200)
    @given(kernels_and_caps())
    def test_split_gain_is_the_infimum(self, case):
        kernel, cap, seed = case
        gain = derive_constants(kernel, cap).split_gain
        rng = np.random.default_rng(seed)
        total = cap * rng.uniform(1e-3, 1.0, size=1000)
        r1 = total * rng.uniform(1e-3, 1.0 - 1e-3, size=1000)
        r2 = total - r1
        ratio = (kernel.eval(r1) + kernel.eval(r2) - kernel.eval(r1 + r2)) / (r1 * r2)
        assert np.all(ratio >= gain * (1 - 1e-12))
        half = cap / 2
        at_even_split = (2 * kernel.eval(half) - kernel.eval(cap)) / (half * half)
        assert at_even_split == pytest.approx(gain, rel=1e-12)

    @settings(max_examples=200)
    @given(kernels_and_caps())
    def test_linear_floor_is_the_infimum(self, case):
        kernel, cap, seed = case
        c = derive_constants(kernel, cap)
        assert c.linear_floor == pytest.approx(kernel.eval(cap) / cap, rel=1e-12)
        rho = cap * np.random.default_rng(seed).uniform(1e-6, 1.0, size=1000)
        assert np.all(kernel.eval(rho) / rho >= c.linear_floor * (1 - 1e-12))
        assert c.bound_rate == min(c.linear_floor / cap, c.split_gain)

    @settings(max_examples=50)
    @given(ENVELOPE)
    def test_linear_kernel_has_no_gain(self, cap):
        # The record of every kernel: no split gain and so no bound rate.
        assert derive_constants(linear_kernel(), cap) == KernelConstants(cap, None, 1.0, None)
        assert check_conditions(linear_kernel(), cap).split_gain is None

    @settings(max_examples=100)
    @given(st.sampled_from(VALID_KINDS), ENVELOPE, ENVELOPE)
    def test_the_report_carries_the_constants_bit_for_bit(self, kind, param, cap):
        kernel = JumpKernel(kind, kappa=param, height=param)
        c, rep = derive_constants(kernel, cap), check_conditions(kernel, cap)
        assert (rep.mass_cap, rep.split_gain, rep.linear_floor) == (c.mass_cap, c.split_gain, c.linear_floor)
        assert rep.strengthened_subadditive is (c.split_gain is not None) is (kind != "linear")


def _dense_verdicts(kernel, cap):
    """The sampled checks the condition report once ran, as a reference:
    a 2001-point monotonicity grid and the split ratio on a 400 x 400 pair
    grid below the cap."""
    vals = kernel.eval(np.linspace(0.0, cap, 2001))
    rho = cap * np.arange(1, 401) / 400
    r1, r2 = rho[:, None], rho[None, :]
    total = r1 + r2
    ratio = (kernel.eval(r1) + kernel.eval(r2) - kernel.eval(total)) / (r1 * r2)
    ratio_min = ratio[total <= cap * (1 + 1e-12)].min()
    return {
        "monotone": bool(vals[0] == 0.0 and np.all(np.diff(vals) >= -1e-12)),
        "subadditive": bool(ratio_min >= -1e-10),
        "strengthened_subadditive": bool(ratio_min > 0),
        "linear_floor_positive": bool(np.min(kernel.eval(rho) / rho) > 0),
    }


LOG_UNIFORM = st.floats(math.log(0.05), math.log(20.0)).map(math.exp)


class TestConditionsByKind:
    @settings(max_examples=100)
    @given(st.sampled_from(["kwc", "linear", "potts"]), LOG_UNIFORM, LOG_UNIFORM)
    def test_kind_verdicts_match_the_dense_checks(self, kind, param, cap):
        kernel = JumpKernel(kind, kappa=param, height=param)
        rep = check_conditions(kernel, cap)
        for name, verdict in _dense_verdicts(kernel, cap).items():
            assert getattr(rep, name) is verdict, name
        assert rep.unit_slope_at_zero is (kind != "potts")

    @pytest.mark.parametrize(
        "kind, param, cap, name",
        [
            ("kwc", 1e200, 1.0, "kappa"),
            ("kwc", 1e300, 1.0, "kappa"),
            ("kwc", 1.0, 1e300, "mass_cap"),
            ("potts", 1.0, 1e200, "mass_cap"),
            ("potts", 1.0, 1e-200, "mass_cap"),
        ],
        ids=[
            "kwc_kappa_1e200", "kwc_kappa_1e300", "kwc_mass_cap_1e300", "potts_mass_cap_1e200", "potts_mass_cap_1e-200",
        ],
    )
    def test_constants_out_of_float_range_raise_value_error(self, kind, param, cap, name):
        # Each pair left float range in the constants; each lies outside the
        # envelope, a ConfigError (a ValueError) that names the input.
        for call in (derive_constants, check_conditions):
            with pytest.raises(ConfigError, match=f"^{name} = .* is outside the magnitude envelope"):
                call(JumpKernel(kind, kappa=param, height=param), cap)

    def test_tiny_positive_constants_are_kept(self):
        # The least height at the largest cap: split_gain 4 h / M^2 = 2**-298.
        c = derive_constants(potts_kernel(2.0**-100), 2.0**100)
        assert c.split_gain == 2.0**-298 and 0 < c.bound_rate
        assert check_conditions(potts_kernel(2.0**-100), 2.0**100).linear_floor_positive
        with pytest.raises(ConfigError, match=re.escape("height = 1e-300 is outside the magnitude envelope")):
            potts_kernel(1e-300)


class TestStrengthenedSubadditivity:
    def test_pairwise_gain_battery(self):
        # K(a) + K(b) >= K(a+b) + C * a * b for all pairs below the cap.
        rng = np.random.default_rng(101)
        cap = 2.0
        for kappa in (0.5, 1.0, 2.0):
            k = kwc_kernel(kappa)
            gain = derive_constants(k, cap).split_gain
            a = rng.uniform(0.0, cap, size=10_000)
            b = rng.uniform(0.0, cap - a)
            lhs = k.eval(a) + k.eval(b)
            rhs = k.eval(a + b) + gain * a * b
            assert np.all(lhs >= rhs - 1e-12)

    def test_multi_part_splits(self):
        # Splitting one jump into up to 10 parts pays at least the pairwise
        # gain summed over all cross terms.
        rng = np.random.default_rng(102)
        cap = 2.0
        k = kwc_kernel(1.0)
        gain = derive_constants(k, cap).split_gain
        for _ in range(1_000):
            parts = rng.integers(2, 11)
            raw = rng.uniform(0.0, 1.0, size=parts)
            sizes = raw / raw.sum() * rng.uniform(0.1, cap)
            total = sizes.sum()
            cross = (total**2 - np.sum(sizes**2)) / 2.0
            assert np.sum(k.eval(sizes)) >= k.eval(total) + gain * cross - 1e-10

    def test_linear_kernel_lacks_gain(self):
        rep = check_conditions(linear_kernel(), 2.0)
        assert rep.subadditive is True
        assert rep.strengthened_subadditive is False
        assert rep.split_gain is None
        assert rep.unit_slope_at_zero is True

    def test_potts_kernel_lacks_unit_slope(self):
        rep = check_conditions(potts_kernel(1.0), 2.0)
        assert rep.strengthened_subadditive is True
        assert rep.unit_slope_at_zero is False

    @pytest.mark.parametrize("kappa", [2e4, 1e5, 1e9])
    def test_stiff_kwc_kernel_keeps_unit_slope(self, kappa):
        # K'(0) = 1 for every kappa, although K(1e-8)/1e-8 = 1/(1 + 1e-8 kappa)
        # is off 1 by more than 1e-4 here; the report carries no such probe.
        rep = check_conditions(kwc_kernel(kappa), 1.0)
        assert rep.unit_slope_at_zero is True
        assert "slope_at_zero" not in rep.to_json_dict()

    def test_unit_slope_is_decided_by_kind(self):
        assert kwc_kernel(1e9).unit_slope_at_zero is True
        assert linear_kernel().unit_slope_at_zero is True
        assert potts_kernel(1e-9).unit_slope_at_zero is False

    def test_kwc_kernel_passes_all_conditions(self):
        rep = check_conditions(kwc_kernel(1.0), 2.0)
        assert rep.monotone
        assert rep.subadditive
        assert rep.strengthened_subadditive
        assert rep.unit_slope_at_zero
        assert rep.linear_floor_positive


class TestSplitCost:
    def test_symmetric_point(self):
        # Cost of a jump pair with common size c and imbalance z.
        k = kwc_kernel(1.0)
        assert split_cost(k, 1.0, 0.0) == pytest.approx(2 * k.eval(1.0), abs=1e-15)
        assert split_cost(k, 1.0, 0.5) == pytest.approx(k.eval(1.5) + k.eval(0.5), abs=1e-15)

    def test_derivative_zero_at_even_split(self):
        k = kwc_kernel(1.0)
        assert split_cost_derivative(k, 1.0, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_derivative_reference_value(self):
        k = kwc_kernel(1.0)
        assert split_cost_derivative(k, 1.0, 0.5) == pytest.approx(
            -0.28444444444444444, abs=1e-14
        )

    def test_derivative_matches_finite_differences(self):
        # Away from |z| = c every kernel's split cost is smooth; linear and
        # Potts costs are constant there (2c and 2h).
        rng = np.random.default_rng(103)
        for k in (kwc_kernel(1.0), linear_kernel(), potts_kernel(1.5)):
            for _ in range(100):
                c = rng.uniform(0.3, 3.0)
                z = rng.uniform(0.05 * c, 0.9 * c)
                eps = 1e-6 * c
                fd = (split_cost(k, c, z + eps) - split_cost(k, c, z - eps)) / (2 * eps)
                assert split_cost_derivative(k, c, z) == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_flat_and_linear_derivatives_are_exactly_zero_up_to_the_merge(self):
        z = np.linspace(-1.0, 1.0, 101)
        for k in (linear_kernel(), potts_kernel(2.0)):
            assert np.array_equal(split_cost_derivative(k, 1.0, z), np.zeros_like(z))
            assert split_cost_derivative(k, 1.0, 1.0) == 0.0

    def test_even_split_is_strict_maximum(self):
        # Imbalance strictly lowers the cost of a split pair.
        k = kwc_kernel(1.0)
        for c in (0.5, 1.0, 2.0):
            zs = np.linspace(0.0, 0.95 * c, 40)
            costs = split_cost(k, c, zs)
            assert np.all(np.diff(costs) < 0)

    def test_derivative_magnitude_grows_superlinearly(self):
        # -Q'(mu * z) <= -mu * Q'(z): the slope decays no slower than linearly.
        rng = np.random.default_rng(104)
        k = kwc_kernel(1.0)
        for _ in range(500):
            c = rng.uniform(0.3, 3.0)
            z = rng.uniform(0.05 * c, 0.95 * c)
            mu = rng.uniform(0.05, 1.0)
            lhs = -split_cost_derivative(k, c, mu * z)
            rhs = -mu * split_cost_derivative(k, c, z)
            assert lhs <= rhs + 1e-12

    def test_quarter_point_slope_below_half_midpoint_slope(self):
        k = kwc_kernel(1.0)
        assert -split_cost_derivative(k, 1.0, 0.25) < 0.5 * (
            -split_cost_derivative(k, 1.0, 0.5)
        )
