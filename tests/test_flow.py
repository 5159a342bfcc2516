"""Unit tests for the gradient flows, their inner solver, and diagnostics."""

import itertools
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgError, solve_banded

import kwcseg.flow as flow_mod
from kwcseg.errors import ConfigError, DivergenceError
from kwcseg.exact import lambda_for_jump_count, uniform_step_minimizer
from kwcseg.experiments import ExperimentSpec, generate_signal, run_experiment
from kwcseg.flow import (
    TRACE_COLUMNS,
    FlowParams,
    edges_above,
    flow_energy,
    jump_census,
    plateau_flatness,
    prox_certificate,
    run,
    sharp_twin,
    steady_damage_profile,
    tv_prox,
)
from kwcseg.kernel import kwc_kernel, linear_kernel
from kwcseg.pwc import GridSignal, LinearData, PiecewiseConstant, SineData, energy, fidelity


def unit_step(n):
    x = np.linspace(0, 1, n)
    return GridSignal((0.0, 1.0), np.where(x < 0.5, 0.0, 1.0))


class TestValidation:
    def test_unknown_model(self):
        with pytest.raises(ConfigError):
            FlowParams(model="bogus", lam=1.0, n=50)

    def test_too_few_nodes(self):
        with pytest.raises(ConfigError):
            FlowParams(model="rof", lam=1.0, n=1)

    def test_negative_time_step(self):
        with pytest.raises(ConfigError):
            FlowParams(model="rof", lam=1.0, n=50, dt=-1.0)

    @pytest.mark.parametrize("name", ["lam", "sigma", "dt", "epsilon", "t_max"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_values_rejected(self, name, value):
        with pytest.raises(ConfigError, match=name):
            FlowParams(**{"model": "rof", "lam": 1.0, "n": 50, name: value})

    @pytest.mark.parametrize("dt, t_max", [(0.01, 0.004), (0.01, 0.005), (2.0, 1.0), (1e-300, 1e10)])
    def test_fewer_than_one_time_step_rejected(self, dt, t_max):
        # 1e10 / 1e-300 steps overflowed the step count; dt = 1e-300 lies
        # outside the envelope, which names it first.
        below = dt < 2.0**-100
        with pytest.raises(ConfigError, match="dt = 1e-300 is outside the magnitude envelope" if below else "time step"):
            FlowParams(model="rof", lam=1.0, n=50, dt=dt, t_max=t_max)

    def test_one_time_step_runs(self):
        g = unit_step(50)
        res = run(g, g, FlowParams(model="rof", lam=1.0, n=50, dt=0.01, t_max=0.006))
        assert res.steps == 1

    @pytest.mark.parametrize("value", [-1.0, 1e-9, np.nan, np.inf, True])
    def test_steady_tol_is_no_field(self, value):
        # The stop rule is fixed (flow.STEADY_RATE): no value of the old
        # field is taken, a valid one no more than a bad one.
        with pytest.raises(TypeError, match="steady_tol"):
            FlowParams(model="rof", lam=1.0, n=50, steady_tol=value)

    def test_output_stride_must_be_positive(self):
        with pytest.raises(ConfigError):
            FlowParams(model="rof", lam=1.0, n=50, output_stride=0)

    @pytest.mark.parametrize("name", ["n", "output_stride"])
    def test_counts_reject_a_bool(self, name):
        with pytest.raises(ConfigError, match=name):
            FlowParams(**{"model": "rof", "lam": 1.0, "n": 50, name: True})

    @pytest.mark.parametrize("name", ["lam", "sigma", "dt", "epsilon", "t_max"])
    def test_reals_reject_a_bool(self, name):
        with pytest.raises(ConfigError, match=name):
            FlowParams(**{"model": "rof", "lam": 1.0, "n": 50, name: True})

    def test_unknown_boundary_condition(self):
        with pytest.raises(ConfigError):
            FlowParams(model="rof", lam=1.0, n=50, bc_u="mixed")

    def test_interface_width_must_be_positive(self):
        with pytest.raises(ConfigError):
            FlowParams(model="at", lam=1.0, n=50, epsilon=0.0)

    @pytest.mark.parametrize("model", ["at", "kwc"])
    @pytest.mark.parametrize("epsilon", [5e-324, 1e-320, 1e20, 1e300])
    def test_interface_width_must_keep_the_damage_matrix_regular(self, model, epsilon):
        # Tiny widths overflow h/eps; huge ones swamp h/eps so the steady
        # damage matrix is singular.
        g = unit_step(101)
        with pytest.raises(ConfigError, match="epsilon"):
            run(g, g, FlowParams(model=model, lam=30.0, n=101, t_max=0.05, epsilon=epsilon, pre_relax=True))

    @pytest.mark.parametrize("epsilon", [1e-300, 2.0**-100, 1e4])
    def test_extreme_but_regular_interface_widths_run(self, epsilon):
        # 1e-300 lies outside the envelope: one ConfigError that names it.
        g = unit_step(101)
        if epsilon < 2.0**-100:
            with pytest.raises(ConfigError, match="epsilon = 1e-300 is outside the magnitude envelope"):
                FlowParams(model="kwc", lam=30.0, n=101, t_max=0.05, epsilon=epsilon, pre_relax=True)
            return
        res = run(g, g, FlowParams(model="kwc", lam=30.0, n=101, t_max=0.05, epsilon=epsilon, pre_relax=True))
        assert np.isfinite(res.state.energy)

    @pytest.mark.parametrize("epsilon", [5e-324, 1e300])
    def test_steady_damage_profile_validates_params(self, epsilon):
        with pytest.raises(ConfigError, match="epsilon"):
            steady_damage_profile(unit_step(101), FlowParams(model="kwc", lam=30.0, n=101, epsilon=epsilon))

    def test_interface_width_is_checked_on_the_data_spacing(self):
        # h = 1e4 on this domain: h/eps overflowed at eps = 1e-306, which
        # lies outside the envelope.  At its least width h/eps is finite and
        # the run is regular.
        x = np.linspace(0.0, 1.0, 101)
        g = GridSignal((0.0, 1e6), np.where(x < 0.5, 0.0, 1.0))
        with pytest.raises(ConfigError, match="epsilon = 1e-306 is outside the magnitude envelope"):
            FlowParams(model="kwc", lam=30.0, n=101, t_max=0.05, epsilon=1e-306)
        params = FlowParams(model="kwc", lam=30.0, n=101, t_max=0.05, epsilon=2.0**-100)
        assert np.isfinite(run(g, g, params).state.energy)
        assert np.all(np.isfinite(steady_damage_profile(g, params).samples))

    def test_width_out_of_range_on_the_unit_grid_runs_on_a_long_domain(self):
        # eps = 1e9 swamps h/eps in the damage matrix at h = 0.01 but not at h = 1e4.
        x = np.linspace(0.0, 1.0, 101)
        g = GridSignal((0.0, 1e6), np.where(x < 0.5, 0.0, 1.0))
        params = FlowParams(model="kwc", lam=30.0, n=101, t_max=0.05, epsilon=1e9, pre_relax=True)
        with pytest.raises(ConfigError, match="epsilon"):
            run(unit_step(101), unit_step(101), params)
        res = run(g, g, params)
        assert np.isfinite(res.state.energy)
        v = steady_damage_profile(g, params)
        assert np.all(np.isfinite(v.samples))

    @pytest.mark.parametrize(
        "model, sigma", [("at", 1e12), ("at", 1e300), ("kwc", 1e152), ("kwc", 1e305), ("rof", 1e152), ("rof", 1e300)]
    )
    def test_sigma_out_of_range_for_the_step_rejected(self, model, sigma):
        # At n = 1000: at's matrix loses its shift from 1e12 on (singular by
        # 1e15).  The TV step's duality gap overflowed from 1e152 on, which
        # lies outside the envelope: one ConfigError that names sigma.
        g = generate_signal("noisy_steps", n=1000, seed=0)
        if sigma > 2.0**100:
            with pytest.raises(ConfigError, match=re.escape(f"sigma = {sigma!r} is outside the magnitude envelope")):
                FlowParams(model=model, lam=50.0, n=1000, t_max=0.05, sigma=sigma)
            return
        params = FlowParams(model=model, lam=50.0, n=1000, t_max=0.05, sigma=sigma)
        with pytest.raises(ConfigError, match="sigma"):
            run(g, g, params)
        if model != "rof":
            with pytest.raises(ConfigError, match="sigma"):
                steady_damage_profile(g, params)

    @pytest.mark.parametrize("model", ["rof", "at", "kwc"])
    @pytest.mark.parametrize("n, dt, lam", [(1000, 0.01, 50.0), (101, 1.0, 0.0), (12, 1e-4, 3e3)])
    def test_largest_sigma_in_range_runs(self, model, n, dt, lam):
        # The largest sigma the check takes, by bisection over the floats,
        # runs with no warning (an error here) and a finite energy.
        g = generate_signal("noisy_steps", n=n, seed=0)

        def params(sigma):
            return FlowParams(model=model, lam=lam, n=n, dt=dt, t_max=3 * dt, sigma=sigma)

        def taken(sigma):
            try:
                flow_mod._check_grid(params(sigma), g, g)
            except ConfigError:
                return False
            return True

        lo, hi = 1.0, 1e308
        assert taken(lo) and not taken(hi)
        while math.nextafter(lo, hi) < hi:
            mid = math.sqrt(lo) * math.sqrt(hi)
            mid = mid if lo < mid < hi else 0.5 * (lo + hi)
            lo, hi = (mid, hi) if taken(mid) else (lo, mid)
        assert np.isfinite(run(g, g, params(lo)).state.energy)

    @pytest.mark.parametrize("model", ["rof", "at", "kwc"])
    @pytest.mark.parametrize("top", [1e160, 1e200, 1e308])
    def test_data_out_of_range_for_the_flow_rejected(self, model, top):
        # A pwc step from 0 to top (n = 101, lam = 50) lies outside the
        # envelope: an error naming the samples before any step, with no
        # overflow warning first, for the data and u0 alike.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=r"^grid samples must be finite, within the magnitude envelope .*, got 1e\+\d+$"):
                GridSignal((0.0, 1.0), top * unit_step(101).samples)

    @pytest.mark.parametrize("model", ["rof", "at", "kwc"])
    @pytest.mark.parametrize("n, dt, lam", [(101, 0.01, 50.0), (101, 1.0, 0.0), (12, 1e-4, 3e3)])
    def test_largest_data_range_in_range_runs(self, model, n, dt, lam):
        # The largest step height the check takes, by bisection over the
        # floats, runs with no warning (an error here) and a finite energy.
        step = unit_step(n).samples
        params = FlowParams(model=model, lam=lam, n=n, dt=dt, t_max=3 * dt)

        def data(top):
            return GridSignal((0.0, 1.0), top * step)

        def taken(top):
            try:
                flow_mod._check_grid(params, data(top), data(top))
            except ConfigError:
                return False
            return True

        lo, hi = 1.0, 1e308
        assert taken(lo) and not taken(hi)
        while math.nextafter(lo, hi) < hi:
            mid = math.sqrt(lo) * math.sqrt(hi)
            mid = mid if lo < mid < hi else 0.5 * (lo + hi)
            lo, hi = (mid, hi) if taken(mid) else (lo, mid)
        assert np.isfinite(run(data(lo), data(lo), params).state.energy)

    @pytest.mark.parametrize("model", ["rof", "at", "kwc"])
    @pytest.mark.parametrize("n, dt, lam", [(101, 0.01, 50.0), (12, 1e-4, 3e3)])
    def test_constant_data_of_any_magnitude_are_named_or_run_cleanly(self, model, n, dt, lam):
        # Constant data span nothing, but the step rounds at their
        # magnitude: each is an error naming the data before any step (the
        # envelope's), or a run with no warning (an error here).  The
        # largest magnitude the check takes, by bisection over the floats,
        # runs cleanly too.
        params = FlowParams(model=model, lam=lam, n=n, dt=dt, t_max=5 * dt)

        def data(c):
            return GridSignal((0.0, 1.0), np.full(n, c))

        def runs(c):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    result = run(data(c), data(c), params)
                except ConfigError as err:
                    assert str(err).startswith("grid samples must be finite, within the magnitude envelope")
                    return False
            assert np.isfinite(result.state.energy)
            return True

        def taken(c):
            try:
                flow_mod._check_grid(params, data(c), data(c))
            except ConfigError:
                return False
            return True

        magnitudes = [sign * 10.0**k for k in (*range(0, 31, 10), *range(150, 309, 10)) for sign in (1.0, -1.0)]
        assert [runs(c) for c in magnitudes] == [abs(c) <= 2.0**100 for c in magnitudes]
        lo, hi = 1.0, 1e308
        while math.nextafter(lo, hi) < hi:
            mid = math.sqrt(lo) * math.sqrt(hi)
            mid = mid if lo < mid < hi else 0.5 * (lo + hi)
            lo, hi = (mid, hi) if taken(mid) else (lo, mid)
        assert runs(lo) and runs(-lo)

    @pytest.mark.parametrize("model", ["rof", "at", "kwc"])
    @pytest.mark.parametrize("data, dt", [("sine", 1e-310), ("step", 1e-212)])
    def test_time_step_out_of_range_is_named(self, model, data, dt):
        # n = 101, lam = 50, three steps.  On the sine, 1/dt overflowed the
        # u-step's shift; on a step from 0 to 1e100, 1e100/dt overflowed
        # the u-step's right-hand side.  Each was an overflow and a
        # divergence (at) or an error that named only the data (rof, kwc).
        # Both lie outside the envelope: one ConfigError, the dt's on the
        # sine, the samples' on the step, whose data are built first.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError) as info:
                g = generate_signal("sine", n=101) if data == "sine" else GridSignal((0.0, 1.0), 1e100 * unit_step(101).samples)
                run(g, g, FlowParams(model=model, lam=50.0, n=101, dt=dt, t_max=3 * dt))
        if data == "sine":
            assert str(info.value) == f"dt = {dt} is outside the magnitude envelope [2**-100, 2**100]"
        else:
            assert str(info.value).startswith("grid samples must be finite, within the magnitude envelope")

    @pytest.mark.parametrize("model", ["rof", "at", "kwc"])
    @pytest.mark.parametrize("n, lam", [(101, 50.0), (101, 0.0), (12, 3e3)])
    def test_smallest_time_step_in_range_runs(self, model, n, lam):
        # The smallest dt the check takes, by bisection over the floats,
        # runs its three steps with no warning (an error here) and a finite
        # energy.
        g = unit_step(n)

        def params(dt):
            return FlowParams(model=model, lam=lam, n=n, dt=dt, t_max=3 * dt)

        def taken(dt):
            try:
                flow_mod._check_grid(params(dt), g, g)
            except ConfigError:
                return False
            return True

        lo, hi = 5e-324, 1.0
        assert taken(hi) and not taken(lo)
        while math.nextafter(lo, hi) < hi:
            mid = math.sqrt(lo) * math.sqrt(hi)
            mid = mid if lo < mid < hi else 0.5 * (lo + hi)
            lo, hi = (lo, mid) if taken(mid) else (mid, hi)
        result = run(g, g, params(hi))
        assert result.steps == 3 and np.isfinite(result.state.energy)

    @settings(max_examples=300)
    @given(
        model=st.sampled_from(["rof", "at", "kwc"]),
        k=st.integers(-323, 2),
        lam=st.sampled_from([0.0]) | st.integers(-10, 300).map(lambda j: 10.0**j),
        width=st.integers(-300, 300).map(lambda j: 10.0**j),
        data=st.sampled_from(["sine", "step"]),
        height=st.integers(-300, 300).map(lambda j: 10.0**j),
    )
    @example(model="rof", k=-310, lam=50.0, width=1.0, data="sine", height=1.0)
    @example(model="at", k=-310, lam=50.0, width=1.0, data="sine", height=1.0)
    @example(model="kwc", k=-310, lam=50.0, width=1.0, data="sine", height=1.0)
    @example(model="rof", k=-212, lam=50.0, width=1.0, data="step", height=1e100)
    @example(model="at", k=-212, lam=50.0, width=1.0, data="step", height=1e100)
    @example(model="kwc", k=-212, lam=50.0, width=1.0, data="step", height=1e100)
    @example(model="rof", k=2, lam=0.0, width=1e-152, data="step", height=1e154)  # sum (u - g)^2 overflowed
    def test_any_time_step_is_named_or_runs_cleanly(self, model, k, lam, width, data, height):
        # dt = 10^k with three steps, on sine or step data of any height on
        # a domain of any width (n = 101; sigma and epsilon at their
        # defaults): a ConfigError before any step, or a run with no
        # warning (an error here) whose every energy and gap is finite.
        # Outside the envelope the ConfigError comes from the inputs.
        dt = 10.0**k
        samples = (generate_signal("sine", n=101) if data == "sine" else unit_step(101)).samples
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                g = GridSignal((0.0, width), height * samples)
                result = run(g, g, FlowParams(model=model, lam=lam, n=101, dt=dt, t_max=3 * dt))
            except ConfigError:
                return
        energies, gaps = [row[1] for row in result.trace], [row[3] for row in result.trace[1:]]
        assert result.steps >= 1 and np.isfinite(energies).all()
        assert np.isfinite(gaps).all() if model != "at" else np.isnan(gaps).all()

    def test_steady_damage_profile_grid_mismatch(self):
        with pytest.raises(ConfigError, match="grid mismatch"):
            steady_damage_profile(unit_step(101), FlowParams(model="kwc", lam=30.0, n=51))

    def test_domain_mismatch(self):
        # Same node count, but u0 lives on (0, 5): its samples are not on the data's grid.
        g = unit_step(51)
        u0 = GridSignal((0.0, 5.0), g.samples)
        with pytest.raises(ConfigError, match="domain mismatch"):
            run(g, u0, FlowParams(model="kwc", lam=10.0, n=51, t_max=0.05))

    def test_grid_mismatch(self):
        g = GridSignal((0, 1), np.zeros(50))
        u0 = GridSignal((0, 1), np.zeros(60))
        with pytest.raises(ConfigError):
            run(g, u0, FlowParams(model="rof", lam=1.0, n=50))


class TestFixedPoints:
    def test_constant_data_is_steady_for_all_models(self):
        n = 101
        g = GridSignal((0.0, 1.0), np.full(n, 0.4))
        for model in ("rof", "at", "kwc"):
            res = run(g, g, FlowParams(model=model, lam=50.0, n=n, t_max=0.5))
            assert res.steady
            np.testing.assert_allclose(res.state.u.samples, g.samples, rtol=0, atol=1e-12)
            if res.state.v is not None:
                assert res.state.v.samples.min() >= 1.0 - 1e-9

    def test_decoupled_damage_leaves_data_fixed(self):
        # With zero coupling the u-equation relaxes straight to the data.
        n = 101
        x = np.linspace(0, 1, n)
        g = GridSignal((0.0, 1.0), np.sin(2 * np.pi * x))
        params = FlowParams(model="at", lam=50.0, n=n, sigma=0.0, t_max=5.0)
        res = run(g, GridSignal((0.0, 1.0), np.zeros(n)), params)
        assert res.steady
        assert np.max(np.abs(res.state.u.samples - g.samples)) <= 1e-8


class TestRofFlow:
    def test_step_data_shrinks_toward_mean(self):
        n = 201
        res = run(unit_step(n), unit_step(n), FlowParams(model="rof", lam=50.0, n=n, t_max=50.0))
        assert res.steady
        u = res.state.u.samples
        lo, hi = u[:20].mean(), u[-20:].mean()
        assert 0.03 < lo < 0.05
        assert 0.95 < hi < 0.97
        census = jump_census(res.state.u, 0.1)
        assert len(census) == 1
        assert census[0][0] == pytest.approx(0.5, abs=0.01)

    def test_contrast_loss_decreases_with_weight(self):
        n = 201
        gaps = []
        for lam in (50.0, 500.0):
            res = run(unit_step(n), unit_step(n), FlowParams(model="rof", lam=lam, n=n, t_max=50.0))
            u = res.state.u.samples
            gaps.append(u[:20].mean() + (1.0 - u[-20:].mean()))
        assert gaps[1] < gaps[0] / 5

    def test_trace_layout(self):
        n = 51
        g = GridSignal((0, 1), np.linspace(0, 1, n))
        res = run(g, g, FlowParams(model="rof", lam=20.0, n=n, t_max=0.3))
        assert TRACE_COLUMNS == ("t", "energy", "change_rate", "prox_gap")
        assert res.trace[0][0] == 0.0
        assert all(len(row) == 4 for row in res.trace)
        assert res.trace[-1][3] == res.state.prox_gap


class TestDamageModels:
    def test_damage_stays_in_unit_interval(self):
        rng = np.random.default_rng(51)
        n = 151
        g = GridSignal((0.0, 1.0), rng.normal(0.5, 0.4, n))
        for model in ("at", "kwc"):
            res = run(g, g, FlowParams(model=model, lam=40.0, n=n, dt=0.02, t_max=0.4))
            v = res.state.v.samples
            assert v.min() >= 0.0
            assert v.max() <= 1.0

    @pytest.mark.parametrize("model", ["at", "kwc"])
    def test_dirichlet_pins_are_exact_after_every_step(self, model):
        rng = np.random.default_rng(52)
        n = 101
        g = GridSignal((0.0, 1.0), rng.normal(0.5, 0.3, n))
        params = FlowParams(model=model, lam=30.0, n=n, bc_u="dirichlet", t_max=0.05)
        u, v = g.samples, np.ones(n)
        w = flow_mod._edge_weights(v, params)
        for _ in range(5):
            u, v, w, _energy, _gap = flow_mod._step(u, v, g, params, w)
            assert u[0] == g.samples[0]
            assert u[-1] == g.samples[-1]

    def test_damage_dips_at_jump(self):
        eps = 0.01
        n = 1 + int(np.ceil(1.0 / (4 * eps * eps)))
        params = FlowParams(model="kwc", lam=50.0, n=n, epsilon=eps)
        prof = steady_damage_profile(unit_step(n), params)
        # At a unit jump the equilibrium damage is 1/(1+sigma*rho) = 0.5.
        assert prof.samples.min() == pytest.approx(0.5, rel=0.03)
        quarter = prof.samples[: n // 4]
        assert quarter.min() >= 1.0 - 1e-3

    def test_damage_profile_needs_a_damage_model(self):
        with pytest.raises(ConfigError):
            steady_damage_profile(unit_step(201), FlowParams(model="rof", lam=50.0, n=201))

    def test_pre_relax_reaches_equilibrium_and_is_idempotent(self):
        # Implicit damage steps with u frozen leave the steady profile put.
        eps = 0.01
        n = 1 + int(np.ceil(1.0 / (4 * eps * eps)))
        g = unit_step(n)
        params = FlowParams(model="kwc", lam=50.0, n=n, epsilon=eps)
        relaxed = steady_damage_profile(g, params).samples
        assert relaxed.min() == pytest.approx(0.5, rel=0.03)
        again = relaxed
        for _ in range(10):
            again = flow_mod._damage_solve(np.diff(g.samples), g.h, params, v0=again)
        assert np.max(np.abs(again - relaxed)) <= 1e-9

    def test_pre_relax_on_constant_data_keeps_damage_whole(self):
        n = 201
        g = GridSignal((0.0, 1.0), np.full(n, 0.3))
        params = FlowParams(model="kwc", lam=50.0, n=n)
        relaxed = steady_damage_profile(g, params)
        assert relaxed.samples.min() >= 1.0 - 1e-9

    @pytest.mark.parametrize("model", ["kwc", "at"])
    def test_pre_relax_is_the_steady_profile_and_a_fixed_point(self, model):
        rng = np.random.default_rng(55)
        n = 201
        g = GridSignal((0.0, 1.0), unit_step(n).samples + rng.normal(0.0, 0.05, n))
        params = FlowParams(model=model, lam=50.0, n=n, epsilon=0.02)
        steady = steady_damage_profile(g, params).samples
        assert steady.min() < 0.9
        # One implicit damage step with u frozen leaves the steady state put.
        stepped = flow_mod._damage_solve(np.diff(g.samples), g.h, params, v0=steady)
        assert np.max(np.abs(stepped - steady)) <= 1e-12

    @pytest.mark.parametrize("model", ["kwc", "at"])
    def test_a_pre_relaxed_run_starts_from_the_steady_profile(self, model):
        # u0 is not the data, so the starting energy has all three terms.
        rng = np.random.default_rng(57)
        n = 201
        u0 = unit_step(n)
        g = GridSignal((0.0, 1.0), u0.samples + rng.normal(0.0, 0.05, n))
        params = FlowParams(model=model, lam=50.0, n=n, epsilon=0.02, t_max=0.01, pre_relax=True)
        steady = steady_damage_profile(u0, params).samples
        start = flow_energy(model, u0.samples, steady, g.samples, g.h, params)
        assert run(g, u0, params).trace[0][1] == start
        cold = run(g, u0, replace(params, pre_relax=False)).trace[0][1]
        assert cold == flow_energy(model, u0.samples, np.ones(n), g.samples, g.h, params) != start

    def test_rof_step_has_no_damage_field(self):
        rng = np.random.default_rng(56)
        n = 101
        g = GridSignal((0.0, 1.0), rng.normal(0.5, 0.3, n))
        params = FlowParams(model="rof", lam=30.0, n=n, t_max=0.01)
        res = run(g, g, params)
        assert res.steps == 1
        assert res.state.v is None
        assert np.isfinite(res.state.prox_gap)
        assert res.state.prox_gap <= 1e-8
        assert res.state.t == pytest.approx(params.dt)


class TestSharpTwin:
    def test_the_twin_at_sigma_one_is_the_kwc_kernel_at_the_run_weight(self):
        assert sharp_twin(FlowParams("kwc", 7.5)) == (kwc_kernel(1.0), 7.5, 1.0)
        assert sharp_twin(FlowParams("rof", 7.5)) == (linear_kernel(), 7.5, 1.0)
        assert sharp_twin(FlowParams("kwc", 7.5, sigma=2.0)) == (kwc_kernel(2.0), 3.75, 2.0)
        assert sharp_twin(FlowParams("rof", 7.5, sigma=0.5)) == (linear_kernel(), 15.0, 0.5)

    @pytest.mark.parametrize("model, sigma", [("at", 1.0), ("at", 2.0), ("kwc", 0.0), ("rof", 0.0)])
    def test_no_twin_for_at_or_without_a_jump_cost(self, model, sigma):
        assert sharp_twin(FlowParams(model, 7.5, sigma=sigma)) is None

    @pytest.mark.parametrize("model", ["kwc", "rof"])
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize(
        "data",
        [LinearData((0.0, 1.0)), SineData((0.0, 1.0)), PiecewiseConstant((0.0, 1.0), (1 / 3, 2 / 3), (0.2, 0.8, 0.35))],
        ids=["linear", "sine", "steps"],
    )
    def test_the_twin_energy_times_its_factor_is_the_sharp_run_energy(self, model, sigma, data):
        # factor * [sum K(rho) + (weight/2) int (u - g)^2] against the run's
        # sharp energy summed directly: sigma rho/(1 + sigma rho) (kwc) or
        # sigma rho (rof) a jump, plus (lam/2) int (u - g)^2.
        lam = 37.0
        kernel, weight, factor = sharp_twin(FlowParams(model, lam, sigma=sigma))
        rng = np.random.default_rng(17)
        for _ in range(20):
            m = int(rng.integers(0, 7))
            breaks = np.unique(rng.uniform(0.01, 0.99, size=m))
            u = PiecewiseConstant((0.0, 1.0), tuple(breaks), tuple(rng.uniform(-1.0, 2.0, size=breaks.size + 1)))
            jumps = np.abs(u.jump_sizes)
            cost = sigma * jumps / (1.0 + sigma * jumps) if model == "kwc" else sigma * jumps
            direct = math.fsum(cost) + fidelity(u, data, lam)
            assert factor * energy(u, data, kernel, weight).total == pytest.approx(direct, rel=1e-13)

    @pytest.mark.parametrize("sigma", [0.5, 2.0])
    def test_the_flow_jump_cost_reaches_its_twin_at_first_order_in_h_over_eps(self, sigma):
        # The steady damage at a unit step, lambda = 0, prices the jump above
        # the twin's sigma K_sigma(1) by O(h/eps): h/eps = 0.2, 0.1 and 0.05
        # on 2001 nodes, each halving halves the error, and the error is the
        # same at equal h/eps on 4001 nodes.
        def error(n, eps):
            params = FlowParams("kwc", 0.0, n=n, sigma=sigma, epsilon=eps)
            g = unit_step(n)
            v = steady_damage_profile(g, params).samples
            kernel, _weight, factor = sharp_twin(params)
            sharp = factor * kernel.eval(1.0)
            return (flow_energy("kwc", g.samples, v, g.samples, g.h, params) - sharp) / sharp

        errors = [error(2001, eps) for eps in (0.0025, 0.005, 0.01)]
        assert errors[0] < 0.07
        for coarse, fine in zip(errors, errors[1:]):
            assert 1.9 <= coarse / fine <= 2.1
        assert error(4001, 0.005) == pytest.approx(errors[2], rel=1e-9)


class TestNonFiniteInput:
    @pytest.mark.parametrize("which", ["g", "u0"])
    def test_run_rejects_non_finite_samples(self, which):
        n = 11
        good = unit_step(n)
        with pytest.raises(ConfigError, match="finite"):
            bad = GridSignal(good.domain, np.where(np.arange(n) == 4, np.nan, good.samples))
            g, u0 = (bad, good) if which == "g" else (good, bad)
            run(g, u0, FlowParams(model="kwc", lam=10.0, n=n))


class TestEnergyDescent:
    def test_no_step_raises_energy_beyond_solver_slack(self):
        rng = np.random.default_rng(53)
        n = 151
        for model in ("rof", "at", "kwc"):
            for seed in (1, 2):
                local = np.random.default_rng(seed)
                g = GridSignal((0.0, 1.0), local.normal(0.5, 0.4, n))
                res = run(g, g, FlowParams(model=model, lam=40.0, n=n, dt=0.02, t_max=0.6))
                energies = [row[1] for row in res.trace]
                for prev, cur in zip(energies, energies[1:]):
                    rise = (cur - prev) / max(abs(cur), 1e-30)
                    assert rise <= 1e-10

    def test_energy_helper_matches_trace(self):
        n = 101
        g = unit_step(n)
        params = FlowParams(model="kwc", lam=30.0, n=n, t_max=0.1)
        res = run(g, g, params)
        h = 1.0 / (n - 1)
        e = flow_energy(
            "kwc", res.state.u.samples, res.state.v.samples, g.samples, h, params
        )
        assert e == pytest.approx(res.trace[-1][1], rel=1e-12)


def energy_terms(model, u, v, g, h, params):
    """The TV/kernel, well and fidelity terms of the flow energy, node by node."""
    tv = well = fidelity = 0.0
    for i in range(len(u)):
        fidelity += 0.5 * params.lam * h * (u[i] - g[i]) ** 2
        if model != "rof":
            well += 0.5 * h / params.epsilon * (v[i] - 1.0) ** 2
        if i + 1 == len(u):
            break
        du = u[i + 1] - u[i]
        if model == "rof":
            tv += params.sigma * abs(du)
            continue
        weight = params.sigma * 0.5 * (v[i] ** 2 + v[i + 1] ** 2)
        tv += weight * (abs(du) if model == "kwc" else du * du / h)
        well += 0.5 * params.epsilon * (v[i + 1] - v[i]) ** 2 / h
    return tv, well, fidelity


class TestEnergyBreakdown:
    """``flow_energy`` is the sum of its three terms, free and pinned."""

    @settings(max_examples=200)
    @given(
        st.sampled_from(["rof", "at", "kwc"]),
        st.sampled_from(["neumann", "dirichlet"]),
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_energy_is_the_sum_of_its_terms(self, model, bc, n, seed):
        rng = np.random.default_rng(seed)
        g = GridSignal((0.0, rng.uniform(0.5, 2.0)), rng.normal(0.0, 1.0, n))
        params = FlowParams(
            model=model, lam=rng.uniform(0.0, 50.0), n=n, sigma=rng.uniform(0.0, 2.0),
            epsilon=rng.uniform(0.01, 1.0), bc_u=bc,
        )
        u = rng.normal(0.0, 1.0, n)
        v = None if model == "rof" else rng.uniform(0.0, 1.0, n)
        # A drawn state, and the state one step later (pinned with dirichlet).
        u1, v1, _w, energy, _gap = flow_mod._step(u, v, g, params, flow_mod._edge_weights(v, params))
        for u, v in ((u, v), (u1, v1)):
            total = sum(energy_terms(model, u, v, g.samples, g.h, params))
            assert flow_energy(model, u, v, g.samples, g.h, params) == pytest.approx(total, rel=1e-12, abs=1e-14)
        assert energy == pytest.approx(total, rel=1e-12, abs=1e-14)


def banded_solve(diag, lower, upper, rhs):
    """The tridiagonal system solved by ``solve_banded`` from its 3 x n banded form."""
    ab = np.zeros((3, diag.size))
    ab[0, 1:] = upper
    ab[1, :] = diag
    ab[2, :-1] = lower
    return solve_banded((1, 1), ab, rhs)


def reference_energy(model, u, v, g, h, params):
    """``flow_energy`` written with np.diff and np.sum, term by term."""
    du = np.diff(u)
    fid = 0.5 * params.lam * h * float(np.sum((u - g) ** 2))
    if model == "rof":
        return params.sigma * float(np.sum(np.abs(du))) + fid
    w = params.sigma * 0.5 * (v[:-1] ** 2 + v[1:] ** 2)
    grad = np.diff(v)
    eps = params.epsilon
    well = 0.5 * eps * float(np.sum(grad * grad)) / h + 0.5 * h / eps * float(np.sum((v - 1.0) ** 2))
    if model == "kwc":
        return float(np.sum(w * np.abs(du))) + well + fid
    return float(np.sum(w * du * du)) / h + well + fid


def reference_damage(model, u, h, params, v0=None):
    """The damage step (steady when v0 is None) from the lumped coupling and a banded solve."""
    du = np.diff(u)
    edge = np.abs(du) if model == "kwc" else du * du
    lumped = np.zeros(u.size)
    lumped[:-1] += 0.5 * edge
    lumped[1:] += 0.5 * edge
    coupling = 2.0 * params.sigma * lumped
    if model != "kwc":
        coupling = coupling / h
    eps, dt = params.epsilon, params.dt
    neighbours = np.full(u.size, 2.0)
    neighbours[[0, -1]] = 1.0
    shift = h / eps if v0 is None else h / dt + h / eps
    diag = shift + coupling + (eps / h) * neighbours
    rhs = np.full(u.size, h / eps) if v0 is None else h * v0 / dt + h / eps
    off = np.full(u.size - 1, -eps / h)
    return np.clip(banded_solve(diag, off, off, rhs), 0.0, 1.0)


def reference_quadratic(u0, g, w, params):
    """The at model's u-step: a banded solve over every node, or over the
    interior ones with the pins' terms on the right-hand side."""
    n, h = u0.size, g.h
    coeff = 2.0 * w / h
    diag = np.full(n, h / params.dt + params.lam * h)
    diag[:-1] += coeff
    diag[1:] += coeff
    rhs = h * (u0 / params.dt + params.lam * g.samples)
    if params.bc_u == "neumann":
        return banded_solve(diag, -coeff, -coeff, rhs)
    u = np.empty(n)
    u[0], u[-1] = g.samples[0], g.samples[-1]
    if n > 2:
        rhs[1] += coeff[0] * u[0]
        rhs[-2] += coeff[-1] * u[-1]
        u[1:-1] = banded_solve(diag[1:-1], -coeff[1:-1], -coeff[1:-1], rhs[1:-1])
    return u


class TestArithmeticIsPinned:
    """The step's energy, damage solve and at solve do the float operations
    of the plain formulas, in their order: equal bit for bit, so a change to
    the arithmetic fails here before it moves a flow's trajectory."""

    @settings(max_examples=200)
    @given(
        st.sampled_from(["rof", "at", "kwc"]),
        st.sampled_from(["neumann", "dirichlet"]),
        st.integers(min_value=2, max_value=40),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_step_parts_equal_the_plain_formulas(self, model, bc, n, seed):
        rng = np.random.default_rng(seed)
        g = GridSignal((0.0, rng.uniform(0.5, 2.0)), rng.normal(0.0, 1.0, n))
        params = FlowParams(
            model=model, lam=rng.uniform(0.0, 50.0), n=n, sigma=rng.uniform(0.0, 2.0),
            epsilon=rng.uniform(0.01, 1.0), dt=rng.uniform(1e-3, 0.1), bc_u=bc,
        )
        u = rng.normal(0.0, 1.0, n)
        v = None if model == "rof" else rng.uniform(0.0, 1.0, n)
        h = g.h
        energy = flow_mod.flow_energy(model, u, v, g.samples, h, params)
        assert energy == reference_energy(model, u, v, g.samples, h, params)
        u1, v1, _w, energy1, _gap = flow_mod._step(u, v, g, params, flow_mod._edge_weights(v, params))
        assert energy1 == reference_energy(model, u1, v1, g.samples, h, params)
        if model == "rof":
            return
        w = params.sigma * 0.5 * (v[:-1] ** 2 + v[1:] ** 2)
        if model == "at":
            assert np.array_equal(u1, reference_quadratic(u, g, w, params))
            assert np.array_equal(flow_mod._quadratic_half_step(u, g, w, params)[0], u1)
        assert np.array_equal(v1, reference_damage(model, u1, h, params, v))
        assert np.array_equal(flow_mod._damage_solve(np.diff(u), h, params), reference_damage(model, u, h, params))


class TestSolveTridiag:
    """``_solve_tridiag`` is LAPACK's gtsv as ``solve_banded`` calls it."""

    @settings(max_examples=200)
    @given(st.integers(min_value=1, max_value=30), st.booleans(), st.integers(min_value=0, max_value=2**32 - 1))
    def test_equals_solve_banded_bit_for_bit(self, n, dominant, seed):
        # Diagonally dominant systems, as the flow solves, or ones whose
        # elimination swaps rows, which rewrites gtsv's superdiagonal.
        rng = np.random.default_rng(seed)
        lower, upper = rng.uniform(-1.0, 1.0, n - 1), rng.uniform(-1.0, 1.0, n - 1)
        diag = rng.uniform(2.0 if dominant else 0.05, 5.0, n) * rng.choice([-1.0, 1.0], n)
        rhs = rng.normal(0.0, 1.0, n)
        low, up = lower.copy(), upper.copy()
        x = flow_mod._solve_tridiag(diag.copy(), low, up, rhs.copy())
        assert np.array_equal(x, banded_solve(diag, lower, upper, rhs))
        assert np.array_equal(low, lower) and np.array_equal(up, upper)
        # So one array can be both off-diagonals.
        off = lower.copy()
        x = flow_mod._solve_tridiag(diag.copy(), off, off, rhs.copy())
        assert np.array_equal(off, lower)
        assert np.array_equal(x, banded_solve(diag, lower, lower, rhs))

    def test_singular_system_raises(self):
        with pytest.raises(LinAlgError, match="singular"):
            flow_mod._solve_tridiag(np.zeros(3), np.zeros(2), np.zeros(2), np.ones(3))


def exact_prox_reference(z, c, w, pins):
    """Exact prox by enumerating the sign of every edge: +, - or merged.

    For a sign pattern s, the least of the objective with
    w_k * s_k * (u_{k+1} - u_k) in place of w_k * |u_{k+1} - u_k| over the
    u that are constant on merged blocks has a closed form: each block
    takes its pin, or the mean of z shifted by the block's share of the
    linear term.  At the pattern of the prox it is the prox, and its dual
    (running sums of c (u - z), offset by a free constant with pins, as in
    ``prox_certificate``) equals w_k * s_k on signed edges and lies in
    [-w_k, w_k] on merged ones.  Of the patterns whose minimizer has the
    signs of s, the one whose dual misses these conditions by the least is
    returned: another pattern can win only by less than rounding, and its
    minimizer is then as close to the prox.  3^(n-1) <= 243 patterns for
    n <= 6.
    """
    n = z.size
    best, best_u = np.inf, None
    for signs in itertools.product((-1, 0, 1), repeat=n - 1):
        s = np.array(signs)
        linear = np.zeros(n)  # d/du of sum_k w_k s_k (u_{k+1} - u_k)
        linear[:-1] -= w * s
        linear[1:] += w * s
        cuts = [0, *(int(k) + 1 for k in np.flatnonzero(s)), n]
        u = np.empty(n)
        for lo, hi in zip(cuts, cuts[1:]):
            fixed = [] if pins is None else [pins[0]] * (lo == 0) + [pins[1]] * (hi == n)
            if len(set(fixed)) > 1:
                break  # one block holds both ends, pinned to different values
            u[lo:hi] = fixed[0] if fixed else np.mean(z[lo:hi]) - np.sum(linear[lo:hi]) / (c * (hi - lo))
        else:
            if np.any(s * np.diff(u) < 0):
                continue
            r = c * (u - z)
            if pins is None:
                dual = np.cumsum(r)[:-1]
                missed = abs(r.sum())  # the dual is zero past the last node
            else:
                dual = np.concatenate(([0.0], np.cumsum(r[1:-1])))
                missed = 0.0
            # Offsets q that put q + dual in [w s, w s] on signed edges and
            # in [-w, w] on merged ones; none for free ends but q = 0.
            lo_q = np.where(s == 0, -w, w * s) - dual
            hi_q = np.where(s == 0, w, w * s) - dual
            if pins is None:
                missed = max(missed, lo_q.max(), -hi_q.min())
            else:
                missed = max(missed, lo_q.max() - hi_q.min())
            if missed < best:
                best, best_u = missed, u
    return best_u


values = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


@st.composite
def prox_instances(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    z = np.array(draw(st.lists(values, min_size=n, max_size=n)))
    weight = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=2.0))
    w = np.array(draw(st.lists(weight, min_size=n - 1, max_size=n - 1)))
    c = draw(st.floats(min_value=0.1, max_value=10.0))
    pins = draw(st.one_of(st.none(), st.tuples(values, values), values.map(lambda a: (a, a))))
    return z, c, w, pins


def primal_dual_gap(u, p, z, c, w, pins):
    """Primal minus dual objective of the prox at u and the edge dual p."""
    primal = float(np.sum(w * np.abs(np.diff(u)))) + 0.5 * c * float(np.sum((u - z) ** 2))
    r = np.empty_like(u)  # D^T p
    r[0] = -p[0]
    r[1:-1] = p[:-1] - p[1:]
    r[-1] = p[-1]
    if pins is None:
        return primal - (float(np.sum(z * r)) - float(np.sum(r * r)) / (2.0 * c))
    dual = float(np.sum(z[1:-1] * r[1:-1])) - float(np.sum(r[1:-1] ** 2)) / (2.0 * c)
    for idx, val in ((0, pins[0]), (-1, pins[1])):
        dual += val * r[idx] + 0.5 * c * (val - z[idx]) ** 2
    return primal - dual


def certificate_dual(u, z, c, w, pins):
    """The unclipped edge dual ``prox_certificate`` judges, built edge by edge.

    p_0 = -r_0 and p_k = p_{k-1} - r_k for r = c (z - u), so that D^T p = r
    at every node but the last; with pins p_0 is the offset that centres
    the edges' allowed intervals, p_e = sign(du_e) w_e on jumps and
    [-w_e, w_e] on flat edges, and the rows of the pinned ends are skipped.
    """
    n = u.size
    r = c * (z - u)
    if pins is None:
        p = [-r[0]]
    else:
        offsets = []
        q = 0.0
        for k in range(n - 1):
            q -= r[k] if k > 0 else 0.0
            du = u[k + 1] - u[k]
            allowed = (np.sign(du) * w[k],) * 2 if du != 0 else (-w[k], w[k])
            offsets.append((allowed[0] - q, allowed[1] - q))
        p = [0.5 * (max(lo for lo, _ in offsets) + min(hi for _, hi in offsets))]
    for k in range(1, n - 1):
        p.append(p[-1] - r[k])
    return np.array(p)


def rounding_bound(u, z, c, w):
    """``_prox_from_pattern``'s slack: n eps times the sizes the running sums
    add, plus c + 1 units of the least subnormal per term for underflow."""
    scale = c * float(np.sum(np.abs(z)) + np.sum(np.abs(u))) + float(np.sum(w))
    return u.size * (np.finfo(float).eps * scale + (1.0 + c) * np.finfo(float).smallest_subnormal)


def assert_certified(u, z, c, w, pins):
    """A DP answer: its dual is feasible to rounding, its gap <= 1e-10 and its miss within the rounding bound."""
    bound = rounding_bound(u, z, c, w)
    assert np.all(np.abs(certificate_dual(u, z, c, w, pins)) <= w + bound)
    gap, miss = prox_certificate(u, z, c, w, pins)
    assert gap <= 1e-10
    assert miss <= bound


class TestInnerSolver:
    @settings(max_examples=300)
    @given(prox_instances())
    def test_prox_matches_split_form_reference(self, instance):
        z, c, w, pins = instance
        u = tv_prox(z, c, w, pins)
        np.testing.assert_allclose(u, exact_prox_reference(z, c, w, pins), rtol=0, atol=1e-12)
        assert_certified(u, z, c, w, pins)
        if pins is not None:
            assert (u[0], u[-1]) == pins

    @pytest.mark.parametrize("pins", [None, (0.0, 1.0), (1.0, 0.0), (0.5, 0.5)])
    def test_certificate_on_tie_heavy_data(self, pins):
        # Integer data and weights put many crossings exactly on knots.
        rng = np.random.default_rng(7)
        n = 400
        z = rng.integers(-2, 3, size=n) * 0.5
        w = rng.integers(0, 3, size=n - 1) * 0.25
        assert_certified(tv_prox(z, 1.0, w, pins), z, 1.0, w, pins)

    def test_gap_reported_small_with_accurate_settings(self):
        n = 201
        noisy = GridSignal((0.0, 1.0), unit_step(n).samples + np.random.default_rng(8).normal(0.0, 0.1, n))
        ramp = GridSignal((0.0, 1.0), np.linspace(0.0, 1.0, n))
        for bc in ("neumann", "dirichlet"):
            for model in ("rof", "kwc"):
                res = run(noisy, ramp, FlowParams(model=model, lam=50.0, n=n, t_max=1.0, bc_u=bc))
                gaps = [row[3] for row in res.trace[1:]]
                assert len(gaps) >= 20
                assert max(gaps) <= 1e-8


class TestProxCertificate:
    """``prox_certificate``'s gap against primal minus dual, and its miss."""

    @settings(max_examples=300)
    @given(prox_instances(), st.lists(values, min_size=6, max_size=6), st.booleans())
    def test_gap_is_primal_minus_dual(self, instance, guess, at_the_prox):
        z, c, w, pins = instance
        u = tv_prox(z, c, w, pins) if at_the_prox else np.array(guess[: z.size])
        if pins is not None:
            u[0], u[-1] = pins
        p = np.clip(certificate_dual(u, z, c, w, pins), -w, w)
        gap, miss = prox_certificate(u, z, c, w, pins)
        assert gap == pytest.approx(primal_dual_gap(u, p, z, c, w, pins), rel=1e-12, abs=1e-12)
        assert gap >= -1e-12
        assert miss >= 0.0

    def test_free_end_residual_counts_toward_the_miss(self):
        # u = z + 0.5 keeps every edge flat with a feasible running sum; only
        # the end residual, the sum of c (z - u), shows it is not the prox.
        z, w = np.zeros(2), np.array([1.0])
        gap, miss = prox_certificate(z + 0.5, z, 1.0, w)
        assert miss == 1.0
        assert gap == 0.5  # twice the true suboptimality, 0.25

    def test_pinned_dual_takes_the_middle_offset(self):
        # Flat between equal pins: every offset in [-w, w] meets the
        # conditions, and the middle one, 0, is exact.
        z, w = np.array([0.0, 0.0, 0.0]), np.array([1.0, 1.0])
        assert prox_certificate(np.zeros(3), z, 1.0, w, (0.0, 0.0)) == (0.0, 0.0)
        # A rise then a fall pins the offset to w, where p = (w, -w); with any
        # other offset the jump conditions miss.
        u = np.array([0.0, 0.5, 0.0])
        z = u + np.array([0.0, 2.0, 0.0])
        gap, miss = prox_certificate(u, z, 1.0, w, (0.0, 0.0))
        assert (gap, miss) == (0.0, 0.0)


def pattern_hint(signs):
    """A signal whose jump pattern is the given edge signs (-1, 0 or 1)."""
    return np.concatenate(([0.0], np.cumsum(np.asarray(signs, dtype=float))))


# z = (0, 0, 0, -1, 0, 0), c = 0.5, w = (0, 0, 1, 1e-12, 0): a wrong sign
# pattern's objective is 5e-25 above the prox's, below float resolution.
# (z, c, w, pins) whose DP prox jumps by -4.5e-198 on its last edge.
ROUNDING_JUMP_CASE = (np.array([0.0, -7.0035523e-153, 0.0]), 1.0, np.ones(2), (1.0, -4.526481456370663e-198))
TINY_WEIGHT_CASE = (np.array([0.0, 0.0, 0.0, -1.0, 0.0, 0.0]), 0.5, np.array([0.0, 0.0, 1.0, 1e-12, 0.0]))


@st.composite
def long_prox_instances(draw):
    """Step-like data on up to 40 nodes: few levels, so the prox has long flat runs."""
    n = draw(st.integers(min_value=2, max_value=40))
    levels = draw(st.lists(values, min_size=1, max_size=4))
    z = np.array(draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n)))
    z = z + np.array(draw(st.lists(st.floats(-0.05, 0.05), min_size=n, max_size=n)))
    weight = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.3))
    w = np.array(draw(st.lists(weight, min_size=n - 1, max_size=n - 1)))
    c = draw(st.floats(min_value=0.1, max_value=10.0))
    pins = draw(st.one_of(st.none(), st.tuples(values, values)))
    return z, c, w, pins


class TestPatternProx:
    """The flow's closed-form prox on a guessed jump pattern (``_prox_from_pattern``)."""

    @settings(max_examples=300)
    @given(st.one_of(prox_instances(), long_prox_instances()))
    @example(ROUNDING_JUMP_CASE)
    def test_the_dp_pattern_is_accepted_unless_a_jump_is_rounding(self, instance):
        # A DP jump no larger than the rounding bound may carry the wrong
        # sign; the closed form on that pattern may then miss, and the flow
        # keeps the DP answer, which is certified.
        z, c, w, pins = instance
        u = tv_prox(z, c, w, pins)
        fast = flow_mod._prox_from_pattern(z, c, w, pins, u)
        du = np.diff(u)
        if np.any((du != 0) & (np.abs(du) <= rounding_bound(u, z, c, w))):
            assert_certified(u, z, c, w, pins)
            if fast is None:
                return
        assert fast is not None
        np.testing.assert_allclose(fast[0], u, rtol=0, atol=1e-12)
        assert fast[1] <= 1e-10

    def test_a_rounding_sized_dp_jump_can_take_the_wrong_sign(self):
        # tv_prox gives (1, 0, -4.5e-198); the exact prox is flat at the
        # second pin after its first cell.  The closed form on a falling
        # last edge flips that jump's sign and is rejected.
        z, c, w, pins = ROUNDING_JUMP_CASE
        u = tv_prox(z, c, w, pins)
        assert u[1] == 0.0 and u[2] == pins[1]
        assert flow_mod._prox_from_pattern(z, c, w, pins, u) is None
        assert_certified(u, z, c, w, pins)

    @pytest.mark.parametrize("pins", [None, (0.0, 0.0), (0.0, -1.0)])
    def test_tiny_weight_case_is_accepted(self, pins):
        z, c, w = TINY_WEIGHT_CASE
        u = tv_prox(z, c, w, pins)
        fast = flow_mod._prox_from_pattern(z, c, w, pins, u)
        assert fast is not None
        np.testing.assert_allclose(fast[0], exact_prox_reference(z, c, w, pins), rtol=0, atol=1e-12)

    @settings(max_examples=400)
    @given(prox_instances(), st.data())
    def test_a_perturbed_pattern_falls_back_or_is_exact(self, instance, data):
        z, c, w, pins = instance
        signs = np.sign(np.diff(tv_prox(z, c, w, pins)))
        edge = data.draw(st.integers(min_value=0, max_value=signs.size - 1))
        signs[edge] = data.draw(st.sampled_from([s for s in (-1.0, 0.0, 1.0) if s != signs[edge]]))
        fast = flow_mod._prox_from_pattern(z, c, w, pins, pattern_hint(signs))
        if fast is not None:
            np.testing.assert_allclose(fast[0], exact_prox_reference(z, c, w, pins), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("pins", [None, (0.0, 0.0)])
    @pytest.mark.parametrize("signs", [(1, 0, 0, 0, 1), (0, 0, -1, 0, 0), (0, 0, 1, 1, 0), (0, 0, 0, 0, 0)])
    def test_every_pattern_on_the_tiny_weight_case(self, pins, signs):
        z, c, w = TINY_WEIGHT_CASE
        fast = flow_mod._prox_from_pattern(z, c, w, pins, pattern_hint(signs))
        if fast is not None:
            np.testing.assert_allclose(fast[0], exact_prox_reference(z, c, w, pins), rtol=0, atol=1e-12)

    def test_subnormal_data_is_certified_and_accepted(self):
        # Relative rounding bounds vanish below the normal range.  The prox
        # is flat at 2.5e-324, which rounds to 0, so the end residual misses
        # by c times the least subnormal.
        z, c, w = np.array([0.0, 5e-324]), 4.0, np.array([1e-323])
        u = tv_prox(z, c, w)
        assert np.array_equal(u, [0.0, 0.0]) and prox_certificate(u, z, c, w)[1] == 2e-323
        assert_certified(u, z, c, w, None)
        fast = flow_mod._prox_from_pattern(z, c, w, None, u)
        assert fast is not None and np.array_equal(fast[0], u)

    def test_wrong_sign_is_rejected(self):
        # The prox jumps up by 0.8; with the sign flipped the closed form
        # still jumps up (by 1.2) and its dual equals -w on the edge, which
        # misses the +w its own jump needs by 2 w.
        z, w = np.array([0.0, 1.0]), np.array([0.1])
        assert flow_mod._prox_from_pattern(z, 1.0, w, None, np.array([1.0, 0.0])) is None
        np.testing.assert_allclose(flow_mod._prox_from_pattern(z, 1.0, w, None, z)[0], [0.1, 0.9], rtol=0, atol=1e-15)

    def test_one_segment_between_unequal_pins_has_no_answer(self):
        # The pinned end rows drop out of the certificate, so only this
        # guard keeps the single segment from breaking the first pin.
        z, w = np.zeros(2), np.array([1.0])
        assert flow_mod._prox_from_pattern(z, 1.0, w, (1.0, 0.0), np.zeros(2)) is None
        np.testing.assert_allclose(flow_mod._prox_from_pattern(z, 1.0, w, (1.0, 0.0), z + [0.0, 1.0])[0], [1.0, 0.0])

    def test_a_hinted_jump_that_vanishes_is_judged_flat(self):
        # The hinted rise closes up: both segments take 0.5, the prox.
        z, w = np.array([0.0, 1.0]), np.array([0.5])
        u, gap, _du = flow_mod._prox_from_pattern(z, 1.0, w, None, z)
        assert np.array_equal(u, [0.5, 0.5])
        assert gap == 0.0

    def test_pinned_pattern_needs_one_common_offset(self):
        # Flat between equal pins: each edge alone has a feasible offset,
        # but no one offset fits both ends of the rise in the middle.
        z, w = np.array([0.0, 2.0, 2.0, 0.0]), np.full(3, 0.1)
        assert flow_mod._prox_from_pattern(z, 1.0, w, (0.0, 0.0), np.zeros(4)) is None
        u, _gap, _du = flow_mod._prox_from_pattern(z, 1.0, w, (0.0, 0.0), np.array([0.0, 1.0, 1.0, 0.0]))
        np.testing.assert_allclose(u, tv_prox(z, 1.0, w, (0.0, 0.0)), rtol=0, atol=1e-15)

    def test_previous_pattern_answers_most_flow_steps(self, monkeypatch):
        hits = []
        fast = flow_mod._prox_from_pattern

        def counting(*args):
            found = fast(*args)
            hits.append(found is not None)
            return found

        monkeypatch.setattr(flow_mod, "_prox_from_pattern", counting)
        g = generate_signal("noisy_steps", n=1000, seed=0)
        res = run(g, g, FlowParams(model="kwc", lam=50.0))
        assert len(hits) == res.steps
        assert sum(hits) >= 0.9 * res.steps


def forced_dp(monkeypatch):
    monkeypatch.setattr(flow_mod, "_prox_from_pattern", lambda *args: None)


class TestFastPathKeepsResults:
    """The flow with the closed-form path against the flow with the DP alone."""

    @staticmethod
    def assert_same_run(fast, slow):
        assert fast.steps == slow.steps
        assert fast.steady == slow.steady
        assert fast.state.energy == pytest.approx(slow.state.energy, rel=1e-12, abs=0)
        np.testing.assert_allclose(fast.state.u.samples, slow.state.u.samples, rtol=0, atol=1e-10)

    def test_noisy_steps_runs(self, monkeypatch):
        spec = ExperimentSpec(name="noisy_steps", seed=0)
        fast = run_experiment(spec).results
        forced_dp(monkeypatch)
        slow = run_experiment(spec).results
        assert sorted(fast) == ["at", "kwc", "rof"]
        for model in fast:
            self.assert_same_run(fast[model], slow[model])

    def test_pre_relaxed_ladder(self, monkeypatch):
        m = 4
        g = generate_signal("linear", n=1000)
        u0 = uniform_step_minimizer(1.0, m).sample(g.n)
        params = FlowParams(model="kwc", lam=lambda_for_jump_count(1.0, m), bc_u="dirichlet", pre_relax=True)
        fast = run(g, u0, params)
        forced_dp(monkeypatch)
        slow = run(g, u0, params)
        assert fast.steady and len(jump_census(fast.state.u, 0.05)) == m
        self.assert_same_run(fast, slow)


class TestRofSteadyState:
    def test_rof_steady_state_is_one_prox_of_the_data(self):
        # rof's energy is sigma sum|Du| + (lam h / 2)|u - g|^2: its minimizer,
        # the flow's steady state, is tv_prox(g, lam h, sigma).
        spec = ExperimentSpec(name="noisy_steps", seed=0, models=("rof",))
        record = run_experiment(spec)
        res, g = record.results["rof"], record.g
        assert res.steady and g.n == 1000
        p = res.params
        prox = tv_prox(g.samples, p.lam * g.h, np.full(g.n - 1, p.sigma))
        assert np.max(np.abs(res.state.u.samples - prox)) <= 1e-10


class TestStopRule:
    @staticmethod
    def t_max_state(g, params):
        """u after all round(t_max / dt) steps of a run from u0 = g with free
        ends, whatever the stop rule."""
        u, v = g.samples.copy(), None if params.model == "rof" else np.ones(g.n)
        w = flow_mod._edge_weights(v, params)
        for _ in range(round(params.t_max / params.dt)):
            u, v, w, _, _ = flow_mod._step(u, v, g, params, w)
        return u

    @pytest.mark.parametrize("scale", [1.0, 1e-3, 1e-9])
    def test_a_steady_run_ends_at_its_t_max_state_at_every_scale(self, scale):
        # The rate is relative to max|u| with no floor: a run on data scaled
        # by 1e-9 stops where the unit run does, not after a few steps.
        base = generate_signal("noisy_steps", n=200, seed=1)
        g = GridSignal(base.domain, scale * base.samples)
        params = FlowParams(model="at", lam=5.0, n=200, t_max=50.0)
        res = run(g, g, params)
        assert res.steady and res.steps < 5000
        assert np.max(np.abs(res.state.u.samples - self.t_max_state(g, params))) <= 1e-10 * scale

    def test_a_step_with_no_change_is_quiet(self):
        g = GridSignal((0.0, 1.0), np.zeros(11))
        res = run(g, g, FlowParams(model="kwc", lam=1.0, n=11, t_max=1.0))
        assert res.steady and res.steps == 2
        assert [row[2] for row in res.trace[1:]] == [0.0, 0.0]

    def test_a_change_onto_zero_is_not_quiet(self):
        # Two nodes merge onto their mean 0 in the first step: an infinite
        # relative rate, then two quiet steps.
        g = GridSignal((0.0, 1.0), np.array([-1.0, 1.0]))
        res = run(g, g, FlowParams(model="rof", lam=1.0, n=2, sigma=1e3, t_max=1.0))
        assert np.array_equal(res.state.u.samples, [0.0, 0.0])
        assert [row[2] for row in res.trace[1:]] == [math.inf, 0.0, 0.0]
        assert res.steady and res.steps == 3


class TestDivergenceHandling:
    def test_nonfinite_state_raises_with_postmortem(self, monkeypatch):
        rng = np.random.default_rng(54)
        g = GridSignal((0, 1), rng.normal(0.5, 0.5, 50))
        orig, calls = flow_mod._step, []

        def corrupting(u, v, gg, params, w):
            u1, *rest = orig(u, v, gg, params, w)
            calls.append(u1)
            if len(calls) > 5:
                u1 = u1.copy()
                u1[3] = np.nan
            return (u1, *rest)

        monkeypatch.setattr(flow_mod, "_step", corrupting)
        with pytest.raises(DivergenceError) as err:
            run(g, g, FlowParams(model="rof", lam=1.0, n=50, t_max=1.0))
        # The error carries the last finite state, after the fifth step.
        state, trace = err.value.state, err.value.trace
        assert len(trace) == 6
        assert np.array_equal(state.u.samples, calls[4]) and state.v is None
        assert (state.t, state.energy, state.prox_gap) == (trace[-1][0], trace[-1][1], trace[-1][3])


class TestCensusTools:
    @pytest.mark.parametrize(
        "threshold", [np.nan, -1.0, "0.1", None, True], ids=["nan", "negative", "text", "none", "bool"]
    )
    def test_threshold_must_be_a_non_negative_number(self, threshold):
        u = unit_step(11)
        for census in (jump_census, edges_above, plateau_flatness):
            with pytest.raises(ConfigError, match="census threshold"):
                census(u, threshold)

    def test_census_recovers_plateau_structure(self):
        n = 2001
        x = np.linspace(0, 1, n)
        u = GridSignal((0, 1), np.where(x < 0.3, 0.0, np.where(x < 0.7, 0.5, 1.0)))
        census = jump_census(u, 0.1)
        assert len(census) == 2
        assert census[0][0] == pytest.approx(0.3, abs=1e-3)
        assert census[0][1] == pytest.approx(0.5, abs=1e-12)
        assert census[1][0] == pytest.approx(0.7, abs=1e-3)
        assert edges_above(u, 0.1) == 2
        flats = plateau_flatness(u, 0.1)
        assert len(flats) == 3
        assert all(dev == 0.0 for _, _, dev in flats)

    def test_smooth_signal_has_no_census_entries(self):
        n = 1001
        x = np.linspace(0, 1, n)
        u = GridSignal((0, 1), np.sin(2 * np.pi * x))
        assert jump_census(u, 0.1) == []
        assert edges_above(u, 0.1) == 0

    def test_threshold_separates_scales(self):
        n = 1001
        x = np.linspace(0, 1, n)
        u = GridSignal((0, 1), np.where(x < 0.5, 0.0, 1.0) + 0.04 * np.sin(40 * np.pi * x))
        assert edges_above(u, 0.5) == 1


class TestGridRefinement:
    def test_steady_profiles_agree_across_resolutions(self):
        # The same instance solved at two resolutions lands on nearby
        # steady profiles away from the jump.
        results = {}
        for n in (201, 401):
            res = run(unit_step(n), unit_step(n), FlowParams(model="rof", lam=50.0, n=n, t_max=50.0))
            assert res.steady
            results[n] = res.state.u
        coarse, fine = results[201], results[401]
        xs = np.linspace(0.02, 0.45, 50)
        diff = np.abs(np.interp(xs, coarse.x(), coarse.samples) - np.interp(xs, fine.x(), fine.samples))
        assert diff.max() < 5e-3


class TestMetamorphic:
    @pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
    @pytest.mark.parametrize("model", ["rof", "at", "kwc"])
    @pytest.mark.parametrize("data", ["sine", "noisy_steps", "linear"])
    def test_negated_and_reflected_data(self, data, model, bc):
        """Negated data give -u bit for bit, and reflected data the reflected
        run up to rounding, each in as many steps."""
        g = generate_signal(data, n=400, seed=1)
        params = FlowParams(model=model, lam=30.0, n=400, t_max=5.0, bc_u=bc)
        base = run(g, g, params)
        negated = GridSignal(g.domain, -g.samples)
        neg = run(negated, negated, params)
        assert neg.steps == base.steps
        assert np.array_equal(neg.state.u.samples, -base.state.u.samples)
        if base.state.v is not None:
            assert np.array_equal(neg.state.v.samples, base.state.v.samples)
        if model == "kwc" and data == "linear":
            # The ramp is an unstable state of the kwc flow, so rounding
            # chooses where a run from it ends: the reflected runs end about
            # 0.2 apart, after different step counts.
            return
        reflected = GridSignal(g.domain, g.samples[::-1])
        ref = run(reflected, reflected, params)
        assert ref.steps == base.steps
        np.testing.assert_allclose(ref.state.u.samples[::-1], base.state.u.samples, rtol=0, atol=1e-12)
        if base.state.v is not None:
            np.testing.assert_allclose(ref.state.v.samples[::-1], base.state.v.samples, rtol=0, atol=1e-12)
