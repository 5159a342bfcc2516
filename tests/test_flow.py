"""Unit tests for the gradient flows, their inner solver, and diagnostics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

import kwcseg.flow as flow_mod
from kwcseg.errors import ConfigError, DivergenceError
from kwcseg.flow import (
    TRACE_COLUMNS,
    FlowParams,
    FlowState,
    edges_above,
    flow_energy,
    jump_census,
    plateau_flatness,
    pre_relax_v,
    prox_gap,
    run,
    steady_damage_profile,
    tv_prox,
    tv_prox_dual,
)
from kwcseg.pwc import GridSignal


def unit_step(n):
    x = np.linspace(0, 1, n)
    return GridSignal((0.0, 1.0), np.where(x < 0.5, 0.0, 1.0))


class TestValidation:
    def test_unknown_model(self):
        with pytest.raises(ConfigError):
            FlowParams(model="bogus", lam=1.0, n=50).validate()

    def test_too_few_nodes(self):
        with pytest.raises(ConfigError):
            FlowParams(model="rof", lam=1.0, n=1).validate()

    def test_negative_time_step(self):
        with pytest.raises(ConfigError):
            FlowParams(model="rof", lam=1.0, n=50, dt=-1.0).validate()

    @pytest.mark.parametrize("name", ["lam", "sigma", "dt", "epsilon", "t_max", "steady_tol"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_values_rejected(self, name, value):
        with pytest.raises(ConfigError, match=name):
            FlowParams(**{"model": "rof", "lam": 1.0, "n": 50, name: value}).validate()

    @pytest.mark.parametrize("dt, t_max", [(0.01, 0.004), (0.01, 0.005), (2.0, 1.0)])
    def test_fewer_than_one_time_step_rejected(self, dt, t_max):
        with pytest.raises(ConfigError, match="time step"):
            FlowParams(model="rof", lam=1.0, n=50, dt=dt, t_max=t_max).validate()

    def test_one_time_step_runs(self):
        g = unit_step(50)
        res = run(g, g, FlowParams(model="rof", lam=1.0, n=50, dt=0.01, t_max=0.006))
        assert res.steps == 1

    def test_negative_steady_tolerance_rejected(self):
        with pytest.raises(ConfigError, match="steady_tol"):
            FlowParams(model="rof", lam=1.0, n=50, steady_tol=-1.0).validate()

    def test_output_stride_must_be_positive(self):
        with pytest.raises(ConfigError):
            FlowParams(model="rof", lam=1.0, n=50, output_stride=0).validate()

    def test_unknown_boundary_condition(self):
        with pytest.raises(ConfigError):
            FlowParams(model="rof", lam=1.0, n=50, bc_u="mixed").validate()

    def test_interface_width_must_be_positive(self):
        with pytest.raises(ConfigError):
            FlowParams(model="at", lam=1.0, n=50, epsilon=0.0).validate()

    @pytest.mark.parametrize("model", ["at", "kwc"])
    @pytest.mark.parametrize("epsilon", [5e-324, 1e-320, 1e20, 1e300])
    def test_interface_width_must_keep_the_damage_matrix_regular(self, model, epsilon):
        # Tiny widths overflow h/eps; huge ones swamp h/eps so the steady
        # damage matrix is singular.
        g = unit_step(101)
        with pytest.raises(ConfigError, match="epsilon"):
            run(g, g, FlowParams(model=model, lam=30.0, n=101, t_max=0.05, epsilon=epsilon, pre_relax=True))

    @pytest.mark.parametrize("epsilon", [1e-300, 1e4])
    def test_extreme_but_regular_interface_widths_run(self, epsilon):
        g = unit_step(101)
        res = run(g, g, FlowParams(model="kwc", lam=30.0, n=101, t_max=0.05, epsilon=epsilon, pre_relax=True))
        assert np.isfinite(res.state.energy)

    @pytest.mark.parametrize("epsilon", [5e-324, 1e300])
    def test_steady_damage_profile_validates_params(self, epsilon):
        with pytest.raises(ConfigError, match="epsilon"):
            steady_damage_profile(unit_step(101), FlowParams(model="kwc", lam=30.0, n=101, epsilon=epsilon))

    def test_interface_width_is_checked_on_the_data_spacing(self):
        # h = 1e4 on this domain: h/eps overflows, though 1/(n - 1) / eps does not.
        x = np.linspace(0.0, 1.0, 101)
        g = GridSignal((0.0, 1e6), np.where(x < 0.5, 0.0, 1.0))
        params = FlowParams(model="kwc", lam=30.0, n=101, t_max=0.05, epsilon=1e-306)
        with pytest.raises(ConfigError, match="epsilon"):
            run(g, g, params)
        with pytest.raises(ConfigError, match="epsilon"):
            steady_damage_profile(g, params)

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

    def test_steady_damage_profile_grid_mismatch(self):
        with pytest.raises(ConfigError, match="grid mismatch"):
            steady_damage_profile(unit_step(101), FlowParams(model="kwc", lam=30.0, n=51))

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

    def test_dirichlet_pins_are_exact_after_every_step(self):
        rng = np.random.default_rng(52)
        n = 101
        g = GridSignal((0.0, 1.0), rng.normal(0.5, 0.3, n))
        params = FlowParams(model="kwc", lam=30.0, n=n, bc_u="dirichlet", t_max=0.05)
        state = FlowState(t=0.0, u=g, v=GridSignal(g.domain, np.ones(n)))
        for _ in range(5):
            state = flow_mod.step(state, g, params)
            assert state.u.samples[0] == g.samples[0]
            assert state.u.samples[-1] == g.samples[-1]

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
        eps = 0.01
        n = 1 + int(np.ceil(1.0 / (4 * eps * eps)))
        g = unit_step(n)
        params = FlowParams(model="kwc", lam=50.0, n=n, epsilon=eps)
        st = FlowState(t=0.0, u=g, v=GridSignal(g.domain, np.ones(n)))
        relaxed = pre_relax_v(st, g, params)
        assert relaxed.v.samples.min() == pytest.approx(0.5, rel=0.03)
        again = pre_relax_v(relaxed, g, params)
        assert np.max(np.abs(again.v.samples - relaxed.v.samples)) <= 1e-9

    def test_pre_relax_on_constant_data_keeps_damage_whole(self):
        n = 201
        g = GridSignal((0.0, 1.0), np.full(n, 0.3))
        params = FlowParams(model="kwc", lam=50.0, n=n)
        st = FlowState(t=0.0, u=g, v=GridSignal(g.domain, np.ones(n)))
        relaxed = pre_relax_v(st, g, params)
        assert relaxed.v.samples.min() >= 1.0 - 1e-9

    @pytest.mark.parametrize("model", ["kwc", "at"])
    def test_pre_relax_is_the_steady_profile_and_a_fixed_point(self, model):
        rng = np.random.default_rng(55)
        n = 201
        g = GridSignal((0.0, 1.0), unit_step(n).samples + rng.normal(0.0, 0.05, n))
        params = FlowParams(model=model, lam=50.0, n=n, epsilon=0.02)
        st = FlowState(t=0.0, u=g, v=GridSignal(g.domain, np.ones(n)))
        relaxed = pre_relax_v(st, g, params)
        steady = steady_damage_profile(g, params).samples
        assert np.array_equal(relaxed.v.samples, steady)
        assert steady.min() < 0.9
        # One implicit damage step with u frozen leaves the steady state put.
        coupling = flow_mod._coupling(model, g.samples, params.sigma, g.h)
        stepped = flow_mod._damage_solve(coupling, g.h, params, v0=steady)
        assert np.max(np.abs(stepped - steady)) <= 1e-12

    def test_rof_step_has_no_damage_field(self):
        rng = np.random.default_rng(56)
        n = 101
        g = GridSignal((0.0, 1.0), rng.normal(0.5, 0.3, n))
        params = FlowParams(model="rof", lam=30.0, n=n)
        state = flow_mod.step(FlowState(t=0.0, u=g), g, params)
        assert state.v is None
        assert np.isfinite(state.prox_gap)
        assert state.prox_gap <= 1e-8
        assert state.t == pytest.approx(params.dt)


class TestNonFiniteInput:
    @pytest.mark.parametrize("which", ["g", "u0"])
    def test_run_rejects_non_finite_samples(self, which):
        n = 11
        good = unit_step(n)
        bad = GridSignal(good.domain, np.where(np.arange(n) == 4, np.nan, good.samples))
        g, u0 = (bad, good) if which == "g" else (good, bad)
        with pytest.raises(ConfigError, match="finite"):
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


def split_form_reference(z, c, w, pins):
    """SLSQP on  min w.s + (c/2)|u - z|^2  subject to  -s <= Du <= s."""
    n = z.size
    free = n if pins is None else n - 2

    def full_u(v):
        return v[:n] if pins is None else np.concatenate(([pins[0]], v[:free], [pins[1]]))

    def objective(v):
        return float(w @ v[free:]) + 0.5 * c * float(np.sum((full_u(v) - z) ** 2))

    constraints = [
        {"type": "ineq", "fun": lambda v: v[free:] - np.diff(full_u(v))},
        {"type": "ineq", "fun": lambda v: v[free:] + np.diff(full_u(v))},
    ]
    start = np.concatenate((z[:free] if pins is None else z[1:-1], np.abs(np.diff(z)) + 1.0))
    res = minimize(objective, start, method="SLSQP", constraints=constraints, options={"ftol": 1e-15, "maxiter": 1000})
    return full_u(res.x)


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


class TestInnerSolver:
    @settings(max_examples=300)
    @given(prox_instances())
    def test_prox_matches_split_form_reference(self, instance):
        z, c, w, pins = instance
        u = tv_prox(z, c, w, pins)
        np.testing.assert_allclose(u, split_form_reference(z, c, w, pins), rtol=0, atol=1e-6)
        p = tv_prox_dual(u, z, c, w, pins)
        assert np.all(np.abs(p) <= w)
        assert prox_gap(u, p, z, c, w, pins) <= 1e-10
        if pins is not None:
            assert (u[0], u[-1]) == pins

    @pytest.mark.parametrize("pins", [None, (0.0, 1.0), (1.0, 0.0), (0.5, 0.5)])
    def test_certificate_on_tie_heavy_data(self, pins):
        # Integer data and weights put many crossings exactly on knots.
        rng = np.random.default_rng(7)
        n = 400
        z = rng.integers(-2, 3, size=n) * 0.5
        w = rng.integers(0, 3, size=n - 1) * 0.25
        u = tv_prox(z, 1.0, w, pins)
        p = tv_prox_dual(u, z, 1.0, w, pins)
        assert np.all(np.abs(p) <= w)
        assert prox_gap(u, p, z, 1.0, w, pins) <= 1e-10

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


class TestDivergenceHandling:
    def test_nonfinite_state_raises_with_postmortem(self, monkeypatch):
        rng = np.random.default_rng(54)
        g = GridSignal((0, 1), rng.normal(0.5, 0.5, 50))
        orig = flow_mod.step

        def corrupting(state, gg, params):
            st = orig(state, gg, params)
            if st.t > 0.05:
                u = st.u.samples.copy()
                u[3] = np.nan
                st.u = GridSignal(gg.domain, u)
            return st

        monkeypatch.setattr(flow_mod, "step", corrupting)
        with pytest.raises(DivergenceError) as err:
            run(g, g, FlowParams(model="rof", lam=1.0, n=50, t_max=1.0))
        assert err.value.state is not None
        assert len(err.value.trace) >= 1


class TestCensusTools:
    @pytest.mark.parametrize("threshold", [np.nan, -1.0, "0.1", None], ids=["nan", "negative", "text", "none"])
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
