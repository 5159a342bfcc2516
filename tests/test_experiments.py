"""Unit tests for experiment specs, signal generators, and artifact output."""

import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

import kwcseg.exact as exact_mod
import kwcseg.experiments as xp
import kwcseg.flow as flow_mod
from kwcseg.errors import ConfigError, DivergenceError, InvariantViolation
from kwcseg.exact import BoundReport, jump_bounds
from kwcseg.flow import FlowParams
from kwcseg.kernel import kwc_kernel, linear_kernel
from kwcseg.oracle import OracleProblem, solve
from kwcseg.pwc import GridSignal, SineData


def tiny_spec(models=("rof",), n=101):
    return xp.ExperimentSpec(
        name="custom",
        data="step",
        models=tuple(models),
        lam=30.0,
        n=n,
        t_max=0.5,
        seed=3,
    )


class TestExperimentSpec:
    def test_json_round_trip_is_identity(self):
        spec = tiny_spec(models=("rof", "kwc"))
        d = spec.to_json_dict()
        back = xp.ExperimentSpec.from_json_dict(json.loads(json.dumps(d)))
        assert back == spec

    def test_unknown_experiment_name_rejected(self):
        with pytest.raises(ConfigError):
            xp.ExperimentSpec.from_json_dict({"name": "nope", "data": "step", "models": ["rof"]})

    def test_model_field_rejected(self):
        with pytest.raises(ConfigError, match=r"keys: \['model'\]"):
            xp.ExperimentSpec.from_json_dict(
                {"name": "custom", "data": "step", "models": ["rof"], "lam": 1.0, "model": "at"}
            )

    def test_unknown_setting_rejected(self):
        with pytest.raises(ConfigError, match="cp_iters"):
            xp.ExperimentSpec.from_json_dict({"name": "noisy_steps", "cp_iters": 200})

    @pytest.mark.parametrize(
        "key, value",
        [("overrides", {"pre_relax": True}), ("bc_u", "neumann"), ("pre_relax", True), ("sigma", 3.0),
         ("epsilon", 0.01)],
    )
    def test_a_flow_setting_the_protocol_fixes_is_rejected(self, key, value):
        # Such a setting would change the run the summary describes: a
        # pre-relaxed "naive" run, or free ends on the pinned ladder.
        with pytest.raises(ConfigError, match=rf"keys: \['{key}'\]"):
            xp.ExperimentSpec.from_json_dict({"name": "linear_steady", key: value})

    @pytest.mark.parametrize("name, models", [("custom", ["rof", "rof"]), ("sine_segmentation", ["kwc", "at", "kwc"])])
    def test_repeated_models_rejected(self, name, models):
        extra = {"data": "step", "lam": 5.0} if name == "custom" else {}
        with pytest.raises(ConfigError, match=rf"repeated models \['{models[0]}'\]"):
            xp.ExperimentSpec.from_json_dict({"name": name, "models": models, **extra})

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigError):
            xp.ExperimentSpec.from_json_dict(
                {"name": "custom", "data": "step", "models": ["rof"], "bogus": 1}
            )

    def test_custom_requires_fidelity_weight(self):
        with pytest.raises(ConfigError):
            xp.ExperimentSpec.from_json_dict({"name": "custom", "data": "step", "models": ["rof"]})

    def test_unknown_generator_rejected_when_built(self):
        with pytest.raises(ConfigError, match="data generator 'wat'"):
            xp.ExperimentSpec.from_json_dict(
                {"name": "custom", "data": "wat", "models": ["rof"], "lam": 1.0}
            )

    def test_unknown_model_rejected_when_built(self):
        with pytest.raises(ConfigError, match=r"models \['wat'\]"):
            xp.ExperimentSpec.from_json_dict(
                {"name": "custom", "data": "step", "models": ["wat"], "lam": 1.0}
            )

    def test_custom_requires_data_and_models(self):
        with pytest.raises(ConfigError):
            xp.ExperimentSpec.from_json_dict(
                {"name": "custom", "data": "step", "models": [], "lam": 1.0}
            )

    @pytest.mark.parametrize("models", [5, None, "rof", {"rof": 1}])
    def test_models_must_be_a_list_of_names(self, models):
        with pytest.raises(ConfigError, match="models must be a list of model names"):
            xp.ExperimentSpec.from_json_dict(
                {"name": "custom", "data": "step", "models": models, "lam": 1.0}
            )

    @pytest.mark.parametrize(
        "field, value",
        [("lam", "x"), ("lam", -1.0), ("lam", math.nan), ("n", 1), ("n", 2.5), ("n", 10**7), ("t_max", 0.0),
         ("t_max", math.inf), ("t_max", 0.004), ("t_max", 1e6)],
    )
    def test_each_flow_setting_is_checked_by_its_flow_rule(self, field, value):
        settings = {"lam": 1.0, field: value}
        with pytest.raises(ConfigError, match=field):
            xp.ExperimentSpec.from_json_dict({"name": "custom", "data": "step", "models": ["rof"], **settings})
        with pytest.raises(ConfigError, match=field):
            flow_mod.FlowParams(model="rof", **settings)

    def test_protocol_names_are_registered(self):
        assert xp.EXPERIMENTS == (
            "linear_steady",
            "nonuniqueness",
            "sine_segmentation",
            "noisy_steps",
        )


class TestSignalGenerators:
    def test_linear_ramp_samples(self):
        g = xp.generate_signal("linear", n=5)
        np.testing.assert_allclose(g.samples, [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-15)

    def test_sine_wave_nodes_and_amplitude(self):
        g = xp.generate_signal("sine", n=1201)
        x = g.x()
        np.testing.assert_allclose(g.samples, np.sin(3 * np.pi * x), atol=1e-12)
        assert g.samples.max() == pytest.approx(1.0, abs=1e-6)
        for node in (0.0, 1 / 3, 2 / 3, 1.0):
            idx = int(round(node * (g.n - 1)))
            if abs(x[idx] - node) < 1e-12:
                assert abs(g.samples[idx]) <= 1e-12

    def test_step_splits_at_midpoint(self):
        g = xp.generate_signal("step", n=9)
        np.testing.assert_array_equal(g.samples[:4], 0.0)
        np.testing.assert_array_equal(g.samples[4:], 1.0)

    def test_three_plateau_profile(self):
        g = xp.generate_signal("steps", n=12)
        assert set(np.round(g.samples, 3)) == {0.2, 0.8, 0.35}

    def test_noisy_steps_reproducible_and_centered(self):
        a = xp.generate_signal("noisy_steps", n=600, seed=7)
        b = xp.generate_signal("noisy_steps", n=600, seed=7)
        assert np.array_equal(a.samples, b.samples)
        c = xp.generate_signal("noisy_steps", n=600, seed=8)
        assert not np.array_equal(a.samples, c.samples)
        third = 600 // 3
        assert a.samples[:third].mean() == pytest.approx(0.2, abs=0.05)
        assert a.samples[third : 2 * third].mean() == pytest.approx(0.8, abs=0.05)
        assert a.samples[2 * third :].mean() == pytest.approx(0.35, abs=0.05)

    def test_the_generators_are_the_names_of_the_data_table(self):
        assert xp.GENERATORS == tuple(xp.CLEAN_DATA) == ("linear", "sine", "step", "steps", "noisy_steps")

    @pytest.mark.parametrize("n", [2, 9, 101, 1000])
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("name", ["linear", "sine", "step", "steps", "noisy_steps"])
    def test_samples_equal_the_plain_formulas_bit_for_bit(self, name, n, seed):
        x = np.linspace(0.0, 1.0, n)
        steps = np.select([x <= 1.0 / 3.0, x <= 2.0 / 3.0], [0.2, 0.8], 0.35)
        expected = {
            "linear": x.copy(),
            "sine": np.sin(3.0 * np.pi * x),
            "step": np.where(x < 0.5, 0.0, 1.0),
            "steps": steps,
            "noisy_steps": steps + np.random.default_rng(seed).normal(0.0, 0.1, size=n),
        }[name]
        assert np.array_equal(xp.generate_signal(name, n=n, seed=seed).samples, expected)

    def test_unknown_generator(self):
        with pytest.raises(ConfigError):
            xp.generate_signal("wat")

    @pytest.mark.parametrize(
        "field, kwargs",
        [("n", {"n": 7.9}), ("n", {"n": 1}), ("n", {"n": True}), ("seed", {"seed": 2.5}), ("seed", {"seed": -1})],
    )
    def test_size_and_seed_must_be_counts(self, field, kwargs):
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            xp.generate_signal("noisy_steps", **kwargs)


class TestCensusFit:
    def test_recovers_plateaus_from_wiggly_data(self):
        x = np.linspace(0, 1, 400)
        sig = np.where(x < 0.4, 0.2, 0.9) + 0.01 * np.sin(37 * x)
        fit = flow_mod.census_fit(GridSignal((0, 1), sig), 0.3)
        assert len(fit.breakpoints) == 1
        assert fit.breakpoints[0] == pytest.approx(0.4, abs=0.01)
        assert fit.values[0] == pytest.approx(0.2, abs=0.02)
        assert fit.values[1] == pytest.approx(0.9, abs=0.02)


class TestRunAndArtifacts:
    def test_artifact_files_exist_and_have_contracted_headers(self, tmp_path):
        rec = xp.run_experiment(tiny_spec(models=("rof", "kwc")), out_dir=tmp_path)
        assert list(rec.results) == ["rof", "kwc"]
        assert rec.summary["wall_time_seconds"] > 0
        for paths in rec.artifacts.values():
            if isinstance(paths, dict):
                for p in paths.values():
                    assert os.path.exists(p)
            else:
                assert os.path.exists(paths)
        trace_head = (tmp_path / "rof" / "trace.csv").read_text().splitlines()[0]
        assert trace_head == "t,energy,change_rate,prox_gap"
        assert (tmp_path / "rof" / "final.csv").read_text().splitlines()[0] == "x,u"
        assert (tmp_path / "kwc" / "final.csv").read_text().splitlines()[0] == "x,u,v"
        result = json.loads((tmp_path / "rof" / "result.json").read_text())
        for key in ("model", "steady", "steps", "t_final", "energy", "jump_census", "params"):
            assert key in result

    def test_result_json_is_the_protocol_block_plus_params(self, tmp_path):
        # noisy_steps censuses at DENOISE_THRESHOLD, not the writer's default.
        spec = xp.ExperimentSpec(name="noisy_steps", n=101, t_max=0.5)
        xp.run_experiment(spec, out_dir=tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        for model, block in summary["models"].items():
            result = json.loads((tmp_path / model / "result.json").read_text())
            assert result.pop("params")["model"] == model
            assert result == block
            assert result["census_threshold"] == xp.DENOISE_THRESHOLD

    def test_summary_round_trips_spec(self, tmp_path):
        spec = tiny_spec()
        xp.run_experiment(spec, out_dir=tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert xp.ExperimentSpec.from_json_dict(summary["spec"]) == spec

    def test_rerun_is_bit_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        xp.run_experiment(tiny_spec(), out_dir=a)
        xp.run_experiment(tiny_spec(), out_dir=b)
        assert (a / "rof" / "final.csv").read_bytes() == (b / "rof" / "final.csv").read_bytes()
        assert (a / "rof" / "trace.csv").read_bytes() == (b / "rof" / "trace.csv").read_bytes()

    def test_plots_are_deterministic(self, tmp_path):
        rec = xp.run_experiment(tiny_spec(), out_dir=tmp_path)
        first = xp.plot_record(rec, tmp_path)
        payload = [Path(p).read_bytes() for p in first]
        second = xp.plot_record(rec, tmp_path)
        assert first == second
        assert [Path(p).read_bytes() for p in second] == payload
        assert all(p.endswith(".svg") for p in first)

    def test_plots_are_drawn_from_the_record_not_the_files(self, tmp_path):
        rec = xp.run_experiment(tiny_spec(models=("rof", "kwc")), out_dir=tmp_path)
        first = [Path(p).read_bytes() for p in xp.plot_record(rec, tmp_path)]
        for label in ("rof", "kwc"):
            os.remove(rec.artifacts[label]["final"])
        assert [Path(p).read_bytes() for p in xp.plot_record(rec, tmp_path)] == first

    def test_plot_without_artifacts_is_empty(self, tmp_path):
        rec = xp.run_experiment(tiny_spec())
        assert rec.artifacts == {}
        assert xp.plot_record(rec, tmp_path) == []

    def test_energy_rise_is_relative_at_every_scale(self):
        # Energies near 1e-40: the worst rise, 1e-40 to 1.5e-40, is a third
        # of the larger energy, as at unit scale (a floor made it 5e-11).
        for scale in (1.0, 1e-40):
            trace = [(t, scale * e, 0.0, 0.0) for t, e in enumerate([2.0, 1.0, 1.5, 1.4, 1.45])]
            assert xp._max_energy_rise(trace) == (1.5 * scale - 1.0 * scale) / (1.5 * scale)
        assert xp._max_energy_rise([(0, 2e-40, 0.0, 0.0), (1, 1e-40, 0.0, 0.0), (2, 0.0, 0.0, 0.0)]) == 0.0


class TestNonuniqueness:
    """The protocol behind the paper's non-uniqueness claim, end to end."""

    @pytest.fixture(scope="class")
    def persisted(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("ties")
        return xp.run_experiment(xp.ExperimentSpec(name="nonuniqueness"), out_dir=out), out

    def test_the_oracle_ties_the_theory_counts(self, persisted):
        summary = persisted[0].summary
        oracle = summary["oracle"]
        assert oracle["tie_jump_counts"] == summary["tied_jump_counts_theory"] == [1, 2]
        assert oracle["jump_count"] in oracle["tie_jump_counts"]
        assert oracle["energy"] == pytest.approx(13 / 18, rel=1e-9)
        assert set(oracle) == {"n_cells", "n_levels", "jump_count", "energy", "tie_jump_counts"}

    def test_both_ladders_reach_the_same_energy(self, persisted):
        summary = persisted[0].summary
        match = summary["energy_match"]
        assert match["rel_diff"] <= match["tol"]
        assert [summary["runs"][label]["fit_jump_count"] for label in ("m1", "m2")] == [1, 2]
        assert summary["bound_violations"] == []

    def test_summary_json_holds_the_oracle_result(self, persisted):
        record, out = persisted
        saved = json.loads((out / "summary.json").read_text())
        assert saved["oracle_result"] == record.summary["oracle_result"]
        assert saved["oracle_result"]["jump_count"] == saved["oracle"]["jump_count"]
        assert saved["oracle"] == record.summary["oracle"]


class TestSharpTwinRows:
    """A run's oracle row and bound block take the run's own sharp twin."""

    CASES = [("kwc", 2.0, kwc_kernel(2.0)), ("kwc", 0.5, kwc_kernel(0.5)), ("rof", 0.5, linear_kernel())]

    @pytest.mark.parametrize("model, sigma, kernel", CASES)
    def test_the_oracle_row_is_the_twin_solve_times_its_factor(self, model, sigma, kernel):
        data = SineData((0.0, 1.0))
        row, result = xp._oracle_row(FlowParams(model, 150.0, sigma=sigma), data, 50, 21)
        twin = solve(OracleProblem(data, kernel, 150.0 / sigma, 50, n_levels=21))
        assert result.to_json_dict() == twin.to_json_dict()
        assert row == {"n_cells": 50, "n_levels": 21, "jump_count": twin.jump_count, "energy": sigma * twin.energy.total}

    @pytest.mark.parametrize("model, sigma, kernel", CASES[:2])
    def test_the_bound_block_bounds_the_twin(self, model, sigma, kernel):
        report = jump_bounds(kernel, 0.0, 1.0, 40.0 / sigma, mass_cap=1.0)
        block = xp._bound_block(FlowParams(model, 40.0, sigma=sigma), report.jumps_monotone_data + 1, applies=True)
        assert (block["jumps_monotone_data"], block["jumps_any_data"]) == (
            report.jumps_monotone_data,
            report.jumps_any_data,
        )
        assert block["violated"]


class TestRunFailures:
    def test_a_diverged_run_leaves_its_trace(self, tmp_path, monkeypatch):
        orig, calls = flow_mod._step, []

        def corrupting(u, v, g, params, w):
            u1, *rest = orig(u, v, g, params, w)
            calls.append(None)
            if len(calls) > 3:
                u1 = u1.copy()
                u1[1] = np.nan
            return (u1, *rest)

        monkeypatch.setattr(flow_mod, "_step", corrupting)
        with pytest.raises(DivergenceError) as err:
            xp.run_experiment(tiny_spec(), out_dir=tmp_path)
        rows = (tmp_path / "diverged_trace.csv").read_text().splitlines()
        assert rows[0] == ",".join(flow_mod.TRACE_COLUMNS)
        assert len(rows) == 1 + len(err.value.trace)
        assert not (tmp_path / "summary.json").exists()

    def test_a_bound_violation_raises_after_the_artifacts_are_written(self, tmp_path, monkeypatch):
        # A bound of 0 jumps is exceeded by every ladder run.
        monkeypatch.setattr(exact_mod, "jump_bounds", lambda *args, **kw: BoundReport(0, 0, None))
        with pytest.raises(InvariantViolation, match="m1, m2"):
            xp.run_experiment(xp.ExperimentSpec(name="nonuniqueness"), out_dir=tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["bound_violations"] == ["m1", "m2"]
        assert all(summary["runs"][label]["bound"]["violated"] for label in ("m1", "m2"))
