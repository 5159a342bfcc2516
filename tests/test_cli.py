"""End-to-end tests of the command-line interface and its exit codes."""

import importlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import kwcseg.cli as cli
import kwcseg.flow as flow_mod
from kwcseg.cli import main
from kwcseg.errors import InvariantViolation
from kwcseg.experiments import generate_signal
from kwcseg.kernel import JumpKernel
from kwcseg.oracle import solve
from kwcseg.pwc import LinearData, SineData

from proof_devices import sequence_from_result


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_json(out):
    return json.loads(out)


class TestCheckKernel:
    def test_standard_kernel_passes(self, capsys):
        code, out, _ = run_cli(capsys, "check-kernel", "--kind", "kwc", "--M", "2")
        assert code == 0
        rep = parse_json(out)
        assert rep["report"]["strengthened_subadditive"] is True
        assert rep["report"]["unit_slope_at_zero"] is True
        assert rep["constants"]["split_gain"] == pytest.approx(1 / 3, abs=1e-3)

    def test_linear_kernel_reported_without_gain(self, capsys):
        code, out, _ = run_cli(capsys, "check-kernel", "--kind", "linear", "--M", "2")
        assert code == 0
        rep = parse_json(out)
        assert rep["report"]["strengthened_subadditive"] is False
        assert rep["report"]["split_gain"] is None

    def test_invalid_kernel_parameter_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "check-kernel", "--kind", "potts", "--height", "-1", "--M", "1"
        )
        assert code == 2
        assert "config error" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("--kind", "kwc", "--kappa", "inf", "--M", "1"),
            ("--kind", "potts", "--height", "inf", "--M", "1"),
            ("--kind", "kwc", "--M", "inf"),
            ("--kind", "linear", "--M", "nan"),
        ],
        ids=["kappa_inf", "height_inf", "mass_cap_inf", "mass_cap_nan"],
    )
    def test_non_finite_input_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, "check-kernel", *argv)
        assert code == 2
        assert err.startswith("config error")
        assert out == ""


    def test_stiff_kernel_report_is_decided_by_kind(self, capsys):
        code, out, _ = run_cli(capsys, "check-kernel", "--kind", "kwc", "--kappa", "1e9", "--M", "1")
        assert code == 0
        rep = parse_json(out)["report"]
        assert rep["unit_slope_at_zero"] is True
        assert rep["linear_floor_positive"] is True
        assert "slope_at_zero" not in rep and "samples" not in rep

    def test_samples_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["check-kernel", "--M", "1", "--samples", "100"])
        assert info.value.code == 2

    @pytest.mark.parametrize(
        "argv, param",
        [
            (("check-kernel", "--kind", "kwc", "--kappa", "1e300", "--M", "1"), "kappa"),
            (("check-kernel", "--kind", "kwc", "--M", "1e300"), "kappa"),
            (("exact", "bounds", "--kind", "kwc", "--kappa", "1e200", "--M", "1", "--lambda", "1"), "kappa"),
            (("exact", "bounds", "--kind", "potts", "--M", "1e200", "--lambda", "1"), "height"),
            (("exact", "bounds", "--kind", "potts", "--M", "1e-200", "--lambda", "1"), "height"),
            (("check-kernel", "--kind", "potts", "--M", "1e200"), "height"),
            (("check-kernel", "--kind", "potts", "--M", "1e-200"), "height"),
        ],
        ids=[
            "check_kappa_1e300", "check_mass_cap_1e300", "bounds_kappa_1e200", "bounds_potts_mass_cap_1e200",
            "bounds_potts_mass_cap_1e-200", "check_potts_mass_cap_1e200", "check_potts_mass_cap_1e-200",
        ],
    )
    def test_constants_out_of_float_range_exit_2(self, capsys, argv, param):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith("config error")
        assert f"{param}=" in err and "mass_cap=" in err
        assert out == ""
        assert caught == []


class TestExact:
    def test_critical_lambda(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "critical-lambda", "--L", "1")
        assert code == 0
        rep = parse_json(out)
        assert rep["lambda"] == pytest.approx(16 / 3, rel=1e-12)
        assert rep["tied_jump_counts"] == [1, 2]

    def test_bounds(self, capsys):
        code, out, _ = run_cli(
            capsys, "exact", "bounds", "--M", "1", "--lambda", str(16 / 3)
        )
        assert code == 0
        rep = parse_json(out)
        assert rep["jumps_monotone_data"] == 5
        assert rep["jumps_any_data"] == 11

    @pytest.mark.parametrize(
        "argv",
        [
            ("--M", "inf", "--lambda", "5"),
            ("--M", "1", "--lambda", "inf"),
            ("--M", "1", "--lambda", "nan"),
            ("--kappa", "inf", "--M", "1", "--lambda", "5"),
            ("--a=-inf", "--M", "1", "--lambda", "5"),
            ("--b", "10", "--M", "1", "--lambda", "1e308"),
        ],
        ids=["mass_cap_inf", "lam_inf", "lam_nan", "kappa_inf", "a_inf", "bound_overflow"],
    )
    def test_bounds_non_finite_input_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, "exact", "bounds", *argv)
        assert code == 2
        assert err.startswith("config error")
        assert out == ""

    def test_energy_table_csv(self, capsys, tmp_path):
        out_file = tmp_path / "table.csv"
        code, _, _ = run_cli(
            capsys,
            "exact",
            "energy-table",
            "--L",
            "1",
            "--lambda",
            str(16 / 3),
            "--m-max",
            "6",
            "--out",
            str(out_file),
        )
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "m,E"
        assert len(lines) == 7
        table = {int(r.split(",")[0]): float(r.split(",")[1]) for r in lines[1:]}
        assert table[1] == pytest.approx(13 / 18, rel=1e-12)
        assert table[1] == pytest.approx(table[2], rel=1e-12)
        assert table[3] > table[1]

    @pytest.mark.parametrize("m_max", ["0", "-3"])
    def test_energy_table_needs_a_row(self, capsys, m_max):
        code, out, err = run_cli(capsys, "exact", "energy-table", "--L", "1", "--lambda", "5", "--m-max", m_max)
        assert code == 2
        assert err.startswith("config error: ") and "m_max" in err
        assert out == ""

    @pytest.mark.parametrize("m_max", [cli.MAX_TABLE_JUMPS + 1, 100_000_000])
    def test_energy_table_rows_are_bounded(self, capsys, tmp_path, m_max):
        out_file = tmp_path / "table.csv"
        code, out, err = run_cli(
            capsys, "exact", "energy-table", "--L", "1", "--lambda", "5", "--m-max", str(m_max), "--out", str(out_file)
        )
        assert code == 2 and out == "" and not out_file.exists()
        assert err.startswith("config error: ")
        assert f"m_max = {m_max} exceeds the limit {cli.MAX_TABLE_JUMPS}" in err

    @pytest.mark.parametrize(
        "flags, cost",
        [
            (("--kind", "potts"), lambda d: 1.0),
            (("--kind", "potts", "--height", "0.3"), lambda d: 0.3),
            (("--kind", "linear"), lambda d: d),
            (("--kappa", "2"), lambda d: d / (1.0 + 2.0 * d)),
        ],
        ids=["potts", "potts_height_0.3", "linear", "kwc_kappa_2"],
    )
    def test_energy_table_of_any_kernel(self, capsys, flags, cost):
        # E/L = K(d)/d + lam d^2 / 24 for the m-jump ladder, d = L/m.
        code, out, _ = run_cli(capsys, "exact", "energy-table", *flags, "--L", "2", "--lambda", "5", "--m-max", "4")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [int(m) for m, _ in rows] == [1, 2, 3, 4]
        for m, e in rows:
            d = 2.0 / int(m)
            assert float(e) == pytest.approx(cost(d) / d + 5.0 * d * d / 24.0, rel=1e-12)

    def test_verdict(self, capsys):
        code, out, _ = run_cli(
            capsys, "exact", "verdict", "--c", "1", "--lambda", str(16 / 3)
        )
        assert code == 0
        rep = parse_json(out)
        assert rep["verdict"] == "equal_jumps_forced"

    def test_flat_kernel_verdict_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "exact", "verdict", "--kind", "potts", "--c", "1", "--lambda", str(16 / 3)
        )
        assert code == 0
        assert parse_json(out) == {"verdict": "equal_jumps_forced", "sign_pattern": "+"}

    @pytest.mark.parametrize(
        "argv",
        [
            ("verdict", "--c", "inf", "--lambda", "1"),
            ("verdict", "--c", "1", "--lambda", "nan"),
            ("verdict", "--c", "1", "--lambda", "inf"),
            ("critical-lambda", "--L", "inf"),
            ("energy-table", "--L", "inf", "--lambda", "1", "--m-max", "3"),
            ("energy-table", "--L", "1", "--lambda", "nan", "--m-max", "3"),
        ],
        ids=["verdict_c_inf", "verdict_lam_nan", "verdict_lam_inf", "critical_L_inf", "table_L_inf", "table_lam_nan"],
    )
    def test_closed_form_non_finite_input_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, "exact", *argv)
        assert code == 2
        assert err.startswith("config error")
        assert "finite" in err
        assert out == ""


class TestOracleSolve:
    def write_config(self, tmp_path, **extra):
        cfg = {
            "data": {"kind": "linear", "domain": [0.0, 1.0]},
            "kernel": {"kind": "kwc", "kappa": 1.0},
            "lam": 16 / 3,
            "n_cells": 100,
            "n_levels": 51,
            "endpoint_pin": True,
        }
        cfg.update(extra)
        path = tmp_path / "oracle.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_solve_reports_ties_and_writes_artifacts(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path)
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(
            capsys,
            "oracle",
            "solve",
            "--config",
            str(cfg),
            "--tie-scan",
            "4",
            "--out",
            str(out_dir),
        )
        assert code == 0
        rep = parse_json(out)
        counts = {rep["jump_count"]} | {t["jump_count"] for t in rep["ties"]}
        assert counts == {1, 2}
        assert rep["energy"]["total"] == pytest.approx(13 / 18, rel=1e-9)
        saved = json.loads((out_dir / "result.json").read_text())
        assert saved["jump_count"] == rep["jump_count"]
        csv_lines = (out_dir / "minimizer.csv").read_text().splitlines()
        assert csv_lines[0] == "x,u"
        assert len(csv_lines) == 101

    def test_minimizer_csv_holds_cell_midpoints_and_the_cell_values(self, capsys, tmp_path):
        cfg_path = self.write_config(tmp_path)
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(capsys, "oracle", "solve", "--config", str(cfg_path), "--out", str(out_dir))
        assert code == 0
        problem = cli._problem_from_config(json.loads(cfg_path.read_text()))
        table = np.loadtxt(out_dir / "minimizer.csv", delimiter=",", skiprows=1)
        np.testing.assert_allclose(table[:, 0], (np.arange(100) + 0.5) / 100, rtol=0, atol=1e-15)
        assert np.array_equal(table[:, 1], sequence_from_result(solve(problem), problem))

    def test_unknown_data_kind_exits_2(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path, data={"kind": "wat"})
        code, _, err = run_cli(capsys, "oracle", "solve", "--config", str(cfg))
        assert code == 2
        assert "config error" in err

    def test_malformed_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "oracle", "solve", "--config", str(path))
        assert code == 2
        assert "config error" in err

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), -1.0], ids=["nan", "inf", "negative"])
    def test_bad_weight_exits_2(self, capsys, tmp_path, lam):
        cfg = self.write_config(tmp_path, lam=lam)
        code, out, err = run_cli(capsys, "oracle", "solve", "--config", str(cfg))
        assert code == 2
        assert err.startswith("config error")
        assert out == ""

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0], ids=["nan", "inf", "negative"])
    def test_bad_tie_tolerance_exits_2(self, capsys, tmp_path, tol):
        cfg = self.write_config(tmp_path, tie_tolerance=tol)
        code, out, err = run_cli(capsys, "oracle", "solve", "--config", str(cfg), "--tie-scan", "4")
        assert code == 2
        assert err.startswith("config error")
        assert "tie_tolerance" in err
        assert out == ""

    def test_negative_tie_scan_exits_2(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path)
        code, out, err = run_cli(capsys, "oracle", "solve", "--config", str(cfg), "--tie-scan", "-3")
        assert code == 2
        assert err.startswith("config error")
        assert out == ""

    @pytest.mark.parametrize(
        "key, value",
        [("n_levels", 2.5), ("n_levels", -3), ("n_levels", True), ("n_levels", "51"), ("n_cells", 2.5), ("n_cells", 0)],
    )
    def test_grid_size_that_is_not_a_positive_integer_exits_2(self, capsys, tmp_path, key, value):
        cfg = self.write_config(tmp_path, **{key: value})
        code, out, err = run_cli(capsys, "oracle", "solve", "--config", str(cfg))
        assert code == 2
        assert err.startswith("config error")
        assert key in err
        assert out == ""

    def test_non_finite_csv_data_exits_2(self, capsys, tmp_path):
        csv_path = tmp_path / "g.csv"
        csv_path.write_text("x,value\n0,0\n0.5,nan\n1,1\n")
        cfg = self.write_config(tmp_path, data={"kind": "csv", "path": str(csv_path)}, n_cells=2)
        code, out, err = run_cli(capsys, "oracle", "solve", "--config", str(cfg))
        assert code == 2
        assert err.startswith("config error")
        assert "finite" in err
        assert out == ""

    @pytest.mark.parametrize(
        "data, field",
        [
            ({"kind": "steps", "steps": {"domain": [0, 1], "breakpoints": [0.5], "values": [0.0, math.nan]}}, "values"),
            ({"kind": "steps", "steps": {"domain": [0, 1], "breakpoints": [0.5], "values": [0.0, math.inf]}}, "values"),
            ({"kind": "linear", "domain": [0, math.inf]}, "domain"),
            ({"kind": "linear", "slope": math.nan}, "slope"),
            ({"kind": "linear", "intercept": math.inf}, "intercept"),
            ({"kind": "sine", "amplitude": math.inf}, "amplitude"),
            ({"kind": "sine", "omega": math.nan}, "omega"),
            ({"kind": "linear", "slope": "abc"}, "slope"),
        ],
        ids=[
            "steps_nan", "steps_inf", "linear_domain_inf", "slope_nan", "intercept_inf", "amplitude_inf", "omega_nan",
            "slope_text",
        ],
    )
    def test_non_finite_analytic_data_exits_2(self, capsys, tmp_path, data, field):
        cfg = self.write_config(tmp_path, data=data, endpoint_pin=None)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "oracle", "solve", "--config", str(cfg))
        assert code == 2
        assert err.startswith("config error")
        assert field in err and "finite" in err
        assert out == ""
        assert caught == []

    @pytest.mark.parametrize(
        "field, extra",
        [
            ("lam", {"lam": True}),
            ("tie_tolerance", {"tie_tolerance": True}),
            ("n", {"data": {"kind": "generator", "name": "step", "n": 7.9}}),
            ("seed", {"data": {"kind": "generator", "name": "noisy_steps", "n": 50, "seed": 2.5}}),
        ],
        ids=["lam_bool", "tie_tolerance_bool", "generator_n_fraction", "generator_seed_fraction"],
    )
    def test_bool_or_fractional_input_exits_2(self, capsys, tmp_path, field, extra):
        cfg = self.write_config(tmp_path, **extra)
        code, out, err = run_cli(capsys, "oracle", "solve", "--config", str(cfg))
        assert code == 2
        assert err.startswith("config error")
        assert f"{field} must be" in err
        assert out == ""

    @pytest.mark.parametrize("domain", [5, [0], [0, 1, 2]], ids=["number", "one_end", "three_ends"])
    def test_malformed_domain_exits_2(self, capsys, tmp_path, domain):
        cfg = self.write_config(tmp_path, data={"kind": "linear", "domain": domain})
        code, out, err = run_cli(capsys, "oracle", "solve", "--config", str(cfg))
        assert code == 2
        assert err.startswith("config error")
        assert "domain" in err
        assert out == ""

    def test_flat_kernel_config_accepted(self, capsys, tmp_path):
        cfg = self.write_config(
            tmp_path, kernel={"kind": "potts", "height": 1.0}, endpoint_pin=None
        )
        code, out, _ = run_cli(capsys, "oracle", "solve", "--config", str(cfg))
        assert code == 0
        assert "jump_count" in parse_json(out)


class TestFlowRun:
    def write_config(self, tmp_path, **params):
        base = {"model": "rof", "lam": 30.0, "n": 101, "t_max": 50.0}
        base.update(params)
        cfg = {"data": {"generator": "step", "n": base["n"]}, "params": base}
        path = tmp_path / "flow.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_run_writes_contracted_artifacts(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path)
        out_dir = tmp_path / "run"
        code, out, _ = run_cli(capsys, "flow", "run", "--config", str(cfg), "--out", str(out_dir))
        assert code == 0
        rep = parse_json(out)
        assert rep["steady"] is True
        trace = (out_dir / "trace.csv").read_text().splitlines()
        assert trace[0] == "t,energy,change_rate,prox_gap"
        assert all(len(row.split(",")) == 4 for row in trace)
        final = (out_dir / "final.csv").read_text().splitlines()
        assert final[0] == "x,u"
        assert len(final) == 102
        result = json.loads((out_dir / "result.json").read_text())
        assert result["model"] == "rof"
        assert result["steady"] is True

    def test_model_name_is_case_insensitive(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path, model="ROF")
        code, _, _ = run_cli(capsys, "flow", "run", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 0

    def test_damage_model_writes_v_column(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path, model="kwc")
        out_dir = tmp_path / "kwc"
        code, _, _ = run_cli(capsys, "flow", "run", "--config", str(cfg), "--out", str(out_dir))
        assert code == 0
        assert (out_dir / "final.csv").read_text().splitlines()[0] == "x,u,v"

    def test_unknown_model_exits_2(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path, model="wat")
        code, _, err = run_cli(capsys, "flow", "run", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 2
        assert "config error" in err

    @pytest.mark.parametrize(
        "params",
        [
            {"lam": float("nan")},
            {"sigma": float("inf")},
            {"lam": "50"},
            {"lam": True},
            {"output_stride": 0},
            {"output_stride": 2.5},
            {"output_stride": True},
            {"cp_iters": 200},
            {"steady_tol": -1.0},
        ],
        ids=[
            "lam_nan", "sigma_inf", "lam_text", "lam_bool", "output_stride_0", "output_stride_fraction",
            "output_stride_bool", "stale_cp_iters", "steady_tol_negative",
        ],
    )
    def test_bad_params_exit_2(self, capsys, tmp_path, params):
        cfg = self.write_config(tmp_path, **params)
        code, out, err = run_cli(capsys, "flow", "run", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 2
        assert err.startswith("config error")
        assert out == ""

    def test_bool_grid_size_exits_2_though_the_data_sets_the_size(self, capsys, tmp_path):
        # A data size different from params.n replaces it; a bad n must fail first.
        path = tmp_path / "flow.json"
        cfg = {"data": {"generator": "step", "n": 50}, "params": {"model": "rof", "lam": 30.0, "n": True, "t_max": 0.1}}
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "flow", "run", "--config", str(path), "--out", str(tmp_path / "o"))
        assert code == 2
        assert "n must be an integer" in err
        assert out == ""

    @pytest.mark.parametrize(
        "field, data",
        [
            ("n", {"generator": "step", "n": 7.9}),
            ("seed", {"generator": "noisy_steps", "n": 101, "seed": 2.5}),
            ("n", {"pwc": {"domain": [0.0, 1.0], "breakpoints": [0.5], "values": [0.0, 1.0]}, "n": 7.9}),
        ],
        ids=["generator_n_fraction", "generator_seed_fraction", "pwc_n_fraction"],
    )
    def test_fractional_data_size_or_seed_exits_2(self, capsys, tmp_path, field, data):
        path = tmp_path / "flow.json"
        path.write_text(json.dumps({"data": data, "params": {"model": "rof", "lam": 30.0, "n": 101, "t_max": 0.1}}))
        code, out, err = run_cli(capsys, "flow", "run", "--config", str(path), "--out", str(tmp_path / "o"))
        assert code == 2
        assert f"{field} must be an integer" in err
        assert out == ""

    @pytest.mark.parametrize("threshold", [math.nan, -1.0, None, True], ids=["nan", "negative", "null", "bool"])
    def test_bad_census_threshold_exits_2_before_the_run(self, capsys, tmp_path, monkeypatch, threshold):
        path = self.write_config(tmp_path)
        path.write_text(json.dumps({**json.loads(path.read_text()), "census_threshold": threshold}))
        monkeypatch.setattr(cli, "run", lambda *args: pytest.fail("the flow ran"))
        code, out, err = run_cli(capsys, "flow", "run", "--config", str(path), "--out", str(tmp_path / "o"))
        assert code == 2
        assert err.startswith("config error")
        assert "census_threshold" in err
        assert out == ""
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("epsilon", [5e-324, 1e300], ids=["epsilon_subnormal", "epsilon_huge"])
    def test_out_of_range_epsilon_exits_2(self, capsys, tmp_path, epsilon):
        cfg = self.write_config(tmp_path, model="kwc", epsilon=epsilon)
        code, out, err = run_cli(capsys, "flow", "run", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 2
        assert err.startswith("config error")
        assert "epsilon" in err
        assert out == ""

    def test_epsilon_checked_on_the_data_spacing_exits_2(self, capsys, tmp_path):
        step = {"domain": [0.0, 1e6], "breakpoints": [5e5], "values": [0.0, 1.0]}
        params = {"model": "kwc", "lam": 30.0, "n": 101, "t_max": 0.05, "epsilon": 1e-306}
        cfg = tmp_path / "flow.json"
        cfg.write_text(json.dumps({"data": {"pwc": step, "n": 101}, "params": params}))
        code, out, err = run_cli(capsys, "flow", "run", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 2
        assert err.startswith("config error")
        assert "epsilon" in err
        assert out == ""

    def test_fewer_than_one_time_step_exits_2(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path, dt=0.01, t_max=0.004)
        code, out, err = run_cli(capsys, "flow", "run", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 2
        assert err.startswith("config error")
        assert "time step" in err
        assert out == ""
        assert not (tmp_path / "o").exists()

    def test_missing_params_exits_2(self, capsys, tmp_path):
        path = tmp_path / "flow.json"
        path.write_text(json.dumps({"data": {"generator": "step"}}))
        code, _, err = run_cli(capsys, "flow", "run", "--config", str(path), "--out", str(tmp_path / "o"))
        assert code == 2
        assert "config error" in err

    def test_non_finite_csv_data_exits_2(self, capsys, tmp_path):
        csv_path = tmp_path / "g.csv"
        csv_path.write_text("x,value\n0,0\n0.5,nan\n1,1\n")
        path = tmp_path / "flow.json"
        path.write_text(json.dumps({"data": {"csv": str(csv_path)}, "params": {"model": "rof", "lam": 5.0, "n": 3}}))
        code, out, err = run_cli(capsys, "flow", "run", "--config", str(path), "--out", str(tmp_path / "o"))
        assert code == 2
        assert err.startswith("config error")
        assert "finite" in err
        assert out == ""
        assert not (tmp_path / "o").exists()

    def test_u0_on_another_domain_exits_2(self, capsys, tmp_path):
        path = self.write_config(tmp_path, model="kwc", n=21, t_max=0.05)
        u0 = {"pwc": {"domain": [0.0, 5.0], "breakpoints": [2.5], "values": [0.0, 1.0]}}
        path.write_text(json.dumps({**json.loads(path.read_text()), "u0": u0}))
        code, out, err = run_cli(capsys, "flow", "run", "--config", str(path), "--out", str(tmp_path / "o"))
        assert code == 2
        assert err.startswith("config error: domain mismatch")
        assert out == ""
        assert not (tmp_path / "o").exists()

    def test_divergence_exits_3(self, capsys, tmp_path, monkeypatch):
        orig, calls = flow_mod._step, []

        def corrupting(u, v, g, params, w):
            u1, *rest = orig(u, v, g, params, w)
            calls.append(None)
            if len(calls) > 5:
                u1 = u1.copy()
                u1[1] = np.nan
            return (u1, *rest)

        monkeypatch.setattr(flow_mod, "_step", corrupting)
        cfg = self.write_config(tmp_path, lam=200.0, t_max=5.0)
        code, _, err = run_cli(capsys, "flow", "run", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 3
        assert "divergence" in err


ORACLE_BASE = {
    "data": {"kind": "linear", "domain": [0.0, 1.0]},
    "kernel": {"kind": "kwc", "kappa": 1.0},
    "lam": 5.0,
    "n_cells": 10,
    "n_levels": 5,
    "endpoint_pin": True,
}
FLOW_BASE = {"params": {"model": "kwc", "lam": 10.0, "n": 21, "t_max": 0.05}, "data": {"generator": "step", "n": 21}}


class TestConfigsThatUsedToEscape:
    """Configs that once ended in a traceback or were run with a key ignored,
    and input errors no other test reached: each exits 2 with a config error
    that names the field."""

    @pytest.mark.parametrize(
        "change, field",
        [
            ({"kernel": {"kind": "kwc", "kappa": None}}, "kappa"),
            ({"levels": [None, 0.5]}, "levels"),
            ({"levels": [0.0, math.nan, 1.0], "endpoint_pin": None}, "levels must be finite"),
            ({"endpoint_pin": 5}, "endpoint_pin"),
            ({"endpoint_pin": [None, 1]}, "endpoint_pin"),
            ({"n_level": 5}, "n_level"),
            ({"endpoint_pinn": True}, "endpoint_pinn"),
            ({"data": {"kind": "linear", "slop": 2.0}}, "slop"),
            ({"data": {"kind": "generator", "name": "step", "n": 11, "sed": 2}}, "sed"),
            ({"data": {"kind": "csv", "path": None}}, "csv path"),
            ({"n_levels": 2**63}, "levels exceeds the limit 400"),
            ({"n_levels": 10**8}, "levels exceeds the limit 400"),
            ({"data": {"kind": "generator", "name": "step", "n": 2**63}}, "exceeds the limit 1000000"),
            ({"levels": [0.0, 0.5, 0.5, 1.0]}, "levels must be strictly increasing"),
            ({"levels": [1.0, 0.5, 0.0]}, "levels must be strictly increasing"),
        ],
        ids=["kappa_null", "level_null", "level_nan", "pin_number", "pin_null", "n_level", "endpoint_pinn", "slop",
             "sed", "csv_path_null", "n_levels_2_63", "n_levels_1e8", "generator_n_2_63", "levels_repeated",
             "levels_decreasing"],
    )
    def test_oracle_config(self, capsys, tmp_path, change, field):
        path = tmp_path / "oracle.json"
        path.write_text(json.dumps({**ORACLE_BASE, **change}))
        code, out, err = run_cli(capsys, "oracle", "solve", "--config", str(path))
        assert code == 2
        assert err.startswith("config error: ") and field in err
        assert out == ""

    @pytest.mark.parametrize(
        "change, field",
        [
            ({"params": [1, 2]}, "flow params"),
            ({"census_treshold": 0.1}, "census_treshold"),
            ({"data": {"generator": "noisy_steps", "n": 21, "sed": 3}}, "sed"),
            ({"params": {**FLOW_BASE["params"], "pre_relax": "yes"}}, "pre_relax"),
            ({"census_threshold": math.inf}, "census_threshold"),
            ({"params": {**FLOW_BASE["params"], "dt": 1e-300, "t_max": 1e10}}, "time step"),
            ({"params": {**FLOW_BASE["params"], "t_max": 2**63}}, "limit of 10000000 steps"),
            ({"params": {**FLOW_BASE["params"], "n": 2**63}}, "exceeds the limit 1000000"),
            ({"data": {"generator": "step", "n": 2**63}}, "exceeds the limit 1000000"),
            ({"data": {"pwc": {"domain": [0, 1], "breakpoints": [0.5], "values": [0, 1]}, "n": 2**63}},
             "exceeds the limit 1000000"),
        ],
        ids=[
            "params_list", "census_treshold", "sed", "pre_relax_text", "census_threshold_inf", "infinitely_many_steps",
            "t_max_2_63", "params_n_2_63", "generator_n_2_63", "pwc_n_2_63",
        ],
    )
    def test_flow_config(self, capsys, tmp_path, change, field):
        path = tmp_path / "flow.json"
        path.write_text(json.dumps({**FLOW_BASE, **change}))
        code, out, err = run_cli(capsys, "flow", "run", "--config", str(path), "--out", str(tmp_path / "o"))
        assert code == 2
        assert err.startswith("config error: ") and field in err
        assert out == ""
        assert not (tmp_path / "o").exists()


    @pytest.mark.parametrize(
        "text, message",
        [
            ("x,y\n0,0\n1,1\n", "expected header 'x,value'"),
            ("x,value\n0,0\n0.5\n1,1\n", "bad row"),
            ("x,value\n0,0\n0.5,high\n1,1\n", "bad row"),
            ("x,value\n0,0\n", "need at least two rows"),
            ("x,value\n0,0\n0.1,0\n1,1\n", "nodes are not uniformly spaced"),
        ],
        ids=["header", "short_row", "text_value", "single_row", "non_uniform"],
    )
    @pytest.mark.parametrize("command", ["oracle", "flow"])
    def test_csv_data(self, capsys, tmp_path, command, text, message):
        data = tmp_path / "data.csv"
        data.write_text(text)
        path = tmp_path / "config.json"
        if command == "oracle":
            cfg = {**ORACLE_BASE, "data": {"kind": "csv", "path": str(data)}, "n_cells": None}
            argv = ("oracle", "solve", "--config", str(path))
        else:
            cfg = {**FLOW_BASE, "data": {"csv": str(data)}}
            argv = ("flow", "run", "--config", str(path), "--out", str(tmp_path / "o"))
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith(f"config error: {data}: {message}")
        assert out == ""


class TestParser:
    def test_main_builds_its_parser_once(self, capsys):
        cli.build_parser.cache_clear()
        critical = ("exact", "critical-lambda", "--L", "1")
        first = run_cli(capsys, *critical)
        other = run_cli(capsys, "check-kernel", "--kind", "linear", "--M", "2")
        assert first[0] == other[0] == 0
        assert run_cli(capsys, *critical) == first
        assert cli.build_parser.cache_info().misses == 1


class TestLibraryDefaults:
    """An option left out takes the library's default, not a copy in the CLI."""

    @pytest.mark.parametrize(
        "cfg, expected",
        [
            ({"kind": "linear"}, LinearData((0.0, 1.0))),
            ({"kind": "sine"}, SineData((0.0, 1.0))),
            ({"kind": "sine", "domain": [-1, 3]}, SineData((-1.0, 3.0))),
        ],
        ids=["linear", "sine", "sine_on_a_domain"],
    )
    def test_analytic_data_without_optional_keys(self, cfg, expected):
        assert cli.data_from_config(cfg) == expected

    @pytest.mark.parametrize("name", ["sine", "noisy_steps"])
    def test_generator_data_without_optional_keys(self, name):
        data = cli.data_from_config({"kind": "generator", "name": name})
        assert np.array_equal(data.samples, generate_signal(name).samples)
        signal = cli.signal_from_config({"generator": name}, "data", 50)
        assert np.array_equal(signal.samples, generate_signal(name, n=50).samples)

    @pytest.mark.parametrize("command", [("check-kernel", "--M", "1"), ("exact", "verdict", "--c", "1", "--lambda", "5")])
    @pytest.mark.parametrize("kind", ["kwc", "linear", "potts"])
    def test_kernel_flags_left_out(self, command, kind):
        args = cli.build_parser().parse_args([*command, "--kind", kind])
        assert cli._kernel_from_args(args) == JumpKernel(kind)

    def test_experiment_without_a_seed_reports_seed_0(self, capsys):
        code, out, _ = run_cli(
            capsys, "experiment", "custom", "--models", "rof", "--data", "noisy_steps",
            "--lam", "30", "--n", "21", "--t-max", "0.1",
        )
        assert code == 0
        assert parse_json(out)["seed"] == 0


class TestConsoleScript:
    def test_every_script_target_is_a_callable(self):
        # The tests call ``main`` in process; this checks the installed
        # command's entry point, which CI runs once after ``pip install .``.
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
        assert scripts == {"kwcseg": "kwcseg.cli:main"}
        for target in scripts.values():
            module, _, name = target.partition(":")
            target = importlib.import_module(module)
            for part in name.split("."):
                target = getattr(target, part)
            assert callable(target)


class TestImportFootprint:
    def test_the_command_line_loads_no_heavy_scipy_module(self):
        # Together these added about 24 MB to the resident memory of a run.
        code = "import sys, kwcseg.cli; print(*sorted(m for m in sys.modules if m.startswith('scipy.')))"
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        loaded = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert "scipy.linalg" in loaded.stdout.split()  # the probe sees scipy modules
        assert not {"scipy.integrate", "scipy.sparse", "scipy.optimize"} & set(loaded.stdout.split())


class TestExperimentCommand:
    def test_custom_experiment_with_plots(self, capsys, tmp_path):
        out_dir = tmp_path / "exp"
        code, out, _ = run_cli(
            capsys,
            "experiment",
            "custom",
            "--models",
            "rof",
            "--data",
            "step",
            "--lam",
            "30",
            "--n",
            "101",
            "--t-max",
            "0.5",
            "--out",
            str(out_dir),
        )
        assert code == 0
        summary = parse_json(out)
        assert summary["experiment"] == "custom"
        assert (out_dir / "summary.json").exists()
        assert (out_dir / "rof.svg").exists()

    def test_summary_blocks_are_the_result_json_summaries(self, capsys, tmp_path):
        out_dir = tmp_path / "exp"
        code, _, _ = run_cli(
            capsys, "experiment", "custom", "--models", "rof", "at", "kwc", "--data", "steps",
            "--lam", "30", "--n", "101", "--t-max", "0.5", "--out", str(out_dir),
        )
        assert code == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        for model in ("rof", "at", "kwc"):
            block = summary["models"][model]
            result = json.loads((out_dir / model / "result.json").read_text())
            shared = set(result) - {"params"}
            assert shared <= set(block)
            assert {key: block[key] for key in shared} == {key: result[key] for key in shared}
            assert block["model"] == model

    def test_unknown_experiment_name_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["experiment", "wat"])
        assert err.value.code == 2

    def test_non_finite_weight_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "experiment", "custom", "--models", "rof", "--data", "step", "--lam", "nan", "--n", "11"
        )
        assert code == 2
        assert "lam must be finite" in err

    @pytest.mark.parametrize(
        "argv, field",
        [
            (("linear_steady", "--lam", "2000"), "lam"),
            (("noisy_steps", "--data", "linear"), "data"),
            (("linear_steady", "--models", "rof"), "models"),
            (("nonuniqueness", "--models", "kwc"), "models"),
            (("custom", "--models", "wat", "--data", "step", "--lam", "1"), "models"),
            (("custom", "--models", "rof", "--data", "wat", "--lam", "1"), "data"),
        ],
        ids=["lam_outside_custom", "data_outside_custom", "models_linear_steady", "models_nonuniqueness",
             "unknown_model", "unknown_generator"],
    )
    def test_what_a_protocol_ignores_or_misreports_exits_2(self, capsys, monkeypatch, argv, field):
        monkeypatch.setattr(cli, "run_experiment", lambda spec, out_dir=None: pytest.fail("ran the protocol"))
        code, out, err = run_cli(capsys, "experiment", *argv)
        assert code == 2 and out == ""
        assert err.startswith("config error: ") and field in err

    def test_custom_without_models_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "experiment", "custom", "--lam", "1")
        assert code == 2
        assert "config error" in err

    def test_invariant_violation_exits_4(self, capsys, monkeypatch):
        def explode(spec, out_dir=None):
            raise InvariantViolation("observed jump count exceeds the proven bound")

        monkeypatch.setattr(cli, "run_experiment", explode)
        code, _, err = run_cli(capsys, "experiment", "linear_steady")
        assert code == 4
        assert "invariant violation" in err
