"""Every input goes through one checking vocabulary: ConfigError, never a traceback.

The first test holds each public real-valued parameter to the rule of
``errors.check_real``: a bool, None or a string is a ConfigError.  The
property tests run ``kwcseg oracle solve`` and ``kwcseg flow run`` in
process on tiny configs whose every field is either a valid value, junk,
missing or written under a misspelt key; each run must exit 0 or 2 and
nothing may escape ``main``.  The ``exact`` and ``check-kernel`` commands
are fuzzed the same way on float flags at the edges of float range, and a
run that exits 0 must print only finite positive numbers.
"""

import contextlib
import io
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kwcseg.cli import main
from kwcseg.errors import ConfigError
from kwcseg.exact import (
    critical_lambda,
    equal_jump_verdict,
    jump_bounds,
    lambda_for_jump_count,
    optimal_jump_location,
    transition_lambda,
    uniform_step_energy,
    uniform_step_minimizer,
)
from kwcseg.flow import FlowParams, edges_above, jump_census, plateau_flatness
from kwcseg.kernel import JumpKernel, check_conditions, derive_constants, kwc_kernel, potts_kernel
from kwcseg.oracle import OracleProblem, solve
from kwcseg.pwc import GridSignal, LinearData, PiecewiseConstant, SineData

K1 = kwc_kernel(1.0)
LINE = LinearData((0.0, 1.0))
STEP = GridSignal((0.0, 1.0), np.array([0.0, 0.0, 1.0, 1.0]))

REAL_PARAMETERS = {
    "uniform_step_minimizer.L": lambda v: uniform_step_minimizer(v, 2),
    "uniform_step_energy.L": lambda v: uniform_step_energy(v, 2, 1.0),
    "uniform_step_energy.lam": lambda v: uniform_step_energy(1.0, 2, v),
    "critical_lambda.L": critical_lambda,
    "transition_lambda.L": lambda v: transition_lambda(v, 1),
    "lambda_for_jump_count.L": lambda v: lambda_for_jump_count(v, 2),
    "optimal_jump_location.alpha": lambda v: optimal_jump_location(LINE, v, 2.0),
    "optimal_jump_location.beta": lambda v: optimal_jump_location(LINE, 0.0, v),
    "equal_jump_verdict.c": lambda v: equal_jump_verdict(K1, v, 1.0),
    "equal_jump_verdict.lam": lambda v: equal_jump_verdict(K1, 1.0, v),
    "jump_bounds.a": lambda v: jump_bounds(K1, v, 2.0, 1.0, 1.0),
    "jump_bounds.b": lambda v: jump_bounds(K1, 0.0, v, 1.0, 1.0),
    "jump_bounds.lam": lambda v: jump_bounds(K1, 0.0, 1.0, v, 1.0),
    "jump_bounds.mass_cap": lambda v: jump_bounds(K1, 0.0, 1.0, 1.0, v),
    "kwc_kernel.kappa": kwc_kernel,
    "potts_kernel.height": potts_kernel,
    "JumpKernel.kappa_unused": lambda v: JumpKernel("linear", kappa=v),
    "JumpKernel.height_unused": lambda v: JumpKernel("kwc", height=v),
    "derive_constants.mass_cap": lambda v: derive_constants(K1, v),
    "check_conditions.mass_cap": lambda v: check_conditions(K1, v),
    "OracleProblem.lam": lambda v: OracleProblem(data=LINE, kernel=K1, lam=v, n_cells=4),
    "OracleProblem.levels": lambda v: solve(OracleProblem(data=LINE, kernel=K1, lam=1.0, n_cells=4, levels=[0.0, v])),
    "OracleProblem.endpoint_pin": lambda v: solve(
        OracleProblem(data=LINE, kernel=K1, lam=1.0, n_cells=4, n_levels=3, endpoint_pin=(0.0, v))
    ),
    "FlowParams.lam": lambda v: FlowParams(model="rof", lam=v, n=4),
    "FlowParams.dt": lambda v: FlowParams(model="rof", lam=1.0, n=4, dt=v),
    "jump_census.threshold": lambda v: jump_census(STEP, v),
    "edges_above.threshold": lambda v: edges_above(STEP, v),
    "plateau_flatness.threshold": lambda v: plateau_flatness(STEP, v),
    "LinearData.slope": lambda v: LinearData((0.0, 1.0), slope=v),
    "SineData.omega": lambda v: SineData((0.0, 1.0), omega=v),
    "PiecewiseConstant.values": lambda v: PiecewiseConstant((0.0, 1.0), (0.5,), (0.0, v)),
    "PiecewiseConstant.breakpoints": lambda v: PiecewiseConstant((0.0, 2.0), (v,), (0.0, 1.0)),
    "PiecewiseConstant.domain": lambda v: PiecewiseConstant((v, 2.0)),
}


# The scales divided by, which the envelope also bounds below (2**-100).
POSITIVE_SCALES = {
    "uniform_step_minimizer.L", "uniform_step_energy.L", "critical_lambda.L", "transition_lambda.L",
    "lambda_for_jump_count.L", "equal_jump_verdict.c", "jump_bounds.mass_cap", "kwc_kernel.kappa",
    "potts_kernel.height", "JumpKernel.kappa_unused", "JumpKernel.height_unused", "derive_constants.mass_cap",
    "check_conditions.mass_cap", "FlowParams.dt", "SineData.omega",
}
# The name each error gives, where it is not the key's last part.
MESSAGE_NAMES = {
    "JumpKernel.kappa_unused": "kappa", "JumpKernel.height_unused": "height", "jump_census.threshold": "census threshold",
    "edges_above.threshold": "census threshold", "plateau_flatness.threshold": "census threshold",
}


@pytest.mark.parametrize(
    "value", [True, None, "1", 2.0**101, -(2.0**101), 2.0**-101], ids=["bool", "none", "text", "2_101", "minus_2_101", "2_-101"]
)
@pytest.mark.parametrize("key", list(REAL_PARAMETERS), ids=list(REAL_PARAMETERS))
def test_every_real_parameter_rejects_a_bool_none_and_text(key, value):
    # Each call is valid with 1.0 in the place of the value under test.
    # Outside the magnitude envelope (|x| <= 2**100, and x >= 2**-100 for
    # a scale divided by) the error names the parameter; 2**-101 is valid
    # where no division needs a lower bound.
    call = REAL_PARAMETERS[key]
    call(1.0)
    if value == 2.0**-101 and key not in POSITIVE_SCALES:
        call(value)
        return
    name = MESSAGE_NAMES.get(key, key.split(".")[1])
    message = "must be finite and a real number" if not isinstance(value, float) else f"^{re.escape(name)} (=|must)"
    with pytest.raises(ConfigError, match=message) as info:
        call(value)
    if value in (2.0**101, 2.0**-101):
        assert "is outside the magnitude envelope" in str(info.value)


# ---------------------------------------------------------------------------
# The command line on fuzzed configs.

JUNK = st.sampled_from([None, "1", True, [1.0], math.nan, -1, 2**63])
MISSPELT = object()  # the key is written with its last letter doubled
OMITTED = object()
BAD = st.one_of(JUNK, st.just(MISSPELT))


@st.composite
def fuzzed(draw, valid, optional=True):
    """A field: junk, a misspelt key or (when optional) no key when three coin
    flips all come up true; otherwise a valid value."""
    if draw(st.booleans()) and draw(st.booleans()) and draw(st.booleans()):
        return draw(st.one_of(BAD, st.just(OMITTED)) if optional else BAD)
    return draw(valid)


@st.composite
def config(draw, fields):
    """An object with each of ``fields`` (name -> fuzzed strategy) drawn."""
    out = {}
    for name, strategy in fields.items():
        value = draw(strategy)
        if value is MISSPELT:
            out[name + name[-1]] = None
        elif value is not OMITTED:
            out[name] = value
    return out


def unit(lo=0.0, hi=1.0):
    return st.floats(min_value=lo, max_value=hi)


GENERATOR = st.sampled_from(["linear", "sine", "step", "steps", "noisy_steps"])
STEPS = config({
    "domain": fuzzed(st.sampled_from([[0.0, 1.0], [0, 2]]), optional=False),
    "breakpoints": fuzzed(st.just([0.5]), optional=False),
    "values": fuzzed(st.lists(unit(), min_size=2, max_size=2), optional=False),
})
ORACLE_DATA = st.one_of(
    config({"kind": st.just("linear"), "domain": fuzzed(st.just([0.0, 1.0])), "slope": fuzzed(unit(-2.0, 2.0)),
            "intercept": fuzzed(unit(-1.0))}),
    config({"kind": st.just("sine"), "amplitude": fuzzed(unit(0.1, 2.0)), "omega": fuzzed(unit(1.0, 10.0))}),
    config({"kind": st.just("generator"), "name": fuzzed(GENERATOR, optional=False),
            "n": fuzzed(st.integers(2, 13), optional=False), "seed": fuzzed(st.integers(0, 5))}),
    config({"kind": st.just("steps"), "steps": fuzzed(STEPS, optional=False)}),
)
ORACLE = config({
    "data": fuzzed(ORACLE_DATA, optional=False),
    "kernel": fuzzed(config({
        "kind": fuzzed(st.sampled_from(["kwc", "linear", "potts"]), optional=False),
        "kappa": fuzzed(unit(0.5, 3.0)),
        "height": fuzzed(unit(0.1, 1.0)),
    }), optional=False),
    "lam": fuzzed(unit(0.0, 50.0), optional=False),
    "n_cells": fuzzed(st.integers(1, 12)),
    "n_levels": fuzzed(st.integers(1, 6)),
    "levels": fuzzed(st.lists(unit(), min_size=1, max_size=6, unique=True).map(sorted)),
    "endpoint_pin": fuzzed(st.one_of(st.just(True), st.lists(unit(), min_size=2, max_size=2))),
})

SIGNAL = st.one_of(
    config({"generator": fuzzed(GENERATOR, optional=False), "n": fuzzed(st.integers(2, 12)),
            "seed": fuzzed(st.integers(0, 5))}),
    config({"pwc": fuzzed(STEPS, optional=False), "n": fuzzed(st.integers(2, 12))}),
)
FLOW = config({
    # n and t_max are never omitted, so no run is larger than 12 nodes and 3 steps.
    "params": fuzzed(config({
        "model": fuzzed(st.sampled_from(["rof", "at", "kwc", "KWC"]), optional=False),
        "lam": fuzzed(unit(0.0, 50.0), optional=False),
        "n": fuzzed(st.integers(2, 12), optional=False),
        "dt": fuzzed(st.sampled_from([0.01, 0.02])),
        "t_max": fuzzed(st.sampled_from([0.02, 0.03]), optional=False),
        "sigma": fuzzed(unit(0.0, 2.0)),
        "epsilon": fuzzed(unit(0.01, 0.5)),
        "bc_u": fuzzed(st.sampled_from(["neumann", "dirichlet"])),
        "pre_relax": fuzzed(st.booleans()),
    }), optional=False),
    "data": fuzzed(SIGNAL, optional=False),
    "u0": fuzzed(SIGNAL),
    "census_threshold": fuzzed(unit(0.0, 0.5)),
})


def run_main(workdir, cfg, *argv):
    path = workdir / "config.json"
    path.write_text(json.dumps(cfg))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv[:2], "--config", str(path), *argv[2:]])
    assert code in (0, 2), err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("config error: ") and out.getvalue() == ""
    return code, err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=100)
@given(cfg=ORACLE, tie_scan=st.one_of(st.none(), st.integers(0, 3)))
def test_oracle_solve_exits_0_or_2_on_any_config(workdir, cfg, tie_scan):
    scan = () if tie_scan is None else ("--tie-scan", str(tie_scan))
    run_main(workdir, cfg, "oracle", "solve", *scan)


@settings(max_examples=100)
@given(cfg=FLOW)
def test_flow_run_exits_0_or_2_on_any_config(workdir, cfg):
    run_main(workdir, cfg, "flow", "run", "--out", str(workdir / "run"))


# ---------------------------------------------------------------------------
# One fault at a time: every field of every CLI config object, each set to
# one junk value (or left out, or misspelt) in a config that is otherwise
# valid.  The fuzz above draws combinations; this table reaches the faults
# that a single bad field exposes only when every other field is valid.

ONE_FAULT = {
    "null": None, "text": "x", "bool": True, "list": [1.0], "nan": math.nan,
    "minus_1": -1, "2_63": 2**63, "missing": OMITTED, "misspelt": MISSPELT,
}
CSV = "<csv>"  # stands for the path of a valid 21-node "x,value" file
STEPS_OBJECT = {"domain": [0.0, 1.0], "breakpoints": [0.5], "values": [0.2, 0.8]}
ORACLE_DATA = {
    "linear": {"kind": "linear", "domain": [0.0, 1.0], "slope": 1.0, "intercept": 0.0},
    "sine": {"kind": "sine", "domain": [0.0, 1.0], "amplitude": 1.0, "omega": 9.0},
    "steps": {"kind": "steps", "steps": STEPS_OBJECT},
    "csv": {"kind": "csv", "path": CSV},
    "generator": {"kind": "generator", "name": "noisy_steps", "n": 11, "seed": 0},
}
ORACLE_CONFIG = {
    "data": ORACLE_DATA["linear"], "kernel": {"kind": "kwc", "kappa": 1.0, "height": 1.0}, "lam": 5.0,
    "n_cells": 10, "n_levels": 5, "endpoint_pin": True,
}
SIGNALS = {
    "generator": {"generator": "noisy_steps", "n": 21, "seed": 0},
    "pwc": {"pwc": STEPS_OBJECT, "n": 21},
    "csv": {"csv": CSV},
}
FLOW_CONFIG = {
    "params": {
        "model": "kwc", "lam": 10.0, "n": 21, "dt": 0.01, "sigma": 1.0, "epsilon": 0.05, "t_max": 0.05,
        "bc_u": "neumann", "pre_relax": False,
    },
    "data": SIGNALS["generator"], "u0": SIGNALS["pwc"], "census_threshold": 0.05,
}
# The keys whose absence is a configuration error, by object (n_cells, as
# the oracle's base data is analytic).
REQUIRED = {
    "oracle.data", "oracle.kernel", "oracle.lam", "oracle.n_cells", "kernel.kind",
    *(f"{kind}.kind" for kind in ORACLE_DATA), "steps.steps", "csv.path", "generator.name",
    "step_object.domain", "step_object.breakpoints", "step_object.values",
    "flow.params", "flow.data", "params.model", "params.lam", *(f"{source}.{source}" for source in SIGNALS),
}
# The junk values that are also valid values of a field, or that a field
# reads as its default (a null optional oracle field): these cases must exit
# 0 or 2, with no traceback.
CAN_BE_VALID = {
    "oracle.lam": {"2_63"}, "oracle.n_levels": {"null"},
    "oracle.endpoint_pin": {"null", "bool"},
    "oracle.levels": {"null", "list"},
    "kernel.kappa": {"2_63"}, "kernel.height": {"2_63"},
    "linear.slope": {"minus_1", "2_63"}, "linear.intercept": {"minus_1", "2_63"},
    "sine.amplitude": {"minus_1", "2_63"}, "sine.omega": {"minus_1", "2_63"},
    "generator.seed": {"2_63"},
    "flow.census_threshold": {"2_63"},
    "params.lam": {"2_63"}, "params.sigma": {"2_63"},
    "params.pre_relax": {"bool"},
}


def one_fault_targets():
    """(id, command, valid config, path to the object, object kind, field)."""
    yield from (("oracle", "oracle", ORACLE_CONFIG, (), "oracle", f) for f in ORACLE_CONFIG)
    levels = {**{k: v for k, v in ORACLE_CONFIG.items() if k != "n_levels"}, "levels": [0.0, 0.25, 0.5, 0.75, 1.0]}
    yield "oracle", "oracle", levels, (), "oracle", "levels"
    yield from (("oracle.kernel", "oracle", ORACLE_CONFIG, ("kernel",), "kernel", f) for f in ORACLE_CONFIG["kernel"])
    for kind, data in ORACLE_DATA.items():
        cfg = {**ORACLE_CONFIG, "data": data}
        yield from ((f"oracle.data[{kind}]", "oracle", cfg, ("data",), kind, f) for f in data)
    cfg = {**ORACLE_CONFIG, "data": ORACLE_DATA["steps"]}
    yield from (("oracle.data.steps", "oracle", cfg, ("data", "steps"), "step_object", f) for f in STEPS_OBJECT)
    yield from (("flow", "flow", FLOW_CONFIG, (), "flow", f) for f in FLOW_CONFIG)
    yield from (("flow.params", "flow", FLOW_CONFIG, ("params",), "params", f) for f in FLOW_CONFIG["params"])
    for where in ("data", "u0"):
        for source, signal in SIGNALS.items():
            cfg = {**FLOW_CONFIG, where: signal}
            yield from ((f"flow.{where}[{source}]", "flow", cfg, (where,), source, f) for f in signal)
        cfg = {**FLOW_CONFIG, where: SIGNALS["pwc"]}
        yield from ((f"flow.{where}.pwc", "flow", cfg, (where, "pwc"), "step_object", f) for f in STEPS_OBJECT)


def with_one_fault(cfg, path, field, junk):
    """A deep copy of ``cfg`` with ``field`` of the object at ``path`` set to
    ``junk``, left out, or written under a misspelt key."""
    cfg = json.loads(json.dumps(cfg))
    obj = cfg
    for key in path:
        obj = obj[key]
    value = obj.pop(field)
    if junk is MISSPELT:
        obj[field + field[-1]] = value
    elif junk is not OMITTED:
        obj[field] = junk
    return cfg


ONE_FAULT_CASES = [
    pytest.param(command, cfg, path, f"{kind}.{field}", field, label, id=f"{where}.{field}-{label}")
    for where, command, cfg, path, kind, field in one_fault_targets()
    for label in ONE_FAULT
]


@pytest.fixture(scope="module")
def csv_path(workdir):
    path = workdir / "signal.csv"
    x = np.linspace(0.0, 1.0, 21)
    path.write_text("x,value\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(x, np.where(x < 0.5, 0.2, 0.8))))
    return path


@pytest.mark.parametrize("command, cfg, path, name, field, label", ONE_FAULT_CASES)
def test_one_fault_in_a_valid_config_is_named(workdir, csv_path, command, cfg, path, name, field, label):
    junk = ONE_FAULT[label]
    cfg = json.loads(json.dumps(with_one_fault(cfg, path, field, junk)).replace(f'"{CSV}"', json.dumps(str(csv_path))))
    argv = ("oracle", "solve") if command == "oracle" else ("flow", "run", "--out", str(workdir / "run"))
    code, err = run_main(workdir, cfg, *argv)
    valid = label in CAN_BE_VALID.get(name, ()) or (junk is OMITTED and name not in REQUIRED)
    if not valid:
        assert code == 2
        # A misspelt key is named as written, any other fault by the field's name.
        key = field + field[-1] if junk is MISSPELT else field
        assert re.search(rf"(?<!\w){re.escape(key)}(?!\w)", err), err


# trace.csv keeps every 10th step by a fixed rule, so a flow config that still
# names output_stride is refused whatever it holds: a stride that once was
# valid (1, the fixed 10) and each junk value, null too, which a loader could
# take for "absent".
@pytest.mark.parametrize(
    "value",
    [pytest.param(1, id="one"), pytest.param(10, id="ten"),
     *(pytest.param(ONE_FAULT[label], id=label) for label in ONE_FAULT if label not in ("missing", "misspelt"))],
)
def test_output_stride_in_a_flow_config_is_an_unknown_key(workdir, value):
    cfg = {**FLOW_CONFIG, "params": {**FLOW_CONFIG["params"], "output_stride": value}}
    code, err = run_main(workdir, cfg, "flow", "run", "--out", str(workdir / "run"))
    assert code == 2
    assert err == "config error: unknown flow params keys: ['output_stride']\n"


# Data near the float limits: each exited 2 naming the overflow, but step
# data to 1e308 solved.  Each lies outside the magnitude envelope and exits 2
# with one line that names the input.
OVERFLOWING_DATA = {
    "sine_phase": {"kind": "sine", "domain": [0, 1e300], "omega": 1e10},
    "linear_values": {"kind": "linear", "domain": [0, 1e300], "slope": 1e10},
    "linear_cube": {"kind": "linear", "domain": [0, 1e200]},
    "steps_square": {"kind": "steps", "steps": {"domain": [0, 1], "breakpoints": [0.5], "values": [0, 1e308]}},
}


@pytest.mark.parametrize("pin", [{}, {"endpoint_pin": True}], ids=["free", "pinned_to_the_data"])
@pytest.mark.parametrize("label", list(OVERFLOWING_DATA))
def test_data_near_the_float_limits_exit_0_or_2_with_no_warning(workdir, label, pin):
    cfg = {"data": OVERFLOWING_DATA[label], "kernel": {"kind": "kwc"}, "lam": 5.0, "n_cells": 10, "n_levels": 5, **pin}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, err = run_main(workdir, cfg, "oracle", "solve", "--tie-scan", "2")
    name = "values" if label == "steps_square" else "domain"
    assert code == 2 and err.startswith(f"config error: {name} = "), err
    assert "is outside the magnitude envelope" in err and err.count("\n") == 1, err


# Closed forms whose result was not a finite float: each input named lies
# outside the magnitude envelope.
OVERFLOWING_CLOSED_FORMS = {
    "critical_lambda_L_5e-324": (("critical-lambda", "--L", "5e-324"), "L"),
    "critical_lambda_L_1e308": (("critical-lambda", "--L", "1e308"), "L"),  # rounds to 0.0
    "linear_table_L_1e300": (
        ("energy-table", "--L", "1e300", "--lambda", "1", "--m-max", "2", "--kind", "linear"), "L"
    ),
    "kwc_table_lam_1e10": (("energy-table", "--L", "1e200", "--lambda", "1e10", "--m-max", "2"), "L"),
    "potts_table_height_1e308": (
        ("energy-table", "--L", "1", "--lambda", "5", "--m-max", "3", "--kind", "potts", "--height", "1e308"), "height"
    ),
}


@pytest.mark.parametrize("argv, field", list(OVERFLOWING_CLOSED_FORMS.values()), ids=list(OVERFLOWING_CLOSED_FORMS))
def test_closed_forms_that_overflow_floats_exit_2_with_no_warning(argv, field):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out):
        warnings.simplefilter("always")
        with contextlib.redirect_stderr(err):
            code = main(["exact", *argv])
    assert code == 2 and out.getvalue() == "" and caught == []
    assert err.getvalue().startswith(f"config error: {field} = ") and "is outside the magnitude envelope" in err.getvalue()


@pytest.mark.parametrize(
    "argv",
    [("--c", "1e308", "--lambda", "1"), ("--c", "1e200", "--kappa", "1e200", "--lambda", "1")],
    ids=["power_overflows", "phi_c_is_nan"],
)
def test_a_verdict_out_of_float_range_exits_2(argv):
    # The verdict's terms left float range; c = 1e308 and kappa = 1e200 lie
    # outside the magnitude envelope, and the first checked is named.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["exact", "verdict", *argv])
    assert code == 2 and out.getvalue() == ""
    name = "kappa = 1e+200" if "--kappa" in argv else "c = 1e+308"
    assert err.getvalue() == f"config error: {name} is outside the magnitude envelope [2**-100, 2**100]\n"


# ---------------------------------------------------------------------------
# The closed-form commands on fuzzed flags: each float flag is drawn from the
# edges of float range, or from a few ordinary values so that a run gets past
# its first check.

EDGE_FLOATS = ["0", "-0.0", "5e-324", "-5e-324", "1e308", "-1e308", "1e-308", "-1e-308", "inf", "-inf", "nan"]
FLOAT_FLAG = st.sampled_from(EDGE_FLOATS + ["0.5", "1", "3"])
CLOSED_FORM_COMMANDS = {
    "check-kernel": ("--M",),
    "exact bounds": ("--M", "--a", "--b", "--lambda"),
    "exact critical-lambda": ("--L",),
    "exact energy-table": ("--L", "--lambda"),
    "exact verdict": ("--c", "--lambda"),
}


def numbers(obj):
    """Every number in a JSON value, bools left out."""
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        for item in obj:
            yield from numbers(item)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield obj


def _reject_constant(name):
    raise AssertionError(f"{name} is not JSON")


@pytest.mark.parametrize("command", list(CLOSED_FORM_COMMANDS))
@settings(max_examples=100)
@given(data=st.data())
def test_closed_form_commands_exit_0_or_2_on_any_float(command, data):
    argv = command.split()
    if command != "exact critical-lambda":
        kind = data.draw(st.sampled_from(["kwc", "linear", "potts"]), label="kind")
        argv += [f"--kind={kind}"]
        for flag in ("--kappa", "--height"):
            value = data.draw(st.one_of(st.none(), FLOAT_FLAG), label=flag)
            argv += [] if value is None else [f"{flag}={value}"]
    argv += [f"{flag}={data.draw(FLOAT_FLAG, label=flag)}" for flag in CLOSED_FORM_COMMANDS[command]]
    if command == "exact energy-table":
        argv += [f"--m-max={data.draw(st.integers(1, 3), label='m-max')}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("config error: ") and out.getvalue() == ""
        return
    if command == "exact energy-table":
        rows = [line.split(",") for line in out.getvalue().splitlines()[1:]]
        values = [float(value) for row in rows for value in row]
    else:
        values = list(numbers(json.loads(out.getvalue(), parse_constant=_reject_constant)))
    # Every number these commands print is a weight, a kernel parameter or
    # constant, a jump count or an energy: each is finite and positive.
    assert all(math.isfinite(v) and v > 0 for v in values), out.getvalue()
