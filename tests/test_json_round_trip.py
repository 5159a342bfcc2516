"""Property tests: every config object with a JSON form survives a round trip.

Each object is written with its own serializer, passed through
``json.dumps``/``json.loads`` and read back; the result must equal the
original.
"""

import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from kwcseg.experiments import EXPERIMENTS, GENERATORS, ExperimentSpec
from kwcseg.flow import MODELS
from kwcseg.kernel import VALID_KINDS, JumpKernel
from kwcseg.pwc import MAX_NODES, PiecewiseConstant


def through_json(d):
    return json.loads(json.dumps(d))


# Valid reals lie in the magnitude envelope: |x| <= 2**100, and a scale
# divided by (kappa, height) is at least 2**-100.
finite = st.floats(-(2.0**100), 2.0**100)
positive = st.floats(2.0**-100, 2.0**100)


@st.composite
def kernels(draw):
    """Any valid kernel, including the fields its kind does not use."""
    return JumpKernel(kind=draw(st.sampled_from(VALID_KINDS)), kappa=draw(positive), height=draw(positive))


@st.composite
def step_functions(draw):
    a = draw(st.floats(-1e6, 1e6))
    b = draw(st.floats(a, 2e6, exclude_min=True))
    breakpoints = []
    if math.nextafter(a, b) < b:  # some float lies strictly inside
        breakpoints = sorted(draw(st.sets(st.floats(a, b, exclude_min=True, exclude_max=True), max_size=8)))
    values = draw(st.lists(finite, min_size=len(breakpoints) + 1, max_size=len(breakpoints) + 1))
    return PiecewiseConstant((a, b), tuple(breakpoints), tuple(values))


@st.composite
def experiment_specs(draw):
    """Any valid spec: data and lam for custom alone, no models for the
    protocols that run kwc alone, each model at most once, and a grid size
    and end time that the FlowParams rules accept (t_max between one and
    10^7 steps of the default dt = 0.01)."""
    name = draw(st.sampled_from((*EXPERIMENTS, "custom")))
    chosen = {}
    if draw(st.booleans()):
        chosen["n"] = draw(st.integers(2, MAX_NODES))
    if draw(st.booleans()):
        chosen["t_max"] = draw(st.one_of(st.floats(0.006, 99_999.0), st.integers(1, 99_999)))
    if name == "custom":
        chosen["lam"] = draw(st.one_of(st.floats(0.0, 2.0**100), st.integers(0, 2**70)))
    kwc_only = name in ("linear_steady", "nonuniqueness")
    most = 0 if kwc_only else 3
    models = draw(st.lists(st.sampled_from(MODELS), min_size=1 if name == "custom" else 0, max_size=most, unique=True))
    data = draw(st.sampled_from(GENERATORS if name == "custom" else ("",)))
    return ExperimentSpec(name=name, data=data, models=tuple(models), seed=draw(st.integers(0, 2**63)), **chosen)


@settings(max_examples=200)
@given(kernels())
def test_kernel_config_round_trip(kernel):
    assert JumpKernel.from_config(through_json(kernel.to_config())) == kernel


@settings(max_examples=200)
@given(step_functions())
def test_piecewise_constant_round_trip(u):
    assert PiecewiseConstant.from_json_dict(through_json(u.to_json_dict())) == u


@settings(max_examples=200)
@given(experiment_specs())
def test_experiment_spec_round_trip(spec):
    assert ExperimentSpec.from_json_dict(through_json(spec.to_json_dict())) == spec
