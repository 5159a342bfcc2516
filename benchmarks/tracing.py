"""Spans around kwcseg's public functions, recorded from outside the program.

``Tracer`` replaces every binding of a traced function in every loaded
kwcseg module with a wrapper, so a call is recorded whoever makes it: the
benchmark, another kwcseg module (``experiments`` calling ``flow.run``,
``exact.jump_bounds`` calling ``kernel.derive_constants``) or the function's
own module (``oracle.solve`` calling ``oracle.best_with_m_jumps``).  The
bindings are restored when the ``with`` block ends.  Spans are kept in
memory; ``layer_metrics`` turns them into the per-layer numbers.

``Tracer.overhead_s`` is the time spent inside the wrappers outside the
wrapped calls: naming the span, reading its attributes, bookkeeping.
"""

import functools
import statistics
import sys
import time

# Grid of the certify battery; oracle.small_solve_p50_s is taken over solves
# on this grid.
SMALL_GRID = (160, 61)

MODELS = ("rof", "at", "kwc")


def _flow_run(args, kwargs):
    params = kwargs["params"] if "params" in kwargs else args[2]
    return "flow.run", {"model": params.model}


def _oracle_grid(problem):
    return {"n": problem.resolved_cells(), "L": int(problem.resolved_levels().size)}


def _oracle_solve(args, kwargs):
    problem = kwargs["problem"] if "problem" in kwargs else args[0]
    scan = kwargs.get("tie_scan_jumps", args[1] if len(args) > 1 else None)
    return ("oracle.solve" if scan is None else "oracle.tie_scan"), _oracle_grid(problem)


def _oracle_budget(args, kwargs):
    problem = kwargs["problem"] if "problem" in kwargs else args[0]
    m = kwargs["m"] if "m" in kwargs else args[1]
    return "oracle.best_with_m_jumps", dict(_oracle_grid(problem), m=int(m))


def _named(name):
    return lambda args, kwargs: (name, {})


# module -> {function name: namer(args, kwargs) -> (span name, attributes)}
TARGETS = {
    "kwcseg.flow": {
        "run": _flow_run,
        "jump_census": _named("flow.census"),
        "plateau_flatness": _named("flow.census"),
        "edges_above": _named("flow.census"),
    },
    "kwcseg.oracle": {"solve": _oracle_solve, "best_with_m_jumps": _oracle_budget},
    "kwcseg.kernel": {
        "derive_constants": _named("kernel.derive_constants"),
        "check_conditions": _named("kernel.check_conditions"),
    },
    "kwcseg.exact": {
        "jump_bounds": _named("exact.jump_bounds"),
        **{
            fn: _named("exact.closed_forms")
            for fn in (
                "critical_lambda",
                "equal_jump_verdict",
                "lambda_for_jump_count",
                "optimal_jump_location",
                "transition_lambda",
                "uniform_step_energy",
                "uniform_step_minimizer",
            )
        },
    },
    "kwcseg.experiments": {
        "run_experiment": _named("experiments.run_experiment"),
        "write_artifacts": _named("experiments.write_artifacts"),
        "write_flow_artifacts": _named("experiments.write_artifacts"),
        "plot_record": _named("experiments.plot_record"),
    },
    "kwcseg.svgplot": {"write_svg": _named("svgplot.write_svg")},
    "kwcseg.cli": {"main": _named("cli.main")},
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name, parent, attrs):
        self.name = name
        self.parent = parent
        self.attrs = attrs
        self.start = self.end = 0.0

    @property
    def duration(self):
        return self.end - self.start

    def to_json(self):
        return {"name": self.name, "start": self.start, "end": self.end, "parent": self.parent, **self.attrs}


class Tracer:
    def __init__(self):
        self.spans = []
        self.overhead_s = 0.0
        self._stack = []
        self._undo = []

    def _wrap(self, fn, namer):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            name, attrs = namer(args, kwargs)
            span = Span(name, stack[-1] if stack else None, attrs)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if name == "flow.run":
                attrs["steps"] = result.steps
            self.overhead_s += time.perf_counter() - entered - span.duration
            return result

        return traced

    def __enter__(self):
        modules = [m for k, m in list(sys.modules.items()) if k == "kwcseg" or k.startswith("kwcseg.")]
        for mod_name, functions in TARGETS.items():
            home = sys.modules[mod_name]
            for fn_name, namer in functions.items():
                original = getattr(home, fn_name)
                wrapper = self._wrap(original, namer)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._undo.append((mod, attr, original))
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()
        return False


# ---------------------------------------------------------------------------
# Per-layer metrics from a list of spans.


def _ancestors(spans, span):
    p = span.parent
    while p is not None:
        yield spans[p]
        p = spans[p].parent


def _busy(spans, select):
    """Time inside selected spans, each interval counted once: a selected
    span nested in another selected span adds nothing."""
    return sum(
        s.duration for s in spans if select(s) and not any(select(a) for a in _ancestors(spans, s))
    )


def _self_time(spans, name):
    child_time = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    return sum(s.duration - child_time.get(i, 0.0) for i, s in enumerate(spans) if s.name == name)


def unit_of(name):
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def layer_metrics(spans, artifact_bytes):
    def calls(name):
        return sum(1 for s in spans if s.name == name)

    def busy(name):
        return _busy(spans, lambda s: s.name == name)

    out = {"flow.run.calls": calls("flow.run"), "flow.run.busy_s": busy("flow.run")}
    prox_calls = 0
    for model in MODELS:
        runs = [s for s in spans if s.name == "flow.run" and s.attrs["model"] == model]
        steps = sum(s.attrs.get("steps", 0) for s in runs)
        run_busy = _busy(spans, lambda s, model=model: s.name == "flow.run" and s.attrs["model"] == model)
        out[f"flow.run.{model}.busy_s"] = run_busy
        out[f"flow.steps.{model}"] = steps
        out[f"flow.step_mean_s.{model}"] = run_busy / steps if steps else 0.0
        if model != "at":
            prox_calls += steps  # one TV prox per rof or kwc step
    out["flow.prox_calls"] = prox_calls
    out["flow.census.busy_s"] = busy("flow.census")

    for name in ("oracle.solve", "oracle.tie_scan", "oracle.best_with_m_jumps"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.busy_s"] = busy(name)
    transitions = 0
    for s in spans:
        if s.name in ("oracle.solve", "oracle.tie_scan"):
            transitions += s.attrs["n"] * s.attrs["L"] ** 2
        elif s.name == "oracle.best_with_m_jumps":
            transitions += s.attrs["n"] * (s.attrs["m"] + 1) * s.attrs["L"] ** 2
    oracle_time = _busy(spans, lambda s: s.name.startswith("oracle."))
    out["oracle.dense_transitions_per_s"] = transitions / oracle_time if oracle_time else 0.0
    small = [
        s.duration
        for s in spans
        if s.name == "oracle.solve" and (s.attrs["n"], s.attrs["L"]) == SMALL_GRID
    ]
    out["oracle.small_solve_p50_s"] = statistics.median(small) if small else 0.0

    out["kernel.derive_constants.calls"] = calls("kernel.derive_constants")
    out["kernel.derive_constants.busy_s"] = busy("kernel.derive_constants")
    out["exact.jump_bounds.calls"] = calls("exact.jump_bounds")
    out["exact.jump_bounds.self_s"] = _self_time(spans, "exact.jump_bounds")
    out["exact.closed_forms.busy_s"] = busy("exact.closed_forms")
    out["experiments.run_experiment.self_s"] = _self_time(spans, "experiments.run_experiment")
    out["experiments.write_artifacts.busy_s"] = busy("experiments.write_artifacts")
    out["experiments.artifact_bytes"] = artifact_bytes
    out["svgplot.write_svg.calls"] = calls("svgplot.write_svg")
    out["svgplot.write_svg.busy_s"] = busy("svgplot.write_svg")
    out["cli.main.self_s"] = _self_time(spans, "cli.main")
    return out
