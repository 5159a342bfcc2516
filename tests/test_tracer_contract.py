"""The benchmark's tracer wraps kwcseg functions by name; keep them there.

``benchmarks/tracing.py`` replaces each name in its ``TARGETS`` table on
the named kwcseg module.  A deleted or renamed function would break only
traced benchmark runs, so the names are checked here.  The tracer rebinds
every binding of a traced function in every loaded kwcseg module, so the
lazy layers must hold none of another layer's (``experiments`` reaches
``flow`` and ``exact`` through their modules); and a fault raised while a
layer loads must surface with its own message, checked on a copy of the
package whose ``flow`` raises.
"""

import importlib
import importlib.util
import inspect
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import kwcseg

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
PACKAGE = Path(kwcseg.__file__).parent


def test_traced_functions_exist():
    spec = importlib.util.spec_from_file_location("kwcseg_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module_name}.{fn_name}"
        for module_name, fns in tracing.TARGETS.items()
        for fn_name in fns
        if not callable(getattr(importlib.import_module(module_name), fn_name, None))
    ]
    assert missing == []


def _package_copy(tmp_path, name, edit):
    """A copy of the kwcseg package whose module ``name`` has the text
    ``edit(text)``; returns the directory to put on ``PYTHONPATH``."""
    root = tmp_path / "src"
    shutil.copytree(PACKAGE, root / "kwcseg", ignore=shutil.ignore_patterns("__pycache__"))
    path = root / "kwcseg" / name
    path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
    return root


def _run(code, root, check=True):
    env = {**os.environ, "PYTHONPATH": str(root)}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=check)


def _leaked_wrappers(root):
    # In a fresh interpreter flow, experiments and svgplot first run inside
    # the tracer's ``with``; every wrapper must be unbound when it ends.
    code = f"""
import importlib.util, sys
import kwcseg.cli
spec = importlib.util.spec_from_file_location("kwcseg_bench_tracing", {str(TRACING)!r})
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
with tracing.Tracer():
    pass
traced = {{id(getattr(sys.modules[m], f)) for m, fns in tracing.TARGETS.items() for f in fns}}
modules = [(k, m) for k, m in sys.modules.items() if k.partition(".")[0] == "kwcseg"]
print([f"{{k}}.{{a}}" for k, m in modules for a, v in vars(m).items() if id(getattr(v, "__wrapped__", None)) in traced])
"""
    return _run(code, root).stdout.strip()


def test_a_traced_block_that_runs_the_lazy_layers_leaves_no_wrapper():
    assert _leaked_wrappers(PACKAGE.parent) == "[]"


def test_the_lazy_layers_leave_no_wrapper_in_either_order(tmp_path):
    # The tracer rebinds in sys.modules order, which is the order the
    # package registers its lazy layers; with flow first it loads
    # experiments after flow.run is wrapped.
    def swap(text):
        registered = 'experiments = _lazy("experiments")\nflow = _lazy("flow")\n'
        assert registered in text
        return text.replace(registered, 'flow = _lazy("flow")\nexperiments = _lazy("experiments")\n')

    assert _leaked_wrappers(_package_copy(tmp_path, "__init__.py", swap)) == "[]"


def test_experiments_binds_no_function_of_flow_or_exact():
    # It reaches them through their modules, so a rebinding of the function
    # in its module (a monkeypatch, the tracer) is what it calls.
    functions = [value for value in vars(kwcseg.experiments).values() if inspect.isfunction(value)]
    assert [f.__qualname__ for f in functions if f.__module__ in ("kwcseg.flow", "kwcseg.exact")] == []


@pytest.mark.parametrize(
    "call",
    [
        "import kwcseg.cli\nkwcseg.cli.main(['exact', 'critical-lambda', '--L', '1'])",
        "import kwcseg\nkwcseg.generate_signal('linear', n=11)",
    ],
    ids=["cli", "package"],
)
def test_a_fault_while_flow_loads_surfaces_with_its_own_message(tmp_path, call):
    # The first access to flow is an attribute access, not an import
    # statement, whose machinery would clear the error and leave the layer
    # half-run.
    root = _package_copy(tmp_path, "flow.py", lambda text: text + '\nraise RuntimeError("flow fault")\n')
    done = _run(call, root, check=False)
    assert done.returncode == 1
    assert done.stderr.rstrip().endswith("RuntimeError: flow fault")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "CHANGES.md FOUND line 214: the LazyLoader leaves a flow that raised half-run in sys.modules, so a "
        "second access runs on it with no sign of the fault; ROADMAP item 22's import_module route closes it"
    ),
)
def test_a_fault_while_flow_loads_surfaces_on_every_access(tmp_path):
    root = _package_copy(tmp_path, "flow.py", lambda text: text + '\nraise RuntimeError("flow fault")\n')
    code = """
import kwcseg
faults = []
for _ in range(2):
    try:
        kwcseg.generate_signal("linear", n=11)
    except Exception as err:
        faults.append(repr(err))
    else:
        faults.append(None)
print(faults)
"""
    assert _run(code, root).stdout.strip() == str(["RuntimeError('flow fault')"] * 2)


def test_public_names_resolve():
    assert [name for name in kwcseg.__all__ if not hasattr(kwcseg, name)] == []


def test_jump_bounds_accepts_grid_resolution():
    # The certify warm-up passes grid_resolution=100.
    report = kwcseg.jump_bounds(kwcseg.kwc_kernel(1.0), 0.0, 1.0, 16 / 3, mass_cap=1.0, grid_resolution=100)
    assert report.failure is None
