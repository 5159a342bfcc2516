"""The benchmark's tracer wraps kwcseg functions by name; keep them there.

``benchmarks/tracing.py`` replaces each name in its ``TARGETS`` table on
the named kwcseg module.  A deleted or renamed function would break only
traced benchmark runs, so the names are checked here.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import kwcseg

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


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


def test_a_traced_block_that_runs_the_lazy_layers_leaves_no_wrapper():
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
    env = {**os.environ, "PYTHONPATH": str(Path(kwcseg.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_public_names_resolve():
    assert [name for name in kwcseg.__all__ if not hasattr(kwcseg, name)] == []


def test_jump_bounds_accepts_grid_resolution():
    # The certify warm-up passes grid_resolution=100.
    report = kwcseg.jump_bounds(kwcseg.kwc_kernel(1.0), 0.0, 1.0, 16 / 3, mass_cap=1.0, grid_resolution=100)
    assert report.failure is None
