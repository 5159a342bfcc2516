"""The benchmark's tracer wraps kwcseg functions by name; keep them there.

``benchmarks/tracing.py`` replaces each name in its ``TARGETS`` table on
the named kwcseg module.  A deleted or renamed function would break only
traced benchmark runs, so the names are checked here.
"""

import importlib
import importlib.util
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


def test_public_names_resolve():
    assert [name for name in kwcseg.__all__ if not hasattr(kwcseg, name)] == []


def test_jump_bounds_accepts_grid_resolution():
    # The certify warm-up passes grid_resolution=100.
    report = kwcseg.jump_bounds(kwcseg.kwc_kernel(1.0), 0.0, 1.0, 16 / 3, mass_cap=1.0, grid_resolution=100)
    assert report.failure is None
