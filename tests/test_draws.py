"""Property tests draw examples that depend only on the test, and a failing
one reports the example that falsified it."""

import subprocess
import sys
from pathlib import Path

from hypothesis.internal.conjecture import providers

import kwcseg

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, deadline=None, print_blob=True)
@given(st.integers(0, 10))
def test_always_fails(x):
    assert x < 0
'''


def test_importing_kwcseg_adds_no_constants_to_the_draws():
    # Hypothesis mixes the literals of loaded local modules into its draws
    # unless conftest.py pins that pool; kwcseg is loaded here.
    pool = providers._get_local_constants()
    assert kwcseg.oracle.MAX_CELLS not in pool
    for kind in ("integer", "float", "bytes", "string"):
        assert not pool.set_for_type(kind)


def test_a_failing_property_test_prints_its_falsifying_example(tmp_path):
    # Under the project's warning filters (pyproject.toml), as in the
    # "deep" profile's runs: a warning that Hypothesis's pytest plugin
    # meets while it reports a failure must not turn the report into an
    # INTERNALERROR.
    (tmp_path / "test_fails.py").write_text(FAILING_PROPERTY)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    report = done.stdout + done.stderr
    assert "INTERNALERROR" not in report
    assert done.returncode == 1, report
    assert "Falsifying example: test_always_fails(" in report
    assert "@reproduce_failure(" in report
