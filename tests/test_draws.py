"""Property tests draw examples that depend only on the test."""

from hypothesis.internal.conjecture import providers

import kwcseg


def test_importing_kwcseg_adds_no_constants_to_the_draws():
    # Hypothesis mixes the literals of loaded local modules into its draws
    # unless conftest.py pins that pool; kwcseg is loaded here.
    pool = providers._get_local_constants()
    assert kwcseg.oracle.MAX_CELLS not in pool
    for kind in ("integer", "float", "bytes", "string"):
        assert not pool.set_for_type(kind)
