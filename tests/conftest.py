"""Shared fixtures, the hypothesis profile and the acceptance-results table.

The acceptance tests record one or more clause verdicts per numbered
criterion; after the run a summary table prints one PASS/FAIL line per
criterion so the battery's outcome is visible in plain pytest output.
"""

import pytest
from hypothesis import settings
from hypothesis.version import __version_info__ as hypothesis_version

# Property tests draw the same examples on every run and leave no example
# database in the checkout; each test sets only its own max_examples.
settings.register_profile("kwcseg", derandomize=True, deadline=None, database=None)
settings.load_profile("kwcseg")
# Fresh random draws on every run, for hunting counterexamples outside the
# tier-1 suite: python -m pytest tests --hypothesis-profile=deep.  A failure
# prints the @reproduce_failure blob that replays it.
settings.register_profile("deep", derandomize=False, deadline=None, database=None, print_blob=True)

# Hypothesis 6.155 also draws literal constants collected from every loaded
# local module (providers._get_local_constants), so a literal added to a
# kwcseg module would re-draw every property test.  Pin that pool to
# empty, so that draws depend only on the test; the private hook is patched
# only on the versions it was checked on (test_draws.py checks the effect).
if (6, 155) <= hypothesis_version < (7,):
    from hypothesis.internal.conjecture import providers

    _NO_LOCAL_CONSTANTS = providers.Constants()
    providers._get_local_constants = lambda: _NO_LOCAL_CONSTANTS
    providers.CONSTANTS_CACHE.cache.clear()

_RECORDS = []  # (criterion number, ok, detail)


class AcceptanceLog:
    def record(self, criterion: int, ok: bool, detail: str) -> bool:
        _RECORDS.append((int(criterion), bool(ok), str(detail)))
        return bool(ok)


@pytest.fixture(scope="session")
def acceptance():
    return AcceptanceLog()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RECORDS:
        return
    grouped = {}
    for num, ok, detail in _RECORDS:
        grouped.setdefault(num, []).append((ok, detail))
    terminalreporter.section("ACCEPTANCE CRITERIA RESULTS")
    for num in sorted(grouped):
        entries = grouped[num]
        verdict = "PASS" if all(ok for ok, _ in entries) else "FAIL"
        details = "; ".join(detail for _, detail in entries)
        terminalreporter.write_line(f"criterion {num:>2}: {verdict} — {details}")
