"""Tests of the benchmark's own checks and references.

Each check must pass on a correct output and fail on a deliberately
corrupted one.  Run from the repository root:

    python3 -m pytest -q benchmarks/test_checks.py
"""

import json

import numpy as np
import pytest

import checks
import reference as ref
from tracing import Span, layer_metrics


def test_flow_energy_worked_by_hand():
    # n = 3 nodes, h = 1/2, lam = 2, eps = 1/2, sigma = 1.
    u, g, v = [0.0, 1.0, 1.0], [0.0, 0.0, 1.0], [1.0, 0.0, 1.0]
    # fidelity (lam/2) h sum (u-g)^2 = 0.5; TV = 1.
    assert ref.flow_energy("rof", u, None, g, 0.5, 2.0) == pytest.approx(1.5, abs=1e-15)
    # w = (1/2, 1/2); well = (eps/2) * 2 / h + h / (2 eps) * 1 = 1.5.
    assert ref.flow_energy("kwc", u, v, g, 0.5, 2.0, eps=0.5) == pytest.approx(2.5, abs=1e-15)
    assert ref.flow_energy("at", u, v, g, 0.5, 2.0, eps=0.5) == pytest.approx(3.0, abs=1e-15)


def test_perturbed_energy_fails():
    assert checks.energy_matches("e", 0.8926624135575771, 0.8926624135575771) == []
    assert checks.energy_matches("e", 0.8926624135575771 * (1 + 1e-8), 0.8926624135575771)


def test_descent_and_gaps():
    energies = [1.0, 0.9, 0.8, 0.8, 0.7]
    assert checks.energy_descent("t", energies) == []
    rising = energies[:3] + [0.85] + energies[4:]
    assert checks.energy_descent("t", rising)
    assert checks.inner_gaps("t", [1e-10, 1e-11]) == []
    assert checks.inner_gaps("t", [1e-10, 0.22])
    assert checks.inner_gaps("t", [float("nan")])


def _trace(n_rows, rise_at=None):
    rows = [(0.01 * i, 1.0 - 0.01 * i, 0.0, 1e-11) for i in range(n_rows)]
    if rise_at is not None:
        t, e, rate, gap = rows[rise_at]
        rows[rise_at] = (t, e + 0.2, rate, gap)
    return rows


def _trace_csv(rows, stride):
    keep = rows[::stride]
    if keep[-1] is not rows[-1]:
        keep.append(rows[-1])
    return "t,energy,sup_change\n" + "".join(f"{t:.17g},{e:.17g},{r:.17g}\n" for t, e, r, _g in keep)


def test_trace_file_with_one_rising_row_fails():
    rows = _trace(23)
    assert checks.trace_file("f", _trace_csv(rows, 10), rows, 10) == []
    rising = _trace(23, rise_at=10)
    assert checks.trace_file("f", _trace_csv(rising, 10), rising, 10)
    # A file that no longer matches the in-memory trace fails too.
    assert checks.trace_file("f", _trace_csv(rising, 10), rows, 10)


def _ladder(n=1000, shift_cells=0, scale_last=1.0):
    x = np.linspace(0.0, 1.0, n)
    h = x[1] - x[0]
    edges = [(k - 0.5) / 4 for k in range(1, 5)]
    edges[1] += shift_cells * h
    u = np.zeros(n)
    for k, e in enumerate(edges):
        size = 0.25 * (scale_last if k == 3 else 1.0)
        u[x > e] += size
    return u, x


def test_shifted_jump_fails():
    u, x = _ladder()
    assert checks.ladder_theory(u, x, steady=True) == []
    assert checks.ladder_theory(u, x, steady=False)
    u, x = _ladder(shift_cells=3)
    assert checks.ladder_theory(u, x, steady=True)
    u, x = _ladder(scale_last=1.1)
    assert checks.ladder_theory(u, x, steady=True)


def test_two_edges_and_plateaus():
    x = np.linspace(0.0, 1.0, 1000)
    u = np.where(x <= 1 / 3, 0.2, np.where(x <= 2 / 3, 0.8, 0.35))
    assert checks.two_edges("k", u, x) == []
    shifted = np.where(x <= 1 / 3 + 0.05, 0.2, np.where(x <= 2 / 3, 0.8, 0.35))
    assert checks.two_edges("k", shifted, x)
    extra = u + np.where(x > 0.9, 0.3, 0.0)
    assert checks.two_edges("k", extra, x)
    step = np.where(x < 0.5, 0.04, 0.96)
    assert checks.step_plateaus("r", step) == []
    assert checks.step_plateaus("r", step + 1e-3)


def test_artifact_files():
    x = np.linspace(0.0, 1.0, 4)
    u = np.array([0.1, 0.2, 0.3, 0.4])
    text = "x,u\n" + "".join(f"{a:.17g},{b:.17g}\n" for a, b in zip(x, u))
    assert checks.final_file("f", text, x, u, None) == []
    assert checks.final_file("f", text, x, u + np.array([0, 0, 1e-9, 0]), None)
    doc = json.dumps({"steady": True, "steps": 7, "energy": 0.5})
    assert checks.result_file("r", doc, True, 7, 0.5) == []
    assert checks.result_file("r", doc, True, 7, 0.5000001)
    svg = '<svg xmlns="http://www.w3.org/2000/svg"><polyline points="0,1 2,3 4,5"/></svg>'
    assert checks.svg_file("s", svg, 3, 1) == []
    assert checks.svg_file("s", svg, 4, 1)
    assert checks.svg_file("s", svg, 3, 2)


# ---------------------------------------------------------------------------
# Two-cell oracle cases worked by hand: g(x) = x on (0, 1), lam = 2 or 20,
# levels {1/4, 3/4}.  With lam/2 = 1 the cell costs are
# integral_0^1/2 (v - x)^2 = v^2/2 - v/4 + 1/24 and
# integral_1/2^1 (v - x)^2 = v^2/2 - 3v/4 + 7/24,
# i.e. 1/96 and 13/96 for the near and far level.  K(1/2) = 1/3 (kappa = 1).

LEVELS = [0.25, 0.75]


def test_two_cell_costs_by_hand():
    costs = ref.linear_cell_costs(1.0, 0.0, 2, LEVELS, lam=2.0)
    assert costs == pytest.approx(np.array([[1, 13], [13, 1]]) / 96, abs=1e-16)


@pytest.mark.parametrize(
    "lam, kernel, jumps, energy, seqs",
    [
        # constant sequences cost 14/96; the jump costs 2/96 + 1/3
        (2.0, ref.kwc_cost, None, 14 / 96, {(0, 0), (1, 1)}),
        (2.0, ref.kwc_cost, 1, 2 / 96 + 1 / 3, {(0, 1)}),
        # at lam = 20 everything is 10x: the jump (20/96 + 1/3) wins
        (20.0, ref.kwc_cost, None, 20 / 96 + 1 / 3, {(0, 1)}),
        (20.0, ref.kwc_cost, 0, 140 / 96, {(0, 0), (1, 1)}),
        # Potts kernel, height 1: 20/96 + 1 still beats 140/96
        (20.0, lambda r: np.ones(np.shape(r)), None, 20 / 96 + 1, {(0, 1)}),
        # linear kernel: K(1/2) = 1/2
        (2.0, lambda r: np.asarray(r, dtype=float), 1, 2 / 96 + 0.5, {(0, 1)}),
    ],
)
def test_enumerator_two_cells_by_hand(lam, kernel, jumps, energy, seqs):
    costs = ref.linear_cell_costs(1.0, 0.0, 2, LEVELS, lam=lam)
    best = ref.enumerate_oracle(costs, LEVELS, kernel, jumps)
    assert best[0] == pytest.approx(energy, abs=1e-15)
    assert best[1] in seqs


def test_oracle_answer_one_level_off_fails():
    levels = [0.0, 0.25, 0.5, 0.75, 1.0]
    costs = ref.linear_cell_costs(1.0, 0.0, 5, levels, lam=30.0)
    best = ref.enumerate_oracle(costs, levels, ref.kwc_cost)
    seq = np.array(best[1])
    assert checks.oracle_vs_enumerator("o", best[0], seq, best, costs, levels, ref.kwc_cost) == []
    off = seq.copy()
    off[2] = off[2] + 1 if off[2] < len(levels) - 1 else off[2] - 1
    off_energy = ref.sequence_energy(costs, levels, off, ref.kwc_cost)
    assert checks.oracle_vs_enumerator("o", off_energy, off, best, costs, levels, ref.kwc_cost)
    # the right energy reported with a wrong sequence fails as well
    assert checks.oracle_vs_enumerator("o", best[0], off, best, costs, levels, ref.kwc_cost)


def test_enumerator_with_no_qualifying_sequence():
    costs = ref.linear_cell_costs(1.0, 0.0, 2, LEVELS, lam=2.0)
    assert ref.enumerate_oracle(costs, LEVELS, ref.kwc_cost, jumps=2) is None


def test_battery_tie_and_cap_checks():
    samples = np.linspace(0.0, 1.0, 161)
    bound = ref.monotone_jump_bound(10.0, 1.0)
    assert checks.battery_instance("b", [0.1, 0.5, 0.9], samples, 2, 10.0, 1.0, bound) == []
    assert checks.battery_instance("b", [0.1, 0.9, 0.5], samples, 2, 10.0, 1.0, bound)
    assert checks.battery_instance("b", [0.1, 0.5, 1.2], samples, 2, 10.0, 1.0, bound)
    assert checks.battery_instance("b", [0.1, 0.5, 0.9], samples, bound + 1, 10.0, 1.0, bound)
    assert checks.battery_instance("b", [0.1, 0.5, 0.9], samples, 2, 10.0, 1.0, bound + 1)

    e = ref.CRITICAL_ENERGY
    assert checks.tie_scans(([2, 1], [e, e]), ([2, 1], [e, e])) == []
    assert checks.tie_scans(([2], [e]), ([2, 1], [e, e]))
    assert checks.tie_scans(([2, 1], [e * 1.02, e]), ([2, 1], [e, e]))
    assert checks.tie_scans(([2, 1], [e * 1.004, e]), ([2, 1], [e * 1.003, e]))

    assert checks.cap_solves(4.23, 4.23, 4.27, 10, 10) == []
    assert checks.cap_solves(4.23, 4.23, 4.2, 10, 10)
    assert checks.cap_solves(4.23, 4.23, 4.27, 9, 10)
    assert checks.cap_solves(4.23, 4.24, 4.27, 10, 10)


def test_closed_form_check():
    values = [("critical", 16 / 3, ref.CRITICAL_LAMBDA), ("gain", 0.3333333333333333, ref.split_gain(1.0, 2.0))]
    assert checks.closed_forms(values, [True] * 9, False, False) == []
    assert checks.closed_forms([("critical", 5.3, ref.CRITICAL_LAMBDA)], [True] * 9, False, False)
    assert checks.closed_forms(values, [True] * 8 + [False], False, False)
    assert checks.closed_forms(values, [True] * 9, True, False)
    assert checks.closed_forms(values, [True] * 9, False, True)


def test_closed_form_numbers():
    assert ref.split_gain(1.0, 1.0) == pytest.approx(ref.LADDER_GAIN, rel=1e-15)
    # the two ladders tie at the critical weight
    for m in (1, 2):
        d = 1.0 / m
        assert 1 / (d + 1) + ref.CRITICAL_LAMBDA * d * d / 24 == pytest.approx(ref.CRITICAL_ENERGY, rel=1e-15)
    # the ladder weight lies between the 3|4 and 4|5 transitions
    assert 864 / 35 < ref.LADDER_LAMBDA < 320 / 9
    assert ref.monotone_jump_bound(ref.LADDER_LAMBDA, 1.0) == 23


def test_self_time_and_busy():
    def span(name, start, end, parent, **attrs):
        s = Span(name, parent, attrs)
        s.start, s.end = start, end
        return s

    spans = [
        span("exact.jump_bounds", 0.0, 1.0, None),
        span("kernel.derive_constants", 0.1, 0.9, 0),
        span("oracle.solve", 2.0, 3.0, None, n=160, L=61),
        span("oracle.best_with_m_jumps", 2.2, 2.6, 2, n=160, L=61, m=1),
        span("flow.run", 4.0, 6.0, None, model="kwc", steps=4),
    ]
    m = layer_metrics(spans, artifact_bytes=0)
    assert m["exact.jump_bounds.self_s"] == pytest.approx(0.2)
    assert m["kernel.derive_constants.busy_s"] == pytest.approx(0.8)
    assert m["oracle.small_solve_p50_s"] == pytest.approx(1.0)
    # one second of oracle time covers a free solve and a 1-jump solve
    assert m["oracle.dense_transitions_per_s"] == pytest.approx(160 * 61**2 * 3)
    assert m["flow.step_mean_s.kwc"] == pytest.approx(0.5)
    assert m["flow.prox_calls"] == 4
