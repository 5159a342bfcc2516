"""Checks of the program's outputs.

Every check takes plain numbers, arrays and parsed files, compares them with
the independent references in ``reference`` or with properties the method
must have, and returns a list of failure messages (empty when it passes).
None of them compares against a stored copy of earlier output.
"""

import csv
import io
import json
import math
import xml.etree.ElementTree as ET

import numpy as np

import reference as ref

RISE_TOL = 1e-8  # per-step relative energy rise allowed by the descent check
GAP_TOL = 1e-8  # per-step inner duality gap allowed
ENERGY_RTOL = 1e-10  # reported energy against the standalone evaluator
ORACLE_RTOL = 1e-9  # oracle energies against the enumerator and evaluator


def energy_descent(label, energies, tol=RISE_TOL):
    worst, where = 0.0, None
    for i, (prev, cur) in enumerate(zip(energies, energies[1:])):
        if cur > prev:
            rise = (cur - prev) / max(abs(cur), 1e-30)
            if rise > worst:
                worst, where = rise, i + 1
    if worst > tol:
        return [f"{label}: energy rises by {worst:.3g} (relative) at row {where}"]
    return []


def inner_gaps(label, gaps, tol=GAP_TOL):
    bad = [g for g in gaps if not (g <= tol)]
    if bad:
        return [f"{label}: {len(bad)} steps with inner gap above {tol:g} (worst {max(bad):.3g})"]
    return []


def energy_matches(label, reported, evaluated, rtol=ENERGY_RTOL):
    if abs(reported - evaluated) > rtol * max(1.0, abs(evaluated)):
        return [f"{label}: reported energy {reported!r} but the evaluator gives {evaluated!r}"]
    return []


def ladder_theory(u, x, steady, threshold=0.05):
    """The pre-relaxed 4-jump ladder: steady, jumps at (k - 1/2)/4 to within
    one cell, equal sizes to 2%, and within the closed-form jump bound."""
    out = []
    if not steady:
        out.append("ladder/theory: not steady")
    h = float(x[1] - x[0])
    jumps = ref.find_jumps(u, x, threshold)
    m = ref.LADDER_JUMPS
    if len(jumps) != m:
        return out + [f"ladder/theory: {len(jumps)} jumps, expected {m}"]
    for k, (pos, _size) in enumerate(jumps, start=1):
        if abs(pos - (k - 0.5) / m) > h:
            out.append(f"ladder/theory: jump {k} at {pos:.6f}, expected {(k - 0.5) / m:.6f}")
    sizes = np.array([s for _p, s in jumps])
    spread = float(np.max(np.abs(sizes - sizes.mean())) / abs(sizes.mean()))
    if spread > 0.02:
        out.append(f"ladder/theory: jump sizes differ by {spread:.2%}")
    bound = ref.monotone_jump_bound(ref.LADDER_LAMBDA, 1.0)
    if len(jumps) > bound:
        out.append(f"ladder/theory: {len(jumps)} jumps exceed the bound {bound}")
    return out


def two_edges(label, u, x, threshold=0.1, tol=0.02):
    jumps = ref.find_jumps(u, x, threshold)
    if len(jumps) != len(ref.NOISY_EDGES):
        return [f"{label}: {len(jumps)} jumps, expected {len(ref.NOISY_EDGES)}"]
    return [
        f"{label}: jump at {pos:.4f}, expected {edge:.4f} +- {tol}"
        for (pos, _s), edge in zip(jumps, ref.NOISY_EDGES)
        if abs(pos - edge) > tol
    ]


def step_plateaus(label, u, tol=1e-4):
    u = np.asarray(u, dtype=float)
    half = u.size // 2
    lo, hi = ref.ROF_STEP_PLATEAUS
    dev = max(float(np.max(np.abs(u[:half] - lo))), float(np.max(np.abs(u[half:] - hi))))
    if dev > tol:
        return [f"{label}: plateaus off {lo}/{hi} by {dev:.3g}"]
    return []


# ---------------------------------------------------------------------------
# Written artifacts.


def read_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0]
    body = np.array([[float(c) for c in r] for r in rows[1:] if r], dtype=float)
    return header, body


def trace_file(label, text, trace, stride):
    """trace.csv holds every stride-th in-memory row plus the last one."""
    header, body = read_csv(text)
    if header[:2] != ["t", "energy"]:
        return [f"{label}: trace.csv header {header}"]
    expect = list(trace[::stride])
    if expect[-1] is not trace[-1]:
        expect.append(trace[-1])
    if body.shape[0] != len(expect):
        return [f"{label}: trace.csv has {body.shape[0]} rows, expected {len(expect)}"]
    want = np.array([[row[0], row[1]] for row in expect], dtype=float)
    if not np.array_equal(body[:, :2], want):
        return [f"{label}: trace.csv t/energy differ from the in-memory trace"]
    return energy_descent(f"{label}: trace.csv", list(body[:, 1]))


def final_file(label, text, x, u, v):
    header, body = read_csv(text)
    want = ["x", "u"] if v is None else ["x", "u", "v"]
    if header != want:
        return [f"{label}: final.csv header {header}, expected {want}"]
    cols = [x, u] if v is None else [x, u, v]
    if body.shape != (len(u), len(cols)) or not np.array_equal(body, np.column_stack(cols)):
        return [f"{label}: final.csv differs from the final state"]
    return []


def result_file(label, text, steady, steps, energy):
    doc = json.loads(text)
    out = []
    if doc.get("steady") is not steady or doc.get("steps") != steps:
        out.append(f"{label}: result.json says steady={doc.get('steady')} steps={doc.get('steps')}")
    if doc.get("energy") != energy:
        out.append(f"{label}: result.json energy {doc.get('energy')!r} != {energy!r}")
    return out


def svg_file(label, text, n_points, n_curves):
    root = ET.fromstring(text)
    if not root.tag.endswith("svg"):
        return [f"{label}: root element is {root.tag}"]
    lines = [el for el in root.iter() if el.tag.endswith("polyline")]
    if len(lines) != n_curves:
        return [f"{label}: {len(lines)} polylines, expected {n_curves}"]
    out = []
    for el in lines:
        pts = el.get("points", "").split()
        if len(pts) != n_points or not all(math.isfinite(float(c)) for p in pts for c in p.split(",")):
            out.append(f"{label}: a polyline has {len(pts)} points, expected {n_points} finite ones")
    return out


# ---------------------------------------------------------------------------
# Oracle, kernel and closed forms.


def battery_instance(label, values, samples, jump_count, lam, mass_cap, program_bound):
    vals = np.asarray(values, dtype=float)
    out = []
    if np.any(np.diff(vals) < -1e-12):
        out.append(f"{label}: minimizer is not monotone")
    if vals.min() < np.min(samples) - 1e-9 or vals.max() > np.max(samples) + 1e-9:
        out.append(f"{label}: minimizer leaves the data range")
    bound = ref.monotone_jump_bound(lam, mass_cap)
    if jump_count > bound:
        out.append(f"{label}: {jump_count} jumps exceed the closed-form bound {bound}")
    if program_bound != bound:
        out.append(f"{label}: jump_bounds gives {program_bound}, the closed form {bound}")
    return out


def oracle_vs_enumerator(label, energy, seq, best, costs, levels, kernel, jumps=None):
    """The oracle's energy equals the enumerator's minimum ``best`` =
    (energy, sequence), and the oracle's level sequence attains it (with
    exactly ``jumps`` level changes when given)."""
    if best is None:
        return [f"{label}: the enumerator finds no sequence"]
    out = []
    tol = ORACLE_RTOL * max(1.0, abs(best[0]))
    if abs(energy - best[0]) > tol:
        out.append(f"{label}: oracle energy {energy!r}, exhaustive minimum {best[0]!r}")
    own = ref.sequence_energy(costs, levels, seq, kernel)
    if abs(own - best[0]) > tol:
        out.append(f"{label}: the oracle's sequence has energy {own!r}, not the minimum {best[0]!r}")
    changes = int(np.count_nonzero(np.diff(seq)))
    if jumps is not None and changes != jumps:
        out.append(f"{label}: sequence has {changes} level changes, expected {jumps}")
    return out


def tie_scans(coarse, fine):
    """coarse / fine: (jump counts found, energies of minimizer and ties)."""
    out = []
    target = ref.CRITICAL_ENERGY
    counts, energies = coarse
    if set(counts) != {1, 2}:
        out.append(f"ties: jump counts {sorted(set(counts))} at 400x101, expected [1, 2]")
    for e in energies:
        if abs(e - target) / target > 1e-2:
            out.append(f"ties: energy {e!r} is not within 1e-2 of 13/18")
    gap_coarse = abs(energies[0] - target) / target
    gap_fine = abs(fine[1][0] - target) / target
    if set(fine[0]) != {1, 2}:
        out.append(f"ties: jump counts {sorted(set(fine[0]))} at 800x201, expected [1, 2]")
    if gap_fine > 0.5 * gap_coarse + 1e-12:
        out.append(f"ties: refined gap {gap_fine:.3g} is not half the coarse gap {gap_coarse:.3g}")
    return out


def cap_solves(free_energy, free_evaluated, budget_energy, budget_jumps, m):
    out = energy_matches("cap/free", free_energy, free_evaluated, ORACLE_RTOL)
    if budget_energy < free_energy - ORACLE_RTOL * max(1.0, abs(free_energy)):
        out.append(f"cap: {m}-jump energy {budget_energy!r} is below the free optimum {free_energy!r}")
    if budget_jumps != m:
        out.append(f"cap: budgeted solve has {budget_jumps} jumps, expected {m}")
    return out


def closed_forms(values, verdicts, linear_gain_ok, potts_unit_slope):
    """values: (label, program value, closed form) triples; verdicts: the
    forced flags on the 3x3 verdict grid."""
    out = [
        f"{label} = {got!r}, closed form {want!r}"
        for label, got, want in values
        if abs(got - want) > 1e-12 * abs(want)
    ]
    if len(verdicts) != 9 or not all(verdicts):
        out.append(f"equal jumps forced on {sum(verdicts)} of {len(verdicts)} verdict-grid points")
    if linear_gain_ok:
        out.append("the linear kernel passes the gain condition")
    if potts_unit_slope:
        out.append("the flat kernel passes the unit-slope condition")
    return out
