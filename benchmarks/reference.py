"""Independent references for the benchmark's checks.

Nothing here imports kwcseg.  The constants are the closed forms of the
method written out as numbers; the energy evaluator and the jump finder
follow the formulas in the module docstring of ``kwcseg.flow``; the
enumerator tries every level sequence of a tiny oracle instance.
"""

import itertools
import math

import numpy as np

# Rational kernel K(rho) = rho / (1 + kappa * rho).  Its split gain on the
# window [0, M] is the value of (K(r1) + K(r2) - K(r1 + r2)) / (r1 r2) on the
# diagonal r1 = r2 = M / 2.


def kwc_cost(rho, kappa=1.0):
    rho = np.asarray(rho, dtype=float)
    return rho / (1.0 + kappa * rho)


def split_gain(kappa, mass_cap):
    return 2.0 * kappa / ((1.0 + kappa * mass_cap / 2.0) * (1.0 + kappa * mass_cap))


def monotone_jump_bound(lam, mass_cap, kappa=1.0, length=1.0):
    """floor(length * lam / (2 * gain)) + 1 jumps for monotone data."""
    return int(math.floor(length * lam / (2.0 * split_gain(kappa, mass_cap)))) + 1


# Linear data g(x) = x on (0, 1), kappa = 1: the 1- and 2-jump ladders tie at
# lam = 32 / (1 * 2 * 3) with energy 1/2 + 2/9 = 2/3 + 1/18.
CRITICAL_LAMBDA = 16.0 / 3.0
CRITICAL_ENERGY = 13.0 / 18.0

# The ladder protocol's weight makes 4 jumps strictly optimal: the geometric
# mean of the 3|4 and 4|5 transition weights 864/35 and 320/9.
LADDER_JUMPS = 4
LADDER_LAMBDA = math.sqrt((864.0 / 35.0) * (320.0 / 9.0))
LADDER_GAIN = 2.0 / 3.0  # split_gain(1, 1)

# Plain TV (sigma = 1) on the unit step at lam = 50: each half-width plateau
# moves in by 1 / (lam / 2) = 0.04.
ROF_STEP_PLATEAUS = (0.04, 0.96)

# The noisy-steps signal: plateaus on thirds, edges at 1/3 and 2/3.
NOISY_EDGES = (1.0 / 3.0, 2.0 / 3.0)


# ---------------------------------------------------------------------------
# Discrete flow energies on n uniform nodes with spacing h.
#
#   rof: sigma * sum |u_{i+1} - u_i|                      + fidelity
#   at:  sum w_e (u_{i+1} - u_i)^2 / h         + well(v)  + fidelity
#   kwc: sum w_e |u_{i+1} - u_i|               + well(v)  + fidelity
#
# with w_e = sigma * (v_i^2 + v_{i+1}^2) / 2,
# well(v) = (eps / 2) sum (v_{i+1} - v_i)^2 / h + (h / (2 eps)) sum (v_i - 1)^2
# and fidelity = (lam / 2) h sum (u_i - g_i)^2.


def flow_energy(model, u, v, g, h, lam, sigma=1.0, eps=0.005):
    u = np.asarray(u, dtype=float)
    g = np.asarray(g, dtype=float)
    du = u[1:] - u[:-1]
    total = 0.5 * lam * h * math.fsum((u - g) ** 2)
    if model == "rof":
        return total + sigma * math.fsum(np.abs(du))
    v = np.asarray(v, dtype=float)
    w = 0.5 * sigma * (v[:-1] * v[:-1] + v[1:] * v[1:])
    dv = v[1:] - v[:-1]
    total += 0.5 * eps / h * math.fsum(dv * dv) + 0.5 * h / eps * math.fsum((v - 1.0) ** 2)
    if model == "kwc":
        return total + math.fsum(w * np.abs(du))
    if model == "at":
        return total + math.fsum(w * du * du) / h
    raise ValueError(f"unknown model {model!r}")


def find_jumps(u, x, threshold):
    """(position, size) of each run of edges with |difference| > threshold.

    The position is the size-weighted mean of the edge midpoints in the run.
    """
    u = np.asarray(u, dtype=float)
    x = np.asarray(x, dtype=float)
    jumps = []
    run = []
    for i in range(u.size - 1):
        d = u[i + 1] - u[i]
        if abs(d) > threshold:
            run.append((0.5 * (x[i] + x[i + 1]), d))
            continue
        if run:
            jumps.append(_merge(run))
            run = []
    if run:
        jumps.append(_merge(run))
    return jumps


def _merge(run):
    weight = sum(abs(d) for _m, d in run)
    return (sum(m * abs(d) for m, d in run) / weight, sum(d for _m, d in run))


# ---------------------------------------------------------------------------
# Level-grid oracle: cell costs and exhaustive enumeration.


def linear_cell_costs(slope, intercept, n_cells, levels, lam, domain=(0.0, 1.0)):
    """(lam/2) * integral over each cell of (level - slope x - intercept)^2."""
    a, b = domain
    edges = [a + (b - a) * i / n_cells for i in range(n_cells + 1)]
    out = np.empty((n_cells, len(levels)))
    for i in range(n_cells):
        x0, x1 = edges[i], edges[i + 1]
        for j, v in enumerate(levels):
            # integral of (c - s x)^2 with c = v - intercept, exactly
            c = v - intercept
            integral = c * c * (x1 - x0) - c * slope * (x1 * x1 - x0 * x0) + slope * slope * (x1**3 - x0**3) / 3.0
            out[i, j] = 0.5 * lam * integral
    return out


def sampled_cell_costs(samples, levels, lam):
    """Cells between consecutive nodes, fidelity sampled at the cell midpoint."""
    s = np.asarray(samples, dtype=float)
    h = 1.0 / (s.size - 1)
    mid = 0.5 * (s[:-1] + s[1:])
    lv = np.asarray(levels, dtype=float)
    return 0.5 * lam * h * (lv[None, :] - mid[:, None]) ** 2


def sequence_energy(costs, levels, seq, kernel):
    """Fidelity of the level sequence plus the kernel cost of its changes."""
    lv = np.asarray(levels, dtype=float)
    seq = np.asarray(seq, dtype=int)
    fid = math.fsum(costs[np.arange(seq.size), seq])
    jumps = np.abs(np.diff(lv[seq]))
    jumps = jumps[jumps > 0]
    return fid + math.fsum(kernel(jumps)) if jumps.size else fid


def enumerate_oracle(costs, levels, kernel, jumps=None):
    """Exhaustive minimum over all level sequences, or over those with
    exactly ``jumps`` level changes.  Returns (energy, sequence), or None if
    no sequence qualifies.  Limited to 6 cells and 5 levels.
    """
    n, L = costs.shape
    if n > 6 or L > 5:
        raise ValueError("the enumerator is limited to 6 cells and 5 levels")
    seqs = np.array(list(itertools.product(range(L), repeat=n)), dtype=int)
    lv = np.asarray(levels, dtype=float)[seqs]
    steps = np.abs(np.diff(lv, axis=1))
    moved = steps > 0
    costs_of_steps = np.where(moved, kernel(np.where(moved, steps, 1.0)), 0.0)
    energies = costs[np.arange(n), seqs].sum(axis=1) + costs_of_steps.sum(axis=1)
    if jumps is not None:
        energies = np.where(moved.sum(axis=1) == jumps, energies, np.inf)
    k = int(np.argmin(energies))
    if not np.isfinite(energies[k]):
        return None
    return float(energies[k]), tuple(int(i) for i in seqs[k])
