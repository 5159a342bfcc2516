"""The workloads: their inputs, their fixed work and its checks.

``flow`` runs the ladder part (the linear_steady protocol, no artifacts)
and then the denoise part (noisy_steps with artifacts and plots, and the
README flow run); ``certify`` runs the oracle, kernel and closed forms.
A workload has three parts:

* ``setup(kw, seed, work_dir)`` makes the inputs from the seed and warms up
  the code paths the round will use; it is what ``setup_s`` times.
* ``references(inputs)`` computes, untimed, the reference values that do not
  depend on the program's output.
* ``round(kw, inputs, refs, out_dir)`` does the fixed work through the
  public kwcseg API and checks every output.  It returns an ``Outcome``: one
  ``Op`` per checked operation, the per-instance times, and the bytes of the
  artifacts written.

``kw`` is the imported kwcseg package.  Program functions are looked up on
it at call time, so the tracer's wrappers are seen.
"""

import contextlib
import io
import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import reference as ref


@dataclass
class Op:
    name: str
    failures: list
    known_fault: str | None = None


@dataclass
class Outcome:
    ops: list
    instance_times: list
    artifact_bytes: int = 0


def _dir_bytes(path):
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def _flow_checks(label, result, g):
    """Descent, inner gaps (prox models) and the final energy."""
    p = result.params
    trace = result.trace
    out = checks.energy_descent(label, [row[1] for row in trace])
    if p.model != "at":
        out += checks.inner_gaps(label, [row[3] for row in trace[1:]])
    u = result.state.u.samples
    v = None if result.state.v is None else result.state.v.samples
    evaluated = ref.flow_energy(p.model, u, v, g.samples, g.h, p.lam, p.sigma, p.epsilon)
    out += checks.energy_matches(label, result.state.energy, evaluated)
    return out


# ---------------------------------------------------------------------------
# flow, ladder part: the linear_steady protocol, no artifacts.


class Ladder:
    ops_per_round = 2

    @staticmethod
    def setup(kw, seed, work_dir):
        # The protocol fixes its data (g(x) = x) and both starts; the seed is
        # recorded in the summary but changes no input.
        spec = kw.ExperimentSpec(name="linear_steady", seed=seed)
        g = kw.generate_signal("linear", n=101)
        warm = kw.FlowParams(model="kwc", lam=ref.LADDER_LAMBDA, n=101, bc_u="dirichlet", t_max=0.05)
        kw.run_flow(g, g, warm)
        return {"spec": spec}

    @staticmethod
    def references(inputs):
        return {}

    @staticmethod
    def round(kw, inputs, refs, out_dir):
        t0 = perf_counter()
        record = kw.run_experiment(inputs["spec"])
        elapsed = perf_counter() - t0
        g = record.g
        ops = []
        for label in ("naive", "theory"):
            result = record.results[label]
            failures = _flow_checks(f"ladder/{label}", result, g)
            if abs(result.params.lam - ref.LADDER_LAMBDA) > 1e-12 * ref.LADDER_LAMBDA:
                failures.append(f"ladder/{label}: weight {result.params.lam!r}, expected {ref.LADDER_LAMBDA!r}")
            if label == "theory":
                failures += checks.ladder_theory(result.state.u.samples, g.x(), result.steady)
            ops.append(Op(f"ladder/{label}", failures))
        return Outcome(ops=ops, instance_times=[elapsed])


# ---------------------------------------------------------------------------
# flow, denoise part: noisy_steps with artifacts and plots, then the README
# flow run.

README_FLOW_CONFIG = {
    "params": {"model": "rof", "lam": 50.0, "n": 1000, "t_max": 100.0},
    "data": {"generator": "step"},
    "census_threshold": 0.001,
}

README_FLOW_FAULT = (
    "default FlowParams inner-solver settings (cp_iters=200, symmetric cp_tau/cp_s) "
    "leave rof inner gaps up to 0.22; trace.csv rises 6.2% in one row while "
    "result.json reports steady: true"
)


class Denoise:
    ops_per_round = 5

    @staticmethod
    def setup(kw, seed, work_dir):
        spec = kw.ExperimentSpec(name="noisy_steps", seed=seed)
        config = Path(work_dir) / "flow.json"
        config.write_text(json.dumps(README_FLOW_CONFIG), encoding="utf-8")
        warm_dir = Path(work_dir) / "warm"
        g = kw.generate_signal("noisy_steps", n=101, seed=seed)
        for model in ("rof", "at", "kwc"):
            result = kw.run_flow(g, g, kw.FlowParams(model=model, lam=50.0, n=101, t_max=0.03))
            kw.experiments.write_flow_artifacts(result, warm_dir / model)
        curve = kw.svgplot.Curve(g.x(), g.samples, "#000000")
        kw.svgplot.write_svg(warm_dir / "warm.svg", [curve])
        shutil.rmtree(warm_dir)
        return {"spec": spec, "seed": seed, "config": config}

    @staticmethod
    def references(inputs):
        # The noisy signal, made apart from the program: plateaus 0.2 / 0.8 /
        # 0.35 on thirds of 1000 nodes plus seeded Gaussian noise (sd 0.1).
        x = np.linspace(0.0, 1.0, 1000)
        clean = np.where(x <= ref.NOISY_EDGES[0], 0.2, np.where(x <= ref.NOISY_EDGES[1], 0.8, 0.35))
        noise = np.random.default_rng(inputs["seed"]).normal(0.0, 0.1, size=1000)
        return {"g": clean + noise}

    @staticmethod
    def round(kw, inputs, refs, out_dir):
        out_dir = Path(out_dir)
        noisy_dir, flow_dir = out_dir / "noisy", out_dir / "flow"
        t0 = perf_counter()
        record = kw.run_experiment(inputs["spec"], out_dir=noisy_dir)
        kw.experiments.plot_record(record, noisy_dir)
        t1 = perf_counter()
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = kw.cli.main(["flow", "run", "--config", str(inputs["config"]), "--out", str(flow_dir)])
        t2 = perf_counter()

        g = record.g
        ops = []
        input_failures = []
        if not np.allclose(g.samples, refs["g"], rtol=0.0, atol=1e-12):
            input_failures.append("denoise: the protocol's noisy signal differs from the reference")
        for model in ("rof", "at", "kwc"):
            result = record.results[model]
            failures = input_failures + _flow_checks(f"denoise/{model}", result, g)
            if model == "kwc":
                failures += checks.two_edges("denoise/kwc", result.state.u.samples, g.x())
            ops.append(Op(f"denoise/{model}", failures))
        ops.append(Op("denoise/artifacts", _artifact_checks(record, noisy_dir)))
        ops.append(
            Op("denoise/readme_flow_run", _readme_flow_checks(code, stdout.getvalue(), flow_dir), README_FLOW_FAULT)
        )
        return Outcome(
            ops=ops,
            instance_times=[t1 - t0, t2 - t1],
            artifact_bytes=_dir_bytes(noisy_dir) + _dir_bytes(flow_dir),
        )


def _read(path):
    return Path(path).read_text(encoding="utf-8")


def _artifact_checks(record, noisy_dir):
    out = []
    summary = json.loads(_read(noisy_dir / "summary.json"))
    for label, result in record.results.items():
        files = record.artifacts[label]
        u, v = result.state.u, result.state.v
        tag = f"denoise/{label}"
        out += checks.trace_file(tag, _read(files["trace"]), result.trace, result.params.output_stride)
        out += checks.final_file(tag, _read(files["final"]), u.x(), u.samples, None if v is None else v.samples)
        out += checks.result_file(tag, _read(files["result"]), result.steady, result.steps, result.state.energy)
        block = summary["models"][label]
        if block["steps"] != result.steps or block["energy"] != result.state.energy:
            out.append(f"{tag}: summary.json block differs from the run")
        curves = 2 if v is None else 3  # data, signal[, damage]
        out += checks.svg_file(tag, _read(noisy_dir / f"{label}.svg"), u.n, curves)
    return out


def _readme_flow_checks(code, stdout, flow_dir):
    label = "denoise/readme_flow_run"
    if code != 0:
        return [f"{label}: exit code {code}"]
    echo = json.loads(stdout)
    result = json.loads(_read(flow_dir / "result.json"))
    out = []
    if echo.get("steady") is not True or result.get("steady") is not True:
        out.append(f"{label}: not steady")
    _header, trace = checks.read_csv(_read(flow_dir / "trace.csv"))
    out += checks.energy_descent(f"{label}: trace.csv", list(trace[:, 1]))
    _header, final = checks.read_csv(_read(flow_dir / "final.csv"))
    out += checks.step_plateaus(label, final[:, 1])
    return out


class Flow:
    """The ladder part, then the denoise part.  One instance is the round's
    program calls together; the checks are not in it."""

    name = "flow"
    parts = {"ladder": Ladder, "denoise": Denoise}
    ops_per_round = Ladder.ops_per_round + Denoise.ops_per_round

    @staticmethod
    def setup(kw, seed, work_dir):
        return {key: part.setup(kw, seed, work_dir) for key, part in Flow.parts.items()}

    @staticmethod
    def references(inputs):
        return {key: part.references(inputs[key]) for key, part in Flow.parts.items()}

    @staticmethod
    def round(kw, inputs, refs, out_dir):
        outcomes = [part.round(kw, inputs[key], refs[key], out_dir) for key, part in Flow.parts.items()]
        return Outcome(
            ops=[op for o in outcomes for op in o.ops],
            instance_times=[sum(t for o in outcomes for t in o.instance_times)],
            artifact_bytes=sum(o.artifact_bytes for o in outcomes),
        )


# ---------------------------------------------------------------------------
# certify: oracle, kernel and closed forms; no flow.

BATTERY_SIZE = 100
BATTERY_NODES = 161  # 160 cells
BATTERY_LEVELS = 61
TINY_SIZE = 20
CAP_NODES = 2001  # 2000 cells, the oracle's cell cap
CAP_LEVELS = 400  # the oracle's level cap
CAP_LAMBDA = 200.0
CAP_JUMPS = 10  # the oracle's jump-budget cap
VERDICT_GRID = [(c, lam) for c in (0.5, 1.0, 2.0) for lam in (1.0, 16.0 / 3.0, 50.0)]


def _monotone_samples(rng):
    raw = np.abs(rng.normal(size=BATTERY_NODES)) + 1e-3
    s = np.cumsum(raw)
    osc = rng.uniform(0.2, 2.0)
    s = (s - s[0]) / (s[-1] - s[0]) * osc + rng.uniform(-0.5, 0.5)
    return s, float(osc), float(rng.uniform(0.5, 30.0))


def _tiny_instance(rng):
    n = int(rng.integers(2, 7))
    L = int(rng.integers(2, 6))
    slope = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 2.0))
    intercept = float(rng.uniform(-1.0, 1.0))
    lo, hi = sorted((intercept, slope + intercept))
    levels = np.sort(rng.uniform(lo, hi, size=L))
    kind = ("kwc", "linear", "potts")[int(rng.integers(0, 3))]
    param = float(rng.uniform(0.5, 3.0) if kind == "kwc" else rng.uniform(0.05, 0.5))
    return {
        "n": n,
        "levels": [float(v) for v in levels],
        "slope": slope,
        "intercept": intercept,
        "lam": float(rng.uniform(1.0, 60.0)),
        "kind": kind,
        "param": param,
    }


def _kernel_cost(kind, param):
    if kind == "kwc":
        return lambda rho: ref.kwc_cost(rho, param)
    if kind == "linear":
        return lambda rho: np.asarray(rho, dtype=float)
    return lambda rho: np.full(np.shape(rho), param)


def _program_kernel(kw, kind, param):
    if kind == "kwc":
        return kw.kwc_kernel(param)
    if kind == "linear":
        return kw.linear_kernel()
    return kw.potts_kernel(param)


def _level_indices(result, levels, n_cells):
    mids = (np.arange(n_cells) + 0.5) / n_cells
    vals = result.minimizer(mids)
    return np.argmin(np.abs(np.asarray(levels)[None, :] - vals[:, None]), axis=1)


class Certify:
    name = "certify"
    ops_per_round = BATTERY_SIZE + TINY_SIZE + 3

    @staticmethod
    def setup(kw, seed, work_dir):
        rng = np.random.default_rng(seed)
        battery = []
        for _ in range(BATTERY_SIZE):
            samples, osc, lam = _monotone_samples(rng)
            battery.append((kw.GridSignal((0.0, 1.0), samples), osc, lam))
        tiny = [_tiny_instance(rng) for _ in range(TINY_SIZE)]
        walk = np.cumsum(rng.normal(size=CAP_NODES))
        cap = kw.GridSignal((0.0, 1.0), (walk - walk.min()) / (walk.max() - walk.min()))
        gains = [(float(rng.uniform(0.3, 3.0)), float(rng.uniform(0.2, 3.0))) for _ in range(3)]
        warm = kw.signal_problem(battery[0][0], kw.kwc_kernel(1.0), 5.0, n_levels=11)
        kw.oracle_solve(warm)
        kw.best_with_m_jumps(warm, 1)
        kw.jump_bounds(kw.kwc_kernel(1.0), 0.0, 1.0, 5.0, mass_cap=1.0, grid_resolution=100)
        return {"battery": battery, "tiny": tiny, "cap": cap, "gains": gains}

    @staticmethod
    def references(inputs):
        tiny_refs = []
        for t in inputs["tiny"]:
            costs = ref.linear_cell_costs(t["slope"], t["intercept"], t["n"], t["levels"], t["lam"])
            cost_fn = _kernel_cost(t["kind"], t["param"])
            minima = {m: ref.enumerate_oracle(costs, t["levels"], cost_fn, m) for m in [None, *range(t["n"])]}
            tiny_refs.append((costs, cost_fn, minima))
        cap = inputs["cap"].samples
        cap_levels = np.linspace(cap.min(), cap.max(), CAP_LEVELS)
        return {
            "tiny": tiny_refs,
            "cap_levels": cap_levels,
            "cap_costs": ref.sampled_cell_costs(cap, cap_levels, CAP_LAMBDA),
        }

    @staticmethod
    def round(kw, inputs, refs, out_dir):
        # The free cap solve goes first: it leaves the allocator in the state
        # the battery then meets in every round, so round 0 is not an
        # outlier.  The battery is spread in thirds over the round, so its
        # instance times sample the machine over the whole round.
        k1 = kw.kwc_kernel(1.0)
        problem = kw.signal_problem(inputs["cap"], k1, CAP_LAMBDA, n_levels=CAP_LEVELS)
        free = kw.oracle_solve(problem)
        thirds = np.array_split(np.arange(BATTERY_SIZE), 3)
        ops, times = _battery_ops(kw, k1, inputs, thirds[0])
        budget = kw.best_with_m_jumps(problem, CAP_JUMPS)
        ops.append(_cap_op(free, budget, refs))
        more_ops, more_times = _battery_ops(kw, k1, inputs, thirds[1])
        ops += more_ops + [_ties_op(kw, k1)] + _tiny_ops(kw, inputs, refs)
        more_ops, more_times2 = _battery_ops(kw, k1, inputs, thirds[2])
        ops += more_ops + [_closed_forms_op(kw, k1, inputs)]
        return Outcome(ops=ops, instance_times=times + more_times + more_times2)


def _cap_op(free, budget, refs):
    seq = _level_indices(free, refs["cap_levels"], CAP_NODES - 1)
    evaluated = ref.sequence_energy(refs["cap_costs"], refs["cap_levels"], seq, ref.kwc_cost)
    return Op("cap", checks.cap_solves(
        free.energy.total, evaluated, budget.energy.total, budget.jump_count, CAP_JUMPS
    ))


def _ties_op(kw, k1):
    scans = []
    for n_cells, n_levels in ((400, 101), (800, 201)):
        problem = kw.OracleProblem(
            data=kw.LinearData((0.0, 1.0)), kernel=k1, lam=ref.CRITICAL_LAMBDA,
            n_cells=n_cells, n_levels=n_levels, endpoint_pin=(0.0, 1.0),
        )
        best = kw.oracle_solve(problem, tie_scan_jumps=4)
        found = [best, *best.ties]
        scans.append(([r.jump_count for r in found], [r.energy.total for r in found]))
    return Op("ties", checks.tie_scans(*scans))


def _tiny_ops(kw, inputs, refs):
    ops = []
    for i, (t, (costs, cost_fn, minima)) in enumerate(zip(inputs["tiny"], refs["tiny"])):
        problem = kw.OracleProblem(
            data=kw.LinearData((0.0, 1.0), slope=t["slope"], intercept=t["intercept"]),
            kernel=_program_kernel(kw, t["kind"], t["param"]),
            lam=t["lam"],
            n_cells=t["n"],
            levels=t["levels"],
        )
        failures = []
        for m in [None, *range(t["n"])]:
            result = kw.oracle_solve(problem) if m is None else kw.best_with_m_jumps(problem, m)
            seq = _level_indices(result, t["levels"], t["n"])
            failures += checks.oracle_vs_enumerator(
                f"tiny/{i}/m={m}", result.energy.total, seq, minima[m], costs, t["levels"], cost_fn, m
            )
        ops.append(Op(f"tiny/{i}", failures))
    return ops


def _battery_ops(kw, k1, inputs, indices):
    ops, times = [], []
    for i in indices:
        g, osc, lam = inputs["battery"][i]
        t0 = perf_counter()
        result = kw.oracle_solve(kw.signal_problem(g, k1, lam, n_levels=BATTERY_LEVELS))
        bounds = kw.jump_bounds(k1, 0.0, 1.0, lam, mass_cap=osc)
        times.append(perf_counter() - t0)
        failures = checks.battery_instance(
            f"battery/{i}", result.minimizer.values, g.samples, result.jump_count, lam, osc,
            bounds.jumps_monotone_data,
        )
        ops.append(Op(f"battery/{i}", failures))
    return ops, times


def _closed_forms_op(kw, k1, inputs):
    values = [
        ("critical_lambda(1)", kw.critical_lambda(1.0).lam, ref.CRITICAL_LAMBDA),
        ("E(1 jump) at 16/3", kw.uniform_step_energy(1.0, 1, ref.CRITICAL_LAMBDA), ref.CRITICAL_ENERGY),
        ("E(2 jumps) at 16/3", kw.uniform_step_energy(1.0, 2, ref.CRITICAL_LAMBDA), ref.CRITICAL_ENERGY),
        ("lambda_for_jump_count(1, 4)", kw.lambda_for_jump_count(1.0, 4), ref.LADDER_LAMBDA),
    ]
    for kappa, mass_cap in [(1.0, 2.0), *inputs["gains"]]:
        gain = kw.derive_constants(kw.kwc_kernel(kappa), mass_cap).split_gain
        values.append((f"split gain kappa={kappa:.4g} M={mass_cap:.4g}", gain, ref.split_gain(kappa, mass_cap)))
    verdicts = [kw.equal_jump_verdict(k1, c, lam).forced for c, lam in VERDICT_GRID]
    linear = kw.check_conditions(kw.linear_kernel(), 2.0)
    potts = kw.check_conditions(kw.potts_kernel(1.0), 2.0)
    return Op("closed_forms", checks.closed_forms(
        values, verdicts, linear.strengthened_subadditive, potts.unit_slope_at_zero
    ))


WORKLOADS = {w.name: w for w in (Flow, Certify)}
