"""Named experiment protocols and their artifacts.

Each protocol builds a data signal, runs one or more flows, summarizes the
steady states (jump censuses, uniformity, energy cross-checks, jump-count
bounds), and optionally persists everything under an output directory:

    out/
      summary.json
      <label>/trace.csv    t, energy, change_rate, prox_gap (strided)
      <label>/final.csv    x, u[, v]
      <label>/result.json  the run's summary.json block, plus its params
      <label>.svg          data / signal / damage overlay

The noisy three-plateau signal is fixed here (plateaus 0.2, 0.8, 0.35 on
thirds, Gaussian noise of standard deviation 0.1, seeded); the comparison
for that run is structural, not pointwise.
"""

import dataclasses
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import oracle as oracle_mod
from . import svgplot
from .errors import ConfigError, DivergenceError, InvariantViolation, check_count, check_keys
from .exact import (
    critical_lambda,
    jump_bounds,
    lambda_for_jump_count,
    uniform_step_minimizer,
)
from .flow import (
    MODELS,
    TRACE_COLUMNS,
    FlowParams,
    FlowResult,
    _census_groups,
    edges_above,
    jump_census,
    plateau_flatness,
    run,
)
from .kernel import kwc_kernel
from .pwc import MAX_NODES, GridSignal, LinearData, PiecewiseConstant, SineData, energy

EXPERIMENTS = ("linear_steady", "nonuniqueness", "sine_segmentation", "noisy_steps")
GENERATORS = ("linear", "sine", "step", "steps", "noisy_steps")

NOISE_SD = 0.1
STEP_PLATEAUS = (0.2, 0.8, 0.35)
STEP_EDGES = (1.0 / 3.0, 2.0 / 3.0)

# Census thresholds for the summaries; chosen for the default grid and
# documented in every summary JSON.
STRUCTURE_THRESHOLD = 0.05
MICRO_THRESHOLD = 1e-3
DENOISE_THRESHOLD = 0.1


def true_steps() -> PiecewiseConstant:
    """The clean three-plateau signal behind the noisy experiment."""
    return PiecewiseConstant((0.0, 1.0), STEP_EDGES, STEP_PLATEAUS)


def generate_signal(name: str, n: int = 1000, seed: int = 0) -> GridSignal:
    """Deterministic test signals on n >= 2 nodes of (0, 1); noise is seeded."""
    check_count("n", n, least=2, most=MAX_NODES)
    check_count("seed", seed)
    x = np.linspace(0.0, 1.0, n)
    if name == "linear":
        y = x.copy()
    elif name == "sine":
        y = np.sin(3.0 * np.pi * x)
    elif name == "step":
        y = np.where(x < 0.5, 0.0, 1.0)
    elif name == "steps":
        y = true_steps()(x)
    elif name == "noisy_steps":
        rng = np.random.default_rng(seed)
        y = true_steps()(x) + rng.normal(0.0, NOISE_SD, size=n)
    else:
        raise ConfigError(f"unknown signal generator {name!r}; expected one of {GENERATORS}")
    return GridSignal((0.0, 1.0), y)


@dataclass(frozen=True)
class ExperimentSpec:
    """A named protocol plus reproducibility knobs.

    Named experiments fully determine their data, models, and parameters;
    ``overrides`` tweaks FlowParams fields (n, t_max, ...).  ``custom``
    requires a generator name, a model list, and a lam override.
    """

    name: str
    data: str = ""
    models: tuple = ()
    overrides: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.name not in EXPERIMENTS + ("custom",):
            raise ConfigError(f"unknown experiment {self.name!r}")
        object.__setattr__(self, "models", tuple(self.models))
        check_keys("overrides", self.overrides, (), [f.name for f in dataclasses.fields(FlowParams)])
        if "model" in self.overrides:
            raise ConfigError("the model is fixed by the protocol; use models=")
        check_count("seed", self.seed)
        if self.name == "custom":
            if not self.data or not self.models:
                raise ConfigError("custom experiments need data and models")
            if "lam" not in self.overrides:
                raise ConfigError("custom experiments need a lam override")

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "data": self.data,
            "models": list(self.models),
            "overrides": dict(self.overrides),
            "seed": self.seed,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "ExperimentSpec":
        check_keys("experiment spec", d, ("name",), ("data", "models", "overrides", "seed"))
        return cls(**d)


@dataclass
class RunRecord:
    spec: ExperimentSpec
    g: GridSignal
    results: dict
    summary: dict
    oracle: object = None
    artifacts: dict = field(default_factory=dict)
    wall_time: float = 0.0


def census_fit(u: GridSignal, threshold: float, margin: int = 5) -> PiecewiseConstant:
    """Piecewise-constant fit of a grid signal from its jump census.

    Breakpoints at censused jump positions; plateau values are means of the
    samples between jump groups, shaving ``margin`` cells next to each jump
    to keep transition cells out of the averages.
    """
    groups = _census_groups(u, threshold)
    values = []
    breakpoints = []
    prev = 0
    for i, j, pos, _size in groups:
        seg = u.samples[prev : i + 1]
        values.append(_trimmed_mean(seg, margin if prev > 0 else 0, margin))
        breakpoints.append(pos)
        prev = j + 1
    seg = u.samples[prev:]
    values.append(_trimmed_mean(seg, margin if prev > 0 else 0, 0))
    return PiecewiseConstant(u.domain, tuple(breakpoints), tuple(values))


def _trimmed_mean(seg: np.ndarray, lo: int, hi: int) -> float:
    if seg.size > lo + hi + 1:
        seg = seg[lo : seg.size - hi] if hi else seg[lo:]
    return float(seg.mean())


def _flow_params(model: str, lam: float, spec: ExperimentSpec, **proto) -> FlowParams:
    return FlowParams(**{"model": model, "lam": lam, **proto, **spec.overrides})


def _grid(spec: ExperimentSpec, name: str) -> GridSignal:
    """The protocol's data signal on the spec's grid (FlowParams.n by default)."""
    return generate_signal(name, n=spec.overrides.get("n", FlowParams.n), seed=spec.seed)


def _max_energy_rise(trace) -> float:
    """Largest per-step relative energy increase along a flow trace (0 if none)."""
    energies = [row[1] for row in trace]
    worst = 0.0
    for prev, cur in zip(energies, energies[1:]):
        if cur > prev:
            worst = max(worst, (cur - prev) / max(abs(cur), 1e-30))
    return worst


def run_summary(result: FlowResult, census_threshold: float) -> dict:
    """The one summary of a flow run.

    Every protocol block in ``summary.json`` is this dict plus the
    protocol's extras, and the run's ``result.json`` is that block plus
    ``params``; a lone ``flow run`` writes this dict plus ``params``.
    """
    census = jump_census(result.state.u, census_threshold)
    return {
        "model": result.params.model,
        "steady": result.steady,
        "steps": result.steps,
        "t_final": result.state.t,
        "energy": result.state.energy,
        "census_threshold": census_threshold,
        "jump_count": len(census),
        "jump_census": [[float(p), float(s)] for p, s in census],
        "final_prox_gap": result.state.prox_gap,
        "max_step_energy_rise": _max_energy_rise(result.trace),
    }


def _sweep(spec: ExperimentSpec, data: str, lam: float, threshold: float, **proto):
    """Run every model of the spec (default: all of ``MODELS``) from u0 = g."""
    g = _grid(spec, data)
    results, blocks = {}, {}
    for model in spec.models or MODELS:
        results[model] = run(g, g, _flow_params(model, lam, spec, **proto))
        blocks[model] = run_summary(results[model], threshold)
    return g, results, blocks


# ---------------------------------------------------------------------------
# Protocols.


def _bound_block(lam: float, observed: int, applies: bool) -> dict:
    report = jump_bounds(kwc_kernel(1.0), 0.0, 1.0, lam, mass_cap=1.0)
    block = {
        "jumps_monotone_data": report.jumps_monotone_data,
        "jumps_any_data": report.jumps_any_data,
        "observed": observed,
        "applies": applies,
        "violated": bool(applies and observed > report.jumps_monotone_data),
    }
    return block


def _linear_steady(spec: ExperimentSpec) -> RunRecord:
    m = 4
    lam = lambda_for_jump_count(1.0, m)
    g = _grid(spec, "linear")
    um = uniform_step_minimizer(1.0, m)
    starts = {
        "naive": (g, False),
        "theory": (um.sample(g.n), True),
    }
    results, blocks = {}, {}
    for label, (u0, relax) in starts.items():
        params = _flow_params("kwc", lam, spec, bc_u="dirichlet", pre_relax=relax)
        results[label] = run(g, u0, params)
        block = run_summary(results[label], STRUCTURE_THRESHOLD)
        block["bound"] = _bound_block(lam, block["jump_count"], applies=(label == "theory"))
        blocks[label] = block

    d = 1.0 / m
    theory = blocks["theory"]
    pairs = theory["jump_census"]
    h = g.h
    if pairs:
        sizes = np.array([s for _p, s in pairs])
        positions = np.array([p for p, _s in pairs])
        expected = (np.arange(1, len(pairs) + 1) - 0.5) * (1.0 / len(pairs))
        theory["jump_sizes"] = sizes.tolist()
        theory["size_uniformity"] = float(np.max(np.abs(sizes - sizes.mean())) / abs(sizes.mean()))
        theory["expected_positions"] = expected.tolist()
        theory["position_error_cells"] = float(np.max(np.abs(positions - expected)) / h)
        theory["boundary_plateau_error_cells"] = [
            float(abs(positions[0] - d / 2.0) / h),
            float(abs((1.0 - positions[-1]) - d / 2.0) / h),
        ]
    summary = {
        "experiment": "linear_steady",
        "seed": spec.seed,
        "m_target": m,
        "lam": lam,
        "runs": blocks,
    }
    summary["bound_violations"] = ["theory"] if theory["bound"]["violated"] else []
    return RunRecord(spec=spec, g=g, results=results, summary=summary)


def _nonuniqueness(spec: ExperimentSpec) -> RunRecord:
    crit = critical_lambda(1.0)
    lam = crit.lam
    g = _grid(spec, "linear")
    kernel = kwc_kernel(1.0)
    data = LinearData((0.0, 1.0))

    results, blocks = {}, {}
    fit_energies = {}
    for m in (1, 2):
        label = f"m{m}"
        um = uniform_step_minimizer(1.0, m).sample(g.n)
        u0 = GridSignal(g.domain, 0.5 * g.samples + 0.5 * um.samples)
        params = _flow_params("kwc", lam, spec, bc_u="dirichlet", pre_relax=True)
        results[label] = run(g, u0, params)
        block = run_summary(results[label], STRUCTURE_THRESHOLD)
        fit = census_fit(results[label].state.u, STRUCTURE_THRESHOLD)
        fit_total = energy(fit, data, kernel, lam).total
        fit_energies[label] = fit_total
        block["fit_jump_count"] = fit.jump_count
        block["fit_energy"] = fit_total
        block["analytic_energy"] = 13.0 / 18.0
        block["fit_rel_gap"] = abs(fit_total - 13.0 / 18.0) / (13.0 / 18.0)
        block["bound"] = _bound_block(lam, block["jump_count"], applies=True)
        blocks[label] = block

    problem = oracle_mod.OracleProblem(
        data=data, kernel=kernel, lam=lam, n_cells=400, n_levels=101,
        endpoint_pin=(0.0, 1.0),
    )
    oracle_result = oracle_mod.solve(problem, tie_scan_jumps=3)
    tie_counts = sorted({t.jump_count for t in oracle_result.ties})

    e1, e2 = fit_energies["m1"], fit_energies["m2"]
    summary = {
        "experiment": "nonuniqueness",
        "seed": spec.seed,
        "lam": lam,
        "tied_jump_counts_theory": list(crit.tied_jump_counts),
        "runs": blocks,
        "energy_match": {
            "rel_diff": abs(e1 - e2) / max(abs(e1), abs(e2)),
            "tol": 1e-2,
        },
        "oracle": {
            "n_cells": 400,
            "n_levels": 101,
            "tie_jump_counts": tie_counts,
            "energy": oracle_result.energy.total,
        },
    }
    summary["bound_violations"] = [
        label for label in ("m1", "m2") if blocks[label]["bound"]["violated"]
    ]
    return RunRecord(spec=spec, g=g, results=results, summary=summary, oracle=oracle_result)


def _sine_segmentation(spec: ExperimentSpec) -> RunRecord:
    lam = 150.0
    g, results, blocks = _sweep(spec, "sine", lam, STRUCTURE_THRESHOLD, bc_u="neumann")
    for model, block in blocks.items():
        u = results[model].state.u
        block["micro_threshold"] = MICRO_THRESHOLD
        block["micro_edge_count"] = edges_above(u, MICRO_THRESHOLD)
        if model == "kwc":
            flat = plateau_flatness(u, STRUCTURE_THRESHOLD)
            block["plateau_count"] = block["jump_count"] + 1
            block["max_plateau_variation"] = max((v for _a, _b, v in flat), default=0.0)
    summary = {
        "experiment": "sine_segmentation",
        "seed": spec.seed,
        "lam": lam,
        "thresholds": {"structure": STRUCTURE_THRESHOLD, "micro": MICRO_THRESHOLD},
        "models": blocks,
    }
    if "kwc" in blocks:
        summary["oracle_check"] = _sine_oracle_check(lam)
    return RunRecord(spec=spec, g=g, results=results, summary=summary)


def _sine_oracle_check(lam: float, n_cells: int = 500, n_levels: int = 201) -> dict:
    """Exact minimizer of the sharp-interface limit on the sine instance.

    Documents that the fine-grained steady state of the accurate flow is not a
    solver failure: the global optimum over level-quantized step functions is
    itself fine-grained at this fidelity weight.
    """
    problem = oracle_mod.OracleProblem(
        data=SineData(domain=(0.0, 1.0)),
        kernel=kwc_kernel(1.0),
        lam=lam,
        n_cells=n_cells,
        n_levels=n_levels,
    )
    best = oracle_mod.solve(problem)
    return {
        "n_cells": n_cells,
        "n_levels": n_levels,
        "jump_count": len(best.minimizer.values) - 1,
        "energy": best.energy.total,
    }


def _noisy_steps(spec: ExperimentSpec) -> RunRecord:
    lam = 50.0
    g, results, blocks = _sweep(spec, "noisy_steps", lam, DENOISE_THRESHOLD, bc_u="neumann")
    kwc = blocks.get("kwc")
    if kwc is not None:
        kwc["expected_positions"] = list(STEP_EDGES)
        if kwc["jump_count"] == len(STEP_EDGES):
            kwc["position_errors"] = [
                abs(p - e) for (p, _s), e in zip(kwc["jump_census"], STEP_EDGES)
            ]
    summary = {
        "experiment": "noisy_steps",
        "seed": spec.seed,
        "lam": lam,
        "threshold": DENOISE_THRESHOLD,
        "noise": {
            "sd": NOISE_SD,
            "seed": spec.seed,
            "plateaus": list(STEP_PLATEAUS),
            "edges": list(STEP_EDGES),
        },
        "models": blocks,
    }
    return RunRecord(spec=spec, g=g, results=results, summary=summary)


def _custom(spec: ExperimentSpec) -> RunRecord:
    lam = float(spec.overrides["lam"])
    g, results, blocks = _sweep(spec, spec.data, lam, STRUCTURE_THRESHOLD)
    summary = {
        "experiment": "custom",
        "data": spec.data,
        "seed": spec.seed,
        "lam": lam,
        "models": blocks,
    }
    return RunRecord(spec=spec, g=g, results=results, summary=summary)


_PROTOCOLS = {
    "linear_steady": _linear_steady,
    "nonuniqueness": _nonuniqueness,
    "sine_segmentation": _sine_segmentation,
    "noisy_steps": _noisy_steps,
    "custom": _custom,
}


def run_experiment(spec: ExperimentSpec, out_dir=None) -> RunRecord:
    """Execute a named protocol; optionally persist artifacts under out_dir."""
    start = time.perf_counter()
    try:
        record = _PROTOCOLS[spec.name](spec)
    except DivergenceError as err:
        if out_dir is not None and err.trace:
            path = Path(out_dir)
            path.mkdir(parents=True, exist_ok=True)
            _write_trace(path / "diverged_trace.csv", err.trace, 1)
        raise
    record.wall_time = time.perf_counter() - start
    record.summary["wall_time_seconds"] = record.wall_time
    if out_dir is not None:
        write_artifacts(record, out_dir)
    violated = record.summary.get("bound_violations")
    if violated:
        raise InvariantViolation(
            f"jump census exceeds the monotone-data bound in run(s): {', '.join(violated)}"
        )
    return record


# ---------------------------------------------------------------------------
# Artifact writers.


def write_csv(path, header, columns) -> None:
    """A header line, then one row per index of ``columns``, every value as .17g."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*columns):
            fh.write(",".join(f"{value:.17g}" for value in row) + "\n")


def write_json(path, obj) -> None:
    """Write ``obj`` as indented JSON with sorted keys and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_trace(path, trace, stride) -> None:
    rows = trace[::stride]
    if trace and rows[-1] is not trace[-1]:
        rows.append(trace[-1])
    write_csv(path, TRACE_COLUMNS, zip(*rows))


def write_flow_artifacts(result: FlowResult, out_dir, census_threshold: float = STRUCTURE_THRESHOLD) -> dict:
    """Persist one flow run: trace.csv, final.csv, result.json."""
    return _write_run(result, out_dir, run_summary(result, census_threshold))


def _write_run(result: FlowResult, out_dir, summary: dict) -> dict:
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    _write_trace(path / "trace.csv", result.trace, result.params.output_stride)
    u, v = result.state.u, result.state.v
    final = {"x": u.x(), "u": u.samples}
    if v is not None:
        final["v"] = v.samples
    write_csv(path / "final.csv", final, final.values())
    write_json(path / "result.json", {**summary, "params": dataclasses.asdict(result.params)})
    return {
        "trace": str(path / "trace.csv"),
        "final": str(path / "final.csv"),
        "result": str(path / "result.json"),
    }


def write_artifacts(record: RunRecord, out_dir) -> None:
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    # Each protocol keeps its run_summary blocks, keyed like record.results,
    # under "runs" or "models"; result.json is that block plus params.
    blocks = record.summary.get("runs") or record.summary["models"]
    for label, result in record.results.items():
        record.artifacts[label] = _write_run(result, path / label, blocks[label])
    summary = dict(record.summary)
    summary["spec"] = record.spec.to_json_dict()
    if record.oracle is not None:
        summary["oracle_result"] = record.oracle.to_json_dict()
    summary["artifacts"] = record.artifacts
    write_json(path / "summary.json", summary)
    record.artifacts["summary"] = str(path / "summary.json")


def plot_record(record: RunRecord, out_dir) -> list:
    """One SVG per run from the persisted final.csv artifacts.

    Raises FileNotFoundError listing any absent artifact files.
    """
    path = Path(out_dir)
    labels = [k for k in record.artifacts if k != "summary"]
    missing = [
        record.artifacts[label]["final"]
        for label in labels
        if not Path(record.artifacts[label]["final"]).exists()
    ]
    if missing:
        raise FileNotFoundError("missing artifacts: " + ", ".join(sorted(missing)))
    written = []
    for label in sorted(labels):
        table = np.genfromtxt(record.artifacts[label]["final"], delimiter=",", names=True)
        x = np.atleast_1d(table["x"])
        curves = [
            svgplot.Curve(record.g.x(), record.g.samples, "#bbbbbb", width=1.0, label="data"),
            svgplot.Curve(x, np.atleast_1d(table["u"]), "#1f4e9c", width=1.8, label="signal"),
        ]
        if "v" in (table.dtype.names or ()):
            curves.append(
                svgplot.Curve(
                    x, np.atleast_1d(table["v"]), "#c25400", width=1.2,
                    dash="5,3", secondary=True, label="damage",
                )
            )
        out = path / f"{label}.svg"
        svgplot.write_svg(out, curves, title=f"{record.spec.name}: {label}")
        written.append(str(out))
    return written
