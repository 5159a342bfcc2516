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

The plots are drawn from the run record (the data and each run's final
state), not from the files: the layer writes its artifacts and never reads
them back.

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

from . import exact, flow, oracle, svgplot
from .errors import ConfigError, DivergenceError, InvariantViolation, check_count, check_keys
from .pwc import MAX_NODES, GridSignal, LinearData, PiecewiseConstant, SineData, energy

NOISE_SD = 0.1
STEP_PLATEAUS = (0.2, 0.8, 0.35)
STEP_EDGES = (1.0 / 3.0, 2.0 / 3.0)

# Census thresholds for the summaries; chosen for the default grid and
# documented in every summary JSON.
STRUCTURE_THRESHOLD = 0.05
MICRO_THRESHOLD = 1e-3
DENOISE_THRESHOLD = 0.1


def _step(x):
    # Its own formula, not a PiecewiseConstant: the step is 1 from x = 0.5
    # on, so at odd n the middle node x = 0.5 is 1, where a left-continuous
    # step function gives 0.
    return np.where(x < 0.5, 0.0, 1.0)


_STEPS = PiecewiseConstant((0.0, 1.0), STEP_EDGES, STEP_PLATEAUS)
# The clean data behind each generator, in the order that messages and
# --help list them; a protocol's flow samples the object its oracle solves.
CLEAN_DATA = {
    "linear": LinearData((0.0, 1.0)),
    "sine": SineData((0.0, 1.0)),
    "step": _step,
    "steps": _STEPS,
    "noisy_steps": _STEPS,
}
GENERATORS = tuple(CLEAN_DATA)


def generate_signal(name: str, n: int = 1000, seed: int = 0) -> GridSignal:
    """``CLEAN_DATA[name]`` on n >= 2 nodes of (0, 1): ``LinearData((0, 1))``,
    ``SineData((0, 1))``, the unit step at 0.5, or the plateaus on thirds;
    ``noisy_steps`` adds noise of standard deviation ``NOISE_SD`` drawn from ``seed``."""
    check_count("n", n, least=2, most=MAX_NODES)
    check_count("seed", seed)
    if name not in GENERATORS:
        raise ConfigError(f"unknown signal generator name {name!r}; expected one of {GENERATORS}")
    y = CLEAN_DATA[name](np.linspace(0.0, 1.0, n))
    if name == "noisy_steps":
        y = y + np.random.default_rng(seed).normal(0.0, NOISE_SD, size=n)
    return GridSignal((0.0, 1.0), y)


@dataclass(frozen=True)
class ExperimentSpec:
    """A named protocol plus the settings a run may choose, checked when built.

    Named experiments fix their data and weight, and ``linear_steady`` and
    ``nonuniqueness`` their model (kwc); a spec that sets these is rejected.
    Every protocol takes the grid size ``n`` and the end time ``t_max`` of
    its flows, and the other FlowParams fields keep the protocol's values.
    ``custom`` requires a generator name, a model list, and ``lam``.
    """

    name: str
    data: str = ""
    models: tuple = ()
    lam: float | None = None
    n: int = flow.FlowParams.n
    t_max: float = flow.FlowParams.t_max
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.name, str) or self.name not in PROTOCOLS:
            raise ConfigError(f"unknown experiment {self.name!r}")
        if not isinstance(self.models, (list, tuple)):
            raise ConfigError(f"models must be a list of model names, got {self.models!r}")
        object.__setattr__(self, "models", tuple(self.models))
        # The rules of these FlowParams fields, t_max against the default dt.
        flow.FlowParams(flow.MODELS[0], 0.0 if self.lam is None else self.lam, n=self.n, t_max=self.t_max)
        check_count("seed", self.seed)
        unknown = [m for m in self.models if m not in flow.MODELS]
        if unknown:
            raise ConfigError(f"unknown models {unknown}; expected some of {flow.MODELS}")
        repeated = sorted({m for m in self.models if self.models.count(m) > 1})
        if repeated:
            raise ConfigError(f"repeated models {repeated}; list each model once")
        if self.name == "custom":
            if not self.data or not self.models:
                raise ConfigError("custom experiments need data and models")
            if self.data not in GENERATORS:
                raise ConfigError(f"unknown data generator {self.data!r}; expected one of {GENERATORS}")
            if self.lam is None:
                raise ConfigError("custom experiments need a lam override")
        else:
            kwc_only = self.name in ("linear_steady", "nonuniqueness")
            given = {"data": self.data, "lam": self.lam is not None, "models": kwc_only and self.models}
            fixed = [key for key, value in given.items() if value]
            if fixed:
                raise ConfigError(f"the {self.name} protocol fixes its own {', '.join(fixed)}")

    def to_json_dict(self) -> dict:
        return {**dataclasses.asdict(self), "models": list(self.models)}

    @classmethod
    def from_json_dict(cls, d: dict) -> "ExperimentSpec":
        check_keys("experiment spec", d, ("name",), [f.name for f in dataclasses.fields(cls) if f.name != "name"])
        return cls(**d)


@dataclass
class RunRecord:
    spec: ExperimentSpec
    g: GridSignal
    results: dict
    summary: dict
    artifacts: dict = field(default_factory=dict)


def _flow_params(model: str, lam: float, spec: ExperimentSpec, **proto) -> flow.FlowParams:
    return flow.FlowParams(model, lam, n=spec.n, t_max=spec.t_max, **proto)


def _grid(spec: ExperimentSpec, name: str) -> GridSignal:
    """The protocol's data signal on the spec's grid."""
    return generate_signal(name, n=spec.n, seed=spec.seed)


def _max_energy_rise(trace) -> float:
    """Largest per-step relative energy increase along a flow trace (0 if none)."""
    energies = [row[1] for row in trace]
    worst = 0.0
    for prev, cur in zip(energies, energies[1:]):
        if cur > prev:  # so cur > 0, as every model's energy is at least 0: no floor, the same at every scale
            worst = max(worst, (cur - prev) / cur)
    return worst


def run_summary(result: flow.FlowResult, census_threshold: float) -> dict:
    """The one summary of a flow run.

    Every protocol block in ``summary.json`` is this dict plus the
    protocol's extras, and the run's ``result.json`` is that block plus
    ``params``; a lone ``flow run`` writes this dict plus ``params``.
    """
    census = flow.jump_census(result.state.u, census_threshold)
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


def _run_all(g: GridSignal, runs: dict, threshold: float):
    """Run each label's ``(u0, FlowParams)`` against the data g.

    Returns the results and their ``run_summary`` blocks, both keyed by
    label in the order of ``runs``; a protocol adds its extras to the blocks.
    """
    results = {label: flow.run(g, u0, params) for label, (u0, params) in runs.items()}
    return results, {label: run_summary(result, threshold) for label, result in results.items()}


def _sweep(spec: ExperimentSpec, data: str, lam: float, threshold: float, **proto):
    """Run every model of the spec (default: all of ``flow.MODELS``) from u0 = g."""
    g = _grid(spec, data)
    runs = {model: (g, _flow_params(model, lam, spec, **proto)) for model in spec.models or flow.MODELS}
    return (g, *_run_all(g, runs, threshold))


def _oracle_row(params: flow.FlowParams, data, n_cells: int, n_levels: int, endpoint_pin=None, tie_scan_jumps=None):
    """One summary row of the oracle solve of a run's sharp twin
    (``flow.sharp_twin``) against the data, and the solve's ``OracleResult``.

    The row holds the grid, the minimizer's jump count and its energy in
    the run's units, the twin's times its factor; with a tie scan it also
    holds ``tie_jump_counts``, the sorted set of the jump counts of the
    minimizer and of its ties.  The ``OracleResult`` is the twin's solve,
    in the twin's units: its energies are the row's divided by the factor.
    """
    kernel, weight, factor = flow.sharp_twin(params)
    problem = oracle.OracleProblem(data, kernel, weight, n_cells, n_levels=n_levels, endpoint_pin=endpoint_pin)
    result = oracle.solve(problem, tie_scan_jumps=tie_scan_jumps)
    row = {
        "n_cells": n_cells,
        "n_levels": n_levels,
        "jump_count": result.jump_count,
        "energy": factor * result.energy.total,
    }
    if tie_scan_jumps is not None:
        row["tie_jump_counts"] = sorted({result.jump_count, *(t.jump_count for t in result.ties)})
    return row, result


# ---------------------------------------------------------------------------
# Protocols.


def _bound_block(params: flow.FlowParams, observed: int, applies: bool) -> dict:
    """The jump-count bounds of the run's sharp twin on (0, 1), data of range 1."""
    kernel, weight, _factor = flow.sharp_twin(params)
    report = exact.jump_bounds(kernel, 0.0, 1.0, weight, mass_cap=1.0)
    return {
        "jumps_monotone_data": report.jumps_monotone_data,
        "jumps_any_data": report.jumps_any_data,
        "observed": observed,
        "applies": applies,
        "violated": bool(applies and observed > report.jumps_monotone_data),
    }


def _bound_violations(blocks: dict) -> list:
    return [label for label, block in blocks.items() if block["bound"]["violated"]]


def _linear_steady(spec: ExperimentSpec) -> RunRecord:
    m = 4
    lam = exact.lambda_for_jump_count(1.0, m)
    g = _grid(spec, "linear")
    runs = {
        "naive": (g, _flow_params("kwc", lam, spec, bc_u="dirichlet", pre_relax=False)),
        "theory": (
            exact.uniform_step_minimizer(1.0, m).sample(g.n),
            _flow_params("kwc", lam, spec, bc_u="dirichlet", pre_relax=True),
        ),
    }
    results, blocks = _run_all(g, runs, STRUCTURE_THRESHOLD)
    for label, block in blocks.items():
        block["bound"] = _bound_block(runs[label][1], block["jump_count"], applies=(label == "theory"))

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
        "m_target": m,
        "lam": lam,
        "runs": blocks,
        "bound_violations": _bound_violations(blocks),
    }
    return RunRecord(spec=spec, g=g, results=results, summary=summary)


def _nonuniqueness(spec: ExperimentSpec) -> RunRecord:
    crit = exact.critical_lambda(1.0)
    g = _grid(spec, "linear")
    data = CLEAN_DATA["linear"]
    params = _flow_params("kwc", crit.lam, spec, bc_u="dirichlet", pre_relax=True)
    kernel, weight, factor = flow.sharp_twin(params)
    # The energy of the 1-jump ladder, tied with the 2-jump one.
    tied = factor * exact.uniform_step_energy(1.0, 1, weight, kernel)

    runs = {}
    for m in (1, 2):
        um = exact.uniform_step_minimizer(1.0, m).sample(g.n)
        runs[f"m{m}"] = (GridSignal(g.domain, 0.5 * g.samples + 0.5 * um.samples), params)
    results, blocks = _run_all(g, runs, STRUCTURE_THRESHOLD)
    for label, block in blocks.items():
        fit = flow.census_fit(results[label].state.u, STRUCTURE_THRESHOLD)
        fit_total = factor * energy(fit, data, kernel, weight).total
        block["fit_jump_count"] = fit.jump_count
        block["fit_energy"] = fit_total
        block["analytic_energy"] = tied
        block["fit_rel_gap"] = abs(fit_total - tied) / tied
        block["bound"] = _bound_block(params, block["jump_count"], applies=True)

    oracle_row, oracle_result = _oracle_row(params, data, 400, 101, endpoint_pin=(0.0, 1.0), tie_scan_jumps=3)

    e1, e2 = blocks["m1"]["fit_energy"], blocks["m2"]["fit_energy"]
    summary = {
        "lam": crit.lam,
        "tied_jump_counts_theory": list(crit.tied_jump_counts),
        "runs": blocks,
        "energy_match": {
            "rel_diff": abs(e1 - e2) / max(abs(e1), abs(e2)),
            "tol": 1e-2,
        },
        "oracle": oracle_row,
        "oracle_result": oracle_result.to_json_dict(),
        "bound_violations": _bound_violations(blocks),
    }
    return RunRecord(spec=spec, g=g, results=results, summary=summary)


def _sine_segmentation(spec: ExperimentSpec) -> RunRecord:
    lam = 150.0
    g, results, blocks = _sweep(spec, "sine", lam, STRUCTURE_THRESHOLD, bc_u="neumann")
    for model, block in blocks.items():
        u = results[model].state.u
        block["micro_threshold"] = MICRO_THRESHOLD
        block["micro_edge_count"] = flow.edges_above(u, MICRO_THRESHOLD)
        if model == "kwc":
            flat = flow.plateau_flatness(u, STRUCTURE_THRESHOLD)
            block["plateau_count"] = block["jump_count"] + 1
            block["max_plateau_variation"] = max((v for _a, _b, v in flat), default=0.0)
    summary = {
        "lam": lam,
        "thresholds": {"structure": STRUCTURE_THRESHOLD, "micro": MICRO_THRESHOLD},
        "models": blocks,
    }
    if "kwc" in blocks:
        # The exact minimizer of the sharp-interface limit on this instance
        # is itself fine-grained at this weight: the flow's fine-grained
        # steady state is not a solver failure.
        summary["oracle_check"] = _oracle_row(results["kwc"].params, CLEAN_DATA["sine"], 500, 201)[0]
    return RunRecord(spec=spec, g=g, results=results, summary=summary)


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
    g, results, blocks = _sweep(spec, spec.data, spec.lam, STRUCTURE_THRESHOLD)
    summary = {"data": spec.data, "lam": spec.lam, "models": blocks}
    return RunRecord(spec=spec, g=g, results=results, summary=summary)


PROTOCOLS = {
    "linear_steady": _linear_steady,
    "nonuniqueness": _nonuniqueness,
    "sine_segmentation": _sine_segmentation,
    "noisy_steps": _noisy_steps,
    "custom": _custom,
}
# The named protocols: all but custom, which takes its data from the spec.
EXPERIMENTS = tuple(name for name in PROTOCOLS if name != "custom")


def run_experiment(spec: ExperimentSpec, out_dir=None) -> RunRecord:
    """Execute a named protocol; optionally persist artifacts under out_dir."""
    start = time.perf_counter()
    try:
        record = PROTOCOLS[spec.name](spec)
    except DivergenceError as err:
        if out_dir is not None and err.trace:
            path = Path(out_dir)
            path.mkdir(parents=True, exist_ok=True)
            _write_trace(path / "diverged_trace.csv", err.trace, 1)
        raise
    # The keys every protocol summary shares.
    record.summary.update(experiment=spec.name, seed=spec.seed, wall_time_seconds=time.perf_counter() - start)
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


def dump_csv(stream, header, columns) -> None:
    """A header line, then one row per index of ``columns``, every value as
    .17g.  Array columns are formatted as Python floats, which is faster
    than NumPy's and gives the same text."""
    stream.write(",".join(header) + "\n")
    columns = [c.tolist() if hasattr(c, "tolist") else c for c in columns]
    template = ",".join(["%.17g"] * len(columns)) + "\n"
    stream.writelines(template % row for row in zip(*columns))


def write_csv(path, header, columns) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        dump_csv(fh, header, columns)


def dump_json(stream, obj) -> None:
    """``obj`` as indented JSON with sorted keys and a final newline."""
    json.dump(obj, stream, indent=2, sort_keys=True)
    stream.write("\n")


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        dump_json(fh, obj)


def _write_trace(path, trace, stride) -> None:
    rows = trace[::stride]
    if trace and rows[-1] is not trace[-1]:
        rows.append(trace[-1])
    write_csv(path, flow.TRACE_COLUMNS, zip(*rows))


def write_flow_artifacts(result: flow.FlowResult, out_dir, census_threshold: float = STRUCTURE_THRESHOLD) -> dict:
    """Persist one flow run: trace.csv, final.csv, result.json."""
    return _write_run(result, out_dir, run_summary(result, census_threshold))


def _write_run(result: flow.FlowResult, out_dir, summary: dict) -> dict:
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
    summary["artifacts"] = record.artifacts
    write_json(path / "summary.json", summary)
    record.artifacts["summary"] = str(path / "summary.json")


def plot_record(record: RunRecord, out_dir) -> list:
    """One SVG per persisted run (each label in ``record.artifacts``),
    drawn from the record's data and the run's final state."""
    path = Path(out_dir)
    written = []
    for label in sorted(k for k in record.artifacts if k != "summary"):
        u, v = record.results[label].state.u, record.results[label].state.v
        curves = [
            svgplot.Curve(record.g.x(), record.g.samples, "#bbbbbb", width=1.0, label="data"),
            svgplot.Curve(u.x(), u.samples, "#1f4e9c", width=1.8, label="signal"),
        ]
        if v is not None:
            curves.append(
                svgplot.Curve(
                    u.x(), v.samples, "#c25400", width=1.2,
                    dash="5,3", secondary=True, label="damage",
                )
            )
        out = path / f"{label}.svg"
        svgplot.write_svg(out, curves, title=f"{record.spec.name}: {label}")
        written.append(str(out))
    return written
