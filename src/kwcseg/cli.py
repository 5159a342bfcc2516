"""Command-line surface: kernel checks, closed forms, oracle, flows, experiments.

Exit codes: 0 success, 2 configuration error (a ConfigError or OSError),
3 solver divergence, 4 invariant violation (e.g. a jump-count bound
exceeded).  Any other exception is a fault of the program: a traceback.
"""

import argparse
import functools
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

from . import experiments as experiments_mod
from . import flow as flow_mod
from . import oracle as oracle_mod
from .errors import ConfigError, DivergenceError, InvariantViolation
from .errors import check_count, check_keys, check_real
from .exact import critical_lambda, equal_jump_verdict, jump_bounds, uniform_step_energy
from .kernel import VALID_KINDS, JumpKernel, check_conditions
from .pwc import GridSignal, LinearData, PiecewiseConstant, SineData


def _given(args, *names) -> dict:
    """The flags among ``names`` that the user gave; the library's defaults apply to the rest."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _kernel_from_args(args) -> JumpKernel:
    return JumpKernel(args.kind, **_given(args, "kappa", "height"))


def _load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as err:
        raise ConfigError(f"invalid JSON in {path}: {err}")


# The keys of each data kind besides "kind": (required, optional).  An
# optional key left out takes the data object's default; a domain, (0, 1).
_DATA_KEYS = {
    "linear": ((), ("domain", "slope", "intercept")),
    "sine": ((), ("domain", "amplitude", "omega")),
    "steps": (("steps",), ()),
    "csv": (("path",), ()),
    "generator": (("name",), ("n", "seed")),
}
_ANALYTIC_DATA = {"linear": LinearData, "sine": SineData}
# The keys of each grid-signal source besides the source itself.
_SIGNAL_KEYS = {"generator": ("n", "seed"), "csv": (), "pwc": ("n",)}
_ORACLE_KEYS = ("n_cells", "n_levels", "levels", "endpoint_pin")


def data_from_config(cfg: dict):
    """Data description -> ``LinearData``, ``SineData``, ``PiecewiseConstant`` or ``GridSignal``."""
    kind = cfg.get("kind") if isinstance(cfg, dict) else None
    if not isinstance(kind, str) or kind not in _DATA_KEYS:
        raise ConfigError(f"data config needs a 'kind' in {sorted(_DATA_KEYS)}, got {cfg!r}")
    required, optional = _DATA_KEYS[kind]
    check_keys(f"{kind} data config", cfg, ("kind", *required), optional)
    given = {key: cfg[key] for key in optional if key in cfg}
    if kind in _ANALYTIC_DATA:
        return _ANALYTIC_DATA[kind](**{"domain": (0.0, 1.0), **given})
    if kind == "steps":
        return PiecewiseConstant.from_json_dict(cfg["steps"], "steps")
    if kind == "csv":
        return GridSignal.from_csv(cfg["path"])
    return experiments_mod.generate_signal(cfg["name"], **given)


def signal_from_config(cfg: dict, name: str, n_default: int) -> GridSignal:
    """Grid-signal description (the config field ``name``) -> GridSignal (generator, csv, or sampled pwc)."""
    source = next((key for key in _SIGNAL_KEYS if key in cfg), None) if isinstance(cfg, dict) else None
    if source is None:
        raise ConfigError(f"{name} needs one of {list(_SIGNAL_KEYS)}, got {cfg!r}")
    check_keys(f"{source} signal config", cfg, (source,), _SIGNAL_KEYS[source])
    given = {"n": n_default, **{key: cfg[key] for key in _SIGNAL_KEYS[source] if key in cfg}}
    if source == "generator":
        return experiments_mod.generate_signal(cfg["generator"], **given)
    if source == "csv":
        return GridSignal.from_csv(cfg["csv"])
    return PiecewiseConstant.from_json_dict(cfg["pwc"], "pwc").sample(given["n"])


# ---------------------------------------------------------------------------
# Subcommand handlers.


def _cmd_check_kernel(args) -> dict:
    report = check_conditions(_kernel_from_args(args), args.M)
    return {"report": report.to_json_dict(), "constants": asdict(report.constants)}


def _cmd_exact_bounds(args) -> dict:
    kernel = _kernel_from_args(args)
    return jump_bounds(kernel, args.a, args.b, args.lam, args.M).to_json_dict()


def _cmd_exact_critical(args) -> dict:
    return critical_lambda(args.L).to_json_dict()


# The most rows of ``exact energy-table``: 10^5 take 1-1.5 s with any kernel (2-core Xeon).
MAX_TABLE_JUMPS = 100_000


def _cmd_exact_energy_table(args) -> None:
    kernel = _kernel_from_args(args)
    check_count("m_max", args.m_max, least=1, most=MAX_TABLE_JUMPS)
    ms = range(1, args.m_max + 1)
    columns = (ms, [uniform_step_energy(args.L, m, args.lam, kernel) for m in ms])
    if args.out:
        experiments_mod.write_csv(args.out, ("m", "E"), columns)
    else:
        experiments_mod.dump_csv(sys.stdout, ("m", "E"), columns)


def _cmd_exact_verdict(args) -> dict:
    kernel = _kernel_from_args(args)
    return equal_jump_verdict(kernel, args.c, args.lam).to_json_dict()


def _problem_from_config(cfg: dict) -> oracle_mod.OracleProblem:
    """An oracle config -> problem; a null optional field takes its default."""
    check_keys("oracle config", cfg, ("kernel", "lam", "data"), _ORACLE_KEYS)
    data = data_from_config(cfg["data"])
    kwargs = {key: cfg[key] for key in _ORACLE_KEYS if cfg.get(key) is not None}
    if cfg.get("endpoint_pin") is True:
        kwargs["endpoint_pin"] = tuple(data(x) for x in data.domain)
    return oracle_mod.OracleProblem(data=data, kernel=JumpKernel.from_config(cfg["kernel"]), lam=cfg["lam"], **kwargs)


def _cmd_oracle_solve(args) -> dict:
    cfg = _load_json(args.config)
    problem = _problem_from_config(cfg)
    result = oracle_mod.solve(problem, tie_scan_jumps=args.tie_scan)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        experiments_mod.write_json(out / "result.json", result.to_json_dict())
        mids = oracle_mod.cell_midpoints(problem)
        experiments_mod.write_csv(out / "minimizer.csv", ("x", "u"), (mids, result.minimizer(mids)))
    return result.to_json_dict()


def _cmd_flow_run(args) -> dict:
    cfg = check_keys("flow config", _load_json(args.config), ("params", "data"), ("u0", "census_threshold"))
    known = [f.name for f in fields(flow_mod.FlowParams)]
    pcfg = dict(check_keys("flow params", cfg["params"], ("model", "lam"), known))
    pcfg["model"] = str(pcfg["model"]).lower()
    params = flow_mod.FlowParams(**pcfg)  # checked before the data's size can replace a bad n
    census = {}
    if "census_threshold" in cfg:
        census["census_threshold"] = check_real("census_threshold", cfg["census_threshold"], least=0)
    g = signal_from_config(cfg["data"], "data", params.n)
    if g.n != params.n:
        params = flow_mod.FlowParams(**{**pcfg, "n": g.n})
    u0 = signal_from_config(cfg["u0"], "u0", params.n) if "u0" in cfg else g
    result = flow_mod.run(g, u0, params)
    paths = experiments_mod.write_flow_artifacts(result, args.out, **census)
    return {"steady": result.steady, "steps": result.steps, "artifacts": paths}


def _cmd_experiment(args) -> dict:
    spec = experiments_mod.ExperimentSpec(args.name, **_given(args, "data", "models", "lam", "n", "t_max", "seed"))
    record = experiments_mod.run_experiment(spec, out_dir=args.out)
    if args.out:
        experiments_mod.plot_record(record, args.out)
    return record.summary


# ---------------------------------------------------------------------------
# Parser.


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and in-process callers (tests, benchmarks) call ``main``
    many times."""
    parser = argparse.ArgumentParser(
        prog="kwcseg",
        description="1D variational segmentation: kernels, exact results, oracle, flows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_kernel_flags(p, need_m=True):
        p.add_argument("--kind", choices=VALID_KINDS, default="kwc")
        p.add_argument("--kappa", type=float, help="kwc curvature parameter")
        p.add_argument("--height", type=float, help="potts jump cost")
        if need_m:
            p.add_argument("--M", type=float, required=True, help="jump-mass cap (data oscillation)")

    pk = sub.add_parser("check-kernel", help="report kernel admissibility conditions")
    add_kernel_flags(pk)
    pk.set_defaults(func=_cmd_check_kernel)

    pe = sub.add_parser("exact", help="closed-form quantities")
    esub = pe.add_subparsers(dest="exact_command", required=True)

    pb = esub.add_parser("bounds", help="jump-count bounds for a data window")
    add_kernel_flags(pb)
    pb.add_argument("--a", type=float, default=0.0)
    pb.add_argument("--b", type=float, default=1.0)
    pb.add_argument("--lambda", dest="lam", type=float, required=True)
    pb.set_defaults(func=_cmd_exact_bounds)

    pc = esub.add_parser("critical-lambda", help="fidelity weight with tied 1- and 2-jump optima")
    pc.add_argument("--L", type=float, required=True)
    pc.set_defaults(func=_cmd_exact_critical)

    pt = esub.add_parser("energy-table", help="uniform-ladder energy per unit length vs jump count")
    add_kernel_flags(pt, need_m=False)
    pt.add_argument("--L", type=float, required=True)
    pt.add_argument("--lambda", dest="lam", type=float, required=True)
    pt.add_argument("--m-max", type=int, required=True)
    pt.add_argument("--out", default=None)
    pt.set_defaults(func=_cmd_exact_energy_table)

    pv = esub.add_parser("verdict", help="equal-jump forcing verdict for a symmetric split")
    add_kernel_flags(pv, need_m=False)
    pv.add_argument("--c", type=float, required=True, help="common jump size")
    pv.add_argument("--lambda", dest="lam", type=float, required=True)
    pv.set_defaults(func=_cmd_exact_verdict)

    po = sub.add_parser("oracle", help="discretized global minimization")
    osub = po.add_subparsers(dest="oracle_command", required=True)
    ps = osub.add_parser("solve", help="solve a problem config")
    ps.add_argument("--config", required=True)
    ps.add_argument("--tie-scan", type=int, default=None, help="scan jump counts 0..N for ties")
    ps.add_argument("--out", default=None)
    ps.set_defaults(func=_cmd_oracle_solve)

    pf = sub.add_parser("flow", help="gradient-flow runs")
    fsub = pf.add_subparsers(dest="flow_command", required=True)
    pr = fsub.add_parser("run", help="run a flow config")
    pr.add_argument("--config", required=True)
    pr.add_argument("--out", required=True)
    pr.set_defaults(func=_cmd_flow_run)

    px = sub.add_parser("experiment", help="named experiment protocols")
    px.add_argument("name", choices=tuple(experiments_mod.PROTOCOLS))
    px.add_argument("--seed", type=int)
    px.add_argument("--out", default=None)
    px.add_argument("--models", nargs="*", default=None, help=f"any of {', '.join(flow_mod.MODELS)}")
    px.add_argument("--data", default=None, help=f"custom only: one of {', '.join(experiments_mod.GENERATORS)}")
    px.add_argument("--lam", type=float, default=None)
    px.add_argument("--n", type=int, default=None)
    px.add_argument("--t-max", dest="t_max", type=float, default=None)
    px.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    """Run one command and print the JSON object it returns (None: the command wrote its output)."""
    args = build_parser().parse_args(argv)
    try:
        out = args.func(args)
        if out is not None:
            experiments_mod.dump_json(sys.stdout, out)
    except (ConfigError, OSError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except DivergenceError as err:
        print(f"divergence: {err}", file=sys.stderr)
        return 3
    except InvariantViolation as err:
        print(f"invariant violation: {err}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
