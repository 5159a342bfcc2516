"""kwcseg benchmark: one workload per run, or both in turn.

    python3 benchmarks/run.py --workload flow --seed 1 --seconds 5 --trace 0
    python3 benchmarks/run.py --workload all

A run imports kwcseg from ``src/`` of the checkout that holds this file,
sets the workload up SETUP_REPEATS times (``setup_s`` is the median), then
runs as many whole rounds of the workload's fixed work as fit in
``--seconds`` (at least one); every round checks all of its outputs.  With
``--trace 1`` the rounds run under the tracer and only the per-layer
metrics are reported.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A table of the
same numbers is printed above it, and the whole result (with the trace's
spans) is written to ``.bench_results/`` in the checkout.  The exit code
is 0 when every operation that is not a known fault passed, 1 otherwise,
and 2 when the run could not start.
"""

import argparse
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
RESULTS_DIR = ROOT / ".bench_results"
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("flow", "certify")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "instance_p50_s": "s",
    "instance_p90_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_fresh():
    """Import kwcseg and its command line from the checkout, dropping any
    earlier import."""
    for name in [k for k in sys.modules if k == "kwcseg" or k.startswith("kwcseg.")]:
        del sys.modules[name]
    importlib.import_module("kwcseg.cli")
    return sys.modules["kwcseg"]


def percentile(values, q):
    """q-th percentile by linear interpolation between order statistics."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def run_round(workload, kw, inputs, refs, out_dir):
    out_dir.mkdir(parents=True)
    t0 = time.perf_counter()
    try:
        outcome = workload.round(kw, inputs, refs, out_dir)
    except Exception as err:  # noqa: BLE001 - a program fault fails the round, not the run
        outcome = None
        error = f"{type(err).__name__}: {err}"
    wall = time.perf_counter() - t0
    shutil.rmtree(out_dir)
    if outcome is None:
        print(f"{workload.name}: round raised {error}", file=sys.stderr)
    elif len(outcome.ops) != workload.ops_per_round:
        print(f"{workload.name}: round made {len(outcome.ops)} operations", file=sys.stderr)
        outcome = None
    return outcome, wall


def run_workload(args):
    import workloads
    from tracing import Tracer, layer_metrics, unit_of

    # Third-party imports are paid once, before the timed set-ups.
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401

    workload = workloads.WORKLOADS[args.workload]
    work_dir = WORK_ROOT / f"{workload.name}-{args.seed}-{args.trace}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            kw = import_fresh()
            inputs = workload.setup(kw, args.seed, work_dir)
            setups.append(time.perf_counter() - t0)
        refs = workload.references(inputs)

        attempted = failed = 0
        correct = True
        walls, instance_times, layer_rows, spans = [], [], [], []
        start = time.perf_counter()
        rounds = 0
        # As many whole rounds as fit in --seconds, judged by the mean round
        # so far; always at least one.
        while rounds == 0 or (time.perf_counter() - start) * (rounds + 1) / rounds <= args.seconds:
            out_dir = work_dir / f"round-{rounds}"
            if args.trace:
                with Tracer() as tracer:
                    outcome, wall = run_round(workload, kw, inputs, refs, out_dir)
                if outcome is not None:
                    row = layer_metrics(tracer.spans, outcome.artifact_bytes)
                    row["trace.wall_s"] = wall
                    row["trace.overhead_s"] = tracer.overhead_s
                    layer_rows.append(row)
                spans = [s.to_json() for s in tracer.spans]
            else:
                outcome, wall = run_round(workload, kw, inputs, refs, out_dir)
                instance_times.extend(outcome.instance_times if outcome else [])
            walls.append(wall)
            rounds += 1
            attempted += workload.ops_per_round
            if outcome is None:
                failed += workload.ops_per_round
                correct = False
                continue
            for op in outcome.ops:
                if not op.failures:
                    continue
                failed += 1
                if op.known_fault is None:
                    correct = False
                    for msg in op.failures:
                        print(f"FAIL {msg}", file=sys.stderr)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    known = sorted({op.known_fault for op in outcome.ops if op.failures and op.known_fault} if outcome else [])
    if args.trace:
        metrics = {
            name: statistics.median(row[name] for row in layer_rows) for name in (layer_rows[0] if layer_rows else [])
        }
        units = {name: unit_of(name) for name in metrics}
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": peak_rss_mb,
            "instance_p50_s": percentile(instance_times, 50) if instance_times else 0.0,
            "instance_p90_s": percentile(instance_times, 90) if instance_times else 0.0,
        }
        units = END_TO_END
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = dict(
        result,
        workload=workload.name,
        seed=args.seed,
        trace=args.trace,
        rounds=rounds,
        round_walls_s=walls,
        setups_s=setups,
        known_faults=known,
        spans=spans,
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print_table(workload.name, result, rounds, known)
    print(json.dumps(result))
    return 0 if correct else 1


def print_table(name, result, rounds, known):
    print(f"workload {name}: {rounds} round(s), {result['attempted']} operations attempted, "
          f"{result['failed']} failed, correct={str(result['correct']).lower()}")
    for fault in known:
        print(f"  known fault: {fault}")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:<36} {entry['value']:>16.6g} {entry['unit']}")


def run_all(args):
    """Each workload in its own process, so peak_rss_mb is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        if proc.returncode not in (0, 1) or not lines:
            print(f"{name}: exited with code {proc.returncode}", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "kwcseg" / "__init__.py").is_file():
        print(f"benchmark: no kwcseg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
