"""dpdplab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload greedy-300x50 --seed 0 --seconds 34 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  ``--trace 0`` prints the end-to-end metrics, measured with no
tracing.  ``--trace 1`` does half of a run's rounds untraced and as many
traced, and prints the per-layer metrics, including the tracing overhead.
The last line of standard output is one JSON object; a fuller result, with
the environment and the seed, is written to ``.perfbench_out/`` together
with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# Set-up is repeated before each round until this much set-up time has been
# timed, so a set-up of a few milliseconds gives its fastest repeat from tens
# of samples, while a slow one is timed once per round.
SETUP_SECONDS_PER_ROUND = 0.05


def metric_units(kind: str) -> dict[str, str]:
    """Metric name -> unit of one list (``end_to_end`` or ``per_layer``) in
    ``BENCHMARK.json``, which is the one place the names are written."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def import_package() -> None:
    """Import dpdplab from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "dpdplab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'dpdplab'}; run from a dpdplab checkout")
    sys.path.insert(0, str(SRC))
    import dpdplab

    if Path(dpdplab.__file__).resolve().parent != SRC / "dpdplab":
        sys.exit(f"perfbench: imported dpdplab from {dpdplab.__file__}, not from {SRC}")


def calibration_s() -> float:
    """Median time of a fixed pure-Python loop: a gauge of the machine's speed."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(os.getloadavg()),
        "calibration_s": calibration_s(),
    }


def measure(workload, seed: int, n_rounds: int, tracer=None) -> tuple[list, list[str], list[float]]:
    """Set up and run ``n_rounds`` rounds; returns the rounds, failed checks
    and set-up times.

    Every round runs on inputs from a fresh set-up, timed before it (see
    ``SETUP_SECONDS_PER_ROUND``), so the set-up samples spread over the run
    like the rounds do.  Each round's
    outputs are checked, then dropped, as soon as it ends, so memory does not
    grow with the number of rounds.  With a tracer, spans are tagged with the
    phase they belong to.
    """

    def phase(value):
        if tracer:
            tracer.phase = value

    rounds, problems, setup_times = [], [], []
    for _ in range(n_rounds):
        phase(tracing.SETUP)
        timed = 0.0
        while timed < SETUP_SECONDS_PER_ROUND:
            inputs = None  # the previous inputs are garbage before the next set-up
            t0 = time.perf_counter()
            inputs = workload.setup(seed)
            setup_times.append(time.perf_counter() - t0)
            timed += setup_times[-1]
        phase(tracing.MEASURE)
        rnd = workload.round(inputs)
        phase(tracing.CHECK)
        problems += workload.check(inputs, seed, rnd)
        rnd.outputs = []
        rounds.append(rnd)
    return rounds, problems, setup_times


def rounds_for(workload, seconds: float) -> int:
    """Rounds that fill ``seconds`` at the workload's nominal round time.

    The count depends only on ``seconds``, never on the speed the machine
    happens to have, so every run takes its fastest repeats from the same
    number of samples.
    """
    return max(1, round(seconds / workload.round_seconds))


def best_of(rounds: list) -> tuple[float, list[float], int, list[str]]:
    """Wall time in seconds, operation latencies in ms and items of one
    round's work, each gap of each unit taking its fastest repeat across
    rounds.

    The machine's speed drifts by tens of percent within seconds; a repeat
    is only ever slowed by that, so the fastest repeat of each short gap is
    the steadiest estimate of the program's own time.  Units must be in
    every round and repeat identically.
    """
    problems = []
    wall, items, ops = 0.0, 0, []
    for key in sorted(set().union(*(r.units for r in rounds))):
        units = [r.units.get(key) for r in rounds]
        if any(u is None for u in units):
            problems.append(f"unit {key} is missing from {units.count(None)} of {len(units)} rounds")
            continue
        if len({(u.items, len(u.gaps), tuple(u.ops)) for u in units}) != 1:
            problems.append(f"unit {key} did different work in different rounds")
            continue
        fastest = np.min([u.gaps for u in units], axis=0)
        wall += float(fastest.sum())
        items += units[0].items
        ops.extend(1e3 * fastest[units[0].ops])
    return wall, ops, items, problems


def tail_percentile(n: int) -> float:
    """p95, or the highest percentile that leaves ten samples beyond it (never
    below the median, for the tiny rounds of the smoke tests)."""
    return min(95.0, max(50.0, 100.0 * (1.0 - 10.0 / n))) if n else 95.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    env = environment()
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace} env={json.dumps(env)}", flush=True)

    if args.trace:
        metrics, details, rounds, problems, spans = traced_run(workload, args)
        units = metric_units("per_layer")
    else:
        rounds, problems, setup_times = measure(workload, args.seed, rounds_for(workload, args.seconds))
        wall, ops, items, repeat_problems = best_of(rounds)
        problems += repeat_problems
        metrics = {
            "setup_s": min(setup_times),
            "throughput_per_s": items / wall if wall else 0.0,
            "op_p50_ms": float(np.percentile(ops, 50)) if ops else 0.0,
            "op_tail_ms": float(np.percentile(ops, tail_percentile(len(ops)))) if ops else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = metric_units("end_to_end")
        details = {
            "operations": len(ops),
            "tail_percentile": tail_percentile(len(ops)),
            "items": items,
            "best_wall_s": wall,
            "setup_times_s": setup_times,
        }
        spans = None

    if set(metrics) != set(units):
        sys.exit(f"perfbench: measured metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    correct = failed == 0 and not problems
    details.update(rounds=len(rounds), unit=workload.unit, op=workload.op)
    for problem in problems:
        print(f"CHECK FAILED: {problem}", flush=True)
    for key, value in metrics.items():
        print(f"{key} = {value!r} {units[key]}")
    print(f"failed_share = {failed}/{attempted} = {failed / attempted if attempted else 0.0!r} "
          f"(base: {attempted} attempted {workload.attempts})")
    print(f"details = {json.dumps(details)}")

    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if spans is not None:
        spans.save(OUT / f"{stem}.spans.npz")
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted if attempted else 0.0,
        "problems": problems,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "details": details,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }), flush=True)
    return 0


def traced_run(workload, args):
    """Half of a run's rounds untraced, then set-up and as many rounds under
    the tracer.  Returns the rounds of both halves, so that every operation
    and every failure counts."""
    import layers

    half = rounds_for(workload, args.seconds / 2)
    untraced, problems, _ = measure(workload, args.seed, half)
    untraced_wall, _, _, repeat_problems = best_of(untraced)
    problems += repeat_problems
    tracer = tracing.Tracer()
    with tracer.installed(layers.patches()):
        traced, traced_problems, _ = measure(workload, args.seed, half, tracer)
    traced_wall, _, _, repeat_problems = best_of(traced)
    problems += traced_problems + repeat_problems
    overhead_pct = 100.0 * (traced_wall / untraced_wall - 1.0) if untraced_wall else 0.0
    metrics, failures = layers.layer_metrics(tracer, overhead_pct)
    problems += [f"trace cross-check: {f}" for f in failures]
    details = {
        "spans": len(tracer.name),
        "untraced_best_wall_s": untraced_wall,
        "traced_best_wall_s": traced_wall,
    }
    return metrics, details, untraced + traced, problems, tracer


if __name__ == "__main__":
    sys.exit(main())
