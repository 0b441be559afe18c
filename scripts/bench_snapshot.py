#!/usr/bin/env python3
"""Snapshot the benchmark of this checkout into ``BENCH_<LABEL>.json``.

Example:
    python3 scripts/bench_snapshot.py main

Runs the command of ``BENCHMARK.json`` (``perfbench/run.py``) on every
workload it lists, at seed 0 and its ``run_seconds``, once with ``--trace 0``
(end-to-end metrics) and once with ``--trace 1`` (per-layer metrics).  The
results ``.perfbench_out/<workload>-seed0-trace<t>.json`` are merged with
the commit (``git rev-parse HEAD``) into ``BENCH_<LABEL>.json`` at the root
of the checkout.  ``dirty`` is true when tracked files differed from that
commit as the runs started (``git status --porcelain --untracked-files=no``),
so the commit alone does not name the measured code.  The runs take about
``6 * run_seconds`` plus set-up.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 0
TRACES = (0, 1)


def result_path(workload: str, trace: int) -> Path:
    return ROOT / ".perfbench_out" / f"{workload}-seed{SEED}-trace{trace}.json"


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def merge(label: str, commit: str, dirty: bool, seconds: float, results: dict) -> dict:
    """One snapshot from ``results[(workload, trace)]``, the result files of
    both traces of every workload: its end-to-end metrics come from the
    untraced run and its per-layer metrics from the traced one."""
    workloads = {}
    for name in dict.fromkeys(w for w, _ in results):
        untraced, traced = (results[(name, t)] for t in TRACES)
        for trace, run in zip(TRACES, (untraced, traced)):
            if (run["workload"], run["seed"], run["trace"]) != (name, SEED, trace):
                raise ValueError(f"result for {name} trace {trace} is of {run['workload']} seed {run['seed']} trace {run['trace']}")
        workloads[name] = {
            "correct": untraced["correct"] and traced["correct"],
            "attempted": untraced["attempted"] + traced["attempted"],
            "failed": untraced["failed"] + traced["failed"],
            "problems": untraced["problems"] + traced["problems"],
            "end_to_end": untraced["metrics"],
            "per_layer": traced["metrics"],
            "details": {"trace0": untraced["details"], "trace1": traced["details"]},
        }
    first = next(iter(results.values()))
    return {
        "label": label,
        "commit": commit,
        "dirty": dirty,
        "seed": SEED,
        "seconds": seconds,
        "environment": first["environment"],
        "workloads": workloads,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("label")
    args = ap.parse_args()

    commit = git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    results = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in TRACES:
            cmd = [*spec["command"], "--workload", workload, "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)]
            print(" ".join(cmd), flush=True)
            subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
            results[(workload, trace)] = json.loads(result_path(workload, trace).read_text())
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(merge(args.label, commit, dirty, seconds, results), indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
