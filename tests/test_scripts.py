"""Smoke runs of the experiment scripts at toy size."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def _run(script: str, *args: str) -> str:
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_train_convergence_writes_curve_and_checkpoint(tmp_path):
    out = _run(
        "train_convergence.py", "--out", str(tmp_path), "--orders", "4", "--vehicles", "2",
        "--factories", "4", "--episodes", "3", "--steps-per-episode", "1",
    )
    lines = (tmp_path / "curve.csv").read_text().splitlines()
    assert lines[0] == "episode,loss,nuv,ttl,tc,epsilon"
    assert [row.split(",")[0] for row in lines[1:]] == ["0", "1", "2"]
    assert (tmp_path / "curve_tc.svg").read_text().startswith("<svg")
    assert (tmp_path / "checkpoint.ckpt").stat().st_size > 0
    quarters = next(line for line in out.splitlines() if line.startswith("mean TC first quarter"))
    assert "nan" not in quarters


def test_compare_policies_writes_table(tmp_path):
    _run(
        "compare_policies.py", "--out", str(tmp_path), "--instances", "2", "--orders", "3",
        "--vehicles", "2", "--factories", "4", "--episodes", "2", "--reps", "1",
    )
    lines = (tmp_path / "comparison.csv").read_text().splitlines()
    assert lines[0] == "instance,policy,nuv,tc"
    policies = [row.split(",")[1] for row in lines[1:]]
    assert policies == ["exact", "incremental", "total", "max_orders", "learned"] * 2
    assert all(float(row.split(",")[3]) > 0 for row in lines[1:])
    # A number cell is its repr: the learned row's mean NUV is a float.
    assert all(repr(float(row.split(",")[3])) == row.split(",")[3] for row in lines[1:])
    assert [row.split(",")[2].endswith(".0") for row in lines[1:5]] == [False] * 4
    assert lines[5].split(",")[2].endswith(".0")


def _load(script: str):
    spec = importlib.util.spec_from_file_location(script.removesuffix(".py"), SCRIPTS / script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(workload, trace, metrics, correct=True, failed=0):
    return {
        "workload": workload, "seed": 0, "seconds": 34, "trace": trace,
        "environment": {"python": "3.11"}, "correct": correct, "attempted": 10, "failed": failed,
        "failed_share": failed / 10, "problems": [] if correct else ["bad"],
        "metrics": {k: {"value": v, "unit": "ms"} for k, v in metrics.items()},
        "details": {"rounds": 6 + trace},
    }


def test_bench_snapshot_merges_both_traces_of_every_workload():
    snapshot = _load("bench_snapshot.py")
    results = {
        ("greedy", 0): _result("greedy", 0, {"op_p50_ms": 3.4}),
        ("greedy", 1): _result("greedy", 1, {"routing.x": 1.2}),
        ("train", 0): _result("train", 0, {"op_p50_ms": 25.0}),
        ("train", 1): _result("train", 1, {"policy.y": 7.0}, correct=False, failed=2),
    }
    merged = snapshot.merge("main", "abc123", False, 34, results)
    assert (merged["label"], merged["commit"], merged["dirty"], merged["seed"], merged["seconds"]) == (
        "main", "abc123", False, 0, 34
    )
    assert snapshot.merge("main", "abc123", True, 34, results)["dirty"] is True
    assert merged["environment"] == {"python": "3.11"}
    assert list(merged["workloads"]) == ["greedy", "train"]
    greedy, train = merged["workloads"]["greedy"], merged["workloads"]["train"]
    assert greedy["end_to_end"] == {"op_p50_ms": {"value": 3.4, "unit": "ms"}}
    assert greedy["per_layer"] == {"routing.x": {"value": 1.2, "unit": "ms"}}
    assert greedy["correct"] and greedy["failed"] == 0 and greedy["attempted"] == 20
    assert greedy["details"] == {"trace0": {"rounds": 6}, "trace1": {"rounds": 7}}
    assert not train["correct"] and train["failed"] == 2 and train["problems"] == ["bad"]
    json.dumps(merged)
    swapped = dict(results)
    swapped[("train", 0)] = _result("greedy", 0, {})
    with pytest.raises(ValueError, match="train trace 0"):
        snapshot.merge("main", "abc123", False, 34, swapped)


@pytest.fixture(scope="module")
def bench_copy(tmp_path_factory):
    """The benchmark, the package source and BENCHMARK.json copied into a
    fresh tree: ``perfbench/run.py`` writes its results beside itself, so
    the copy keeps them out of the checkout."""
    root = tmp_path_factory.mktemp("bench")
    skip = shutil.ignore_patterns("__pycache__", "tests")
    shutil.copytree(ROOT / "perfbench", root / "perfbench", ignore=skip)
    shutil.copytree(ROOT / "src" / "dpdplab", root / "src" / "dpdplab", ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", root)
    return root


@pytest.mark.parametrize("workload", [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]])
def test_traced_benchmark_run_passes_its_checks(bench_copy, workload):
    """A one-second traced run of each benchmark workload passes the
    benchmark's cross-checks against the program: planner and Adam-step
    counts, solver node counts and the seed-0 greedy digest."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "1"],
        cwd=bench_copy, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, done.stdout
