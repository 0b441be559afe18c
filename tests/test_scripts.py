"""Smoke runs of the experiment scripts at toy size."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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
