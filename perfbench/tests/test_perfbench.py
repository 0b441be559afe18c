"""Tests of the benchmark itself: span arithmetic, trace cross-checks against
the program's own outputs, and a fast smoke run of every workload.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import dpdplab.baselines  # noqa: E402
import dpdplab.env  # noqa: E402
import dpdplab.instance  # noqa: E402
import dpdplab.policy  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_nested_children():
    # root [0, 10] has children [1, 3] and [4, 9]; [4, 9] has a child [5, 6].
    start = np.array([0.0, 1.0, 4.0, 5.0])
    end = np.array([10.0, 3.0, 9.0, 6.0])
    parent = np.array([-1, 0, 0, 2])
    assert tracing.self_times(start, end, parent).tolist() == [3.0, 2.0, 4.0, 1.0]


def test_self_time_counts_overlapping_children_once_and_clips_to_parent():
    # Children [1, 5] and [3, 7] overlap on [3, 5]; [8, 12] runs past the parent's end.
    start = np.array([0.0, 1.0, 3.0, 8.0])
    end = np.array([10.0, 5.0, 7.0, 12.0])
    parent = np.array([-1, 0, 0, 0])
    assert tracing.self_times(start, end, parent)[0] == pytest.approx(10.0 - 6.0 - 2.0)


def test_inside_marks_descendants_of_an_ancestor_name():
    name = np.array([0, 1, 2, 1, 2])
    parent = np.array([-1, 0, 1, -1, 3])
    assert tracing.inside(parent, name, 1).tolist() == [False, True, True, True, True]


def test_tracer_records_parents_and_restores_patches():
    class Owner:
        pass

    tracer = tracing.Tracer()
    Owner.inner = staticmethod(lambda: 1)
    original = Owner.inner

    def outer():
        return Owner.inner() + 1

    Owner.outer = staticmethod(outer)
    with tracer.installed([(Owner, "outer", "outer", None), (Owner, "inner", "inner", None)]):
        assert Owner.outer() == 2
    assert Owner.inner is original
    a = tracer.arrays()
    assert [tracer.names[i] for i in a["name"]] == ["outer", "inner"]
    assert a["parent"].tolist() == [-1, 0]
    assert a["start"][0] <= a["start"][1] <= a["end"][1] <= a["end"][0]


def _traced(fn):
    tracer = tracing.Tracer()
    with tracer.installed(layers.patches()):
        tracer.phase = tracing.MEASURE
        result = fn()
    metrics, failures = layers.layer_metrics(tracer, 0.0)
    return tracer, metrics, failures, result


def test_dispatch_trace_counts_match_the_episode():
    inst = dpdplab.instance.generate_instance(3, 8, 20, 6)
    policy = dpdplab.baselines.make_greedy_policy("incremental")
    tracer, metrics, failures, (report, _) = _traced(lambda: dpdplab.env.run_episode(inst, policy))
    assert failures == []
    a = tracer.arrays()
    names = [tracer.names[i] for i in a["name"]]
    assert names.count("routing.plan_insertion") == len(inst.orders) * inst.n_vehicles
    feasible = tracer.counts[tracing.MEASURE]["feasible_plans"]
    assert names.count("routing.simulate_timeline") == feasible
    assert metrics["routing.plan_insertion.calls_per_order"] == inst.n_vehicles
    assert metrics["routing.commit_share"] == pytest.approx(len(report.assignments) / feasible)


def test_training_trace_counts_one_adam_step_per_effective_train_step():
    inst = dpdplab.instance.generate_instance(4, 6, 12, 4)
    trainer = dpdplab.policy.Trainer(config=dpdplab.policy.TrainerConfig(seed=1, batch_size=16, steps_per_episode=3))
    tracer, metrics, failures, log = _traced(lambda: trainer.train([inst], 4))
    assert failures == []
    steps = tracer.counts[tracing.MEASURE]["train_steps"]
    assert steps == trainer.optimizer.t > 0
    assert metrics["policy.q_values.calls_per_train_step"] >= trainer.config.batch_size


def test_exact_trace_counts_the_solver_nodes():
    inst = dpdplab.instance.generate_instance(5, 6, 4, 3)
    tracer, metrics, failures, result = _traced(lambda: dpdplab.baselines.solve_exact(inst))
    assert failures == []
    nodes = [tracer.names[i] for i in tracer.arrays()["name"]].count("baselines.bnb_node")
    assert nodes == result.nodes_explored == metrics["baselines.solve_exact.nodes_per_instance"]


@pytest.fixture
def small_workloads(monkeypatch):
    w = workloads.WORKLOADS
    monkeypatch.setattr(w["greedy-300x50"], "shape", (8, 20, 6))
    monkeypatch.setattr(w["greedy-300x50"], "n_instances", 2)
    monkeypatch.setattr(w["train-30x10"], "episodes", 4)
    monkeypatch.setattr(w["exact-5x5"], "shape", (6, 4, 3))
    monkeypatch.setattr(w["exact-5x5"], "n_instances", 3)
    monkeypatch.setattr(run, "OUT", BENCH.parent / ".perfbench_out" / "tests")
    return w


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_prints_every_metric(small_workloads, capsys, name, trace):
    # Seed 1: the recorded greedy digest belongs to the full-size seed-0 round.
    assert run.main(["--workload", name, "--seed", "1", "--seconds", "0", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.metric_units("per_layer" if trace else "end_to_end")
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_names_the_workloads():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def _round(**units):
    rnd = workloads.Round()
    for key, (items, gaps, ops) in units.items():
        rnd.units[key] = workloads.Unit(items, np.array(gaps), ops)
    return rnd


def test_best_of_takes_each_gap_from_its_fastest_round():
    rounds = [_round(a=(3, [1.0, 4.0, 2.0], [0, 1])), _round(a=(3, [2.0, 3.0, 5.0], [0, 1]))]
    wall, ops, items, problems = run.best_of(rounds)
    assert problems == [] and items == 3
    assert wall == pytest.approx(1.0 + 3.0 + 2.0)
    assert ops == pytest.approx([1e3, 3e3])


def test_best_of_reports_units_missing_or_changed_between_rounds():
    rounds = [_round(a=(1, [1.0], [0]), b=(1, [1.0], [0])), _round(a=(2, [1.0], [0]))]
    wall, ops, items, problems = run.best_of(rounds)
    assert len(problems) == 2 and wall == 0.0 and items == 0
