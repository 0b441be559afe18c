import argparse
import contextlib
import csv
import dataclasses
import hashlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpdplab
from dpdplab import baselines
from dpdplab.baselines import solve_exact
from dpdplab.cli import aggregate_metrics, build_parser, main
from dpdplab.env import EpisodeReport, episode_demand_grid
from dpdplab.instance import generate_instance, load_instance, save_instance
from dpdplab.neural import load_tensors, save_tensors
from dpdplab.policy import QNetworkConfig, Trainer, TrainerConfig

from conftest import make_instance
from test_baselines import exhaust_after


def _gen(tmp_path, name="inst.json", orders=5, vehicles=3, seed=1, extra=()):
    path = tmp_path / name
    rc = main(
        [
            "gen",
            "--seed",
            str(seed),
            "--orders",
            str(orders),
            "--vehicles",
            str(vehicles),
            "--factories",
            "6",
            "--out",
            str(path),
            *extra,
        ]
    )
    assert rc == 0
    return path


def _report(nuv, ttl, tc):
    return EpisodeReport(nuv=nuv, ttl=ttl, tc=tc, assignments=[], routes=[])


def test_gen_defaults_are_those_of_generate_instance(tmp_path):
    assert main(["gen", "--seed", "4", "--orders", "5", "--vehicles", "3", "--out", str(tmp_path / "cli.json")]) == 0
    direct = save_instance(generate_instance(4, 10, 5, 3), tmp_path / "direct.json")
    assert (tmp_path / "cli.json").read_bytes() == direct.read_bytes()


def _flags(command):
    """The parser's actions of ``command`` by option string."""
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {flag: a for a in subparsers.choices[command]._actions for flag in a.option_strings}


def test_gen_flags_are_the_generate_instance_parameters():
    actions = _flags("gen")
    assert (actions["--factories"].required, actions["--factories"].default) == (False, 10)
    for name, param in inspect.signature(generate_instance, eval_str=True).parameters.items():
        action = actions["--" + name.removeprefix("n_").replace("_", "-")]
        assert action.type is param.annotation, name
        if name != "n_factories":
            assert action.required == (param.default is param.empty), name
            assert action.required or action.default == param.default, name


def test_train_flags_are_the_trainer_config_fields():
    actions = _flags("train")
    for f in dataclasses.fields(TrainerConfig):
        flag = "--lr" if f.name == "learning_rate" else "--" + f.name.replace("_", "-")
        assert (actions[flag].default, actions[flag].type) == (f.default, type(f.default)), flag


def test_gen_is_deterministic(tmp_path):
    p1 = _gen(tmp_path, "a.json")
    p2 = _gen(tmp_path, "b.json")
    assert p1.read_bytes() == p2.read_bytes()
    inst = load_instance(p1)
    assert len(inst.orders) == 5


def test_run_writes_report_and_config(tmp_path):
    inst = _gen(tmp_path)
    out = tmp_path / "run"
    rc = main(["run", "--instance", str(inst), "--policy", "greedy1", "--out", str(out)])
    assert rc == 0
    assert (out / "config.json").exists()
    report = json.loads((out / "report_incremental.json").read_text())
    assert report["tc"] > 0
    metrics = (out / "metrics.csv").read_text().splitlines()
    assert metrics[0] == "episode,policy,instance,nuv,ttl,tc"
    assert len(metrics) == 2


def test_run_on_empty_instance_reports_zero_cost(tmp_path, line_network):
    from dpdplab.instance import FleetConfig, VehicleSpec

    inst = make_instance(line_network, [], FleetConfig(vehicles=[VehicleSpec(0, 2)], capacity=5))
    path = tmp_path / "empty.json"
    save_instance(inst, path)
    out = tmp_path / "runzero"
    rc = main(["run", "--instance", str(path), "--policy", "greedy1", "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report_incremental.json").read_text())
    assert report["tc"] == 0.0 and report["nuv"] == 0


def test_compare_includes_sorted_rows_with_exact(tmp_path):
    inst = _gen(tmp_path, orders=4, vehicles=2)
    out = tmp_path / "cmp"
    rc = main(["compare", "--instance", str(inst), "--exact", "--out", str(out)])
    assert rc == 0
    lines = (out / "compare.csv").read_text().strip().splitlines()
    names = [row.split(",")[0] for row in lines[1:]]
    assert names == sorted(names)
    rows = {row.split(",")[0]: float(row.split(",")[3]) for row in lines[1:]}
    for policy, tc in rows.items():
        if policy != "exact":
            assert rows["exact"] <= tc + 1e-9


def test_train_zero_episodes_checkpoint_equals_init(tmp_path):
    inst = _gen(tmp_path, orders=4, vehicles=2)
    out = tmp_path / "t0"
    rc = main(
        ["train", "--instance", str(inst), "--episodes", "0", "--seed", "5", "--out", str(out)]
    )
    assert rc == 0
    fresh = Trainer(QNetworkConfig(), TrainerConfig(seed=5))
    ref = fresh.save_checkpoint(tmp_path / "fresh.ckpt")
    got = (out / "checkpoint.ckpt").read_bytes()
    assert hashlib.sha256(got).hexdigest() == hashlib.sha256(ref.read_bytes()).hexdigest()


def test_train_eval_curves_pipeline(tmp_path):
    inst = _gen(tmp_path, orders=4, vehicles=2)
    out = tmp_path / "train"
    rc = main(
        [
            "train",
            "--instance",
            str(inst),
            "--episodes",
            "3",
            "--batch-size",
            "4",
            "--steps-per-episode",
            "1",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    curve = out / "curve.csv"
    assert curve.read_text().splitlines()[0] == "episode,loss,nuv,ttl,tc,epsilon"

    evout = tmp_path / "eval"
    rc = main(
        [
            "eval",
            "--checkpoint",
            str(out / "checkpoint.ckpt"),
            "--instance",
            str(inst),
            "--out",
            str(evout),
        ]
    )
    assert rc == 0
    assert (evout / "summary.csv").exists()

    cvout = tmp_path / "curves"
    rc = main(["curves", "--curve", str(curve), "--metrics", "tc,nuv", "--out", str(cvout)])
    assert rc == 0
    assert (cvout / "curve_tc.svg").exists()
    assert (cvout / "curve_nuv.svg").exists()


def test_curves_plots_a_metrics_file_with_quoted_cells(tmp_path):
    """``metrics.csv`` holds text columns, and an instance stem with a comma
    is a quoted cell; ``curves`` still plots its numeric columns."""
    inst = _gen(tmp_path, "a,b.json", orders=4, vehicles=2)
    run = tmp_path / "run"
    assert main(["run", "--instance", str(inst), "--policy", "greedy1", "--out", str(run)]) == 0
    assert '"a,b"' in (run / "metrics.csv").read_text()
    out = tmp_path / "curves"
    assert main(["curves", "--curve", str(run / "metrics.csv"), "--metrics", "tc,nuv", "--out", str(out)]) == 0
    assert (out / "curve_tc.svg").exists()
    assert (out / "curve_nuv.svg").exists()


def test_compare_solves_the_exact_problem_once_under_the_budget(tmp_path, monkeypatch):
    """``exact_plan`` and the ``--exact`` row share one solve, and ``--budget`` caps it."""
    inst = _gen(tmp_path, orders=4, vehicles=2)
    budgets = []

    def spy(instance, budget=None):
        budgets.append(budget)
        return solve_exact(instance, budget=budget)

    monkeypatch.setattr("dpdplab.cli.solve_exact", spy)
    argv = ["compare", "--instance", str(inst), "--policies", "greedy1,exact_plan", "--exact", "--budget", "30"]
    assert main([*argv, "--out", str(tmp_path / "cmp")]) == 0
    assert budgets == [30.0]
    rows = (tmp_path / "cmp" / "compare.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows[1:]] == ["exact", "exact_plan", "incremental"]


@pytest.mark.parametrize("command", [["exact"], ["compare", "--exact"]])
def test_exact_search_that_finds_no_assignment_in_its_budget_fails_cleanly(tmp_path, monkeypatch, command):
    inst = _gen(tmp_path)
    monkeypatch.setattr(baselines._Budget, "check", exhaust_after(0))
    rc, err = _main_in(str(tmp_path), [*command, "--instance", str(inst), "--budget", "0.001"])
    _assert_clean_failure(rc, err)
    assert "no assignment within its budget of 0.001 s" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("budget", ["inf", "nan"])
@pytest.mark.parametrize("command", [["exact"], ["compare", "--exact"]])
def test_non_finite_budget_is_refused_before_any_output(tmp_path, command, budget):
    inst = _gen(tmp_path)
    rc, err = _main_in(str(tmp_path), [*command, "--instance", str(inst), "--budget", budget])
    _assert_clean_failure(rc, err)
    assert "budget must be positive" in err
    assert not (tmp_path / "out").exists()


def _refuse_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def test_every_json_file_the_program_writes_is_strict_json(tmp_path):
    inst = _gen(tmp_path, orders=4, vehicles=2)
    checkpoint = tmp_path / "train" / "checkpoint.ckpt"
    commands = [
        ["run", "--instance", str(inst), "--policy", "greedy1"],
        ["train", "--instance", str(inst), "--episodes", "2", "--batch-size", "4", "--steps-per-episode", "1"],
        ["eval", "--checkpoint", str(checkpoint), "--instance", str(inst)],
        ["exact", "--instance", str(inst), "--budget", "30"],
        ["compare", "--instance", str(inst), "--policies", "greedy2,exact_plan", "--exact"],
        ["heatmap", "--instance", str(inst)],
        ["curves", "--curve", str(tmp_path / "train" / "curve.csv")],
    ]
    for argv in commands:
        assert main([*argv, "--out", str(tmp_path / argv[0])]) == 0, argv
    configs, reports = list(tmp_path.glob("*/config.json")), list(tmp_path.glob("*/report_*.json"))
    # One report each from run and eval, and one per policy from compare.
    assert (len(configs), len(reports)) == (len(commands), 4)
    for path in [inst, *configs, *reports, tmp_path / "exact" / "exact.json"]:
        json.loads(path.read_text(encoding="utf-8"), parse_constant=_refuse_constant)


def test_exact_subcommand_writes_plan(tmp_path):
    inst = _gen(tmp_path, orders=4, vehicles=2)
    out = tmp_path / "exact"
    rc = main(["exact", "--instance", str(inst), "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "exact.json").read_text())
    assert doc["optimal"] is True
    assert (out / "plan.txt").read_text().startswith("vehicle ")


@pytest.mark.parametrize("module", ["dpdplab", "dpdplab.cli"])
def test_python_m_runs_the_command_line(tmp_path, module):
    out = tmp_path / "inst.json"
    env = dict(os.environ, PYTHONPATH=str(Path(dpdplab.__file__).parents[1]))
    argv = ["gen", "--seed", "1", "--orders", "3", "--vehicles", "2", "--out", str(out)]
    done = subprocess.run([sys.executable, "-m", module, *argv], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert len(load_instance(out).orders) == 3


def test_heatmap_writes_grid(tmp_path):
    inst = _gen(tmp_path)
    out = tmp_path / "hm"
    rc = main(["heatmap", "--instance", str(inst), "--source", "history", "--out", str(out)])
    assert rc == 0
    grid = episode_demand_grid(load_instance(inst))
    assert grid.shape == (6, 144)  # factories x intervals
    rows = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in grid)
    assert (out / "grid.csv").read_bytes() == rows.encode()
    assert (out / "grid.svg").read_text().startswith("<svg")


def test_missing_instance_is_clean_error(tmp_path, capsys):
    rc = main(["run", "--instance", str(tmp_path / "nope.json"), "--policy", "greedy1", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_aggregate_metrics_examples():
    single = aggregate_metrics([_report(3, 10.0, 320.0)])
    assert single["nuv_mean"] == 3 and single["tc_mean"] == 320.0
    pair = aggregate_metrics([_report(3, 10.0, 320.0), _report(5, 30.0, 660.0)])
    assert pair["nuv_mean"] == 4.0
    assert pair["tc_min"] == 320.0 and pair["tc_max"] == 660.0
    with pytest.raises(ValueError):
        aggregate_metrics([])


def test_out_root_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("DPDPLAB_OUT", str(tmp_path))
    rc = main(["gen", "--seed", "1", "--orders", "3", "--vehicles", "2"])
    assert rc == 0
    assert (tmp_path / "instance.json").exists()
    rc = main(["run", "--instance", str(tmp_path / "instance.json"), "--policy", "greedy1"])
    assert rc == 0
    assert (tmp_path / "run" / "config.json").exists()
    monkeypatch.delenv("DPDPLAB_OUT")
    assert main(["gen", "--seed", "1", "--orders", "3", "--vehicles", "2"]) == 2


def test_run_determinism_across_invocations(tmp_path):
    inst = _gen(tmp_path, orders=6, vehicles=3)
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main(["run", "--instance", str(inst), "--policy", "greedy2", "--out", str(out)]) == 0
        outs.append((out / "trace_total.txt").read_bytes())
    assert outs[0] == outs[1]


def test_metrics_episode_column_counts_rows(tmp_path):
    inst = _gen(tmp_path, orders=4, vehicles=2)
    out = tmp_path / "cmp"
    assert main(["compare", "--instance", str(inst), "--out", str(out)]) == 0
    rows = (out / "metrics.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["0", "1", "2"]


def test_metrics_row_quotes_an_instance_name_with_a_comma(tmp_path):
    inst = _gen(tmp_path, "a,b.json", orders=4, vehicles=2)
    out = tmp_path / "run"
    for _ in range(2):
        assert main(["run", "--instance", str(inst), "--policy", "greedy1", "--out", str(out)]) == 0
    rows = list(csv.reader(io.StringIO((out / "metrics.csv").read_text())))
    assert [len(row) for row in rows] == [6, 6, 6]
    assert [row[:3] for row in rows[1:]] == [["0", "incremental", "a,b"], ["1", "incremental", "a,b"]]


def _main_in(tmp: str, argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main([*argv, "--out", str(Path(tmp) / "out")])
    return rc, err.getvalue()


def _assert_clean_failure(rc: int, err: str) -> None:
    assert rc == 1, err
    assert err.startswith("error: ") and err.count("\n") == 1, err


_DOC = generate_instance(seed=3, n_factories=4, n_orders=3, n_vehicles=2, history_days=1).to_dict()


def _paths(node, path=()):
    """Every position in a JSON tree, the root included."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, (*path, key))


def _swapped(doc, path, value):
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


@st.composite
def _broken_instance_texts(draw):
    """A proper prefix of the instance file, or the file with one value
    swapped: containers become scalars, scalars containers or a non-number,
    numbers a boolean or their own numeric string, and integers a fraction."""
    text = json.dumps(_DOC)
    if draw(st.booleans()):
        return text[: draw(st.integers(0, len(text) - 1))]
    path = draw(st.sampled_from(list(_paths(_DOC))))
    node = _DOC
    for key in path:
        node = node[key]
    choices = [5, "?"] if isinstance(node, (dict, list)) else [[], {}, "?"]
    if type(node) in (int, float):
        choices += [True, str(node)]
    if type(node) is int:
        choices.append(node + 0.5)
    return json.dumps(_swapped(_DOC, path, draw(st.sampled_from(choices))))


@settings(max_examples=200, deadline=None)
@given(_broken_instance_texts())
def test_broken_instance_fails_cleanly(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "inst.json"
        path.write_text(text)
        _assert_clean_failure(*_main_in(tmp, ["run", "--instance", str(path), "--policy", "greedy1"]))


_BAD_INSTANCES = [
    # (swapped path, value, command, field named in the error)
    (("fleet", "vehicles"), [dict(v, id=i) for v, i in zip(_DOC["fleet"]["vehicles"], (5, 7))],
     ["run", "--policy", "exact_plan"], "fleet.vehicles[0].id"),
    (("orders", 1, "id"), _DOC["orders"][0]["id"], ["exact"], "orders[1].id"),
    (("orders", 0, "quantity"), 2.7, ["run", "--policy", "greedy1"], "orders[0].quantity"),
    (("fleet", "capacity"), 12.9, ["run", "--policy", "greedy1"], "fleet.capacity"),
    (("fleet", "vehicles", 1, "id"), True, ["run", "--policy", "greedy1"], "fleet.vehicles[1].id"),
    (("network", "nodes", 0, "id"), "0", ["run", "--policy", "greedy1"], "network.nodes[0].id"),
    (("network", "speed"), True, ["run", "--policy", "greedy1"], "network.speed"),
    (("network", "nodes", 0, "x"), "1.5", ["run", "--policy", "greedy1"], "network.nodes[0].x"),
    (("network", "dist", 0, 1), True, ["exact"], "network.dist[0][1]"),
    (("network", "dist", 0), [0.0], ["run", "--policy", "greedy1"], "network.dist must have rows of equal length"),
    (("fleet", "fixed_cost"), "300", ["run", "--policy", "greedy1"], "fleet.fixed_cost"),
    (("fleet", "unit_cost"), float("inf"), ["run", "--policy", "greedy1"], "fleet.unit_cost"),
    (("fleet", "fixed_cost"), float("nan"), ["run", "--policy", "greedy1"], "fleet.fixed_cost"),
    (("network", "speed"), float("inf"), ["run", "--policy", "greedy1"], "network.speed"),
    (("network", "service_time"), float("nan"), ["run", "--policy", "greedy1"], "network.service_time"),
    (("network", "nodes", 0, "x"), float("nan"), ["run", "--policy", "greedy1"], "network.nodes[0].x"),
    (("network", "nodes", 1, "y"), float("-inf"), ["exact"], "network.nodes[1].y"),
    pytest.param(("fleet", "capacity"), 10**400, ["run", "--policy", "greedy1"], "fleet.capacity", id="capacity-10**400"),
    pytest.param(("network", "dist", 0, 1), 1000.0, ["exact"],
                 "network.dist breaks the triangle inequality: dist[0][1]", id="dist-non-metric"),
    pytest.param(("fleet", "vehicles"), [], ["run", "--policy", "greedy1"], "fleet.vehicles must not be empty",
                 id="no-vehicles"),
]


@pytest.mark.parametrize("path, value, command, field", _BAD_INSTANCES)
def test_instance_with_wrong_ids_or_integers_fails_cleanly(tmp_path, path, value, command, field):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(_swapped(_DOC, path, value)))
    rc, err = _main_in(str(tmp_path), [*command, "--instance", str(inst)])
    _assert_clean_failure(rc, err)
    assert field in err


@pytest.mark.parametrize(
    "flag, value, field",
    [
        ("--unit-cost", "inf", "fleet.unit_cost"),
        ("--fixed-cost", "nan", "fleet.fixed_cost"),
        ("--speed", "inf", "network.speed"),
        ("--service-time", "nan", "network.service_time"),
    ],
)
def test_gen_refuses_non_finite_numbers(tmp_path, flag, value, field):
    argv = ["gen", "--seed", "1", "--orders", "3", "--vehicles", "2", flag, value]
    rc, err = _main_in(str(tmp_path), argv)
    _assert_clean_failure(rc, err)
    assert field in err and "finite" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "flag, value, name",
    [
        ("--depots", "0", "n_depots"),
        ("--depots", "-1", "n_depots"),
        ("--history-days", "-2", "history_days"),
        ("--hot-spot", "nan", "hot_spot"),
        ("--hot-spot", "5", "hot_spot"),
        ("--hot-spot", "-1", "hot_spot"),
    ],
)
def test_gen_refuses_out_of_range_arguments(tmp_path, flag, value, name):
    argv = ["gen", "--seed", "1", "--orders", "3", "--vehicles", "2", f"{flag}={value}"]
    rc, err = _main_in(str(tmp_path), argv)
    _assert_clean_failure(rc, err)
    assert name in err
    assert not (tmp_path / "out").exists()


_SMALL = QNetworkConfig(embed_dim=4, mlp_hidden=(4,), attn_heads=1, attn_head_dim=2)


@pytest.fixture(scope="module")
def checkpoint_bytes(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("ckpt")
    return Trainer(_SMALL, TrainerConfig(seed=1)).save_checkpoint(tmp / "t.ckpt").read_bytes()


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_truncated_checkpoint_fails_cleanly(checkpoint_bytes, data):
    cut = data.draw(st.integers(0, len(checkpoint_bytes) - 1))
    with tempfile.TemporaryDirectory() as tmp:
        inst = Path(tmp) / "inst.json"
        inst.write_text(json.dumps(_DOC))
        ckpt = Path(tmp) / "cut.ckpt"
        ckpt.write_bytes(checkpoint_bytes[:cut])
        rc, err = _main_in(tmp, ["eval", "--checkpoint", str(ckpt), "--instance", str(inst)])
        _assert_clean_failure(rc, err)
        assert str(ckpt) in err


@pytest.fixture(scope="module")
def checkpoint_parts(tmp_path_factory):
    """(tensors, meta) of a trainer checkpoint, the one format ``run``,
    ``eval`` and ``compare`` read."""
    tmp = tmp_path_factory.mktemp("parts")
    return load_tensors(Trainer(_SMALL, TrainerConfig(seed=1)).save_checkpoint(tmp / "t.ckpt"))


def _checkpoint_argv(command: str, ckpt: Path, inst: Path) -> list[str]:
    if command == "eval":
        return ["eval", "--checkpoint", str(ckpt), "--instance", str(inst)]
    return ["run", "--instance", str(inst), "--policy", "learned", "--checkpoint", str(ckpt)]


def _wrong_values(value):
    """JSON values of another type than a config field's ``value``; booleans
    are not numbers and an integer field takes no fractions."""
    wrong = ["8", None, {}, 1 if isinstance(value, bool) else True]
    wrong += [7, ["8"]] if isinstance(value, list) else [[1]]
    if type(value) is int:
        wrong.append(1.5)
    return wrong


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_malformed_checkpoint_fails_cleanly(checkpoint_parts, data):
    """A config field dropped, added or of another type, a tensor dropped, or
    a trainer-state value dropped or of another type: exit 1 and a one-line
    error naming the file."""
    command = data.draw(st.sampled_from(["eval", "run"]))
    tensors, meta = checkpoint_parts
    tensors, meta = dict(tensors), json.loads(json.dumps(meta))
    how = data.draw(st.sampled_from(["tensor", "drop", "extra", "swap", "state"]))
    if how == "tensor":
        del tensors[data.draw(st.sampled_from(sorted(tensors)))]
    elif how == "state":
        key = data.draw(st.sampled_from(["episodes_trained", "rng_state"]))
        if data.draw(st.booleans()):
            del meta[key]
        else:
            meta[key] = data.draw(st.sampled_from(["8", None, {}, [1], True]))
    else:
        config = meta[data.draw(st.sampled_from(sorted(k for k in meta if k.endswith("_config"))))]
        field = data.draw(st.sampled_from(sorted(config)))
        if how == "drop":
            del config[field]
        elif how == "extra":
            config[field + "_extra"] = config[field]
        else:
            config[field] = data.draw(st.sampled_from(_wrong_values(config[field])))
    with tempfile.TemporaryDirectory() as tmp:
        inst = Path(tmp) / "inst.json"
        inst.write_text(json.dumps(_DOC))
        ckpt = Path(tmp) / "bad.ckpt"
        save_tensors(ckpt, tensors, meta)
        rc, err = _main_in(tmp, _checkpoint_argv(command, ckpt, inst))
        _assert_clean_failure(rc, err)
        assert str(ckpt) in err


_OUT_OF_RANGE = [
    ("qnetwork_config", "neighbors", -1),
    ("qnetwork_config", "neighbors", -3),
    ("qnetwork_config", "attn_head_dim", 0),
    ("qnetwork_config", "attn_heads", 0),
    ("qnetwork_config", "embed_dim", 0),
    ("trainer_config", "batch_size", 0),
    ("qnetwork_config", "mlp_hidden", [4, 0]),
    ("trainer_config", "target_period", 0),
    ("trainer_config", "steps_per_episode", -1),
    ("trainer_config", "buffer_capacity", 10),
    ("trainer_config", "gamma", -5.0),
    ("trainer_config", "gamma", 1.5),
    ("trainer_config", "gamma", float("nan")),
    ("trainer_config", "learning_rate", float("nan")),
    ("trainer_config", "learning_rate", 0.0),
    ("trainer_config", "learning_rate", float("inf")),
    ("trainer_config", "alpha", float("nan")),
    ("trainer_config", "alpha", 0.0),
]


@pytest.mark.parametrize("section, field, value", _OUT_OF_RANGE)
def test_out_of_range_checkpoint_config_fails_cleanly(tmp_path, checkpoint_parts, section, field, value):
    """``run`` and ``eval`` both refuse the file; the error names the file
    and the field."""
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(_DOC))
    tensors, meta = checkpoint_parts
    meta = json.loads(json.dumps(meta))
    meta[section][field] = value
    ckpt = tmp_path / "bad.ckpt"
    save_tensors(ckpt, dict(tensors), meta)
    for command in ("run", "eval"):
        rc, err = _main_in(str(tmp_path), _checkpoint_argv(command, ckpt, inst))
        _assert_clean_failure(rc, err)
        assert str(ckpt) in err and f"meta.{section}.{field}" in err


def test_integral_number_in_checkpoint_config_loads(tmp_path, checkpoint_parts):
    """An integer config field takes a number with an integer value, as an
    instance file's integer fields do."""
    tensors, meta = checkpoint_parts
    meta = json.loads(json.dumps(meta))
    meta["qnetwork_config"]["embed_dim"] = 4.0
    ckpt = tmp_path / "float.ckpt"
    save_tensors(ckpt, dict(tensors), meta)
    config = Trainer.load_checkpoint(ckpt).online.config
    assert config == _SMALL and type(config.embed_dim) is int


def test_negative_episodes_trained_is_refused(tmp_path, checkpoint_parts):
    """The episode count sets the phase of the target sync, so it cannot be
    below 0."""
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(_DOC))
    tensors, meta = checkpoint_parts
    meta = json.loads(json.dumps(meta))
    meta["episodes_trained"] = -3
    ckpt = tmp_path / "neg.ckpt"
    save_tensors(ckpt, dict(tensors), meta)
    rc, err = _main_in(str(tmp_path), _checkpoint_argv("eval", ckpt, inst))
    _assert_clean_failure(rc, err)
    assert str(ckpt) in err and "meta.episodes_trained must be >= 0" in err


@pytest.mark.parametrize("epsilon", [5.0, "x"])
def test_checkpoint_epsilon_key_is_ignored(tmp_path, checkpoint_parts, epsilon):
    """Files written while checkpoints still held the last exploration rate
    load as they are: nothing reads an ``epsilon`` key, whatever it holds."""
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(_DOC))
    tensors, meta = checkpoint_parts
    meta = json.loads(json.dumps(meta))
    meta["epsilon"] = epsilon
    ckpt = tmp_path / "old.ckpt"
    save_tensors(ckpt, dict(tensors), meta)
    assert Trainer.load_checkpoint(ckpt).online.config == _SMALL
    rc, err = _main_in(str(tmp_path), _checkpoint_argv("eval", ckpt, inst))
    assert rc == 0, err


def test_compare_takes_no_seed(tmp_path, capsys):
    """``compare`` always acts greedily, so no seed reaches a generator."""
    inst = _gen(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--instance", str(inst), "--seed", "1", "--out", str(tmp_path / "cmp")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_run_takes_no_dump_routes(tmp_path, capsys):
    """The report JSON is the one route listing a run writes."""
    inst = _gen(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["run", "--instance", str(inst), "--policy", "greedy1", "--dump-routes", "--out", str(tmp_path / "r")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --dump-routes" in capsys.readouterr().err


@pytest.mark.parametrize("epsilon", ["nan", "-1", "5"])
def test_out_of_range_run_epsilon_fails_cleanly(tmp_path, checkpoint_bytes, epsilon):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(_DOC))
    ckpt = tmp_path / "t.ckpt"
    ckpt.write_bytes(checkpoint_bytes)
    rc, err = _main_in(str(tmp_path), [*_checkpoint_argv("run", ckpt, inst), f"--epsilon={epsilon}"])
    _assert_clean_failure(rc, err)
    assert "epsilon must be in [0, 1]" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["run", "--policy", "greedy1", "--epsilon", "5"], "--epsilon"),
        (["run", "--policy", "greedy1", "--checkpoint", "{missing}"], "--checkpoint"),
        (["compare", "--policies", "greedy1,greedy2", "--checkpoint", "{missing}"], "--checkpoint"),
    ],
)
def test_flags_no_named_policy_reads_are_refused(tmp_path, argv, flag):
    """A greedy policy reads neither a checkpoint nor an exploration rate."""
    paths = {"missing": tmp_path / "missing.ckpt"}
    argv = [arg.format(**paths) for arg in argv] + ["--instance", str(_gen(tmp_path))]
    rc, err = _main_in(str(tmp_path), argv)
    _assert_clean_failure(rc, err)
    assert flag in err
    assert not (tmp_path / "out" / "config.json").exists()


@pytest.mark.parametrize(
    "section, removed",
    [
        ("qnetwork_config", {"state_dim": 5}),
        ("qnetwork_config", {"feature_scale": [0.02, 0.02, 1.0, 1.0, 1.0 / 144.0]}),
        ("qnetwork_config", {"state_dim": 5, "feature_scale": [0.02, 0.02, 1.0, 1.0, 1.0 / 144.0]}),
        ("trainer_config", {"epsilon_start": 1.0, "epsilon_final": 0.05, "epsilon_decay_fraction": 0.6}),
    ],
    ids=["state_dim", "feature_scale", "both", "epsilon_schedule"],
)
def test_checkpoint_with_removed_network_fields_is_refused(tmp_path, checkpoint_parts, section, removed):
    """Older files whose ``qnetwork_config`` still holds ``state_dim`` or
    ``feature_scale``, or whose ``trainer_config`` still holds the
    exploration schedule (now the ``policy.EPSILON_*`` constants), are
    refused as having unknown fields, not loaded."""
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(_DOC))
    tensors, meta = checkpoint_parts
    meta = json.loads(json.dumps(meta))
    meta[section].update(removed)
    ckpt = tmp_path / "old.ckpt"
    save_tensors(ckpt, dict(tensors), meta)
    for command in ("run", "eval"):
        rc, err = _main_in(str(tmp_path), _checkpoint_argv(command, ckpt, inst))
        _assert_clean_failure(rc, err)
        assert str(ckpt) in err and f"unknown fields {sorted(removed)}" in err


@pytest.mark.parametrize(
    "flags, field",
    [
        (["--batch-size", "0"], "batch_size"),
        (["--target-period", "0"], "target_period"),
        (["--steps-per-episode", "-1"], "steps_per_episode"),
        (["--buffer-capacity", "4", "--batch-size", "8"], "buffer_capacity"),
        (["--neighbors", "-1"], "neighbors"),
        (["--lr", "nan"], "learning_rate"),
        (["--lr", "0"], "learning_rate"),
        (["--gamma", "-5"], "gamma"),
        (["--gamma", "nan"], "gamma"),
        (["--alpha", "nan"], "alpha"),
        (["--alpha", "inf"], "alpha"),
    ],
)
def test_out_of_range_train_flags_fail_cleanly(tmp_path, flags, field):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(_DOC))
    rc, err = _main_in(str(tmp_path), ["train", "--instance", str(inst), "--episodes", "2", *flags])
    _assert_clean_failure(rc, err)
    assert field in err


def test_heatmap_of_missing_history_fails_cleanly(tmp_path):
    inst = _gen(tmp_path, extra=["--history-days", "0"])
    rc, err = _main_in(str(tmp_path), ["heatmap", "--instance", str(inst), "--source", "history"])
    _assert_clean_failure(rc, err)
    assert "no history" in err and str(inst) in err
    assert not (tmp_path / "out" / "grid.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["train", "--instance", "{inst}", "--episodes", "1", "--gamma", "2"],
        ["run", "--instance", "{missing}", "--policy", "greedy1"],
        ["run", "--instance", "{inst}", "--policy", "learned"],
        ["eval", "--checkpoint", "{missing}", "--instance", "{inst}"],
        ["heatmap", "--instance", "{bare}", "--source", "history"],
        ["curves", "--curve", "{missing}"],
    ],
)
def test_a_refused_command_writes_no_config(tmp_path, argv):
    paths = {
        "inst": _gen(tmp_path),
        "bare": _gen(tmp_path, "bare.json", extra=["--history-days", "0"]),
        "missing": tmp_path / "missing",
    }
    rc, err = _main_in(str(tmp_path), [arg.format(**paths) for arg in argv])
    _assert_clean_failure(rc, err)
    assert not (tmp_path / "out" / "config.json").exists()


def test_malformed_arguments_fail_cleanly(tmp_path):
    inst = _gen(tmp_path)
    twin_a, twin_b = _gen(tmp_path, "d1/a.json"), _gen(tmp_path, "d2/a.json")
    curve = tmp_path / "curve.csv"
    curve.write_text("episode,tc\n0,1.0\n")
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    bad_cell = tmp_path / "bad_cell.csv"
    bad_cell.write_text("episode,tc\n0,1.0\n1,abc\n")
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("episode,tc\n0,1.0\n1\n2,3.0,9\n")
    cases = [
        (["run", "--instance", str(inst), "--policy", "learned"], "--checkpoint is required"),
        (["compare", "--instance", str(inst), "--policies", "greedy1,nope"], "unknown policy 'nope'"),
        (["curves", "--curve", str(curve), "--metrics", "loss"], "no column 'loss'"),
        (["curves", "--curve", str(empty)], f"{empty}: curve file has no column 'tc'"),
        (["curves", "--curve", str(bad_cell)], f"{bad_cell} line 3: column 'tc' holds 'abc'"),
        (["curves", "--curve", str(ragged)], f"{ragged} line 3: expected 2 cells as in the header, found 1"),
        (["exact", "--instance", str(inst), "--budget", "nan"], "budget must be positive"),
        (["train", "--instance", str(inst), "--episodes", "-2"], "--episodes must be >= 0, not -2"),
        (["compare", "--instance", str(inst), "--policies", "greedy1,incremental"], "policy 'incremental' is given twice"),
        # Names are refused before the checkpoint is read, so none is needed.
        (["eval", "--checkpoint", str(tmp_path / "none.npz"), "--instance", str(twin_a), "--instance", str(twin_b)],
         "instance name 'a' is given twice"),
    ]
    for argv, message in cases:
        rc, err = _main_in(str(tmp_path), argv)
        _assert_clean_failure(rc, err)
        assert message in err


@pytest.mark.parametrize("command", [["run", "--policy", "greedy1"], ["exact"]])
def test_depot_ahead_of_factories_is_refused(tmp_path, command):
    nodes = [{"id": i, "role": role, "x": float(i), "y": 0.0} for i, role in enumerate(["depot", "factory", "factory"])]
    doc = {
        "network": {"nodes": nodes, "dist": None, "speed": 1.0, "service_time": 0.0},
        "orders": [{"id": 0, "pickup": 1, "delivery": 2, "quantity": 1, "created_at": 0, "latest_delivery": 600}],
        "fleet": {"vehicles": [{"id": 0, "depot": 0}], "capacity": 5, "fixed_cost": 300.0, "unit_cost": 2.0},
        "horizon": 144,
        "history": None,
    }
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(doc))
    rc, err = _main_in(str(tmp_path), [*command, "--instance", str(inst)])
    _assert_clean_failure(rc, err)
    assert "network.nodes[1]" in err


def test_every_flag_is_documented():
    """Each subcommand flag is named in the README or under docs/."""
    root = Path(__file__).resolve().parents[1]
    text = "\n".join(p.read_text(encoding="utf-8") for p in [root / "README.md", *sorted((root / "docs").glob("*.md"))])
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    missing = [
        f"{command} {flag}"
        for command, parser in subparsers.choices.items()
        for action in parser._actions
        for flag in action.option_strings
        if flag.startswith("--") and flag != "--help" and not re.search(rf"(?<![\w-]){flag}(?![\w-])", text)
    ]
    assert not missing, missing
