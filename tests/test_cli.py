import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpdplab.cli import aggregate_metrics, main
from dpdplab.env import EpisodeReport
from dpdplab.instance import generate_instance, load_instance, save_instance
from dpdplab.neural import load_tensors, save_tensors
from dpdplab.policy import QNetworkConfig, Trainer, TrainerConfig

from conftest import make_instance


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


def test_exact_subcommand_writes_plan(tmp_path):
    inst = _gen(tmp_path, orders=4, vehicles=2)
    out = tmp_path / "exact"
    rc = main(["exact", "--instance", str(inst), "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "exact.json").read_text())
    assert doc["optimal"] is True
    assert (out / "plan.txt").read_text().startswith("vehicle ")


def test_heatmap_writes_grid(tmp_path):
    inst = _gen(tmp_path)
    out = tmp_path / "hm"
    rc = main(["heatmap", "--instance", str(inst), "--source", "history", "--out", str(out)])
    assert rc == 0
    rows = (out / "grid.csv").read_text().strip().splitlines()
    assert len(rows) == 6  # factories
    assert len(rows[0].split(",")) == 144
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
    and integers a boolean or a fraction."""
    text = json.dumps(_DOC)
    if draw(st.booleans()):
        return text[: draw(st.integers(0, len(text) - 1))]
    path = draw(st.sampled_from(list(_paths(_DOC))))
    node = _DOC
    for key in path:
        node = node[key]
    choices = [5, "?"] if isinstance(node, (dict, list)) else [[], {}, "?"]
    if type(node) is int:
        choices += [True, node + 0.5]
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
]


@pytest.mark.parametrize("path, value, command, field", _BAD_INSTANCES)
def test_instance_with_wrong_ids_or_integers_fails_cleanly(tmp_path, path, value, command, field):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(_swapped(_DOC, path, value)))
    rc, err = _main_in(str(tmp_path), [*command, "--instance", str(inst)])
    _assert_clean_failure(rc, err)
    assert field in err


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
    """(tensors, meta) of a trainer checkpoint, read by ``eval``, and of a
    bare network checkpoint, read by ``run``."""
    tmp = tmp_path_factory.mktemp("parts")
    trainer = Trainer(_SMALL, TrainerConfig(seed=1))
    return {
        "eval": load_tensors(trainer.save_checkpoint(tmp / "t.ckpt")),
        "run": load_tensors(trainer.online.save(tmp / "n.ckpt")),
    }


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
    command = data.draw(st.sampled_from(sorted(checkpoint_parts)))
    tensors, meta = checkpoint_parts[command]
    tensors, meta = dict(tensors), json.loads(json.dumps(meta))
    how = data.draw(st.sampled_from(["tensor", "drop", "extra", "swap", "state"]))
    if how == "tensor":
        del tensors[data.draw(st.sampled_from(sorted(tensors)))]
    elif how == "state" and command == "eval":
        key = data.draw(st.sampled_from(["episodes_trained", "epsilon", "rng_state"]))
        if key != "epsilon" and data.draw(st.booleans()):
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
        if command == "eval":
            argv = ["eval", "--checkpoint", str(ckpt), "--instance", str(inst)]
        else:
            argv = ["run", "--instance", str(inst), "--policy", "learned", "--checkpoint", str(ckpt)]
        rc, err = _main_in(tmp, argv)
        _assert_clean_failure(rc, err)
        assert str(ckpt) in err


_OUT_OF_RANGE = [
    ("qnetwork_config", "neighbors", -1),
    ("qnetwork_config", "neighbors", -3),
    ("qnetwork_config", "feature_scale", [1.0]),
    ("qnetwork_config", "attn_head_dim", 0),
    ("qnetwork_config", "attn_heads", 0),
    ("qnetwork_config", "embed_dim", 0),
    ("qnetwork_config", "mlp_hidden", [4, 0]),
    ("qnetwork_config", "state_dim", 4),
    ("trainer_config", "batch_size", 0),
    ("trainer_config", "target_period", 0),
    ("trainer_config", "steps_per_episode", -1),
    ("trainer_config", "buffer_capacity", 10),
]


@pytest.mark.parametrize("section, field, value", _OUT_OF_RANGE)
def test_out_of_range_checkpoint_config_fails_cleanly(tmp_path, checkpoint_parts, section, field, value):
    """Bare network checkpoints are read by ``run``, trainer checkpoints by
    ``eval``; the error names the file and the field."""
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(_DOC))
    for command in ("run", "eval") if section == "qnetwork_config" else ("eval",):
        tensors, meta = checkpoint_parts[command]
        meta = json.loads(json.dumps(meta))
        meta[section][field] = value
        ckpt = tmp_path / f"{command}.ckpt"
        save_tensors(ckpt, dict(tensors), meta)
        if command == "eval":
            argv = ["eval", "--checkpoint", str(ckpt), "--instance", str(inst)]
        else:
            argv = ["run", "--instance", str(inst), "--policy", "learned", "--checkpoint", str(ckpt)]
        rc, err = _main_in(str(tmp_path), argv)
        _assert_clean_failure(rc, err)
        assert str(ckpt) in err and f"meta.{section}.{field}" in err


@pytest.mark.parametrize(
    "flags, field",
    [
        (["--batch-size", "0"], "batch_size"),
        (["--target-period", "0"], "target_period"),
        (["--steps-per-episode", "-1"], "steps_per_episode"),
        (["--buffer-capacity", "4", "--batch-size", "8"], "buffer_capacity"),
        (["--neighbors", "-1"], "neighbors"),
    ],
)
def test_out_of_range_train_flags_fail_cleanly(tmp_path, flags, field):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(_DOC))
    rc, err = _main_in(str(tmp_path), ["train", "--instance", str(inst), "--episodes", "2", *flags])
    _assert_clean_failure(rc, err)
    assert field in err
