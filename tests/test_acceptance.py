"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Training budgets are deliberately desk-scale; seeds are pinned so every
run reproduces the same numbers.
"""

import hashlib
import time
from contextlib import contextmanager

import numpy as np
import pytest

from dpdplab.baselines import make_greedy_policy, solve_exact, validate_routes
from dpdplab.cli import main
from dpdplab.demand import divergence_score
from dpdplab.env import run_episode
from dpdplab.instance import generate_instance
from dpdplab.policy import (
    QNetwork,
    QNetworkConfig,
    Trainer,
    TrainerConfig,
    make_learned_policy,
)
from dpdplab.routing import order_stops, plan_insertion

from oracles import brute_force_best_insertion, exhaustive_optimum, js_reference, relative_error, route_walk_length

GREEDY_RULES = ("incremental", "total", "max_orders")


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number} FAIL: {description}")
        raise
    print(f"criterion {number} PASS: {description}")


@pytest.fixture(scope="module")
def table_instances():
    return [
        generate_instance(seed=100 + i, n_factories=8, n_orders=6, n_vehicles=5)
        for i in range(10)
    ]


@pytest.fixture(scope="module")
def trained_pair(table_instances):
    nets = {}
    for label, (attention, score) in {"graph": (True, True), "plain": (False, False)}.items():
        qconfig = QNetworkConfig(use_attention=attention, use_score_feature=score)
        trainer = Trainer(qconfig, TrainerConfig(seed=0, steps_per_episode=4, batch_size=32))
        trainer.train(table_instances, 150)
        nets[label] = trainer.online
    return nets


def test_criterion_1_oracle_dominance(trained_pair):
    with criterion(1, "exact oracle dominates all policies; matches enumerator bit-exactly"):
        start = time.monotonic()
        learned = make_learned_policy(trained_pair["graph"])
        for i in range(20):
            inst = generate_instance(
                seed=200 + i,
                n_factories=6,
                n_orders=3 + i % 5,
                n_vehicles=2 + i % 4,
            )
            exact = solve_exact(inst)
            assert exact.optimal
            policies = [make_greedy_policy(rule) for rule in GREEDY_RULES] + [learned]
            for policy in policies:
                report, _ = run_episode(inst, policy)
                assert exact.tc <= report.tc + 1e-9, (i, policy.policy_name)
            if len(inst.orders) <= 5:
                reference = exhaustive_optimum(inst)
                assert reference is not None
                assert exact.tc == reference[0], i
                assert exact.nuv == reference[1], i
        elapsed = time.monotonic() - start
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_criterion_2_graph_variant_wins_at_table_scale(table_instances, trained_pair):
    with criterion(2, "trained graph+score policy beats or ties plain DDQN on >= 6/10; inference < 1s"):
        wins = 0
        worst_decision = 0.0
        for inst in table_instances:
            graph_report, _ = run_episode(inst, make_learned_policy(trained_pair["graph"]))
            plain_report, _ = run_episode(inst, make_learned_policy(trained_pair["plain"]))
            if graph_report.tc <= plain_report.tc + 1e-9:
                wins += 1
            worst_decision = max(worst_decision, graph_report.decision_seconds_max)
        assert wins >= 6, f"graph variant won only {wins}/10"
        assert worst_decision < 1.0, f"slowest per-order decision {worst_decision:.3f}s"


def test_criterion_3_learning_signal():
    with criterion(3, "200-episode training lowers mean TC (last 50 < first 50) in < 10 min"):
        start = time.monotonic()
        inst = generate_instance(seed=11, n_factories=10, n_orders=30, n_vehicles=10)
        trainer = Trainer(config=TrainerConfig(seed=5, steps_per_episode=8))
        log = trainer.train([inst], 200)
        elapsed = time.monotonic() - start
        tcs = [row["tc"] for row in log]
        first, last = float(np.mean(tcs[:50])), float(np.mean(tcs[-50:]))
        assert last < first, f"no improvement: first {first:.1f} vs last {last:.1f}"
        assert elapsed < 600.0, f"took {elapsed:.1f}s"


def test_criterion_4_gradients_match_finite_differences():
    with criterion(4, "full tower gradients match central differences (rel err < 1e-4, 5 seeds)"):
        config = QNetworkConfig(
            embed_dim=8, mlp_hidden=(8,), attn_heads=2, attn_head_dim=4, neighbors=2
        )
        from test_policy import lay, make_state

        h = 1e-4
        for seed in range(5):
            net = QNetwork(config, seed=seed)
            rng = np.random.default_rng(1000 + seed)
            rows = [
                (float(rng.uniform(0, 50)), float(rng.uniform(0, 80)), float(rng.uniform(0, 1)))
                for _ in range(4)
            ]
            rows[int(rng.integers(4))] = None
            positions = [tuple(rng.uniform(0, 10, size=2)) for _ in range(4)]
            state = make_state(rows, positions=positions)
            row = 0  # the first feasible vehicle
            net.zero_grad()
            _, tape = net.q_values(lay(net, [state]))
            dq = np.zeros(3)
            dq[row] = 1.0
            net.backward(tape, dq)
            for name, p, g in net.parameters():
                flat_p, flat_g = p.reshape(-1), g.reshape(-1)
                for idx in range(flat_p.size):
                    keep = flat_p[idx]
                    flat_p[idx] = keep + h
                    up = net.q_values(lay(net, [state]))[0][row]
                    flat_p[idx] = keep - h
                    down = net.q_values(lay(net, [state]))[0][row]
                    flat_p[idx] = keep
                    numeric = (up - down) / (2 * h)
                    err = relative_error(flat_g[idx], numeric)
                    assert err < 1e-4, (seed, name, idx, err)


def test_criterion_5_constraint_soundness():
    with criterion(5, "1000 fuzzed episodes across policies: zero validator violations"):
        rng = np.random.default_rng(42)
        nets = [QNetwork(QNetworkConfig(embed_dim=8, mlp_hidden=(8,), attn_heads=2, attn_head_dim=4), seed=s) for s in range(3)]
        episodes = 0
        while episodes < 1000:
            inst = generate_instance(
                seed=int(rng.integers(1_000_000)),
                n_factories=int(rng.integers(4, 9)),
                n_orders=int(rng.integers(3, 11)),
                n_vehicles=int(rng.integers(2, 5)),
                capacity=int(rng.integers(6, 14)),
                service_time=float(rng.choice([0.0, 2.0])),
                hot_spot=float(rng.uniform(0.0, 0.8)),
            )
            kind = episodes % 4
            if kind < 3:
                policy = make_greedy_policy(GREEDY_RULES[kind])
            else:
                policy = make_learned_policy(
                    nets[episodes % 3], epsilon=0.3, rng=np.random.default_rng(episodes)
                )
            report, _ = run_episode(inst, policy)
            verdict = validate_routes(report, inst)
            assert verdict.ok, (episodes, verdict.violations)
            episodes += 1


def test_criterion_6_divergence_score_properties():
    with criterion(6, "score symmetry, [0,1] range, zero iff equal, worked value 0.3113"):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            a = rng.uniform(0, 20, size=n)
            b = rng.uniform(0, 20, size=n)
            s = divergence_score(a, b)
            s_swapped = divergence_score(b, a)
            assert s == pytest.approx(s_swapped, abs=1e-12)
            assert 0.0 <= s <= 1.0
            scale = float(rng.uniform(0.2, 5.0))
            same = divergence_score(a, a * scale)
            assert same == pytest.approx(0.0, abs=1e-6)
        worked = divergence_score(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
        assert worked == pytest.approx(js_reference([0.5, 0.5], [1.0, 0.0]), abs=1e-4)
        assert worked == pytest.approx(0.3113, abs=1e-4)


def test_criterion_7_planner_equals_brute_force():
    with criterion(7, "insertion planner matches the brute-force oracle on 200 fuzzed cases"):
        from dpdplab.routing import PICKUP, Route

        rng = np.random.default_rng(77)
        checked = 0
        while checked < 200:
            inst = generate_instance(
                seed=int(rng.integers(1_000_000)),
                n_factories=int(rng.integers(3, 8)),
                n_orders=4,
                n_vehicles=1,
                capacity=int(rng.integers(4, 12)),
                service_time=float(rng.choice([0.0, 3.0])),
            )
            route = Route.empty(0, inst.fleet.vehicles[0].depot)
            target_commits = int(rng.integers(0, 4))
            new_order = None
            now = 0.0
            for o in inst.orders:
                now = float(o.created_at) + float(rng.uniform(0, 40))
                commits = sum(a.kind == PICKUP for s in route.stops for a in s.actions)
                if commits < target_commits:
                    res = plan_insertion(route, order_stops(o), o.created_at, inst.network, inst.fleet)
                    if res.feasible:
                        route = res.best_route
                        continue
                new_order = o
                break
            if new_order is None:
                continue
            now = max(now, float(new_order.created_at))
            res = plan_insertion(route, order_stops(new_order), now, inst.network, inst.fleet)
            oracle = brute_force_best_insertion(route, new_order, now, inst.network, inst.fleet)
            if oracle is None:
                assert not res.feasible, checked
            else:
                assert res.feasible, checked
                assert res.best_route.length == pytest.approx(oracle, abs=1e-9), checked
                best = res.best_route
                length = route_walk_length(best, inst.network, inst.fleet.capacity)
                assert length == pytest.approx(oracle, abs=1e-9), checked
                assert best.stops[0].node == best.stops[-1].node == inst.fleet.vehicles[best.vehicle].depot, checked
            checked += 1


def test_criterion_8_determinism(tmp_path):
    with criterion(8, "same seeds give identical traces, metric CSVs and checkpoint hashes"):
        inst_paths = []
        for name in ("one", "two"):
            path = tmp_path / f"{name}.json"
            assert main(
                ["gen", "--seed", "9", "--orders", "8", "--vehicles", "3", "--out", str(path)]
            ) == 0
            inst_paths.append(path)
        assert inst_paths[0].read_bytes() == inst_paths[1].read_bytes()

        digests = []
        for name in ("ra", "rb"):
            out = tmp_path / name
            assert main(
                ["run", "--instance", str(inst_paths[0]), "--policy", "greedy1", "--out", str(out)]
            ) == 0
            payload = (out / "trace_incremental.txt").read_bytes() + (out / "metrics.csv").read_bytes()
            digests.append(hashlib.sha256(payload).hexdigest())
        assert digests[0] == digests[1]

        hashes = []
        for name in ("ta", "tb"):
            out = tmp_path / name
            assert main(
                [
                    "train",
                    "--instance",
                    str(inst_paths[0]),
                    "--episodes",
                    "10",
                    "--seed",
                    "3",
                    "--batch-size",
                    "8",
                    "--steps-per-episode",
                    "2",
                    "--out",
                    str(out),
                ]
            ) == 0
            payload = (out / "checkpoint.ckpt").read_bytes() + (out / "curve.csv").read_bytes()
            hashes.append(hashlib.sha256(payload).hexdigest())
        assert hashes[0] == hashes[1]
