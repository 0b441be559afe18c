import json
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpdplab import policy
from dpdplab.env import JointState, Transition, run_episode
from dpdplab.instance import generate_instance, read_json
from dpdplab.policy import (
    BLOCK_STATES,
    QNetwork,
    QNetworkConfig,
    Trainer,
    TrainerConfig,
    block_layout,
    greedy_index,
    make_learned_policy,
    neighbor_indices,
    select_action,
)

from oracles import neighbor_reference, q_reference

SMALL = QNetworkConfig(embed_dim=8, mlp_hidden=(8,), attn_heads=2, attn_head_dim=4, neighbors=2)


def make_state(rows, positions=None, accepted=None, order_id=0):
    """JointState from (cur_len, new_len, score) rows; None marks an
    infeasible vehicle (all features -1)."""
    k = len(rows)
    if positions is None:
        positions = [(float(i), 0.0) for i in range(k)]
    return JointState(
        features=np.array([[-1.0] * 5 if r is None else [*r, 1.0, 3.0] for r in rows]),
        feasible=np.array([r is not None for r in rows]),
        positions=np.array(positions, dtype=float),
        accepted=np.array(accepted or [0] * k),
        order_id=order_id,
    )


def lay(net, states):
    """The block a pass of ``net`` reads of ``states``."""
    return block_layout([net.lay_out(state) for state in states])


def test_infeasible_vehicles_have_no_q_value():
    state = make_state([None, None, (5.0, 9.0, 0.2), None])
    net = QNetwork(SMALL, seed=0)
    q, tape = net.q_values(lay(net, [state]))
    assert q.shape == (1,) and np.isfinite(q[0])
    assert tape["offsets"].tolist() == [0, 1]
    assert select_action(state, net) == 2


def test_lone_vehicle_still_evaluates():
    state = make_state([(0.0, 4.0, 0.1)])
    net = QNetwork(SMALL, seed=0)
    q, _ = net.q_values(lay(net, [state]))
    assert q.shape == (1,) and np.isfinite(q[0])


def test_neighbor_selection_by_distance():
    pos = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]])
    idx = neighbor_indices(pos, 1)
    assert idx[0].tolist() == [0, 1]
    assert idx[1].tolist() == [1, 0]
    assert idx[2].tolist() == [2, 1]


def test_neighbor_count_clamps():
    pos = np.array([[0.0, 0.0], [1.0, 1.0]])
    idx = neighbor_indices(pos, 8)
    assert idx.shape == (2, 2)
    assert neighbor_indices(pos[:1], 8).shape == (1, 1)


# Half-unit grid points make distance ties and duplicate positions common.
_grid_points = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(
    lambda p: (0.5 * p[0], 0.5 * p[1])
)
_free_points = st.tuples(
    st.floats(-100, 100, allow_nan=False), st.floats(-100, 100, allow_nan=False)
)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.lists(_grid_points, min_size=1, max_size=12),
        st.lists(_free_points, min_size=1, max_size=12),
    ),
    st.integers(0, 12),
)
def test_neighbor_indices_match_sorting_reference(points, n_neighbors):
    idx = neighbor_indices(np.array(points, dtype=float), n_neighbors)
    assert idx.tolist() == neighbor_reference(points, n_neighbors)


def test_epsilon_zero_is_pure_argmax():
    state = make_state([(3.0, 8.0, 0.5), (1.0, 2.0, 0.1), None])
    net = QNetwork(SMALL, seed=1)
    q, _ = net.q_values(lay(net, [state]))
    rng = np.random.default_rng(0)
    picks = {select_action(state, net, epsilon=0.0, rng=rng) for _ in range(20)}
    assert picks == {int(np.argmax(q))}


def test_epsilon_one_explores_feasible_uniformly():
    state = make_state([(3.0, 8.0, 0.5), None, (1.0, 2.0, 0.1), (0.0, 5.0, 0.9)])
    net = QNetwork(SMALL, seed=1)
    rng = np.random.default_rng(7)
    counts = {0: 0, 2: 0, 3: 0}
    n = 3000
    for _ in range(n):
        counts[select_action(state, net, epsilon=1.0, rng=rng)] += 1
    assert 1 not in counts
    for k in counts:
        assert counts[k] / n == pytest.approx(1 / 3, abs=0.05)


def test_equal_q_tie_breaks_to_lowest_id():
    net = QNetwork(SMALL, seed=2)
    for _, p, _ in net.final_mlp.parameters():
        p[...] = 0.0
    state = make_state([(3.0, 8.0, 0.5), (3.0, 8.0, 0.5), None])
    q, _ = net.q_values(lay(net, [state]))
    assert q[0] == q[1]
    assert select_action(state, net) == 0


def test_feature_masking_without_score():
    cfg = QNetworkConfig(
        embed_dim=8, mlp_hidden=(8,), attn_heads=2, attn_head_dim=4, use_score_feature=False
    )
    net = QNetwork(cfg, seed=3)
    a = make_state([(3.0, 8.0, 0.1), (1.0, 2.0, 0.9)])
    b = make_state([(3.0, 8.0, 0.7), (1.0, 2.0, 0.2)])
    assert net.q_values(lay(net, [a]))[0] == pytest.approx(net.q_values(lay(net, [b]))[0])


def test_plain_variant_skips_attention():
    cfg = QNetworkConfig(embed_dim=8, mlp_hidden=(8,), use_attention=False)
    net = QNetwork(cfg, seed=4)
    names = [name for name, _, _ in net.parameters()]
    assert not any(name.startswith("attn") for name in names)
    state = make_state([(3.0, 8.0, 0.5), (1.0, 2.0, 0.1)])
    assert np.isfinite(net.q_values(lay(net, [state]))[0][0])


def test_permutation_equivariance():
    net = QNetwork(SMALL, seed=5)
    rows = [(3.0, 8.0, 0.5), (1.0, 2.0, 0.1), (0.0, 5.0, 0.9), None]
    pos = [(0.0, 0.0), (1.2, 0.4), (5.0, 2.0), (9.0, 9.0)]
    state = make_state(rows, positions=pos)
    q, _ = net.q_values(lay(net, [state]))
    perm = [2, 0, 3, 1]
    state_p = make_state([rows[i] for i in perm], positions=[pos[i] for i in perm])
    q_p, _ = net.q_values(lay(net, [state_p]))
    by_id = dict(zip(np.flatnonzero(state.feasible).tolist(), q))
    by_id_p = dict(zip(np.flatnonzero(state_p.feasible).tolist(), q_p))
    assert sorted(by_id_p) == [0, 1, 3]
    for new_idx, old_idx in enumerate(perm):
        if rows[old_idx] is not None:
            assert by_id_p[new_idx] == pytest.approx(by_id[old_idx], rel=1e-12)


def test_infeasible_rows_never_touch_network():
    net = QNetwork(SMALL, seed=6)
    rows = [(3.0, 8.0, 0.5), None, (1.0, 2.0, 0.1)]
    state = make_state(rows)
    q1, _ = net.q_values(lay(net, [state]))
    # Changing an infeasible vehicle's features or position changes nothing.
    state.features[1] = 99.0
    state.positions[1] = (0.5, 0.0)
    q2, _ = net.q_values(lay(net, [state]))
    assert np.array_equal(q1, q2)
    # Under any weights the infeasible vehicle still has no Q value.
    for _, p, _ in net.parameters():
        p.flat[0] += 0.37
    q3, tape = net.q_values(lay(net, [state]))
    assert len(q3) == 2 and tape["offsets"].tolist() == [0, 2]


@pytest.mark.parametrize("length", [2, 4])
def test_backward_refuses_a_gradient_of_the_wrong_length(length):
    """Three feasible rows take a dq of three entries; one per vehicle is refused."""
    net = QNetwork(SMALL, seed=7)
    state = make_state([(3.0, 8.0, 0.5), (1.0, 2.0, 0.1), (0.0, 5.0, 0.9), None])
    _, tape = net.q_values(lay(net, [state]))
    dq = np.zeros(length)
    dq[0] = dq[-1] = 1.0
    with pytest.raises(ValueError, match=f"dq has {length} entries, but the forward pass had 3 rows"):
        net.backward(tape, dq)


def test_backward_only_flows_through_feasible_rows():
    """The gradient is the one of the same state without its infeasible
    vehicle, and it is not zero."""
    net = QNetwork(SMALL, seed=8)
    state = make_state([(3.0, 8.0, 0.5), None, (1.0, 2.0, 0.1)])
    without = make_state([(3.0, 8.0, 0.5), (1.0, 2.0, 0.1)], positions=[(0.0, 0.0), (2.0, 0.0)])
    grads = []
    for s in (state, without):
        net.zero_grad()
        _, tape = net.q_values(lay(net, [s]))
        net.backward(tape, np.array([1.0, 0.0]))
        grads.append({name: g.copy() for name, _, g in net.parameters()})
    assert any(np.any(g != 0) for g in grads[0].values())
    for name, g in grads[0].items():
        assert np.array_equal(g, grads[1][name]), name


def test_backward_uses_the_tape_it_is_given():
    """Forwards on other states between q_values and backward change nothing."""
    net = QNetwork(SMALL, seed=9)
    state = make_state([(3.0, 8.0, 0.5), None, (1.0, 2.0, 0.1)])
    other = make_state([(0.0, 5.0, 0.9), (2.0, 7.0, 0.3)])
    dq = np.array([1.0, -0.5])
    net.zero_grad()
    _, tape = net.q_values(lay(net, [state]))
    net.backward(tape, dq)
    want = {name: g.copy() for name, _, g in net.parameters()}
    net.zero_grad()
    _, tape = net.q_values(lay(net, [state]))
    net.q_values(lay(net, [other]))
    net.backward(tape, dq)
    for name, _, g in net.parameters():
        assert np.array_equal(want[name], g), name


def _terminal_transition(reward):
    state = make_state([(3.0, 8.0, 0.5)])
    return Transition(state, 0, reward, None)


def test_double_q_target_terminal():
    trainer = Trainer(SMALL, TrainerConfig(seed=0))
    assert trainer.double_q_target(trainer.replays([_terminal_transition(-5.0)]))[0] == -5.0


def _flat_q_trainer(online_bias, target_bias, gamma):
    trainer = Trainer(SMALL, TrainerConfig(seed=0, gamma=gamma))
    for net, bias in ((trainer.online, online_bias), (trainer.target, target_bias)):
        for _, p, _ in net.final_mlp.parameters():
            p[...] = 0.0
        net.final_mlp.layers[-1].params["b"][...] = bias
    return trainer


def test_double_q_target_bootstraps_with_target_net():
    trainer = _flat_q_trainer(online_bias=5.0, target_bias=-10.0, gamma=0.9)
    nxt = make_state([(1.0, 2.0, 0.1), (0.0, 4.0, 0.2)])
    tr = Transition(make_state([(3.0, 8.0, 0.5)]), 0, -1.0, nxt)
    assert trainer.double_q_target(trainer.replays([tr]))[0] == pytest.approx(-10.0)


def test_double_q_target_gamma_zero_is_reward():
    trainer = _flat_q_trainer(online_bias=5.0, target_bias=-10.0, gamma=0.0)
    nxt = make_state([(1.0, 2.0, 0.1)])
    tr = Transition(make_state([(3.0, 8.0, 0.5)]), 0, -1.0, nxt)
    assert trainer.double_q_target(trainer.replays([tr]))[0] == -1.0


def test_train_zero_episodes_is_noop(tmp_path):
    inst = generate_instance(seed=1, n_factories=5, n_orders=4, n_vehicles=2)
    t1 = Trainer(SMALL, TrainerConfig(seed=3))
    before = {n: p.copy() for n, p, _ in t1.online.parameters()}
    log = t1.train([inst], 0)
    assert log == []
    for n, p, _ in t1.online.parameters():
        assert np.array_equal(before[n], p)


def test_no_gradient_step_until_buffer_warm():
    trainer = Trainer(SMALL, TrainerConfig(seed=0, batch_size=64))
    assert trainer.train_step() is None
    inst = generate_instance(seed=2, n_factories=5, n_orders=4, n_vehicles=2)
    before = {n: p.copy() for n, p, _ in trainer.online.parameters()}
    log = trainer.train([inst], 2)  # 8 transitions < 64
    assert all(np.isnan(row["loss"]) for row in log)
    for n, p, _ in trainer.online.parameters():
        assert np.array_equal(before[n], p)


def test_target_sync_every_period():
    inst = generate_instance(seed=3, n_factories=5, n_orders=5, n_vehicles=2)
    trainer = Trainer(SMALL, TrainerConfig(seed=1, target_period=1, batch_size=4, steps_per_episode=1))
    trainer.train([inst], 3)
    online = {n: p.copy() for n, p, _ in trainer.online.parameters()}
    for n, p, _ in trainer.target.parameters():
        assert np.array_equal(online[n], p)


def test_target_lags_between_syncs():
    inst = generate_instance(seed=3, n_factories=5, n_orders=5, n_vehicles=2)
    trainer = Trainer(SMALL, TrainerConfig(seed=1, target_period=100, batch_size=4))
    init = {n: p.copy() for n, p, _ in trainer.target.parameters()}
    trainer.train([inst], 3)
    for n, p, _ in trainer.target.parameters():
        assert np.array_equal(init[n], p)
    assert any(
        not np.array_equal(init[n], p) for n, p, _ in trainer.online.parameters()
    )


def test_epsilon_schedule_monotone():
    trainer = Trainer(SMALL, TrainerConfig(seed=0))
    eps = [trainer.epsilon_at(e, 100) for e in range(100)]
    assert all(a >= b for a, b in zip(eps, eps[1:]))
    assert eps[0] == 1.0
    assert eps[-1] == pytest.approx(0.05)


def test_buffer_respects_capacity():
    inst = generate_instance(seed=4, n_factories=5, n_orders=6, n_vehicles=2)
    trainer = Trainer(SMALL, TrainerConfig(seed=2, buffer_capacity=10, batch_size=4))
    trainer.train([inst], 4)
    assert len(trainer.buffer) == 10


def test_replay_and_checkpoint_determinism(tmp_path):
    inst = generate_instance(seed=5, n_factories=6, n_orders=8, n_vehicles=3)
    cfgs = dict(seed=9, batch_size=8, steps_per_episode=2, target_period=2)
    t1 = Trainer(SMALL, TrainerConfig(**cfgs))
    t2 = Trainer(SMALL, TrainerConfig(**cfgs))
    log1 = t1.train([inst], 6)
    log2 = t2.train([inst], 6)
    assert [r["tc"] for r in log1] == [r["tc"] for r in log2]
    p1 = t1.save_checkpoint(tmp_path / "a.ckpt")
    p2 = t2.save_checkpoint(tmp_path / "b.ckpt")
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_round_trip(tmp_path):
    inst = generate_instance(seed=6, n_factories=5, n_orders=5, n_vehicles=2)
    trainer = Trainer(SMALL, TrainerConfig(seed=4, batch_size=4, steps_per_episode=1))
    trainer.train([inst], 3)
    path = trainer.save_checkpoint(tmp_path / "t.ckpt")
    again = Trainer.load_checkpoint(path)
    assert again.episodes_trained == 3
    assert again.online.config == trainer.online.config
    assert again.config == trainer.config
    state = make_state([(3.0, 8.0, 0.5), (1.0, 2.0, 0.1)])
    want = trainer.online.q_values(lay(trainer.online, [state]))[0]
    assert again.online.q_values(lay(again.online, [state]))[0] == pytest.approx(want)
    assert again.rng.integers(1 << 30) == trainer.rng.integers(1 << 30)


@pytest.mark.parametrize("cls", [QNetworkConfig, TrainerConfig])
def test_default_config_round_trips_through_json(cls):
    """Every config field has a type the checkpoint reader can build."""
    config = cls()
    assert read_json(cls, json.loads(json.dumps(asdict(config))), "meta") == config


def test_learned_policy_runs_episode():
    inst = generate_instance(seed=7, n_factories=6, n_orders=6, n_vehicles=3)
    net = QNetwork(SMALL, seed=11)
    report, _ = run_episode(inst, make_learned_policy(net))
    assert report.nuv >= 1


def test_full_tower_gradcheck_small():
    from oracles import relative_error

    net = QNetwork(SMALL, seed=12)
    state = make_state(
        [(3.0, 8.0, 0.5), None, (1.0, 2.0, 0.1), (0.0, 5.0, 0.9)],
        positions=[(0.0, 0.0), (4.0, 4.0), (1.0, 0.5), (2.0, 2.0)],
    )
    row = 1  # vehicle 2, the second feasible one
    net.zero_grad()
    _, tape = net.q_values(lay(net, [state]))
    dq = np.zeros(3)
    dq[row] = 1.0
    net.backward(tape, dq)
    h = 1e-4
    for name, p, g in net.parameters():
        flat_p = p.reshape(-1)
        flat_g = g.reshape(-1)
        for idx in range(0, flat_p.size, 7):  # sample every 7th weight for speed
            keep = flat_p[idx]
            flat_p[idx] = keep + h
            up = net.q_values(lay(net, [state]))[0][row]
            flat_p[idx] = keep - h
            down = net.q_values(lay(net, [state]))[0][row]
            flat_p[idx] = keep
            numeric = (up - down) / (2 * h)
            assert relative_error(flat_g[idx], numeric) < 1e-4, (name, idx)


def _close(got, want, tol=1e-12):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    scale = np.maximum(1.0, np.maximum(np.abs(got), np.abs(want)))
    return bool(np.all(np.abs(got - want) <= tol * scale))


# Half-unit feature values and grid positions make ties and duplicate
# positions common; None marks an infeasible vehicle.
_rows = st.one_of(
    st.none(),
    st.tuples(*(st.integers(0, 6).map(lambda v: 0.5 * v) for _ in range(3))),
)


@st.composite
def _states(draw, max_states=5):
    states = []
    for _ in range(draw(st.integers(1, max_states))):
        k = draw(st.integers(1, 12))
        rows = draw(st.lists(_rows, min_size=k, max_size=k))
        points = draw(st.one_of(st.lists(_grid_points, min_size=k, max_size=k), st.lists(_free_points, min_size=k, max_size=k)))
        states.append(make_state(rows, positions=points))
    return states


_NETS = {
    "small": QNetwork(SMALL, seed=20),
    "wide": QNetwork(QNetworkConfig(embed_dim=8, mlp_hidden=(8,), attn_heads=2, attn_head_dim=4, neighbors=12), seed=21),
    "alone": QNetwork(QNetworkConfig(embed_dim=8, mlp_hidden=(8,), attn_heads=2, attn_head_dim=4, neighbors=0), seed=22),
    "plain": QNetwork(QNetworkConfig(embed_dim=8, mlp_hidden=(8,), use_attention=False), seed=23),
    "noscore": QNetwork(QNetworkConfig(embed_dim=8, mlp_hidden=(8,), attn_heads=2, attn_head_dim=4, use_score_feature=False), seed=24),
}


@settings(max_examples=150, deadline=None)
@given(_states(), st.sampled_from(sorted(_NETS)))
def test_batched_q_equals_per_state_q(states, which):
    net = _NETS[which]
    q, tape = net.q_values(lay(net, states))
    assert tape["offsets"].tolist() == np.cumsum([0] + [s.feasible.sum() for s in states]).tolist()
    assert np.isfinite(q).all()
    for state, lo, hi in zip(states, tape["offsets"], tape["offsets"][1:]):
        own, _ = net.q_values(lay(net, [state]))
        assert len(own) == state.feasible.sum()
        assert _close(q[lo:hi], own)


@settings(max_examples=60, deadline=None)
@given(_states(), st.sampled_from(sorted(_NETS)), st.integers(0, 2**32 - 1))
def test_batched_backward_equals_sum_of_per_state_backwards(states, which, seed):
    net = _NETS[which]
    dq = np.random.default_rng(seed).normal(size=sum(s.feasible.sum() for s in states))
    net.zero_grad()
    _, tape = net.q_values(lay(net, states))
    net.backward(tape, dq)
    batched = {name: g.copy() for name, _, g in net.parameters()}
    net.zero_grad()
    for state, lo, hi in zip(states, tape["offsets"], tape["offsets"][1:]):
        _, own = net.q_values(lay(net, [state]))
        net.backward(own, dq[lo:hi])
    for name, _, g in net.parameters():
        assert _close(batched[name], g), name


@settings(max_examples=25, deadline=None)
@given(_states(max_states=1), st.sampled_from(sorted(_NETS)))
def test_q_values_match_loop_reference(states, which):
    net = _NETS[which]
    q, _ = net.q_values(lay(net, states))
    assert len(q) == states[0].feasible.sum()
    assert _close(q, np.array(q_reference(net, states[0]))[states[0].feasible])


def _interleave(state):
    """``state`` with an infeasible vehicle before each of its vehicles, at
    that vehicle's position: vehicle k becomes vehicle 2k + 1."""
    k = state.n_vehicles
    features = np.full((2 * k, 5), -1.0)
    features[1::2] = state.features
    feasible = np.zeros(2 * k, dtype=bool)
    feasible[1::2] = state.feasible
    accepted = np.zeros(2 * k, dtype=int)
    accepted[1::2] = state.accepted
    return JointState(features, feasible, np.repeat(state.positions, 2, axis=0), accepted, state.order_id)


@settings(max_examples=40, deadline=None)
@given(_states(), st.sampled_from(sorted(_NETS)))
def test_greedy_action_is_the_reference_best_feasible_vehicle(states, which):
    """Wherever the reference's best feasible Q beats the runner-up by more
    than 1e-9 relative, acting takes that vehicle's id, not its row."""
    net = _NETS[which]
    for state in map(_interleave, states):
        ref = np.array(q_reference(net, state))
        ids = np.flatnonzero(state.feasible)
        if not ids.size:
            continue
        order = np.argsort(-ref[ids], kind="stable")
        best = ref[ids[order[0]]]
        if len(ids) > 1 and best - ref[ids[order[1]]] <= 1e-9 * max(1.0, abs(best)):
            continue
        assert select_action(state, net) == ids[order[0]]


def test_replay_rows_name_the_actions_of_a_learned_episode():
    """Slow vehicles with busy routes leave about half the decisions with an
    infeasible vehicle before the chosen one."""
    inst = generate_instance(seed=3, n_factories=6, n_orders=20, n_vehicles=5, speed=0.07, hot_spot=0.8)
    trainer = Trainer(SMALL, TrainerConfig(seed=1))
    _, transitions = run_episode(inst, make_learned_policy(trainer.online, epsilon=0.5, rng=trainer.rng))
    entries = trainer.replays(transitions)
    assert len(entries) == len(transitions) == 20
    for tr, entry in zip(transitions, entries):
        assert np.flatnonzero(tr.state.feasible)[entry.row] == tr.action
    assert any(entry.row != tr.action for tr, entry in zip(transitions, entries))


@pytest.mark.parametrize("action", [1, 2, -1])
def test_replays_refuse_an_action_that_is_not_a_feasible_vehicle(action):
    trainer = Trainer(SMALL, TrainerConfig(seed=0))
    tr = Transition(make_state([(3.0, 8.0, 0.5), None]), action, -1.0, None)
    with pytest.raises(ValueError, match=f"action {action} is not a feasible vehicle"):
        trainer.replays([tr])


def test_greedy_ties_within_rounding_go_to_lowest_id():
    one = 1.0
    assert greedy_index(np.array([one, np.nextafter(one, 2.0), one])) == 0
    assert greedy_index(np.array([1e6, 1e6 + 1e-7])) == 0
    assert greedy_index(np.array([0.5, 0.5 + 1e-9])) == 1
    assert greedy_index(np.array([-2e9, np.nextafter(-2e9, 0.0)])) == 0


def test_interchangeable_vehicles_go_to_the_lowest_id():
    """Ten vehicles with one feature row at one position, as at the first
    decision of an episode: every one is the same choice."""
    k = 10
    state = JointState(
        features=np.tile([0.0, 23.5, 0.4, 0.0, 60.0], (k, 1)),
        feasible=np.ones(k, dtype=bool),
        positions=np.tile([3.0, 4.0], (k, 1)),
        accepted=np.zeros(k, dtype=int),
        order_id=0,
    )
    for seed in range(12):
        assert select_action(state, QNetwork(QNetworkConfig(), seed=seed)) == 0, seed


def test_double_q_target_breaks_rounding_ties_to_lowest_id():
    trainer = _flat_q_trainer(online_bias=5.0, target_bias=0.0, gamma=0.5)
    nxt = make_state([(1.0, 2.0, 0.1), (0.0, 4.0, 0.2)])
    tr = Transition(make_state([(3.0, 8.0, 0.5)]), 0, -1.0, nxt)

    def online_q(states):
        return np.array([5.0, np.nextafter(5.0, 6.0)]), {"offsets": np.array([0, 2])}

    def target_q(states):
        return np.array([-10.0, 10.0]), {"offsets": np.array([0, 2])}

    trainer.online.q_values, trainer.target.q_values = online_q, target_q
    assert trainer.double_q_target(trainer.replays([tr]))[0] == -1.0 + 0.5 * -10.0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_greedy_choices_refuse_feasible_q_values_that_are_not_finite(bad):
    """A NaN or infinite feasible Q value has no greedy choice: acting and
    the Double-Q target raise instead of taking whichever row comes first."""
    q = np.array([bad, 3.0])
    with pytest.raises(ValueError, match="feasible Q values are not finite"):
        greedy_index(q)
    trainer = Trainer(SMALL, TrainerConfig(seed=0))

    def bad_q(block):
        return q.copy(), {"offsets": np.array([0, 2])}

    trainer.online.q_values = bad_q
    nxt = make_state([None, (1.0, 2.0, 0.1), (0.0, 4.0, 0.2)])
    with pytest.raises(ValueError, match="feasible Q values are not finite"):
        select_action(nxt, trainer.online)
    tr = Transition(make_state([(3.0, 8.0, 0.5)]), 0, -1.0, nxt)
    with pytest.raises(ValueError, match="feasible Q values are not finite"):
        trainer.double_q_target(trainer.replays([tr]))


def test_greedy_choices_ignore_the_sentinel_below_every_feasible_q():
    """Feasible Q values far below zero still rank above infeasible vehicles,
    both when acting and when choosing the Double-Q target's action."""
    trainer = _flat_q_trainer(online_bias=-2e9, target_bias=-2e9, gamma=0.5)
    nxt = make_state([None, (1.0, 2.0, 0.1)])
    assert select_action(nxt, trainer.online) == 1
    tr = Transition(make_state([(3.0, 8.0, 0.5)]), 0, -1.0, nxt)
    assert trainer.double_q_target(trainer.replays([tr]))[0] == -1e9 - 1.0


def test_double_q_target_of_a_batch_matches_one_at_a_time():
    trainer = Trainer(SMALL, TrainerConfig(seed=0))
    rng = np.random.default_rng(3)
    batch = []
    for i in range(2 * BLOCK_STATES + 3):
        k = int(rng.integers(1, 6))
        rows = [(float(rng.uniform(0, 9)), float(rng.uniform(0, 9)), float(rng.uniform())) for _ in range(k)]
        terminal = i % 4 == 0
        nxt = None if i % 7 == 0 else make_state(rows, positions=rng.uniform(0, 5, size=(k, 2)))
        batch.append(Transition(make_state([(3.0, 8.0, 0.5)]), 0, float(-i), None if terminal else nxt))
    together = trainer.double_q_target(trainer.replays(batch))
    assert together.shape == (len(batch),)
    for tr, y in zip(batch, together):
        assert y == trainer.double_q_target(trainer.replays([tr]))[0]


def test_an_episode_lays_out_each_state_once(monkeypatch):
    """A bootstrapping entry's next state shares the following entry's
    layout, and a train step lays out no state again."""
    inst = generate_instance(seed=1, n_factories=6, n_orders=20, n_vehicles=3)
    trainer = Trainer(SMALL, TrainerConfig(seed=9, batch_size=8, steps_per_episode=0))
    trainer.train([inst], 2)
    entries = list(trainer.buffer)
    assert len(entries) == 40
    bootstrapping = [i for i, r in enumerate(entries) if r.next_layout is not None]
    assert bootstrapping
    for i in bootstrapping:
        assert entries[i].next_layout is entries[i + 1].layout
    calls = []
    monkeypatch.setattr(policy, "neighbor_indices", lambda *args: calls.append(args))
    assert trainer.train_step() is not None
    assert calls == []


def test_training_batches_mix_fleet_sizes(monkeypatch):
    small = generate_instance(seed=8, n_factories=5, n_orders=6, n_vehicles=2)
    large = generate_instance(seed=9, n_factories=5, n_orders=6, n_vehicles=5)
    trainer = Trainer(SMALL, TrainerConfig(seed=5, batch_size=12, steps_per_episode=3))
    fleets = []
    replays = trainer.replays

    def recording(transitions):
        fleets.extend(tr.state.n_vehicles for tr in transitions)
        return replays(transitions)

    monkeypatch.setattr(trainer, "replays", recording)
    log = trainer.train([small, large], 6)
    assert set(fleets) == {2, 5}
    assert max(len(r.layout.x) for r in trainer.buffer) > 2
    losses = [row["loss"] for row in log[1:]]
    assert losses and all(np.isfinite(loss) for loss in losses)


def test_training_memory_stays_bounded_at_benchmark_shape():
    """Training at the benchmark's train shape (10 factories, 30 orders,
    10 vehicles; 8 episodes of 8 steps) allocates at most 8 MB at its peak
    beyond the trainer itself.  Evaluating a whole 64-state minibatch in one
    pass peaks at about 13 MB; blocks of BLOCK_STATES stay near 4 MB."""
    inst = generate_instance(0, 10, 30, 10)
    trainer = Trainer(config=TrainerConfig(seed=0, steps_per_episode=8))
    tracemalloc.start()
    try:
        trainer.train([inst], 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trainer.optimizer.t == 48
    assert peak <= 8 * 2**20, f"peak {peak / 2**20:.1f} MB"
