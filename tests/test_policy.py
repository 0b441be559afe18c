import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpdplab.env import JointState, Transition
from dpdplab.instance import generate_instance
from dpdplab.policy import (
    SENTINEL_Q,
    QNetwork,
    QNetworkConfig,
    Trainer,
    TrainerConfig,
    make_learned_policy,
    neighbor_indices,
    select_action,
)

from oracles import neighbor_reference

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


def test_sentinel_dominates_argmax():
    state = make_state([None, None, (5.0, 9.0, 0.2), None])
    net = QNetwork(SMALL, seed=0)
    q, _ = net.q_values(state)
    assert q[2] > SENTINEL_Q
    assert np.argmax(q) == 2
    assert select_action(state, net) == 2
    assert all(q[i] == SENTINEL_Q for i in (0, 1, 3))


def test_lone_vehicle_still_evaluates():
    state = make_state([(0.0, 4.0, 0.1)])
    net = QNetwork(SMALL, seed=0)
    q, _ = net.q_values(state)
    assert np.isfinite(q[0]) and q[0] != SENTINEL_Q


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
    q, _ = net.q_values(state)
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
    q, _ = net.q_values(state)
    assert q[0] == q[1]
    assert select_action(state, net) == 0


def test_feature_masking_without_score():
    cfg = QNetworkConfig(
        embed_dim=8, mlp_hidden=(8,), attn_heads=2, attn_head_dim=4, use_score_feature=False
    )
    net = QNetwork(cfg, seed=3)
    a = make_state([(3.0, 8.0, 0.1), (1.0, 2.0, 0.9)])
    b = make_state([(3.0, 8.0, 0.7), (1.0, 2.0, 0.2)])
    assert net.q_values(a)[0] == pytest.approx(net.q_values(b)[0])


def test_plain_variant_skips_attention():
    cfg = QNetworkConfig(embed_dim=8, mlp_hidden=(8,), use_attention=False)
    net = QNetwork(cfg, seed=4)
    names = [name for name, _, _ in net.parameters()]
    assert not any(name.startswith("attn") for name in names)
    state = make_state([(3.0, 8.0, 0.5), (1.0, 2.0, 0.1)])
    assert np.isfinite(net.q_values(state)[0][0])


def test_permutation_equivariance():
    net = QNetwork(SMALL, seed=5)
    rows = [(3.0, 8.0, 0.5), (1.0, 2.0, 0.1), (0.0, 5.0, 0.9), None]
    pos = [(0.0, 0.0), (1.2, 0.4), (5.0, 2.0), (9.0, 9.0)]
    state = make_state(rows, positions=pos)
    q, _ = net.q_values(state)
    perm = [2, 0, 3, 1]
    state_p = make_state([rows[i] for i in perm], positions=[pos[i] for i in perm])
    q_p, _ = net.q_values(state_p)
    for new_idx, old_idx in enumerate(perm):
        assert q_p[new_idx] == pytest.approx(q[old_idx], rel=1e-12)


def test_infeasible_rows_never_touch_network():
    net = QNetwork(SMALL, seed=6)
    rows = [(3.0, 8.0, 0.5), None, (1.0, 2.0, 0.1)]
    state = make_state(rows)
    q1, _ = net.q_values(state)
    # Changing an infeasible row's (sentinel) features cannot change anything.
    state.features[1] = 99.0
    q2, _ = net.q_values(state)
    assert np.array_equal(q1, q2)
    # Perturbing any weight leaves the sentinel untouched.
    for _, p, _ in net.parameters():
        p.flat[0] += 0.37
    q3, _ = net.q_values(state)
    assert q3[1] == SENTINEL_Q


def test_gradient_on_infeasible_row_rejected():
    net = QNetwork(SMALL, seed=7)
    state = make_state([(3.0, 8.0, 0.5), None])
    _, tape = net.q_values(state)
    dq = np.zeros(2)
    dq[1] = 1.0
    with pytest.raises(ValueError, match="infeasible row"):
        net.backward(tape, dq)


def test_backward_only_flows_through_feasible_rows():
    net = QNetwork(SMALL, seed=8)
    state = make_state([(3.0, 8.0, 0.5), None, (1.0, 2.0, 0.1)])
    net.zero_grad()
    _, tape = net.q_values(state)
    dq = np.zeros(3)
    dq[0] = 1.0
    net.backward(tape, dq)
    grads_any = any(np.any(g != 0) for _, _, g in net.parameters())
    assert grads_any


def test_backward_uses_the_tape_it_is_given():
    """Forwards on other states between q_values and backward change nothing."""
    net = QNetwork(SMALL, seed=9)
    state = make_state([(3.0, 8.0, 0.5), None, (1.0, 2.0, 0.1)])
    other = make_state([(0.0, 5.0, 0.9), (2.0, 7.0, 0.3)])
    dq = np.array([1.0, 0.0, -0.5])
    net.zero_grad()
    _, tape = net.q_values(state)
    net.backward(tape, dq)
    want = {name: g.copy() for name, _, g in net.parameters()}
    net.zero_grad()
    _, tape = net.q_values(state)
    net.q_values(other)
    net.backward(tape, dq)
    for name, _, g in net.parameters():
        assert np.array_equal(want[name], g), name


def _terminal_transition(reward):
    state = make_state([(3.0, 8.0, 0.5)])
    return Transition(state, 0, True, reward, None)


def test_double_q_target_terminal():
    trainer = Trainer(SMALL, TrainerConfig(seed=0))
    assert trainer.double_q_target(_terminal_transition(-5.0)) == -5.0


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
    tr = Transition(make_state([(3.0, 8.0, 0.5)]), 0, False, -1.0, nxt)
    assert trainer.double_q_target(tr) == pytest.approx(-10.0)


def test_double_q_target_gamma_zero_is_reward():
    trainer = _flat_q_trainer(online_bias=5.0, target_bias=-10.0, gamma=0.0)
    nxt = make_state([(1.0, 2.0, 0.1)])
    tr = Transition(make_state([(3.0, 8.0, 0.5)]), 0, False, -1.0, nxt)
    assert trainer.double_q_target(tr) == -1.0


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
    assert again.last_epsilon == trainer.last_epsilon
    state = make_state([(3.0, 8.0, 0.5), (1.0, 2.0, 0.1)])
    assert again.online.q_values(state)[0] == pytest.approx(trainer.online.q_values(state)[0])
    assert again.rng.integers(1 << 30) == trainer.rng.integers(1 << 30)


def test_learned_policy_runs_episode():
    from dpdplab.env import run_episode

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
    action = 2
    net.zero_grad()
    _, tape = net.q_values(state)
    dq = np.zeros(4)
    dq[action] = 1.0
    net.backward(tape, dq)
    h = 1e-4
    for name, p, g in net.parameters():
        flat_p = p.reshape(-1)
        flat_g = g.reshape(-1)
        for idx in range(0, flat_p.size, 7):  # sample every 7th weight for speed
            keep = flat_p[idx]
            flat_p[idx] = keep + h
            up = net.q_values(state)[0][action]
            flat_p[idx] = keep - h
            down = net.q_values(state)[0][action]
            flat_p[idx] = keep
            numeric = (up - down) / (2 * h)
            assert relative_error(flat_g[idx], numeric) < 1e-4, (name, idx)
