import numpy as np
import pytest

from dpdplab import demand, env, routing
from dpdplab.baselines import make_greedy_policy, validate_routes
from dpdplab.demand import DemandError, capacity_profile, demand_profile, divergence_score, route_cells
from dpdplab.env import (
    UnserviceableOrderError,
    episode_demand_grid,
    instant_reward,
    long_term_reward,
    run_episode,
)
from dpdplab.instance import DEPOT, FACTORY, FleetConfig, VehicleSpec, generate_instance
from dpdplab.routing import Route, Stop, order_stops, plan_insertion

from conftest import make_instance, make_network, make_order


def test_instant_reward_charges_activation():
    assert instant_reward(0, 10.0, fixed_cost=1000.0, unit_cost=2.0, alpha=1.0) == -1020.0


def test_instant_reward_zero_for_active_idle():
    assert instant_reward(1, 0.0, fixed_cost=1000.0, unit_cost=2.0, alpha=1.0) == 0.0


def test_instant_reward_scaling():
    assert instant_reward(1, 50.0, fixed_cost=300.0, unit_cost=2.0, alpha=0.01) == pytest.approx(-1.0)


def test_long_term_reward_examples():
    assert long_term_reward([-10.0, -20.0]) == -15.0
    assert long_term_reward([-7.0]) == -7.0
    assert long_term_reward([0.0, 0.0]) == 0.0
    with pytest.raises(ValueError):
        long_term_reward([])


def test_final_rewards_add_episode_mean(line_network):
    fleet = FleetConfig(vehicles=[VehicleSpec(0, 2), VehicleSpec(1, 2)], capacity=10)
    orders = [
        make_order(0, pickup=0, delivery=1, created_at=0),
        make_order(1, pickup=0, delivery=1, created_at=200),
    ]
    inst = make_instance(line_network, orders, fleet)
    report, transitions = run_episode(inst, make_greedy_policy("incremental"), alpha=1.0)
    activated: set[int] = set()
    instants = []
    for rec in report.assignments:
        charge = fleet.fixed_cost if rec.vehicle not in activated else 0.0
        activated.add(rec.vehicle)
        instants.append(-(charge + fleet.unit_cost * rec.delta_d))
    mean = sum(instants) / len(instants)
    for tr, instant in zip(transitions, instants):
        assert tr.reward == pytest.approx(instant + mean)


def test_empty_episode(line_network):
    fleet = FleetConfig(vehicles=[VehicleSpec(0, 2)], capacity=10)
    inst = make_instance(line_network, [], fleet)
    report, transitions = run_episode(inst, make_greedy_policy("incremental"))
    assert (report.nuv, report.ttl, report.tc) == (0, 0.0, 0.0)
    assert transitions == []


def test_single_order_arithmetic():
    net = make_network(
        coords=[(3.0, 0.0), (3.0, 4.0), (0.0, 0.0)],
        roles=[FACTORY, FACTORY, DEPOT],
    )
    fleet = FleetConfig(vehicles=[VehicleSpec(0, 2)], capacity=10, fixed_cost=300.0, unit_cost=2.0)
    inst = make_instance(net, [make_order(0, pickup=0, delivery=1, created_at=0)], fleet)
    report, _ = run_episode(inst, make_greedy_policy("incremental"))
    assert report.nuv == 1
    assert report.ttl == pytest.approx(3.0 + 4.0 + 5.0)
    assert report.tc == pytest.approx(324.0)


def test_used_flag_rises_after_first_assignment(line_network):
    fleet = FleetConfig(vehicles=[VehicleSpec(0, 2)], capacity=10)
    orders = [
        make_order(0, pickup=0, delivery=1, created_at=0),
        make_order(1, pickup=0, delivery=1, created_at=30),
    ]
    inst = make_instance(line_network, orders, fleet)
    _, transitions = run_episode(inst, make_greedy_policy("incremental"))
    assert transitions[0].state.features[0, 3] == 0.0
    assert transitions[1].state.features[0, 3] == 1.0


@pytest.mark.parametrize("created_at, interval", [(0, 0), (100, 10), (725, 72)])
def test_feasible_vehicle_row(line_network, created_at, interval):
    fleet = FleetConfig(vehicles=[VehicleSpec(0, 2)], capacity=10)
    order = make_order(0, pickup=0, delivery=1, created_at=created_at)
    inst = make_instance(line_network, [order], fleet)
    now = float(created_at)
    state = env._fleet_state(order, [Route.empty(0, 2)], [0], inst, episode_demand_grid(inst), now)[0]
    cur_len, new_len, score, used_flag, row_interval = state.features[0].tolist()
    d = line_network.dist
    assert state.feasible[0]
    assert (cur_len, used_flag, row_interval) == (0.0, 0.0, float(interval))
    assert new_len == pytest.approx(d[2, 0] + d[0, 1] + d[1, 2])
    # The pickup and delivery stops form the profiles; the score is their JS value.
    best = plan_insertion(Route.empty(0, 2), order_stops(order), now, line_network, fleet).best_route
    grid = episode_demand_grid(inst)
    cells = route_cells(best, line_network.n_factories, inst.horizon)
    expected = divergence_score(capacity_profile(best, cells, fleet.capacity), demand_profile(cells, grid))
    assert score == expected
    assert 0.0 <= score <= 1.0


def test_infeasible_vehicle_has_sentinel_row(line_network):
    fleet = FleetConfig(vehicles=[VehicleSpec(0, 2)], capacity=10)
    # Quantity exceeds capacity: no feasible insertion for the only vehicle.
    inst = make_instance(
        line_network,
        [make_order(0, pickup=0, delivery=1, quantity=30, created_at=0, latest_delivery=400)],
        fleet,
    )
    routes = [Route.empty(0, 2)]
    state = env._fleet_state(inst.orders[0], routes, [0], inst, episode_demand_grid(inst), 0.0)[0]
    assert state.features[0].tolist() == [-1.0, -1.0, -1.0, -1.0, -1.0]
    assert not state.feasible[0]


def test_unserviceable_order_aborts(line_network):
    fleet = FleetConfig(vehicles=[VehicleSpec(0, 2)], capacity=10)
    inst = make_instance(
        line_network,
        [make_order(0, pickup=0, delivery=1, quantity=30, created_at=0, latest_delivery=400)],
        fleet,
    )
    with pytest.raises(UnserviceableOrderError, match="order 0"):
        run_episode(inst, make_greedy_policy("incremental"))


def test_policy_choosing_infeasible_vehicle_rejected(line_network):
    fleet = FleetConfig(vehicles=[VehicleSpec(0, 2), VehicleSpec(1, 2)], capacity=10)
    # Vehicle 1 busy far away is still feasible here, so force a bad policy instead.
    inst = make_instance(line_network, [make_order(0, created_at=0)], fleet)

    def bad_policy(state):
        return 1 if not state.feasible[1] else 0

    report, _ = run_episode(inst, bad_policy)
    assert report.nuv == 1


def test_insertion_that_alters_the_frozen_prefix_is_refused(monkeypatch):
    inst = generate_instance(seed=5, n_factories=6, n_orders=6, n_vehicles=2)
    planner = env.plan_insertion

    def tampered(route, stops, now, network, fleet):
        # A dispatched route's plan gets the order's pickup once more at its
        # last frozen stop.
        plan = planner(route, stops, now, network, fleet)
        if plan.feasible and len(route.stops) > 1:
            planned, f = plan.best_route.stops, routing.frozen_index(route, now)
            planned[f] = Stop(planned[f].node, (*planned[f].actions, *stops[0].actions))
        return plan

    monkeypatch.setattr(env, "plan_insertion", tampered)
    with pytest.raises(RuntimeError, match="altered the frozen prefix of vehicle 0"):
        run_episode(inst, make_greedy_policy("incremental"))


def test_episode_invariants_on_generated_instance():
    inst = generate_instance(seed=77, n_factories=8, n_orders=15, n_vehicles=4)
    report, transitions = run_episode(inst, make_greedy_policy("incremental"))

    assert report.tc == inst.fleet.fixed_cost * report.nuv + inst.fleet.unit_cost * report.ttl
    assert report.nuv == sum(1 for r in report.routes if any(s.actions for s in r.stops))
    assert report.nuv <= inst.n_vehicles
    assert sum(rec.delta_d for rec in report.assignments) == pytest.approx(report.ttl)

    activations = 0
    for tr in transitions:
        if tr.state.features[tr.action, 3] == 0.0:
            activations += 1
    assert activations == report.nuv

    assert len(transitions) == len(report.assignments)
    for tr, rec in zip(transitions, report.assignments):
        assert tr.action == rec.vehicle
        assert tr.reward == rec.reward

    intervals = [inst.interval_of(o.created_at) for o in inst.orders]
    for i, tr in enumerate(transitions):
        expected_end = i == len(transitions) - 1 or intervals[i] != intervals[i + 1]
        assert (tr.next_state is None) == expected_end
        if tr.next_state is not None:
            assert tr.next_state is transitions[i + 1].state

    validation = validate_routes(report, inst)
    assert validation.ok, validation.violations


def test_reward_sum_matches_scaled_cost():
    inst = generate_instance(seed=31, n_factories=6, n_orders=10, n_vehicles=3)
    alpha = 0.01
    report, transitions = run_episode(inst, make_greedy_policy("incremental"), alpha=alpha)
    # Rewards are r_i + mean(r); their sum equals 2 * sum(r_i), so recover sum(r_i):
    total_with_mean = sum(tr.reward for tr in transitions)
    total_instants = total_with_mean / 2.0
    expected = -alpha * (inst.fleet.fixed_cost * report.nuv + inst.fleet.unit_cost * report.ttl)
    assert total_instants == pytest.approx(expected)


def test_positions_follow_routes():
    inst = generate_instance(seed=5, n_factories=6, n_orders=6, n_vehicles=2)
    report, transitions = run_episode(inst, make_greedy_policy("incremental"))
    first = transitions[0].state
    depot_xy = inst.network.coords(inst.fleet.vehicles[0].depot)
    assert first.positions[0] == pytest.approx(depot_xy)
    assert first.positions[1] == pytest.approx(depot_xy)


def test_demand_grid_prefers_history():
    inst = generate_instance(seed=8, n_factories=5, n_orders=6, n_vehicles=2, history_days=2)
    grid = episode_demand_grid(inst)
    assert grid.shape == (5, 144)
    inst_no_hist = generate_instance(seed=8, n_factories=5, n_orders=6, n_vehicles=2, history_days=0)
    own = episode_demand_grid(inst_no_hist)
    assert own.sum() == sum(o.quantity for o in inst_no_hist.orders)


@pytest.mark.parametrize("shape", [(4, 144), (5, 72), (144, 5)])
def test_forecast_grid_of_another_shape_is_refused(shape):
    inst = generate_instance(seed=8, n_factories=5, n_orders=6, n_vehicles=2, history_days=0)
    grid = np.zeros(shape)
    with pytest.raises(DemandError, match=r"\(5, 144\)"):
        run_episode(inst, make_greedy_policy("incremental"), predicted=grid)


def test_determinism_same_policy():
    inst = generate_instance(seed=19, n_factories=7, n_orders=12, n_vehicles=3)
    r1, _ = run_episode(inst, make_greedy_policy("total"))
    r2, _ = run_episode(inst, make_greedy_policy("total"))
    assert r1.tc == r2.tc
    assert [a.vehicle for a in r1.assignments] == [a.vehicle for a in r2.assignments]
    assert r1.trace_lines() == r2.trace_lines()

    def stable(report):
        doc = report.to_dict()
        doc.pop("decision_seconds_mean")
        doc.pop("decision_seconds_max")
        return doc

    assert stable(r1) == stable(r2)


def test_demand_score_is_computed_once_per_idle_depot_class(monkeypatch):
    """Column 2 equals a per-vehicle recomputation bit for bit, every idle
    vehicle's feature row and position equal the first idle vehicle's at its
    depot, the score is computed once per feasible dispatched vehicle and
    per feasible idle depot class, and the position once per dispatched
    vehicle and per idle depot class."""
    inst = generate_instance(
        seed=4, n_factories=8, n_orders=24, n_vehicles=6, n_depots=2, service_time=2.0, speed=0.25
    )
    grid = episode_demand_grid(inst)
    depots = [v.depot for v in inst.fleet.vehicles]
    planner, plans, score_calls, position_calls = env.plan_insertion, [], [], []
    position = routing.vehicle_position

    def recording_planner(*args):
        plans.append(planner(*args))
        return plans[-1]

    def counting_score(*args):
        score_calls.append(args)
        return divergence_score(*args)

    def counting_position(*args):
        position_calls.append(args)
        return position(*args)

    monkeypatch.setattr(env, "plan_insertion", recording_planner)
    monkeypatch.setattr(demand, "divergence_score", counting_score)
    monkeypatch.setattr(routing, "vehicle_position", counting_position)
    greedy = make_greedy_policy("incremental")
    seen = {"dispatched": 0, "depots_differ": 0}

    def checking_policy(state):
        assert len(plans) == state.n_vehicles
        for k, plan in enumerate(plans):
            if plan.feasible:
                best = plan.best_route
                cells = route_cells(best, inst.network.n_factories, inst.horizon)
                expected = divergence_score(capacity_profile(best, cells, inst.fleet.capacity), demand_profile(cells, grid))
                assert state.features[k, 2] == expected
        first_idle: dict[int, int] = {}
        dispatched = 0
        for k in range(state.n_vehicles):
            if state.accepted[k] == 0:
                first = first_idle.setdefault(depots[k], k)
                assert state.features[k].tobytes() == state.features[first].tobytes()
                assert state.positions[k].tobytes() == state.positions[first].tobytes()
            elif state.feasible[k]:
                dispatched += 1
        idle_classes = sum(1 for k in first_idle.values() if state.feasible[k])
        assert len(score_calls) == dispatched + idle_classes
        assert len(position_calls) == int((state.accepted > 0).sum()) + len(first_idle)
        seen["dispatched"] += dispatched
        idle_scores = {state.features[k, 2] for k in first_idle.values() if state.feasible[k]}
        seen["depots_differ"] += len(idle_scores) > 1
        plans.clear()
        score_calls.clear()
        position_calls.clear()
        return greedy(state)

    run_episode(inst, checking_policy)
    # The episode scores dispatched vehicles, and the two depots' idle
    # classes score differently, so a memo keyed on less than the depot fails.
    assert seen["dispatched"] > 0 and seen["depots_differ"] > 0
