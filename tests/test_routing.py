import numpy as np
import pytest

from dpdplab.instance import DEPOT, FACTORY, FleetConfig, VehicleSpec, generate_instance
from dpdplab.routing import (
    DELIVER,
    PICKUP,
    Action,
    Route,
    Stop,
    check_feasibility,
    frozen_index,
    plan_insertion,
    route_dump,
    simulate_timeline,
    vehicle_position,
)

from conftest import make_network, make_order
from oracles import brute_force_best_insertion


def _route(depot, stops, vehicle=0):
    return Route(vehicle=vehicle, depot=depot, stops=stops)


def test_empty_route_length_zero(line_network):
    route = Route.empty(0, depot=2)
    simulate_timeline(route, line_network, 0.0)
    assert route.length == 0.0
    assert route.stops[0].arrival == route.stops[0].departure == 0.0


def test_out_and_back_arithmetic():
    net = make_network(
        coords=[(5.0, 0.0), (9.0, 0.0), (0.0, 0.0)],
        roles=[FACTORY, FACTORY, DEPOT],
    )
    o = make_order(pickup=0, delivery=1, created_at=0)
    route = _route(2, [
        Stop(2),
        Stop(0, [Action(PICKUP, o)]),
        Stop(1, [Action(DELIVER, o)]),
        Stop(2),
    ])
    simulate_timeline(route, net, 0.0)
    assert route.stops[1].arrival == pytest.approx(5.0)
    assert route.stops[2].arrival == pytest.approx(9.0)
    assert route.stops[3].arrival == pytest.approx(18.0)
    assert route.length == pytest.approx(5.0 + 4.0 + 9.0)


def test_pickup_waits_for_creation(line_network):
    o = make_order(pickup=0, delivery=1, created_at=20)
    route = _route(2, [Stop(2), Stop(0, [Action(PICKUP, o)]), Stop(1, [Action(DELIVER, o)]), Stop(2)])
    simulate_timeline(route, line_network, 0.0)
    assert route.stops[1].arrival == pytest.approx(3.0)
    assert route.stops[1].departure >= 20.0


def test_service_time_per_action():
    net = make_network(
        coords=[(3.0, 0.0), (7.0, 0.0), (0.0, 0.0)],
        roles=[FACTORY, FACTORY, DEPOT],
        service_time=4.0,
    )
    o1 = make_order(0, pickup=0, delivery=1)
    o2 = make_order(1, pickup=0, delivery=1, quantity=2)
    route = _route(2, [
        Stop(2),
        Stop(0, [Action(PICKUP, o1), Action(PICKUP, o2)]),
        Stop(1, [Action(DELIVER, o2), Action(DELIVER, o1)]),
        Stop(2),
    ])
    simulate_timeline(route, net, 0.0)
    stop = route.stops[1]
    assert stop.departure - stop.arrival == pytest.approx(8.0)
    assert [w.load for w in route.walk] == [0, 3, 0, 0]
    assert route.walk[1].stack == (0, 1)


def test_nested_pairs_feasible(line_network, line_fleet):
    o1 = make_order(0, pickup=0, delivery=1)
    o2 = make_order(1, pickup=1, delivery=0)
    route = _route(2, [
        Stop(2),
        Stop(0, [Action(PICKUP, o1)]),
        Stop(1, [Action(PICKUP, o2)]),
        Stop(0, [Action(DELIVER, o2)]),
        Stop(1, [Action(DELIVER, o1)]),
        Stop(2),
    ])
    simulate_timeline(route, line_network, 0.0)
    assert check_feasibility(route, line_network, line_fleet).feasible


def _crossed_route(network):
    o1 = make_order(0, pickup=0, delivery=1)
    o2 = make_order(1, pickup=1, delivery=0)
    route = _route(2, [
        Stop(2),
        Stop(0, [Action(PICKUP, o1)]),
        Stop(1, [Action(PICKUP, o2), Action(DELIVER, o1)]),
        Stop(0, [Action(DELIVER, o2)]),
        Stop(2),
    ])
    return simulate_timeline(route, network, 0.0)


def _overloaded_route(network):
    o1 = make_order(0, quantity=6)
    o2 = make_order(1, quantity=6)
    route = _route(2, [
        Stop(2),
        Stop(0, [Action(PICKUP, o1), Action(PICKUP, o2)]),
        Stop(1, [Action(DELIVER, o2), Action(DELIVER, o1)]),
        Stop(2),
    ])
    return simulate_timeline(route, network, 0.0)


def _late_route(network):
    o = make_order(0, created_at=0, latest_delivery=5)
    route = _route(2, [Stop(2), Stop(0, [Action(PICKUP, o)]), Stop(1, [Action(DELIVER, o)]), Stop(2)])
    return simulate_timeline(route, network, 0.0)


def test_crossed_pairs_violate_lifo(line_network, line_fleet):
    verdict = check_feasibility(_crossed_route(line_network), line_network, line_fleet)
    assert not verdict.feasible
    assert verdict.violation == "lifo"


def test_capacity_violation(line_network):
    fleet = FleetConfig(vehicles=[VehicleSpec(0, 2)], capacity=10)
    verdict = check_feasibility(_overloaded_route(line_network), line_network, fleet)
    assert verdict.violation == "capacity"


def test_late_delivery_violates_window(line_network, line_fleet):
    verdict = check_feasibility(_late_route(line_network), line_network, line_fleet)
    assert verdict.violation == "time-window"


@pytest.mark.parametrize("build", [_crossed_route, _late_route, _overloaded_route])
def test_plan_refuses_infeasible_committed_route(build, line_network, line_fleet):
    route = build(line_network)
    o = make_order(5, pickup=0, delivery=1, created_at=0)
    with pytest.raises(RuntimeError, match="became infeasible"):
        plan_insertion(route, o, 0.0, line_network, line_fleet)


def _unsimulated_route():
    o1 = make_order(0, pickup=0, delivery=1, created_at=0)
    o3 = make_order(3, pickup=1, delivery=0, created_at=0)
    return _route(2, [
        Stop(2),
        Stop(0, [Action(PICKUP, o1)]),
        Stop(1, [Action(DELIVER, o1), Action(PICKUP, o3)]),
        Stop(0, [Action(DELIVER, o3)]),
        Stop(2),
    ])


@pytest.mark.parametrize("deadline", [16, 30])
def test_unsimulated_route_is_walked_from_now(deadline, line_network, line_fleet):
    # From minute 10 the new order reaches node 1 at 17 at the earliest, so
    # the deadline of 16 only fits a walk that wrongly starts at minute 0.
    route = _unsimulated_route()
    o = make_order(8, pickup=0, delivery=1, created_at=0, latest_delivery=deadline)
    res = plan_insertion(route, o, 10.0, line_network, line_fleet)
    oracle = brute_force_best_insertion(route, o, 10.0, line_network, line_fleet)
    if oracle is None:
        assert not res.feasible
    else:
        assert res.feasible
        assert res.new_len == pytest.approx(oracle, abs=1e-9)
    assert route.start_time is None
    assert all(s.arrival == s.departure == 0.0 for s in route.stops)


def test_route_must_return_to_depot(line_network, line_fleet):
    o = make_order(0)
    route = _route(2, [Stop(2), Stop(0, [Action(PICKUP, o)]), Stop(1, [Action(DELIVER, o)])])
    simulate_timeline(route, line_network, 0.0)
    assert check_feasibility(route, line_network, line_fleet).violation == "back-to-depot"


def test_plan_on_empty_route(line_network, line_fleet):
    route = Route.empty(0, depot=2)
    o = make_order(0, pickup=0, delivery=1, created_at=0)
    res = plan_insertion(route, o, 0.0, line_network, line_fleet)
    assert res.feasible
    nodes = [s.node for s in res.best_route.stops]
    assert nodes == [2, 0, 1, 2]
    d = line_network.dist
    assert res.new_len == pytest.approx(d[2, 0] + d[0, 1] + d[1, 2])
    assert res.cur_len == 0.0


def test_plan_infeasible_returns_sentinels(line_network, line_fleet):
    route = Route.empty(0, depot=2)
    o = make_order(0, pickup=0, delivery=1, created_at=100, latest_delivery=102)
    res = plan_insertion(route, o, 100.0, line_network, line_fleet)
    assert not res.feasible
    assert (res.cur_len, res.new_len) == (-1, -1)
    assert res.best_route is None


def test_plan_matches_brute_force_small(line_network, line_fleet):
    route = Route.empty(0, depot=2)
    orders = [
        make_order(0, pickup=0, delivery=1, created_at=0),
        make_order(1, pickup=1, delivery=0, created_at=0),
        make_order(2, pickup=0, delivery=1, created_at=0),
    ]
    now = 0.0
    for o in orders:
        res = plan_insertion(route, o, now, line_network, line_fleet)
        oracle = brute_force_best_insertion(route, o, now, line_network, line_fleet)
        assert res.feasible and oracle is not None
        assert res.new_len == pytest.approx(oracle, abs=1e-9)
        route = res.best_route


def test_plan_tie_breaks_to_earliest_gap():
    # Insertion before or after the existing stop costs the same by symmetry;
    # the earlier gap pair must win.
    net = make_network(
        coords=[(0.0, 1.0), (0.0, -1.0), (-1.0, 0.0), (0.0, 0.0)],
        roles=[FACTORY, FACTORY, FACTORY, DEPOT],
    )
    fleet = FleetConfig(vehicles=[VehicleSpec(0, 3)], capacity=10)
    base_order = make_order(7, pickup=2, delivery=2 + 0, created_at=0)  # placeholder
    base_order = make_order(7, pickup=2, delivery=0, created_at=0)
    route = Route.empty(0, depot=3)
    route = plan_insertion(route, base_order, 0.0, net, fleet).best_route
    o = make_order(8, pickup=0, delivery=1, created_at=0)
    res = plan_insertion(route, o, 0.0, net, fleet)
    oracle = brute_force_best_insertion(route, o, 0.0, net, fleet)
    assert res.new_len == pytest.approx(oracle, abs=1e-9)
    sig = [s.signature() for s in res.best_route.stops]
    first_new = min(i for i, s in enumerate(sig) if any(a == ("pickup", 8) for a in s[1]))
    alt = [i for i, s in enumerate(sig) if any(a == ("deliver", 8) for a in s[1])]
    assert first_new < alt[0]


def test_frozen_prefix_preserved(line_network, line_fleet):
    o1 = make_order(0, pickup=0, delivery=1, created_at=0)
    route = plan_insertion(Route.empty(0, 2), o1, 0.0, line_network, line_fleet).best_route
    # At minute 4 the vehicle is driving toward the delivery stop (index 2).
    now = 4.0
    frozen = frozen_index(route, now)
    assert frozen == 2
    o2 = make_order(1, pickup=0, delivery=1, created_at=4)
    res = plan_insertion(route, o2, now, line_network, line_fleet)
    assert res.feasible
    assert res.best_route.signatures()[: frozen + 1] == route.signatures()[: frozen + 1]


def test_completed_route_extends_with_new_trip(line_network, line_fleet):
    o1 = make_order(0, pickup=0, delivery=1, created_at=0)
    route = plan_insertion(Route.empty(0, 2), o1, 0.0, line_network, line_fleet).best_route
    finish = route.stops[-1].departure
    now = finish + 100.0
    o2 = make_order(1, pickup=1, delivery=0, created_at=int(now))
    res = plan_insertion(route, o2, now, line_network, line_fleet)
    assert res.feasible
    nodes = [s.node for s in res.best_route.stops]
    assert nodes == [2, 0, 1, 2, 1, 0, 2]
    assert res.new_len > res.cur_len


def test_same_node_pickup_merges_into_stop(line_network, line_fleet):
    o1 = make_order(0, pickup=0, delivery=1, created_at=0)
    route = plan_insertion(Route.empty(0, 2), o1, 0.0, line_network, line_fleet).best_route
    o2 = make_order(1, pickup=1, delivery=0, created_at=0)
    res = plan_insertion(route, o2, 0.0, line_network, line_fleet)
    nodes = [s.node for s in res.best_route.stops]
    assert nodes.count(1) == 1  # delivery of o1 and pickup of o2 share one stop
    merged = [s for s in res.best_route.stops if s.node == 1][0]
    assert len(merged.actions) == 2


def test_plan_infeasible_mid_route_agrees_with_oracle(line_network, line_fleet):
    o1 = make_order(0, pickup=0, delivery=1, quantity=9, created_at=0, latest_delivery=60)
    route = plan_insertion(Route.empty(0, 2), o1, 0.0, line_network, line_fleet).best_route
    # Overweight while o1 is aboard and too late to sequence around it.
    o2 = make_order(1, pickup=0, delivery=1, quantity=9, created_at=4, latest_delivery=9)
    res = plan_insertion(route, o2, 4.0, line_network, line_fleet)
    oracle = brute_force_best_insertion(route, o2, 4.0, line_network, line_fleet)
    assert oracle is None
    assert not res.feasible


def test_vehicle_position_interpolates(line_network):
    o = make_order(0, pickup=0, delivery=1, created_at=0)
    fleet = FleetConfig(vehicles=[VehicleSpec(0, 2)], capacity=10)
    route = plan_insertion(Route.empty(0, 2), o, 0.0, line_network, fleet).best_route
    x, y = vehicle_position(route, line_network, 1.5)
    assert (x, y) == pytest.approx((1.5, 0.0))
    assert vehicle_position(route, line_network, 1e9) == line_network.coords(2)


def test_route_dump_format(line_network, line_fleet):
    o = make_order(0, pickup=0, delivery=1, created_at=0)
    route = plan_insertion(Route.empty(0, 2), o, 0.0, line_network, line_fleet).best_route
    lines = route_dump(route).splitlines()
    assert len(lines) == 4
    assert lines[1].endswith("+0")
    assert lines[2].endswith("-0")


def _random_case(rng):
    inst = generate_instance(
        seed=int(rng.integers(1_000_000)),
        n_factories=int(rng.integers(3, 7)),
        n_orders=4,
        n_vehicles=1,
        capacity=int(rng.integers(4, 10)),
        service_time=float(rng.choice([0.0, 2.0])),
    )
    fleet = inst.fleet
    net = inst.network
    route = Route.empty(0, fleet.vehicles[0].depot)
    committed = 0
    new_order = None
    now = 0.0
    for o in inst.orders:
        now = float(o.created_at) + float(rng.uniform(0, 30))
        if committed < int(rng.integers(0, 4)):
            res = plan_insertion(route, o, o.created_at, net, fleet)
            if res.feasible:
                route = res.best_route
                committed += 1
                continue
        new_order = o
        break
    return inst, route, new_order, now


def test_planner_matches_oracle_fuzz():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 60:
        inst, route, order, now = _random_case(rng)
        if order is None:
            continue
        now = max(now, float(order.created_at))
        res = plan_insertion(route, order, now, inst.network, inst.fleet)
        oracle = brute_force_best_insertion(route, order, now, inst.network, inst.fleet)
        if oracle is None:
            assert not res.feasible
        else:
            assert res.feasible
            assert res.new_len == pytest.approx(oracle, abs=1e-9)
            assert res.new_len >= res.cur_len - 1e-12
            verdict = check_feasibility(res.best_route, inst.network, inst.fleet)
            assert verdict.feasible, verdict.detail
            new_actions = [
                a.signature() for s in res.best_route.stops for a in s.actions
                if a.order.id == order.id
            ]
            assert new_actions == [("pickup", order.id), ("deliver", order.id)]
        checked += 1
