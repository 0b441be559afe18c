import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpdplab import routing
from dpdplab.instance import DEPOT, FACTORY, FleetConfig, VehicleSpec, generate_instance
from dpdplab.routing import (
    DELIVER,
    PICKUP,
    Action,
    Route,
    Stop,
    depart,
    frozen_index,
    order_stops,
    plan_insertion,
    simulate_timeline,
    vehicle_position,
)

from conftest import make_network, make_order
from oracles import (
    brute_force_best_insertion,
    frozen_index_reference,
    route_walk_length,
    vehicle_position_reference,
)
import test_pinned_outputs
from test_pinned_outputs import _planner_corpus


def _walked(stops, network, minute=0.0, vehicle=0, capacity=10):
    """The route of ``vehicle`` through ``stops`` at ``capacity`` (that of
    ``line_fleet``), leaving its first stop at ``minute``."""
    return simulate_timeline(vehicle, stops, network, capacity, depart(stops[0].node, minute))


def test_empty_route_length_zero(line_network):
    route = Route.empty(0, depot=2)
    assert route == _walked([Stop(2)], line_network)
    assert route.length == 0.0
    assert route.walk[0].arrival == route.walk[0].departure == 0.0


def test_out_and_back_arithmetic():
    net = make_network(
        coords=[(5.0, 0.0), (9.0, 0.0), (0.0, 0.0)],
        roles=[FACTORY, FACTORY, DEPOT],
    )
    o = make_order(pickup=0, delivery=1, created_at=0)
    route = _walked([
        Stop(2),
        Stop(0, (Action(PICKUP, o),)),
        Stop(1, (Action(DELIVER, o),)),
        Stop(2),
    ], net)
    assert route.walk[1].arrival == pytest.approx(5.0)
    assert route.walk[2].arrival == pytest.approx(9.0)
    assert route.walk[3].arrival == pytest.approx(18.0)
    assert route.length == pytest.approx(5.0 + 4.0 + 9.0)


def test_pickup_waits_for_creation(line_network):
    o = make_order(pickup=0, delivery=1, created_at=20)
    route = _walked([Stop(2), Stop(0, (Action(PICKUP, o),)), Stop(1, (Action(DELIVER, o),)), Stop(2)], line_network)
    assert route.walk[1].arrival == pytest.approx(3.0)
    assert route.walk[1].departure >= 20.0


def test_service_time_per_action():
    net = make_network(
        coords=[(3.0, 0.0), (7.0, 0.0), (0.0, 0.0)],
        roles=[FACTORY, FACTORY, DEPOT],
        service_time=4.0,
    )
    o1 = make_order(0, pickup=0, delivery=1)
    o2 = make_order(1, pickup=0, delivery=1, quantity=2)
    route = _walked([
        Stop(2),
        Stop(0, (Action(PICKUP, o1), Action(PICKUP, o2))),
        Stop(1, (Action(DELIVER, o2), Action(DELIVER, o1))),
        Stop(2),
    ], net)
    state = route.walk[1]
    assert state.departure - state.arrival == pytest.approx(8.0)
    assert [w.load for w in route.walk] == [0, 3, 0, 0]
    assert route.walk[1].stack == (0, 1)


def test_nested_pairs_feasible(line_network, line_fleet):
    o1 = make_order(0, pickup=0, delivery=1)
    o2 = make_order(1, pickup=1, delivery=0)
    route = _walked([
        Stop(2),
        Stop(0, (Action(PICKUP, o1),)),
        Stop(1, (Action(PICKUP, o2),)),
        Stop(0, (Action(DELIVER, o2),)),
        Stop(1, (Action(DELIVER, o1),)),
        Stop(2),
    ], line_network)
    length = route_walk_length(route, line_network, line_fleet.capacity)
    assert length == pytest.approx(route.length, abs=1e-9)
    assert route.stops[0].node == route.stops[-1].node == 2


def _crossed_route(swap=True):
    o1 = make_order(0, pickup=0, delivery=1)
    o2 = make_order(1, pickup=1, delivery=0)
    shared = (Action(PICKUP, o2), Action(DELIVER, o1))
    return [
        Stop(2),
        Stop(0, (Action(PICKUP, o1),)),
        Stop(1, shared if swap else shared[::-1]),
        Stop(0, (Action(DELIVER, o2),)),
        Stop(2),
    ]


def _overloaded_route(quantity=6):
    o1 = make_order(0, quantity=quantity)
    o2 = make_order(1, quantity=quantity)
    return [
        Stop(2),
        Stop(0, (Action(PICKUP, o1), Action(PICKUP, o2))),
        Stop(1, (Action(DELIVER, o2), Action(DELIVER, o1))),
        Stop(2),
    ]


def _late_route(latest_delivery=5):
    # The delivery at node 1, 7 km out, finishes at minute 7.
    o = make_order(0, created_at=0, latest_delivery=latest_delivery)
    return [Stop(2), Stop(0, (Action(PICKUP, o),)), Stop(1, (Action(DELIVER, o),)), Stop(2)]


@pytest.mark.parametrize(
    "build, violation, stop, feasible",
    [
        (_crossed_route, "lifo", 2, dict(swap=False)),
        (_late_route, "time-window", 2, dict(latest_delivery=7)),
        (_overloaded_route, "capacity", 1, dict(quantity=5)),
    ],
)
def test_simulate_timeline_refuses_every_violation(build, violation, stop, feasible, line_network):
    with pytest.raises(ValueError, match=f"^{violation} violation at stop {stop} of vehicle 0's route$"):
        _walked(build(), line_network)
    # A load of exactly the capacity and a delivery that finishes exactly at
    # its deadline are feasible.
    stops = build(**feasible)
    route = _walked(stops, line_network)
    assert len(route.walk) == len(stops)


@pytest.mark.parametrize("deadline", [16, 30])
def test_idle_route_is_planned_from_now(deadline, line_network, line_fleet):
    # From minute 10 the new order reaches node 1 at 17 at the earliest, so
    # the deadline of 16 only fits a walk that wrongly starts at minute 0.
    route = Route.empty(0, depot=2)
    o = make_order(8, pickup=0, delivery=1, created_at=0, latest_delivery=deadline)
    res = plan_insertion(route, order_stops(o), 10.0, line_network, line_fleet)
    oracle = brute_force_best_insertion(route, o, 10.0, line_network, line_fleet)
    if oracle is None:
        assert deadline == 16
        assert not res.feasible
    else:
        assert res.feasible
        assert res.best_route.length == pytest.approx(oracle, abs=1e-9)
        assert res.best_route.walk[0].departure == 10.0
    assert route.walk == Route.empty(0, depot=2).walk


def test_plan_on_empty_route(line_network, line_fleet):
    route = Route.empty(0, depot=2)
    o = make_order(0, pickup=0, delivery=1, created_at=0)
    res = plan_insertion(route, order_stops(o), 0.0, line_network, line_fleet)
    assert res.feasible
    nodes = [s.node for s in res.best_route.stops]
    assert nodes == [2, 0, 1, 2]
    d = line_network.dist
    assert res.best_route.length == pytest.approx(d[2, 0] + d[0, 1] + d[1, 2])
    assert route.length == 0.0


def test_plan_infeasible_has_no_route(line_network, line_fleet):
    route = Route.empty(0, depot=2)
    o = make_order(0, pickup=0, delivery=1, created_at=100, latest_delivery=102)
    res = plan_insertion(route, order_stops(o), 100.0, line_network, line_fleet)
    assert not res.feasible
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
        res = plan_insertion(route, order_stops(o), now, line_network, line_fleet)
        oracle = brute_force_best_insertion(route, o, now, line_network, line_fleet)
        assert res.feasible and oracle is not None
        assert res.best_route.length == pytest.approx(oracle, abs=1e-9)
        route = res.best_route


def test_plan_tie_breaks_to_earliest_gap(line_network, line_fleet):
    # Route depot -> 7 km (pick o1) -> 3 km (drop o1) -> depot.  A new order
    # from 3 km to 7 km fits inside o1's trip (gap pair (2, 2), 7+4+4+4+3) or
    # after it (gap pair (3, 3), 7+4+0+4+7): both are 22.0 exactly, and the
    # earlier gap pair wins.
    o1 = make_order(0, pickup=1, delivery=0, created_at=0)
    route = plan_insertion(Route.empty(0, 2), order_stops(o1), 0.0, line_network, line_fleet).best_route
    o2 = make_order(1, pickup=0, delivery=1, created_at=0)
    res = plan_insertion(route, order_stops(o2), 0.0, line_network, line_fleet)
    assert res.best_route.length == 22.0 == brute_force_best_insertion(route, o2, 0.0, line_network, line_fleet)
    assert res.best_route.stops == [
        Stop(2),
        Stop(1, (Action(PICKUP, o1),)),
        Stop(0, (Action(PICKUP, o2),)),
        Stop(1, (Action(DELIVER, o2),)),
        Stop(0, (Action(DELIVER, o1),)),
        Stop(2),
    ]


def test_plan_keeps_a_pair_that_wraps_a_committed_pair():
    # Depot 4 at x=0 and factories 0-3 at x=2, 4, 6, 8.  The committed pair
    # a runs from 4 to 6; the new order from 2 to 8 wraps it (length 16),
    # where the next best pairs, nested inside a or before it, are 20.  Its
    # delivery gap follows a committed delivery, and the load at P_a is
    # exactly the capacity.
    network = make_network(coords=[(2, 0), (4, 0), (6, 0), (8, 0), (0, 0)], roles=[FACTORY] * 4 + [DEPOT])
    fleet = FleetConfig(vehicles=[VehicleSpec(0, 4)], capacity=5)
    a = make_order(0, pickup=1, delivery=2, quantity=3)
    route = _walked([Stop(4), *order_stops(a), Stop(4)], network, minute=10.0, capacity=5)
    new = make_order(1, pickup=0, delivery=3, quantity=2)
    assert frozen_index(route, 0.0) == 0
    pick, drop = order_stops(new)
    res = plan_insertion(route, (pick, drop), 0.0, network, fleet)
    assert res.best_route.stops == [Stop(4), pick, *order_stops(a), drop, Stop(4)]
    assert res.best_route.length == 16.0 == brute_force_best_insertion(route, new, 0.0, network, fleet)
    assert max(w.load for w in res.best_route.walk) == fleet.capacity


def _merged_dip_case():
    # Depot 4 at x=0, P_a at 4, one stop at 6 that delivers a and then
    # picks up b, D_b at 8.  The stack dips inside the stop but not across
    # it, so the new pair from 5 to 7 around that stop (length 16) passes
    # the scan, and its walk finds a delivered from under the new order.
    network = make_network(
        coords=[(4, 0), (6, 0), (8, 0), (5, 0), (0, 0), (7, 0)], roles=[FACTORY] * 4 + [DEPOT, FACTORY]
    )
    a, b = make_order(0, pickup=0, delivery=1), make_order(1, pickup=1, delivery=2)
    stops = [Stop(4), Stop(0, (Action(PICKUP, a),)), Stop(1, (Action(DELIVER, a), Action(PICKUP, b))),
             Stop(2, (Action(DELIVER, b),)), Stop(4)]
    return network, stops, make_order(2, pickup=3, delivery=5), "lifo"


def _late_nested_case():
    # Depot 3 at x=0, P_b at 4, D_b at 8, one minute of service per action
    # and b due when its committed walk, leaving at minute 1, delivers it.
    # Wrapping b in the new pair from 2 to 10 (length 20) passes the scan;
    # its pickup's service makes b late, and every pair before D_b delays
    # it, so the new pair goes after b (length 32).
    network = make_network(
        coords=[(2, 0), (4, 0), (8, 0), (0, 0), (10, 0)], roles=[FACTORY] * 3 + [DEPOT, FACTORY], service_time=1.0
    )
    b = make_order(0, pickup=1, delivery=2, latest_delivery=11)
    return network, [Stop(3), *order_stops(b), Stop(3)], make_order(1, pickup=0, delivery=4), "time-window"


@pytest.mark.parametrize("case", [_merged_dip_case, _late_nested_case])
def test_walk_refuses_pairs_the_scan_keeps(case, monkeypatch):
    network, stops, new, refusal = case()
    fleet = FleetConfig(vehicles=[VehicleSpec(0, stops[0].node)], capacity=10)
    route = _walked(stops, network, minute=1.0)
    walk, violations = routing._walk, []

    def recorded(*args, **kwargs):
        state, violation = walk(*args, **kwargs)
        violations.append(violation)
        return state, violation

    monkeypatch.setattr(routing, "_walk", recorded)
    res = plan_insertion(route, order_stops(new), 0.0, network, fleet)
    assert refusal in violations
    assert res.best_route.length == brute_force_best_insertion(route, new, 0.0, network, fleet)


def test_frozen_prefix_preserved(line_network, line_fleet):
    o1 = make_order(0, pickup=0, delivery=1, created_at=0)
    route = plan_insertion(Route.empty(0, 2), order_stops(o1), 0.0, line_network, line_fleet).best_route
    # At minute 4 the vehicle is driving toward the delivery stop (index 2).
    now = 4.0
    frozen = frozen_index(route, now)
    assert frozen == 2
    o2 = make_order(1, pickup=0, delivery=1, created_at=4)
    res = plan_insertion(route, order_stops(o2), now, line_network, line_fleet)
    assert res.feasible
    assert res.best_route.stops[: frozen + 1] == route.stops[: frozen + 1]


def test_completed_route_extends_with_new_trip(line_network, line_fleet):
    o1 = make_order(0, pickup=0, delivery=1, created_at=0)
    route = plan_insertion(Route.empty(0, 2), order_stops(o1), 0.0, line_network, line_fleet).best_route
    finish = route.walk[-1].departure
    now = finish + 100.0
    o2 = make_order(1, pickup=1, delivery=0, created_at=int(now))
    res = plan_insertion(route, order_stops(o2), now, line_network, line_fleet)
    assert res.feasible
    nodes = [s.node for s in res.best_route.stops]
    assert nodes == [2, 0, 1, 2, 1, 0, 2]
    assert res.best_route.length > route.length


def _nothing_live_route(shape, network, fleet):
    """A route with nothing left to serve at the returned minute: never
    dispatched, completed, or driving to its final depot stop."""
    if shape == "never dispatched":
        return Route.empty(0, 2), 10.0
    o1 = make_order(0, pickup=0, delivery=1, created_at=0)
    route = plan_insertion(Route.empty(0, 2), order_stops(o1), 0.0, network, fleet).best_route
    # The trip leaves node 1 at minute 7 and is back at the depot at 14.
    return route, 114.0 if shape == "completed" else 10.0


@pytest.mark.parametrize("slack", [3, 60])
@pytest.mark.parametrize("shape", ["never dispatched", "completed", "driving home"])
def test_nothing_live_plan_matches_oracle(shape, slack, line_network, line_fleet):
    route, now = _nothing_live_route(shape, line_network, line_fleet)
    assert frozen_index(route, now) == len(route.stops) - 1
    assert (now >= route.walk[-1].departure) == (shape != "driving home")
    o = make_order(1, pickup=1, delivery=0, created_at=int(now), latest_delivery=int(now) + slack)
    res = plan_insertion(route, order_stops(o), now, line_network, line_fleet)
    oracle = brute_force_best_insertion(route, o, now, line_network, line_fleet)
    # Every shape delivers at least 4 minutes after the order is created.
    assert (oracle is not None) == (slack == 60) == res.feasible
    if res.feasible:
        best = res.best_route
        assert best.length == pytest.approx(oracle, abs=1e-9)
        assert [s.node for s in best.stops] == [s.node for s in route.stops] + [1, 0, 2]
        fresh = _walked(list(best.stops), line_network, best.walk[0].departure)
        assert fresh.walk == best.walk


def test_plans_that_share_stops_stay_independent(line_network):
    fleet = FleetConfig(vehicles=[VehicleSpec(k, 2) for k in range(4)], capacity=10)
    o1 = make_order(0, pickup=0, delivery=1, created_at=0)
    completed = plan_insertion(Route.empty(3, 2), order_stops(o1), 0.0, line_network, fleet).best_route
    routes = [Route.empty(0, 2), Route.empty(1, 2), Route.empty(2, 2), completed]
    committed = (list(completed.stops), list(completed.walk))
    o2 = make_order(1, pickup=1, delivery=0, created_at=114)
    stops = order_stops(o2)
    plans = [plan_insertion(route, stops, 114.0, line_network, fleet).best_route for route in routes]
    assert (completed.stops, completed.walk) == committed
    for plan in plans:
        assert plan.stops[-3] is stops[0] and plan.stops[-2] is stops[1]
        assert plan.length == route_walk_length(plan, line_network, fleet.capacity)
    before = [(list(plan.stops), list(plan.walk)) for plan in plans]

    # Vehicle 1 takes the order, and a third order is planned onto its route
    # while it drives to the shared pickup stop.
    routes[1] = plans[1]
    o3 = make_order(2, pickup=0, delivery=1, created_at=115)
    res = plan_insertion(routes[1], order_stops(o3), 115.0, line_network, fleet)
    assert res.feasible and frozen_index(routes[1], 115.0) == 1
    assert (res.best_route.stops, res.best_route.walk) != before[1]
    for k in (0, 2, 3):
        assert (plans[k].stops, plans[k].walk) == before[k]
    assert (plans[1].stops, plans[1].walk) == before[1]


def test_simulate_timeline_takes_its_start_as_the_walk(line_network):
    o = make_order(0, pickup=0, delivery=1, created_at=5)
    stops = [Stop(2), *order_stops(o), Stop(2)]
    fresh = _walked(stops, line_network, 2.0)
    for kept in (1, 2, len(stops)):
        start = fresh.walk[:kept]
        route = simulate_timeline(3, stops, line_network, 10, start)
        assert route.walk is start and route.stops is stops
        assert route == Route(3, stops, fresh.walk)


def test_route_fields_have_no_defaults():
    # A route cannot be built without its walk.
    fields = dataclasses.fields(Route)
    assert [f.name for f in fields] == ["vehicle", "stops", "walk"]
    for f in fields:
        assert f.default is f.default_factory is dataclasses.MISSING, f.name


def test_planning_never_changes_its_input_route(monkeypatch):
    plan = test_pinned_outputs.plan_insertion
    plans = 0

    def checked(route, *args):
        nonlocal plans
        before = (list(route.stops), list(route.walk))
        res = plan(route, *args)
        assert (route.stops, route.walk) == before
        plans += 1
        return res

    monkeypatch.setattr(test_pinned_outputs, "plan_insertion", checked)
    for _ in _planner_corpus():
        pass
    assert plans == 3600


def test_simulate_timeline_runs_once_per_feasible_plan(monkeypatch):
    timelines = []
    simulate = routing.simulate_timeline

    def counted(*args):
        timelines.append(simulate(*args))
        return timelines[-1]

    monkeypatch.setattr(routing, "simulate_timeline", counted)
    feasible = 0
    for _, _, _, res in _planner_corpus():
        assert timelines == ([res.best_route] if res.feasible else [])
        feasible += res.feasible
        timelines.clear()
    assert 0 < feasible < 3600


def test_same_node_pickup_merges_into_stop(line_network, line_fleet):
    o1 = make_order(0, pickup=0, delivery=1, created_at=0)
    route = plan_insertion(Route.empty(0, 2), order_stops(o1), 0.0, line_network, line_fleet).best_route
    o2 = make_order(1, pickup=1, delivery=0, created_at=0)
    res = plan_insertion(route, order_stops(o2), 0.0, line_network, line_fleet)
    nodes = [s.node for s in res.best_route.stops]
    assert nodes.count(1) == 1  # delivery of o1 and pickup of o2 share one stop
    merged = [s for s in res.best_route.stops if s.node == 1][0]
    assert len(merged.actions) == 2


def test_plan_infeasible_mid_route_agrees_with_oracle(line_network, line_fleet):
    o1 = make_order(0, pickup=0, delivery=1, quantity=9, created_at=0, latest_delivery=60)
    route = plan_insertion(Route.empty(0, 2), order_stops(o1), 0.0, line_network, line_fleet).best_route
    # Overweight while o1 is aboard and too late to sequence around it.
    o2 = make_order(1, pickup=0, delivery=1, quantity=9, created_at=4, latest_delivery=9)
    res = plan_insertion(route, order_stops(o2), 4.0, line_network, line_fleet)
    oracle = brute_force_best_insertion(route, o2, 4.0, line_network, line_fleet)
    assert oracle is None
    assert not res.feasible


def test_vehicle_position_interpolates(line_network):
    o = make_order(0, pickup=0, delivery=1, created_at=0)
    fleet = FleetConfig(vehicles=[VehicleSpec(0, 2)], capacity=10)
    route = plan_insertion(Route.empty(0, 2), order_stops(o), 0.0, line_network, fleet).best_route
    x, y = vehicle_position(route, line_network, 1.5)
    assert (x, y) == pytest.approx((1.5, 0.0))
    assert vehicle_position(route, line_network, 1e9) == line_network.coords(2)


@st.composite
def _walk_and_minutes(draw):
    """A simulated route of nested orders on three factories and a depot
    (node 3), and minutes to ask about: each arrival and departure exactly,
    and arbitrary ones.  Legs may take no time (a repeated node, or a zero
    entry between factories 0 and 1, which lie apart), and pickups may wait
    for orders created after the vehicle arrives.  Coordinates are not
    integers, so interpolating to a leg's end rounds differently from
    standing at its node."""
    network = make_network(
        coords=[(0.1, 0.3), (3.7, 0.2), (2.9, 4.1), (0.3, 3.9)],
        roles=[FACTORY, FACTORY, FACTORY, DEPOT],
        speed=draw(st.sampled_from([1.0, 0.5])),
        service_time=draw(st.sampled_from([0.0, 1.5])),
    )
    if draw(st.booleans()):
        network.dist[0, 1] = network.dist[1, 0] = 0.0
    stops, stack = [Stop(3)], []
    events = st.tuples(st.booleans(), st.integers(0, 2), st.integers(0, 40))
    for push, node, created_at in draw(st.lists(events, max_size=10)):
        if push:
            o = make_order(len(stops), pickup=node, delivery=draw(st.integers(0, 2)), created_at=created_at)
            stops.append(Stop(node, (Action(PICKUP, o),)))
            stack.append(o)
        elif stack:
            o = stack.pop()
            stops.append(Stop(o.delivery, (Action(DELIVER, o),)))
        else:
            stops.append(Stop(3))
    while stack:
        o = stack.pop()
        stops.append(Stop(o.delivery, (Action(DELIVER, o),)))
    route = _walked([*stops, Stop(3)], network, float(draw(st.integers(0, 20))))
    exact = sorted({t for w in route.walk for t in (w.arrival, w.departure)})
    arbitrary = draw(st.lists(st.floats(-5.0, 400.0, allow_nan=False), max_size=6))
    return route, network, exact + arbitrary


@settings(max_examples=300, deadline=None)
@given(_walk_and_minutes())
def test_bisected_index_and_position_match_linear_scans(case):
    route, network, minutes = case
    for now in minutes:
        assert frozen_index(route, now) == frozen_index_reference(route, now)
        assert vehicle_position(route, network, now) == vehicle_position_reference(route, network, now)


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
            res = plan_insertion(route, order_stops(o), o.created_at, net, fleet)
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
        before = copy.deepcopy((route.stops, route.walk))
        res = plan_insertion(route, order_stops(order), now, inst.network, inst.fleet)
        assert (route.stops, route.walk) == before
        oracle = brute_force_best_insertion(route, order, now, inst.network, inst.fleet)
        if oracle is None:
            assert not res.feasible
        else:
            assert res.feasible
            assert res.best_route.length == pytest.approx(oracle, abs=1e-9)
            assert res.best_route.length >= route.length - 1e-12
            best = res.best_route
            length = route_walk_length(best, inst.network, inst.fleet.capacity)
            assert length == pytest.approx(oracle, abs=1e-9)
            assert best.stops[0].node == best.stops[-1].node == inst.fleet.vehicles[best.vehicle].depot
            # The planner reuses the committed walk's prefix; a fresh walk
            # of the same stops must record the same states.
            fresh = _walked(list(best.stops), inst.network, best.walk[0].departure, capacity=inst.fleet.capacity)
            assert fresh.walk == best.walk
            new_actions = [
                (a.kind, a.order.id) for s in best.stops for a in s.actions
                if a.order.id == order.id
            ]
            assert new_actions == [("pickup", order.id), ("deliver", order.id)]
        checked += 1
