import itertools

import numpy as np
import pytest

from dpdplab import baselines
from dpdplab.baselines import (
    COMPLETION_SLACK,
    ExactInfeasibleError,
    _best_route_for,
    greedy_dispatch,
    make_greedy_policy,
    make_plan_policy,
    solve_exact,
    validate_routes,
)
from dpdplab.env import JointState, run_episode
from dpdplab.instance import TRIANGLE_TOLERANCE, FleetConfig, VehicleSpec, generate_instance, instance_from_dict
from dpdplab.routing import DELIVER, PICKUP, Action, Route, Stop, depart, simulate_timeline

from conftest import make_instance, make_network, make_order
from oracles import brute_force_route_optimum, exhaustive_optimum


def _state(rows, accepted=None):
    """JointState from (cur_len, new_len) rows; None marks an infeasible vehicle."""
    k = len(rows)
    return JointState(
        features=np.array([[-1.0] * 5 if r is None else [r[0], r[1], 0.0, 1.0, 0.0] for r in rows]),
        feasible=np.array([r is not None for r in rows]),
        positions=np.zeros((k, 2)),
        accepted=np.array(accepted or [0] * k),
        order_id=0,
    )


def test_greedy_incremental_minimizes_detour():
    state = _state([(10.0, 13.0), (2.0, 9.0)])
    assert greedy_dispatch(state, "incremental") == 0  # detours 3 vs 7


def test_greedy_total_minimizes_new_length():
    state = _state([(10.0, 13.0), (2.0, 9.0)])
    assert greedy_dispatch(state, "total") == 1


def test_greedy_max_orders_prefers_busy_vehicle():
    state = _state([(0.0, 5.0), (0.0, 9.0)], accepted=[1, 4])
    assert greedy_dispatch(state, "max_orders") == 1


def test_greedy_ties_go_to_vehicle_zero():
    state = _state([(0.0, 5.0), (0.0, 5.0)], accepted=[0, 0])
    for rule in ("incremental", "total", "max_orders"):
        assert greedy_dispatch(state, rule) == 0


def test_greedy_skips_infeasible_rows():
    state = _state([None, (5.0, 6.0)], accepted=[9, 0])
    for rule in ("incremental", "total", "max_orders"):
        assert greedy_dispatch(state, rule) == 1


def test_all_rules_agree_on_single_feasible():
    state = _state([None, (1.0, 7.0), None])
    assert {greedy_dispatch(state, r) for r in ("incremental", "total", "max_orders")} == {1}


def test_greedy_aliases():
    assert make_greedy_policy("greedy1").policy_name == "incremental"
    assert make_greedy_policy("greedy2").policy_name == "total"
    assert make_greedy_policy("greedy3").policy_name == "max_orders"
    with pytest.raises(ValueError):
        make_greedy_policy("greedy4")


def test_exact_single_order_formula():
    net = make_network(
        coords=[(3.0, 0.0), (3.0, 4.0), (0.0, 0.0)],
        roles=["factory", "factory", "depot"],
    )
    fleet = FleetConfig(vehicles=[VehicleSpec(0, 2)], capacity=10, fixed_cost=300.0, unit_cost=2.0)
    inst = make_instance(net, [make_order(0, pickup=0, delivery=1, created_at=0)], fleet)
    res = solve_exact(inst)
    assert res.optimal
    assert res.nuv == 1
    assert res.tc == pytest.approx(300.0 + 2.0 * (3.0 + 4.0 + 5.0))
    assert res.assignment == {0: 0}


def test_exact_pools_orders_when_fixed_cost_dominates():
    net = make_network(
        coords=[(3.0, 0.0), (7.0, 0.0), (0.0, 0.0)],
        roles=["factory", "factory", "depot"],
    )
    fleet = FleetConfig(
        vehicles=[VehicleSpec(0, 2), VehicleSpec(1, 2)],
        capacity=10,
        fixed_cost=10_000.0,
        unit_cost=1.0,
    )
    orders = [
        make_order(0, pickup=0, delivery=1, created_at=0),
        make_order(1, pickup=0, delivery=1, created_at=0),
    ]
    inst = make_instance(net, orders, fleet)
    res = solve_exact(inst)
    assert res.nuv == 1


def test_exact_matches_exhaustive_enumerator():
    inst = generate_instance(seed=12, n_factories=6, n_orders=5, n_vehicles=3)
    res = solve_exact(inst)
    tc, nuv = exhaustive_optimum(inst)
    assert res.optimal
    assert res.tc == tc
    assert res.nuv == nuv


def _directed_metric(inst, seed):
    """``inst`` with each Euclidean leg stretched by its own random factor in
    each direction, then closed under shortest paths and loaded as a file
    would be (so its triangle inequality is checked).  The completion bound
    reads ``dist[node][pickup]``, ``dist[pickup][delivery]`` and
    ``dist[delivery][depot]``; a symmetric matrix cannot tell a reversed leg
    from the right one."""
    rng = np.random.default_rng(seed)
    dist = inst.network.dist * rng.uniform(1.0, 2.0, inst.network.dist.shape)
    for k in range(len(dist)):
        dist = np.minimum(dist, dist[:, k, None] + dist[None, k, :])
    doc = inst.to_dict()
    doc["network"]["dist"] = dist.tolist()
    directed = instance_from_dict(doc)
    assert not np.allclose(directed.network.dist, directed.network.dist.T)
    return directed


SERVICE_TWO_DEPOTS = {"service_time": 2.0, "n_depots": 2}


@pytest.mark.parametrize(
    "shape, directed",
    [({}, False), ({"speed": 0.25}, False), (SERVICE_TWO_DEPOTS, False), (SERVICE_TWO_DEPOTS, True)],
    ids=["defaults", "slow", "service-two-depots", "directed-metric"],
)
def test_pricing_matches_route_oracle_on_every_subset(shape, directed):
    for seed in range(4):
        inst = generate_instance(seed=seed, n_factories=6, n_orders=6, n_vehicles=2, **shape)
        if directed:
            inst = _directed_metric(inst, seed)
        orders_by_id = {o.id: o for o in inst.orders}
        for depot in {v.depot for v in inst.fleet.vehicles}:
            for size in range(1, len(orders_by_id) + 1):
                for ids in itertools.combinations(sorted(orders_by_id), size):
                    priced = _best_route_for(depot, ids, orders_by_id, inst)
                    oracle = brute_force_route_optimum(depot, [orders_by_id[i] for i in ids], inst)
                    assert (priced and priced[0]) == oracle, (seed, depot, ids)


def _price(network, fleet, orders):
    inst = make_instance(network, orders, fleet)
    orders_by_id = {o.id: o for o in orders}
    priced = _best_route_for(2, tuple(orders_by_id), orders_by_id, inst)
    assert (priced and priced[0]) == brute_force_route_optimum(2, orders, inst)
    return priced


def test_pricing_finds_no_sequence_for_a_jointly_late_pair(line_network, line_fleet):
    # Each order alone arrives exactly at its deadline; either one served
    # before or around the other is late.
    first = make_order(0, pickup=1, delivery=0, created_at=0, latest_delivery=11)
    second = make_order(1, pickup=0, delivery=1, created_at=5, latest_delivery=9)
    assert _price(line_network, line_fleet, [first]) == (14.0, ((PICKUP, 0), (DELIVER, 0)))
    assert _price(line_network, line_fleet, [second]) == (14.0, ((PICKUP, 1), (DELIVER, 1)))
    assert _price(line_network, line_fleet, [first, second]) is None


def test_pricing_waits_for_a_late_order_only_after_the_urgent_delivery(line_network, line_fleet):
    # Picking order 1 right after order 0 means waiting until minute 20 with
    # order 0 (due at 8) still aboard; that branch is cut before any
    # delivery, and the optimum delivers order 0 first.
    urgent = make_order(0, pickup=0, delivery=1, created_at=0, latest_delivery=8)
    late = make_order(1, pickup=0, delivery=1, created_at=20, latest_delivery=100)
    assert _price(line_network, line_fleet, [urgent, late]) == (
        22.0,
        ((PICKUP, 0), (DELIVER, 0), (PICKUP, 1), (DELIVER, 1)),
    )


def test_pricing_keeps_an_optimum_that_the_triangle_tolerance_hides():
    # Nodes pA=0, dA=1, pB=2, dB=3, depot 4.  On the integer matrix,
    # +A +B -B -A (found first) and +A -A +B -B both measure 15.  Lengthening
    # pA->pB by 1.2e-9 makes the second strictly shorter.  Lengthening
    # pB->depot by a relative 0.9e-9, which the load-time check allows,
    # makes the straight way home from pB (after +A -A +B) longer than the
    # rest of that route, pB->dB->depot; only the completion slack keeps
    # the bound from cutting the optimum there.
    dist = np.array(
        [[0, 5, 3, 3, 2], [5, 0, 4, 3, 4], [3, 4, 0, 3, 4], [3, 3, 3, 0, 1], [2, 4, 4, 1, 0]],
        dtype=float,
    )
    dist[0, 2] += 1.2e-9
    dist[2, 4] *= 1 + 0.9e-9
    net = make_network(coords=[(float(i), 0.0) for i in range(5)], roles=["factory"] * 4 + ["depot"], dist=dist)
    orders = [make_order(0, pickup=0, delivery=1), make_order(1, pickup=2, delivery=3)]
    fleet = FleetConfig(vehicles=[VehicleSpec(0, 4)], capacity=10)
    inst = instance_from_dict(make_instance(net, orders, fleet).to_dict())
    orders_by_id = {o.id: o for o in inst.orders}
    assert brute_force_route_optimum(4, inst.orders, inst) == 15.0
    assert _best_route_for(4, (0, 1), orders_by_id, inst) == (
        15.0,
        ((PICKUP, 0), (DELIVER, 0), (PICKUP, 1), (DELIVER, 1)),
    )


def test_completion_slack_covers_the_triangle_tolerance_up_to_999_legs():
    """A route of m legs needs a slack of (1 + tolerance)^m * (1 + m * 2^-53) - 1;
    an exact route of 499 orders has 2 * 499 + 1 = 999 legs."""

    def needed(m):
        return (1 + TRIANGLE_TOLERANCE) ** m * (1 + m * 2.0**-53) - 1

    assert needed(2 * 499 + 1) <= COMPLETION_SLACK < needed(1000)


def test_exact_budget_validation():
    inst = generate_instance(seed=12, n_factories=6, n_orders=3, n_vehicles=2)
    for budget in (0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="budget must be positive"):
            solve_exact(inst, budget=budget)


def exhaust_after(checks):
    """A ``_Budget.check`` that reports the budget spent from its call
    number ``checks`` on; the search checks once per node."""
    calls = itertools.count()

    def check(self):
        self.exhausted = self.exhausted or next(calls) >= checks
        return self.exhausted

    return check


def test_exact_budget_exhausted_before_any_assignment_raises(monkeypatch):
    # The search's first complete assignment is its ninth node: the root and
    # one node per order.
    inst = generate_instance(seed=13, n_factories=8, n_orders=8, n_vehicles=4)
    monkeypatch.setattr(baselines._Budget, "check", exhaust_after(8))
    with pytest.raises(TimeoutError, match="no assignment within its budget of 30 s"):
        solve_exact(inst, budget=30)


def test_exact_budget_exhaustion_flags_result(monkeypatch):
    inst = generate_instance(seed=13, n_factories=8, n_orders=8, n_vehicles=4)
    full = solve_exact(inst)
    for checks in (9, full.nodes_explored - 1, full.nodes_explored):
        monkeypatch.setattr(baselines._Budget, "check", exhaust_after(checks))
        res = solve_exact(inst, budget=30)
        assert (res.optimal, res.nodes_explored) == (checks == full.nodes_explored, checks)
        assert sorted(res.assignment) == sorted(o.id for o in inst.orders)
        assert res.tc >= full.tc


def test_exact_plan_replays_in_env():
    inst = generate_instance(seed=14, n_factories=6, n_orders=5, n_vehicles=3)
    res = solve_exact(inst)
    report, _ = run_episode(inst, make_plan_policy(res.assignment))
    assert report.nuv >= res.nuv
    assert report.tc >= res.tc - 1e-9
    assert validate_routes(report, inst).ok


def test_exact_infeasible_instance_raises(line_network):
    fleet = FleetConfig(vehicles=[VehicleSpec(0, 2)], capacity=1)
    inst = make_instance(
        line_network,
        [make_order(0, pickup=0, delivery=1, quantity=1, created_at=0, latest_delivery=1)],
        fleet,
    )
    with pytest.raises(ExactInfeasibleError):
        solve_exact(inst)


def test_plan_lines_describe_routes():
    inst = generate_instance(seed=15, n_factories=5, n_orders=3, n_vehicles=2)
    res = solve_exact(inst)
    lines = res.plan_lines()
    assert lines and all(line.startswith("vehicle ") for line in lines)


def test_validator_passes_greedy_episodes():
    for seed in (21, 22, 23):
        inst = generate_instance(seed=seed, n_factories=7, n_orders=10, n_vehicles=3)
        for rule in ("incremental", "total", "max_orders"):
            report, _ = run_episode(inst, make_greedy_policy(rule))
            verdict = validate_routes(report, inst)
            assert verdict.ok, verdict.violations


def test_validator_names_crossed_lifo_pair(line_network):
    fleet = FleetConfig(vehicles=[VehicleSpec(0, 2)], capacity=10)
    o1 = make_order(0, pickup=0, delivery=1, created_at=0)
    o2 = make_order(1, pickup=1, delivery=0, created_at=0)
    inst = make_instance(line_network, sorted([o1, o2], key=lambda o: o.created_at), fleet)
    report, _ = run_episode(inst, make_greedy_policy("incremental"))
    # Tamper: cross the pairs at the shared stop.  No walk of crossed pairs
    # can be simulated, but the planned walk visits the same nodes with the
    # same actions per stop, so its times and length still hold.
    walk = report.routes[0].walk
    assert [w.node for w in walk] == [2, 0, 1, 0, 2]
    bad = Route(
        0,
        [
            Stop(2),
            Stop(0, (Action(PICKUP, o1),)),
            Stop(1, (Action(PICKUP, o2), Action(DELIVER, o1))),
            Stop(0, (Action(DELIVER, o2),)),
            Stop(2),
        ],
        walk,
    )
    report.routes[0] = bad
    report.ttl = bad.length
    report.tc = fleet.fixed_cost * report.nuv + fleet.unit_cost * report.ttl
    verdict = validate_routes(report, inst)
    assert not verdict.ok
    assert any(v.startswith("lifo") and "stop 2" in v for v in verdict.violations)


def test_validator_catches_tampered_tc():
    inst = generate_instance(seed=25, n_factories=6, n_orders=5, n_vehicles=2)
    report, _ = run_episode(inst, make_greedy_policy("incremental"))
    report.tc += 1.0
    verdict = validate_routes(report, inst)
    assert not verdict.ok
    assert any("tc identity" in v for v in verdict.violations)


def test_validator_catches_rewritten_frozen_prefix():
    inst = generate_instance(seed=24, n_factories=6, n_orders=8, n_vehicles=2)
    report, _ = run_episode(inst, make_greedy_policy("incremental"))
    assert validate_routes(report, inst).ok
    # A vehicle's second commit, whose first stop is then replaced by its second.
    vehicles = [r.vehicle for r in report.assignments]
    rec = next(r for i, r in enumerate(report.assignments) if r.vehicle in vehicles[:i])
    rec.stops = (rec.stops[1], *rec.stops[1:])
    verdict = validate_routes(report, inst)
    assert f"frozen-prefix: vehicle {rec.vehicle} commit for order {rec.order_id} rewrote frozen stops" in verdict.violations
    assert all(v.startswith("frozen-prefix") for v in verdict.violations)


def _used_route(report):
    return next(r for r in report.routes if any(s.actions for s in r.stops))


def test_validator_catches_unserved_order():
    inst = generate_instance(seed=26, n_factories=6, n_orders=4, n_vehicles=2)
    report, _ = run_episode(inst, make_greedy_policy("incremental"))
    victim = _used_route(report)
    victim.stops = [s for s in victim.stops if not s.actions]
    verdict = validate_routes(report, inst)
    assert not verdict.ok
    assert any("served 0 times" in v for v in verdict.violations)


def _greedy_episode():
    inst = generate_instance(seed=27, n_factories=6, n_orders=5, n_vehicles=2)
    report, _ = run_episode(inst, make_greedy_policy("incremental"))
    assert validate_routes(report, inst).ok
    return inst, report, _used_route(report)


def test_validator_catches_a_published_departure_off_by_a_minute():
    inst, report, route = _greedy_episode()
    route.walk[1] = route.walk[1]._replace(departure=route.walk[1].departure + 1.0)
    violations = validate_routes(report, inst).violations
    assert len(violations) == 1
    assert violations[0].startswith(f"timeline: vehicle {route.vehicle} stop 1 ")


def test_validator_catches_a_walk_one_state_short():
    inst, report, route = _greedy_episode()
    route.walk = route.walk[:-1]
    verdict = validate_routes(report, inst)
    n = len(route.stops)
    assert f"timeline: vehicle {route.vehicle} walk has {n - 1} states for {n} stops" in verdict.violations


def test_validator_catches_a_route_that_does_not_return_to_its_depot():
    inst, report, route = _greedy_episode()
    route.stops, route.walk = route.stops[:-1], route.walk[:-1]
    verdict = validate_routes(report, inst)
    assert f"back-to-depot: vehicle {route.vehicle} does not end at its depot" in verdict.violations


def test_validator_catches_a_route_that_leaves_before_its_first_order():
    # The same stops walked from minute 0 give a walk consistent with them,
    # but the vehicle only leaves its depot once its first order exists.
    inst = generate_instance(3, 5, 4, 2)
    report, _ = run_episode(inst, make_greedy_policy("incremental"))
    assert validate_routes(report, inst).ok
    k, route = next((k, r) for k, r in enumerate(report.routes) if any(s.actions for s in r.stops))
    assert route.walk[0].departure > 0.0
    report.routes[k] = simulate_timeline(
        route.vehicle, list(route.stops), inst.network, inst.fleet.capacity, depart(route.stops[0].node, 0.0)
    )
    violations = validate_routes(report, inst).violations
    assert any(v.startswith(f"timeline: vehicle {route.vehicle} stop 0 ") for v in violations), violations


def _two_depot_episode():
    """Vehicles 0 and 2 start at depot 10, 1 and 3 at depot 11; 1 and 3 are used."""
    inst = generate_instance(3, 10, 12, 4, n_depots=2)
    report, _ = run_episode(inst, make_greedy_policy("incremental"))
    assert validate_routes(report, inst).ok
    assert [r.vehicle for r in report.routes if any(s.actions for s in r.stops)] == [1, 3]
    return inst, report


def test_validator_catches_a_route_of_no_fleet_vehicle():
    inst, report = _two_depot_episode()
    report.routes[3].vehicle = 99
    assert "fleet: vehicle 99 is not a fleet vehicle" in validate_routes(report, inst).violations


def test_validator_catches_two_routes_of_one_vehicle():
    inst, report = _two_depot_episode()
    report.routes[3].vehicle = 1
    violations = validate_routes(report, inst).violations
    assert "fleet: vehicle 1 has 2 routes" in violations
    assert "fleet: vehicle 3 has 0 routes" in violations


def test_validator_judges_the_depot_of_the_fleet_vehicle():
    # Vehicle 1's route, depot 11 and all, relabelled vehicle 0 of depot 10.
    inst, report = _two_depot_episode()
    report.routes[0].vehicle, report.routes[1].vehicle = 1, 0
    violations = validate_routes(report, inst).violations
    assert "back-to-depot: vehicle 0 does not start at its depot" in violations
    assert "back-to-depot: vehicle 0 does not end at its depot" in violations


def test_oracle_dominates_policies_small():
    inst = generate_instance(seed=30, n_factories=6, n_orders=6, n_vehicles=3)
    res = solve_exact(inst)
    for rule in ("incremental", "total", "max_orders"):
        report, _ = run_episode(inst, make_greedy_policy(rule))
        assert res.tc <= report.tc + 1e-9
