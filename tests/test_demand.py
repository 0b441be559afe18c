import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpdplab.demand import (
    DemandError,
    build_demand_grid,
    capacity_profile,
    demand_profile,
    divergence_score,
    predict_grid,
    route_cells,
)
from dpdplab.instance import MINUTES_PER_DAY, generate_instance
from dpdplab.routing import DELIVER, PICKUP, Action, Route, Stop, depart, simulate_timeline

from conftest import make_order
from oracles import capacity_profile_reference, demand_profile_reference, js_reference, route_cells_reference

# Frozen with oracles.js_reference([0.5, 0.5], [1.0, 0.0]).
JS_HALF_VS_POINT = 0.31127812445913283


def test_empty_orders_zero_grid():
    grid = build_demand_grid([], n_factories=3, intervals=144)
    assert grid.shape == (3, 144)
    assert grid.sum() == 0.0


def test_quantities_accumulate_per_cell():
    orders = [
        make_order(0, pickup=1, delivery=0, quantity=2, created_at=30),
        make_order(1, pickup=1, delivery=2, quantity=3, created_at=35),
    ]
    grid = build_demand_grid(orders, n_factories=3, intervals=144)
    assert grid[1, 3] == 5.0
    assert grid.sum() == 5.0


def test_boundary_counts_into_later_interval():
    order = make_order(0, pickup=0, delivery=1, quantity=1, created_at=30)
    grid = build_demand_grid([order], n_factories=2, intervals=144)
    assert grid[0, 3] == 1.0
    assert grid[0, 2] == 0.0


def test_pickup_out_of_range_rejected():
    order = make_order(0, pickup=5, delivery=1)
    with pytest.raises(DemandError, match="outside factory range"):
        build_demand_grid([order], n_factories=3, intervals=144)


@settings(max_examples=30, deadline=None)
@given(
    qs=st.lists(st.integers(min_value=1, max_value=9), min_size=0, max_size=12),
)
def test_grid_mass_equals_order_mass(qs):
    orders = [
        make_order(i, pickup=i % 3, delivery=(i + 1) % 3, quantity=q, created_at=(i * 97) % 1020)
        for i, q in enumerate(qs)
    ]
    grid = build_demand_grid(orders, n_factories=3, intervals=144)
    assert grid.sum() == sum(qs)


def test_predict_single_day_is_identity():
    g = np.arange(12, dtype=float).reshape(3, 4)
    out = predict_grid([g])
    assert np.array_equal(out, g)


def test_predict_is_elementwise_mean():
    days = [np.full((2, 3), v, dtype=float) for v in (2.0, 4.0, 6.0)]
    out = predict_grid(days)
    assert np.all(out == 4.0)


def test_predict_zero_history():
    days = [np.zeros((2, 2)) for _ in range(3)]
    assert predict_grid(days).sum() == 0.0


def test_predict_rejects_empty_and_mismatched():
    with pytest.raises(DemandError, match="at least one"):
        predict_grid([])
    with pytest.raises(DemandError, match="does not match"):
        predict_grid([np.zeros((2, 2)), np.zeros((3, 2))])


@settings(max_examples=20, deadline=None)
@given(st.permutations(list(range(4))))
def test_predict_permutation_invariant(perm):
    days = [np.full((2, 2), float(v)) for v in (1.0, 5.0, 6.0, 8.0)]
    shuffled = [days[i] for i in perm]
    assert np.array_equal(predict_grid(days), predict_grid(shuffled))


def _simulated_route(net, actions_by_stop, depot=2, start=0.0):
    stops = [Stop(depot)] + [
        Stop(node, tuple(acts)) for node, acts in actions_by_stop
    ] + [Stop(depot)]
    return simulate_timeline(0, stops, net, 10, depart(depot, start))


def test_capacity_profile_tracks_residual(line_network):
    o1 = make_order(0, pickup=0, delivery=1, quantity=4, created_at=0)
    route = _simulated_route(
        line_network,
        [(0, [Action(PICKUP, o1)]), (1, [Action(DELIVER, o1)])],
    )
    prof = capacity_profile(route, route_cells(route, line_network.n_factories, 144), capacity=10)
    assert list(prof) == [10.0, 6.0]


def test_capacity_profile_returns_to_full_after_unload(line_network):
    o1 = make_order(0, pickup=0, delivery=1, quantity=4, created_at=0)
    o2 = make_order(1, pickup=0, delivery=1, quantity=2, created_at=0)
    route = _simulated_route(
        line_network,
        [
            (0, [Action(PICKUP, o1)]),
            (1, [Action(DELIVER, o1)]),
            (0, [Action(PICKUP, o2)]),
            (1, [Action(DELIVER, o2)]),
        ],
    )
    prof = capacity_profile(route, route_cells(route, line_network.n_factories, 144), capacity=10)
    assert list(prof) == [10.0, 6.0, 10.0, 8.0]


def test_demand_profile_lookup(line_network):
    o = make_order(0, pickup=0, delivery=1, created_at=70)
    route = _simulated_route(line_network, [(0, [Action(PICKUP, o)]), (1, [Action(DELIVER, o)])], start=70.0)
    grid = np.zeros((2, 144))
    arrival_interval = int(route.walk[2].arrival // 10)
    grid[1, arrival_interval] = 9.0
    cells = route_cells(route, line_network.n_factories, grid.shape[1])
    prof = demand_profile(cells, grid)
    assert prof[1] == 9.0
    factories, intervals = cells[1:]
    assert (factories[1], intervals[1]) == (1, arrival_interval)


def test_demand_profile_clamps_past_midnight(line_network):
    o = make_order(0, pickup=0, delivery=1, created_at=1430, latest_delivery=1440)
    route = _simulated_route(line_network, [(0, [Action(PICKUP, o)]), (1, [Action(DELIVER, o)])], start=1430.0)
    assert route.walk[2].arrival < 1440 < route.walk[3].arrival
    grid = np.zeros((2, 144))
    _, factories, intervals = route_cells(route, line_network.n_factories, grid.shape[1])
    assert (factories[0], intervals[0]) == (0, 143)
    assert (factories[1], intervals[1]) == (1, 143)


def test_depot_only_route_gives_empty_profiles(line_network):
    route = Route.empty(0, depot=2)
    prof = capacity_profile(route, route_cells(route, line_network.n_factories, 144), 10)
    assert len(prof) == 0


def _nested_route(network, depot, n_stops, start, rng):
    """A simulated depot-to-depot route of ``n_stops`` stops whose orders
    nest (LIFO), with depot visits between trips and pickups that wait for
    orders created later than the vehicle arrives."""
    if n_stops == 1:
        return simulate_timeline(0, [Stop(depot)], network, math.inf, depart(depot, start))
    stops, stack, oid = [Stop(depot)], [], 0
    while len(stops) < n_stops - 1:
        room = n_stops - 1 - len(stops)
        roll = rng.random()
        if stack and (roll < 0.5 or len(stack) + 2 > room):
            o = stack.pop()
            stops.append(Stop(o.delivery, (Action(DELIVER, o),)))
        elif len(stack) + 2 <= room and (roll >= 0.1 or len(stops) == 1):
            pickup, delivery = (int(n) for n in rng.choice(network.n_factories, 2))
            o = make_order(oid, pickup, delivery, int(rng.integers(1, 6)), int(start + rng.uniform(0, 300)), 10**7)
            stops.append(Stop(pickup, (Action(PICKUP, o),)))
            stack.append(o)
            oid += 1
        else:
            stops.append(Stop(depot))
    # Capacity is not what these tests vary: orders may stack up without limit.
    return simulate_timeline(0, [*stops, Stop(depot)], network, math.inf, depart(depot, start))


@pytest.mark.parametrize("intervals", [144, 7])
@pytest.mark.parametrize(
    "n_stops, start",
    [(1, 0.0), (4, 0.0), (4, 1435.0), (5, 20.0), (25, 1300.0), (60, 0.0), (150, 100.0), (300, 0.0)],
)
def test_array_profiles_equal_the_per_stop_reference(n_stops, start, intervals):
    # The arrays must give the reference's floats bit for bit, or the pinned
    # greedy digests move: a depot-only route, routes past midnight and
    # routes of 4 to 300 stops with depot visits mid-route.
    rng = np.random.default_rng(n_stops * 7919 + int(start) + intervals)
    network = generate_instance(seed=n_stops, n_factories=8, n_orders=1, n_vehicles=1, n_depots=2).network
    route = _nested_route(network, network.depot_ids[-1], n_stops, start, rng)
    assert len(route.walk) == len(route.stops) == n_stops
    if start > 1000:
        assert route.walk[-1].arrival > MINUTES_PER_DAY
    grid = rng.uniform(0.0, 5.0, (network.n_factories, intervals))
    cells = route_cells(route, network.n_factories, intervals)
    reference = route_cells_reference(route, network, intervals)
    assert [tuple(int(v) for v in cell) for cell in zip(*cells)] == reference
    for array, expected in [
        (capacity_profile(route, cells, 7), capacity_profile_reference(route, reference, 7)),
        (demand_profile(cells, grid), demand_profile_reference(reference, grid)),
    ]:
        assert array.dtype == expected.dtype == np.float64
        assert array.tobytes() == expected.tobytes()


def _profiles(cap_values, dem_values):
    return np.array(cap_values, dtype=float), np.array(dem_values, dtype=float)


def test_score_zero_for_proportional_vectors():
    cap, dem = _profiles([2.0, 2.0, 4.0], [1.0, 1.0, 2.0])
    assert divergence_score(cap, dem) == pytest.approx(0.0, abs=1e-6)


def test_score_one_for_disjoint_support():
    cap, dem = _profiles([1.0, 0.0], [0.0, 1.0])
    assert divergence_score(cap, dem) == pytest.approx(1.0, abs=1e-6)


def test_score_worked_value():
    cap, dem = _profiles([0.5, 0.5], [1.0, 0.0])
    score = divergence_score(cap, dem)
    assert score == pytest.approx(JS_HALF_VS_POINT, abs=1e-4)
    assert score == pytest.approx(js_reference([0.5, 0.5], [1.0, 0.0]), abs=1e-4)


def test_score_all_zero_becomes_uniform():
    cap, dem = _profiles([0.0, 0.0], [3.0, 3.0])
    assert divergence_score(cap, dem) == pytest.approx(0.0, abs=1e-6)


def test_score_errors():
    cap, _ = _profiles([1.0], [1.0])
    _, dem = _profiles([1.0, 1.0], [1.0, 1.0])
    with pytest.raises(DemandError, match="length mismatch"):
        divergence_score(cap, dem)
    empty_cap, empty_dem = _profiles([], [])
    with pytest.raises(DemandError, match="at least one"):
        divergence_score(empty_cap, empty_dem)


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
            st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_score_symmetric_and_bounded(values):
    a = [v for v, _ in values]
    b = [v for _, v in values]
    cap, dem = _profiles(a, b)
    s1 = divergence_score(cap, dem)
    s2 = divergence_score(dem, cap)
    assert s1 == pytest.approx(s2, abs=1e-12)
    assert 0.0 <= s1 <= 1.0


@settings(max_examples=40, deadline=None)
@given(
    base=st.lists(st.floats(min_value=0.01, max_value=10.0, allow_nan=False), min_size=1, max_size=6),
    factor=st.floats(min_value=0.1, max_value=10.0),
)
def test_score_zero_iff_same_shape(base, factor):
    cap, dem = _profiles(base, [v * factor for v in base])
    assert divergence_score(cap, dem) == pytest.approx(0.0, abs=1e-7)
