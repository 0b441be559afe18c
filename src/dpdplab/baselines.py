"""Greedy dispatch rules, a clairvoyant exact solver, and an independent
post-hoc validator for executed episodes.

The exact solver treats the whole order stream as known in advance (the
static relaxation of the online problem): it branches over order-to-vehicle
assignments, pricing each vehicle's order set with its optimal feasible
stop sequence (depth-first search over LIFO stack programs with time
windows and capacity, memoized per (depot, order set)).  The search drops
a partial sequence as soon as an order not yet delivered can no longer
meet its deadline, which needs no triangle inequality, or once its length
plus its farthest outstanding detour home cannot beat the best sequence
found.  That completion bound and the set bound
``fixed_cost * used + unit_cost * sum_k optimal_length(set_k)`` are
admissible whenever distances satisfy the triangle inequality, which holds
for generated (Euclidean) instances and is checked for a ``dist`` loaded
from a file; adding an order to a set can never shorten its optimal route.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import cache
from typing import Callable

import numpy as np

from .env import EpisodeReport, JointState
from .instance import DeliveryOrder, Instance
from .routing import DEADLINE_TOLERANCE, DELIVER, PICKUP, Route, Stop, depart, order_stops, simulate_timeline

GREEDY_RULES = ("incremental", "total", "max_orders")

GREEDY_ALIASES = {
    "greedy1": "incremental",
    "greedy2": "total",
    "greedy3": "max_orders",
    "incremental": "incremental",
    "total": "total",
    "max_orders": "max_orders",
}


def greedy_dispatch(state: JointState, rule: str) -> int:
    """Pick a feasible vehicle by one of three myopic rules.

    ``incremental`` minimizes the added route length, ``total`` the
    resulting total route length, ``max_orders`` maximizes the vehicle's
    committed order count.  Ties go to the lowest vehicle id.
    """
    feasible = np.flatnonzero(state.feasible)
    if not feasible.size:
        raise ValueError(f"no feasible vehicle for order {state.order_id}")
    cur_len, new_len = state.features[feasible, 0], state.features[feasible, 1]
    if rule == "incremental":
        cost = new_len - cur_len
    elif rule == "total":
        cost = new_len
    elif rule == "max_orders":
        cost = -state.accepted[feasible]
    else:
        raise ValueError(f"unknown greedy rule {rule!r}")
    # argmin returns the first minimum, i.e. the lowest vehicle id.
    return int(feasible[np.argmin(cost)])


def make_greedy_policy(rule: str) -> Callable[[JointState], int]:
    rule = GREEDY_ALIASES.get(rule, rule)
    if rule not in GREEDY_RULES:
        raise ValueError(f"unknown greedy rule {rule!r}")

    def policy(state: JointState) -> int:
        return greedy_dispatch(state, rule)

    policy.policy_name = rule
    return policy


def make_plan_policy(assignment: dict[int, int]) -> Callable[[JointState], int]:
    """Replay a precomputed order-to-vehicle assignment (e.g. the exact plan).

    The clairvoyant plan may be online-infeasible for the assigned vehicle,
    in which case the episode surfaces the failure rather than rerouting.
    """

    def policy(state: JointState) -> int:
        try:
            return assignment[state.order_id]
        except KeyError:
            raise ValueError(f"plan does not cover order {state.order_id}") from None

    policy.policy_name = "exact_plan"
    return policy


class ExactInfeasibleError(RuntimeError):
    """No assignment of orders to vehicles admits feasible routes."""


@dataclass
class ExactResult:
    tc: float
    nuv: int
    ttl: float
    assignment: dict[int, int]
    routes: dict[int, Route]
    optimal: bool
    nodes_explored: int
    seconds: float

    def plan_lines(self) -> list[str]:
        lines = []
        for vid in sorted(self.routes):
            route = self.routes[vid]
            seq = " ".join(
                str(stop.node)
                + "".join(
                    ("[+" if a.kind == PICKUP else "[-") + str(a.order.id) + "]"
                    for a in stop.actions
                )
                for stop in route.stops
            )
            lines.append(f"vehicle {vid}: {seq} length {route.length:.3f}")
        return lines


class _Budget:
    def __init__(self, seconds: float | None):
        self.deadline = None if seconds is None else time.monotonic() + seconds
        self.exhausted = False

    def check(self) -> bool:
        if self.deadline is not None and time.monotonic() > self.deadline:
            self.exhausted = True
        return self.exhausted


# Exact pricing's completion bound stands in a way home of at most three
# legs for the rest of a route.  Under the load-time triangle check (a
# relative instance.TRIANGLE_TOLERANCE of 1e-9 per shortcut) it can exceed
# the m legs it replaces by a factor of at most (1 + 1e-9)^m, and the float
# sums over those legs round by at most m * 2^-53 relative, so a route of m
# legs needs a slack of (1 + 1e-9)^m * (1 + m * 2^-53) - 1: 1e-6 covers
# routes of up to 999 legs, that is of up to 499 orders (2 * orders + 1 legs).
COMPLETION_SLACK = 1e-6


def _best_route_for(
    depot: int,
    order_ids: tuple[int, ...],
    orders_by_id: dict[int, DeliveryOrder],
    instance: Instance,
) -> tuple[float, tuple[tuple[str, int], ...]] | None:
    """Optimal feasible action sequence serving exactly ``order_ids``.

    Sequences are generated action by action: any remaining pickup, in the
    order of ``order_ids``, then delivering the current top of the LIFO
    stack.  The vehicle leaves the depot at minute 0 and may wait at
    pickups for order creation.  Orders are indices into ``order_ids``; a
    node is cut once ``t + service`` passes the earliest deadline among the
    ``undelivered`` ones (a bitmask), since time never decreases along a
    sequence and so every later delivery would end past it too.  A node is
    also cut once one of its ways home (straight, via a remaining pickup
    and its delivery, or via an aboard order's delivery) is longer than the
    ``budget`` left by the best length, widened by ``COMPLETION_SLACK``: on
    a metric no completion's total can then be strictly shorter, so the
    strict ``<`` update keeps the same answer, ties included.
    """
    network = instance.network
    dist = network.dist.tolist()
    speed = network.speed
    service = network.service_time
    capacity = instance.fleet.capacity
    orders = [orders_by_id[oid] for oid in order_ids]
    pickup = [o.pickup for o in orders]
    delivery = [o.delivery for o in orders]
    quantity = [o.quantity for o in orders]
    created = [float(o.created_at) for o in orders]
    deadline = [o.latest_delivery + DEADLINE_TOLERANCE for o in orders]
    n = len(orders)
    # earliest[mask]: the earliest deadline among the orders in ``mask``.
    earliest = [math.inf] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        earliest[mask] = min(deadline[low.bit_length() - 1], earliest[mask ^ low])
    # Shortest ways home: through an order's pickup and delivery, or (once
    # it is aboard) through its delivery only.
    pickup_tail = [dist[p][d] + dist[d][depot] for p, d in zip(pickup, delivery)]
    delivery_tail = [dist[d][depot] for d in delivery]
    best_len = math.inf
    best_seq: tuple[tuple[str, int], ...] | None = None
    seq: list[tuple[str, int]] = []

    def recurse(
        node: int,
        t: float,
        load: int,
        stack: tuple[int, ...],
        remaining: tuple[int, ...],
        undelivered: int,
        length: float,
    ) -> None:
        nonlocal best_len, best_seq
        if length >= best_len or t + service > earliest[undelivered]:
            return
        row = dist[node]
        if not undelivered:
            total = length + row[depot]
            if total < best_len:
                best_len = total
                best_seq = tuple(seq)
            return
        budget = best_len * (1.0 + COMPLETION_SLACK) - length
        if row[depot] > budget:
            return
        for i in remaining:
            if row[pickup[i]] + pickup_tail[i] > budget:
                return
        for i in stack:
            if row[delivery[i]] + delivery_tail[i] > budget:
                return
        for i in remaining:
            if load + quantity[i] > capacity:
                continue
            leg = row[pickup[i]]
            t2 = max(t + leg / speed, created[i]) + service
            seq.append((PICKUP, order_ids[i]))
            recurse(
                pickup[i],
                t2,
                load + quantity[i],
                stack + (i,),
                tuple(x for x in remaining if x != i),
                undelivered,
                length + leg,
            )
            seq.pop()
        if stack:
            i = stack[-1]
            leg = row[delivery[i]]
            t2 = t + leg / speed + service
            if t2 <= deadline[i]:
                seq.append((DELIVER, order_ids[i]))
                recurse(
                    delivery[i],
                    t2,
                    load - quantity[i],
                    stack[:-1],
                    remaining,
                    undelivered ^ (1 << i),
                    length + leg,
                )
                seq.pop()

    recurse(depot, 0.0, 0, (), tuple(range(n)), (1 << n) - 1, 0.0)
    if best_seq is None:
        return None
    return best_len, best_seq


def solve_exact(instance: Instance, budget: float | None = None) -> ExactResult:
    """Branch-and-bound optimum of the static (all orders known) problem.

    Intended for small instances.  With 8 factories and 5 vehicles a
    generated instance takes on average about 0.002 s at 6 orders, 0.011 s
    at 7 and 0.08 s at 8 (10 seeds; the slowest 0.4 s), 0.25-1.3 s at 10
    (seeds 0-5) and 0.5-6.7 s at 12 (seeds 0-2), on a 2-core x86 VM with
    Python 3.11.
    When ``budget`` seconds elapse before the search finishes, the best
    incumbent is returned with ``optimal=False``; with no incumbent yet the
    search raises ``TimeoutError``.
    """
    if budget is not None and not 0 < budget < math.inf:
        raise ValueError("budget must be positive and finite (or None for unlimited)")
    start = time.monotonic()
    orders = sorted(instance.orders, key=lambda o: (o.created_at, o.id))
    orders_by_id = {o.id: o for o in orders}
    vehicles = instance.fleet.vehicles
    fleet = instance.fleet
    budget_state = _Budget(budget)

    @cache
    def priced(depot: int, ids: tuple[int, ...]) -> tuple[float, tuple] | None:
        return _best_route_for(depot, ids, orders_by_id, instance)

    best_tc = math.inf
    best_sets: list[tuple[int, ...]] | None = None
    nodes = 0

    sets: list[tuple[int, ...]] = [() for _ in vehicles]
    lengths: list[float] = [0.0 for _ in vehicles]

    def assign(i: int) -> None:
        nonlocal best_tc, best_sets, nodes
        if budget_state.check():
            return
        nodes += 1
        used = sum(1 for s in sets if s)
        bound = fleet.fixed_cost * used + fleet.unit_cost * sum(lengths)
        if bound >= best_tc:
            return
        if i == len(orders):
            best_tc = bound
            best_sets = [tuple(s) for s in sets]
            return
        order = orders[i]
        seen_unused_depots: set[int] = set()
        for k, vehicle in enumerate(vehicles):
            if not sets[k]:
                # unused vehicles with the same depot are interchangeable
                if vehicle.depot in seen_unused_depots:
                    continue
                seen_unused_depots.add(vehicle.depot)
            new_ids = tuple(sorted(sets[k] + (order.id,)))
            priced_route = priced(vehicle.depot, new_ids)
            if priced_route is None:
                continue
            old_set, old_len = sets[k], lengths[k]
            sets[k] = new_ids
            lengths[k] = priced_route[0]
            assign(i + 1)
            sets[k] = old_set
            lengths[k] = old_len

    assign(0)
    seconds = time.monotonic() - start
    if best_sets is None:
        if budget_state.exhausted:
            raise TimeoutError(f"the exact search found no assignment within its budget of {budget} s")
        raise ExactInfeasibleError("no feasible assignment of orders to vehicles exists")

    assignment: dict[int, int] = {}
    routes: dict[int, Route] = {}
    ttl = 0.0
    for k, ids in enumerate(best_sets):
        if not ids:
            continue
        vehicle = vehicles[k]
        length, seq = priced(vehicle.depot, ids)
        ttl += length
        for oid in ids:
            assignment[oid] = vehicle.id
        pairs = {oid: order_stops(orders_by_id[oid]) for oid in ids}
        stops = [Stop(vehicle.depot), *(pairs[oid][kind == DELIVER] for kind, oid in seq), Stop(vehicle.depot)]
        routes[vehicle.id] = simulate_timeline(vehicle.id, stops, instance.network, fleet.capacity, depart(vehicle.depot, 0.0))
    nuv = len(routes)
    tc = fleet.fixed_cost * nuv + fleet.unit_cost * ttl
    return ExactResult(
        tc=tc,
        nuv=nuv,
        ttl=ttl,
        assignment=assignment,
        routes=routes,
        optimal=not budget_state.exhausted,
        nodes_explored=nodes,
        seconds=seconds,
    )


# ---------------------------------------------------------------------------
# Post-hoc validation


@dataclass
class ValidationReport:
    ok: bool
    violations: list[str] = field(default_factory=list)


def validate_routes(report: EpisodeReport, instance: Instance) -> ValidationReport:
    """Independently re-check an executed episode against every constraint.

    Checks that every route names a fleet vehicle and every fleet vehicle
    has exactly one route.  Re-simulates each route with its own walker (not
    the planner's), checks time windows, capacity, LIFO, back-to-depot (the
    vehicle's depot in the instance) and the frozen-prefix rule across
    successive commits, compares every stop's recomputed arrival and
    departure with the route's walk (the timeline a report publishes), and
    verifies the cost identities.  A used route leaves its depot when its
    vehicle's first order in the assignment log is created (else minute 0).
    """
    violations: list[str] = []
    network = instance.network
    fleet = instance.fleet
    dist = network.dist
    speed = network.speed
    service = network.service_time

    routes_of = Counter(route.vehicle for route in report.routes)
    for v in fleet.vehicles:
        if routes_of[v.id] != 1:
            violations.append(f"fleet: vehicle {v.id} has {routes_of[v.id]} routes")

    created = {o.id: float(o.created_at) for o in instance.orders}
    # A vehicle is dispatched when its first order is committed.
    dispatched = {rec.vehicle: created.get(rec.order_id, 0.0) for rec in reversed(report.assignments)}
    served: dict[int, int] = {}
    recomputed_ttl = 0.0
    used = 0
    for route in report.routes:
        vid = route.vehicle
        # FleetConfig.validate makes each vehicle's id its position.
        if vid not in range(len(fleet.vehicles)):
            violations.append(f"fleet: vehicle {vid} is not a fleet vehicle")
            continue
        depot = fleet.vehicles[vid].depot
        stops = route.stops
        if not any(s.actions for s in stops):
            if route.length != 0.0:
                violations.append(f"vehicle {vid}: empty route with nonzero length")
            continue
        used += 1
        walk = route.walk
        if len(walk) != len(stops):
            violations.append(f"timeline: vehicle {vid} walk has {len(walk)} states for {len(stops)} stops")
        if stops[0].node != depot:
            violations.append(f"back-to-depot: vehicle {vid} does not start at its depot")
        if stops[-1].node != depot:
            violations.append(f"back-to-depot: vehicle {vid} does not end at its depot")
        t = dispatched.get(vid, 0.0)
        load = 0
        stack: list[int] = []
        length = 0.0
        prev = None
        for si, stop in enumerate(stops):
            if prev is not None:
                leg = float(dist[prev, stop.node])
                length += leg
                t += leg / speed
            prev = stop.node
            arrival = t
            for act in stop.actions:
                o = act.order
                if act.kind == PICKUP:
                    if t < o.created_at:
                        t = float(o.created_at)
                    t += service
                    load += o.quantity
                    stack.append(o.id)
                    served[o.id] = served.get(o.id, 0) + 1
                    if o.pickup != stop.node:
                        violations.append(
                            f"vehicle {vid} stop {si}: order {o.id} picked at node {stop.node}, expected {o.pickup}"
                        )
                    if load > fleet.capacity:
                        violations.append(
                            f"capacity: vehicle {vid} stop {si} load {load} exceeds {fleet.capacity}"
                        )
                else:
                    if not stack or stack[-1] != o.id:
                        violations.append(
                            f"lifo: vehicle {vid} stop {si} order {o.id} not on top of stack"
                        )
                        if o.id in stack:
                            stack.remove(o.id)
                    else:
                        stack.pop()
                    t += service
                    load -= o.quantity
                    if o.delivery != stop.node:
                        violations.append(
                            f"vehicle {vid} stop {si}: order {o.id} delivered at node {stop.node}, expected {o.delivery}"
                        )
                    if t > o.latest_delivery + 1e-9:
                        violations.append(
                            f"time-window: vehicle {vid} stop {si} order {o.id} delivered at {t:.3f} after {o.latest_delivery}"
                        )
                if load < 0:
                    violations.append(f"capacity: vehicle {vid} stop {si} negative load")
            if si < len(walk) and (abs(arrival - walk[si].arrival) > 1e-6 or abs(t - walk[si].departure) > 1e-6):
                violations.append(
                    f"timeline: vehicle {vid} stop {si} reported arrival/departure"
                    f" {walk[si].arrival!r}/{walk[si].departure!r}, recomputed {arrival!r}/{t!r}"
                )
        if stack:
            violations.append(f"lifo: vehicle {vid} finished with undelivered orders {stack}")
        if abs(length - route.length) > 1e-6:
            violations.append(
                f"vehicle {vid}: recorded length {route.length!r} differs from recomputed {length!r}"
            )
        recomputed_ttl += length

    for o in instance.orders:
        count = served.get(o.id, 0)
        if count != 1:
            violations.append(f"order {o.id} served {count} times")

    if abs(recomputed_ttl - report.ttl) > 1e-6:
        violations.append(f"ttl {report.ttl!r} differs from recomputed {recomputed_ttl!r}")
    if report.nuv != used:
        violations.append(f"nuv {report.nuv} differs from recomputed {used}")
    if report.tc != fleet.fixed_cost * report.nuv + fleet.unit_cost * report.ttl:
        violations.append("tc identity tc == fixed_cost*nuv + unit_cost*ttl is broken")

    by_vehicle: dict[int, list] = {}
    for rec in report.assignments:
        by_vehicle.setdefault(rec.vehicle, []).append(rec)
    delta_total = 0.0
    for vid, recs in by_vehicle.items():
        prev_stops = None
        for rec in recs:
            delta_total += rec.delta_d
            if prev_stops is not None:
                f = rec.frozen_until
                if rec.stops[: f + 1] != prev_stops[: f + 1]:
                    violations.append(
                        f"frozen-prefix: vehicle {vid} commit for order {rec.order_id} rewrote frozen stops"
                    )
            prev_stops = rec.stops
    if report.assignments and abs(delta_total - report.ttl) > 1e-6:
        violations.append(
            f"sum of per-order detours {delta_total!r} differs from ttl {report.ttl!r}"
        )

    return ValidationReport(ok=not violations, violations=violations)
