"""Route representation and the constrained insertion planner.

A route is a depot-to-depot stop sequence.  Each stop carries an ordered
list of load/unload actions; timing is simulated with a constant travel
speed, a fixed per-action service time, and waiting at pickups whose order
has not been created yet.  Feasibility covers four constraints: delivery
time windows, vehicle capacity, LIFO loading (only the most recently
loaded undelivered order may be unloaded), and back-to-depot.

All walking rests on two pieces: :func:`_process_actions` runs one stop's
actions, and :func:`_walk` advances a :class:`WalkState` through further
stops, stopping at the first violation.  :func:`simulate_timeline` records
the walk state after every stop of a route, so the planner starts each
insertion candidate from a recorded state instead of re-walking the prefix.

Dispatching must not interfere with a moving vehicle: stops up to
``frozen_until`` (the stop the vehicle currently occupies or is driving
toward) are immutable, and new stops may only be inserted after them.

The planner answers only whether an order fits a vehicle, the route length
before and after, and the best route; :mod:`dpdplab.env` turns plans into
the fleet state's feature rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

from .instance import DeliveryOrder, FleetConfig, RoadNetwork

PICKUP = "pickup"
DELIVER = "deliver"


@dataclass(frozen=True)
class Action:
    kind: str
    order: DeliveryOrder

    @property
    def order_id(self) -> int:
        return self.order.id

    def signature(self) -> tuple[str, int]:
        return (self.kind, self.order.id)


@dataclass
class Stop:
    node: int
    actions: list[Action] = field(default_factory=list)
    arrival: float = 0.0
    departure: float = 0.0

    def signature(self) -> tuple[int, tuple[tuple[str, int], ...]]:
        return (self.node, tuple(a.signature() for a in self.actions))


@dataclass
class Verdict:
    feasible: bool
    violation: str | None = None  # "time-window" | "capacity" | "lifo" | "back-to-depot"
    detail: str = ""

    def __bool__(self) -> bool:
        return self.feasible


FEASIBLE = Verdict(True)


class WalkState(NamedTuple):
    """Where a walk stands after a stop: the stop's node, the minute it is
    left, the cargo load, the LIFO stack (bottom first) and the length driven."""

    node: int
    time: float
    load: int
    stack: tuple[int, ...]
    length: float


@dataclass
class Route:
    """A vehicle's committed stop sequence plus its simulated timeline.

    ``start_time`` is the minute the vehicle first left its depot (``None``
    until the first order is committed).  :func:`simulate_timeline` fills
    ``walk`` with the walk state after each stop and ``violation`` with the
    first time-window or LIFO violation it met (``None`` if there was none).
    """

    vehicle: int
    depot: int
    stops: list[Stop]
    start_time: float | None = None
    frozen_until: int = 0
    length: float = 0.0
    walk: list[WalkState] = field(default_factory=list)
    violation: str | None = None

    @classmethod
    def empty(cls, vehicle: int, depot: int) -> "Route":
        return cls(vehicle=vehicle, depot=depot, stops=[Stop(node=depot)])

    @property
    def is_empty(self) -> bool:
        return not any(s.actions for s in self.stops)

    def order_ids(self) -> list[int]:
        return [a.order.id for s in self.stops for a in s.actions if a.kind == PICKUP]

    def signatures(self) -> tuple[tuple[int, tuple[tuple[str, int], ...]], ...]:
        return tuple(s.signature() for s in self.stops)


@dataclass
class PlannerResult:
    """Outcome of planning one order onto one vehicle: the route length
    before and after the insertion and the simulated best route.

    When no feasible insertion exists both lengths are the sentinel ``-1``
    and ``best_route`` is ``None``.
    """

    feasible: bool
    cur_len: float
    new_len: float
    best_route: Route | None

    @classmethod
    def no_fit(cls) -> "PlannerResult":
        return cls(False, -1.0, -1.0, None)


# ---------------------------------------------------------------------------
# Walking a route


def _process_actions(
    t: float,
    load: int,
    stack: list[int],
    actions: Iterable[Action],
    service_time: float,
    capacity: float,
) -> tuple[float, int, str | None, str]:
    """Run all of a stop's actions; returns (time, load, violation, detail)
    with the first violation met, or ``None`` and ``""``.

    Pickups wait for the order's creation minute before loading; a delivery
    must finish (including its service time) by the order's deadline.  A
    delivery whose order is not on top of the stack skips its pop.
    """
    kind = None
    detail = ""
    for act in actions:
        o = act.order
        if act.kind == PICKUP:
            if t < o.created_at:
                t = float(o.created_at)
            t += service_time
            load += o.quantity
            stack.append(o.id)
            if load > capacity and kind is None:
                kind, detail = "capacity", f"load {load} exceeds capacity {capacity} picking order {o.id}"
        else:
            if stack and stack[-1] == o.id:
                stack.pop()
            elif kind is None:
                kind, detail = "lifo", f"order {o.id} is not on top of the stack"
            t += service_time
            if t > o.latest_delivery + 1e-9 and kind is None:
                kind, detail = "time-window", f"order {o.id} delivered at {t:.3f} after {o.latest_delivery}"
            load -= o.quantity
    return t, load, kind, detail


def _record_walk(
    stops: Sequence[Stop], network: RoadNetwork, start_time: float
) -> tuple[list[WalkState], str | None]:
    """Walk every stop at unlimited capacity, stamping arrival and departure
    on each; returns the walk state after each stop and the first violation.

    The first stop is reached by a zero-length leg (``dist`` has a zero
    diagonal), so the walk starts there at ``start_time``.
    """
    dist = network.dist
    speed = network.speed
    service = network.service_time
    t = start_time
    load = 0
    stack: list[int] = []
    length = 0.0
    prev = stops[0].node
    walk: list[WalkState] = []
    violation = None
    for stop in stops:
        leg = float(dist[prev, stop.node])
        length += leg
        t += leg / speed
        stop.arrival = t
        t, load, kind, _ = _process_actions(t, load, stack, stop.actions, service, math.inf)
        violation = violation or kind
        stop.departure = t
        prev = stop.node
        walk.append(WalkState(prev, t, load, tuple(stack), length))
    return walk, violation


def simulate_timeline(route: Route, network: RoadNetwork, start_time: float) -> Route:
    """Fill per-stop arrival/departure, the walk state after each stop, the
    first violation met and the length.

    Pure recomputation at unlimited capacity: a violation is recorded and the
    walk goes on; :func:`check_feasibility` judges the route against a fleet.
    """
    route.start_time = float(start_time)
    route.walk, route.violation = _record_walk(route.stops, network, route.start_time)
    route.length = route.walk[-1].length
    return route


def _walk(
    state: WalkState,
    stops: Iterable[Stop],
    network: RoadNetwork,
    capacity: int,
    best_len: float = math.inf,
) -> tuple[WalkState | None, str | None, str]:
    """Advance ``state`` through further stops; returns (state, violation,
    detail), the state being ``None`` at the first violation.

    Abandons with ``(None, None, "")`` once the length reaches ``best_len``,
    since distances are non-negative and cannot recover.
    """
    dist = network.dist
    speed = network.speed
    service = network.service_time
    prev, t, load, stack, length = state
    stack = list(stack)
    for stop in stops:
        node = stop.node
        leg = float(dist[prev, node])
        length += leg
        if length >= best_len:
            return None, None, ""
        t += leg / speed
        prev = node
        t, load, kind, detail = _process_actions(t, load, stack, stop.actions, service, capacity)
        if kind is not None:
            return None, kind, detail
    return WalkState(prev, t, load, tuple(stack), length), None, ""


def frozen_index(route: Route, now: float) -> int:
    """Index of the last stop dispatching may not touch at time ``now``.

    The stop the vehicle occupies (waiting or serving) or is driving toward.
    A never-dispatched or completed route freezes up to its last stop.
    """
    if route.start_time is None:
        return 0
    for idx, stop in enumerate(route.stops):
        if stop.departure > now:
            return idx
    return len(route.stops) - 1


def vehicle_position(route: Route, network: RoadNetwork, now: float) -> tuple[float, float]:
    """Planar position at ``now``: linear interpolation along the current leg."""
    stops = route.stops
    if route.start_time is None or now <= stops[0].departure:
        return network.coords(stops[0].node)
    for i in range(1, len(stops)):
        prev, cur = stops[i - 1], stops[i]
        if now < cur.arrival:
            travel = cur.arrival - prev.departure
            frac = (now - prev.departure) / travel if travel > 0 else 1.0
            x0, y0 = network.coords(prev.node)
            x1, y1 = network.coords(cur.node)
            return (x0 + frac * (x1 - x0), y0 + frac * (y1 - y0))
        if now < cur.departure:
            return network.coords(cur.node)
    return network.coords(stops[-1].node)


def check_feasibility(route: Route, network: RoadNetwork, fleet: FleetConfig) -> Verdict:
    """Re-walk a simulated route and report the first constraint violation."""
    stops = route.stops
    if stops[0].node != route.depot or stops[-1].node != route.depot:
        return Verdict(False, "back-to-depot", f"route of vehicle {route.vehicle} must start and end at depot {route.depot}")
    start = route.start_time if route.start_time is not None else 0.0
    origin = WalkState(stops[0].node, float(start), 0, (), 0.0)
    end, kind, detail = _walk(origin, stops, network, fleet.capacity)
    if kind is not None:
        return Verdict(False, kind, detail)
    if end.stack:
        return Verdict(False, "lifo", f"orders {list(end.stack)} picked up but never delivered")
    return FEASIBLE


# ---------------------------------------------------------------------------
# Insertion planning


def _coalesce(stops: list[Stop], protect: int) -> list[Stop]:
    """Merge adjacent same-node stops, never touching indices <= protect."""
    out: list[Stop] = []
    for i, stop in enumerate(stops):
        if out and len(out) - 1 > protect and out[-1].node == stop.node:
            out[-1].actions.extend(stop.actions)
        else:
            out.append(Stop(stop.node, list(stop.actions)))
    return out


def plan_insertion(
    route: Route,
    order: DeliveryOrder,
    now: float,
    network: RoadNetwork,
    fleet: FleetConfig,
) -> PlannerResult:
    """Find the shortest feasible way to serve ``order`` with this vehicle.

    Enumerates every pickup/delivery gap pair strictly after the frozen
    prefix, keeping existing stops in their relative order; the new stops go
    before the final depot return (a completed route gets a fresh return
    appended).  Ties on length resolve to the lexicographically smallest gap
    pair.  Infeasibility is a value (`PlannerResult.no_fit`), not an error.
    """
    capacity = fleet.capacity
    start = route.start_time if route.start_time is not None else float(now)
    walk, violation = route.walk, route.violation
    if route.start_time is None:
        # Never simulated: walk copies, so the route's own stops keep their times.
        walk, violation = _record_walk([Stop(s.node, s.actions) for s in route.stops], network, start)
    if violation is not None or max(s.load for s in walk) > capacity:
        raise RuntimeError(f"committed route of vehicle {route.vehicle} became infeasible")

    frozen = frozen_index(route, now)
    base = route.stops
    if frozen == len(base) - 1:
        base = [*base, Stop(route.depot)]
    last = len(base) - 1

    # A candidate with the pickup in gap i starts from the walk state after
    # stop i - 1 of the committed route.
    pick = Stop(order.pickup, [Action(PICKUP, order)])
    drop = Stop(order.delivery, [Action(DELIVER, order)])

    best_len = math.inf
    best_pair: tuple[int, int] | None = None
    for i in range(frozen + 1, last + 1):
        mid, _, _ = _walk(walk[i - 1], [pick], network, capacity, best_len)
        if mid is None:
            continue
        for j in range(i, last + 1):
            cand, _, _ = _walk(mid, [drop, *base[j:]], network, capacity, best_len)
            if cand is not None and cand.length < best_len:
                best_len = cand.length
                best_pair = (i, j)
            if j < last:
                mid, _, _ = _walk(mid, [base[j]], network, capacity)
                if mid is None:
                    break

    if best_pair is None:
        return PlannerResult.no_fit()

    i, j = best_pair
    new_stops = _coalesce([*base[:i], pick, *base[i:j], drop, *base[j:]], frozen)
    best_route = Route(vehicle=route.vehicle, depot=route.depot, stops=new_stops, frozen_until=frozen)
    simulate_timeline(best_route, network, start)
    return PlannerResult(True, route.length, best_route.length, best_route)


def route_dump(route: Route) -> str:
    """One line per stop: ``node arrival departure [+id|-id]...`` for trace diffing."""
    lines = []
    for stop in route.stops:
        marks = " ".join(
            ("+" if a.kind == PICKUP else "-") + str(a.order.id) for a in stop.actions
        )
        line = f"{stop.node} {stop.arrival:.3f} {stop.departure:.3f}"
        lines.append(line + (" " + marks if marks else ""))
    return "\n".join(lines)
