"""Route representation and the constrained insertion planner.

A route is a sequence of stops from its depot, its first stop, back to it:
immutable values, each a node and a tuple of load/unload actions.  Its
times live only in its walk, simulated with a constant travel speed, a
fixed per-action service time and waiting at pickups whose order has not
been created yet.  Feasibility covers four constraints: delivery time
windows, vehicle capacity, LIFO loading (only the most recently loaded
undelivered order may be unloaded), and back-to-depot.

All walking is one forward pass, one loop over stops and their actions:
:func:`_walk` advances a :class:`WalkState` through further stops, stopping
at the first violation and recording each state on request.
:func:`simulate_timeline` records a route's walk through it, so the planner
starts each insertion candidate from a recorded state instead of re-walking
the prefix.  A walk's departures never decrease, so :func:`frozen_index` and
:func:`vehicle_position` find the state of a given minute by bisection.

The planner screens gap pairs by length before it walks them whole
(Savelsbergh, *ORSA J. Computing* 4(2), 1992; Campbell & Savelsbergh,
*Transportation Science* 38(3), 2004, without their time-window slack).  The
walks through the pickup and on to each delivery gap decide which pairs
capacity and LIFO allow, and each allowed pair's length follows in O(1) from
the committed walk.  Pairs are walked best prediction first, each walk cut
at the best length so far, until a prediction passes that length by more
than ``SCREEN_SLACK``; the walk, not the prediction, decides, so the answer
and its tie-break are those of a full scan.  The winner's timeline resumes
from the committed walk's states of the stops the insertion leaves in place.
A route with nothing left to serve (never dispatched, completed, or driving
to its final depot stop) has one gap pair, after that stop and back to it,
so it is planned by one walk with no search.

Dispatching must not interfere with a moving vehicle: stops up to the
frozen stop (:func:`frozen_index`, the one the vehicle occupies or drives
toward) stay in place, and new stops may only be inserted after them.

The planner answers only with the best route, or ``None`` when the order
fits nowhere on the vehicle; the route lengths before and after are the
committed and the planned route's :attr:`Route.length`.  :mod:`dpdplab.env`
turns plans into the fleet state's feature rows.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import partial
from operator import itemgetter
from typing import Iterable, NamedTuple

from .instance import DeliveryOrder, FleetConfig, RoadNetwork

PICKUP = "pickup"
DELIVER = "deliver"

# Minutes a delivery may finish past its deadline and still count as on
# time.  Exact pricing cuts with the same tolerance, so a priced route walks
# through to its end.
DEADLINE_TOLERANCE = 1e-9

# The planner stops confirming gap pairs once a predicted length exceeds the
# best walked length by this relative slack.  A prediction adds the same legs
# as the walk it stands for, in a different order, so over m legs the two
# differ by at most about 2m * 2^-53 of the longer of the committed and the
# new length (the new one, on a metric).  Like baselines.COMPLETION_SLACK,
# 1e-6 leaves a wide margin over that for any route the lab plans.
SCREEN_SLACK = 1e-6


@dataclass(frozen=True)
class Action:
    kind: str
    order: DeliveryOrder


@dataclass(frozen=True)
class Stop:
    node: int
    actions: tuple[Action, ...] = ()


class WalkState(NamedTuple):
    """Where a walk stands after a stop: the stop's node, the minutes it is
    reached and left, the cargo load, the LIFO stack (bottom first) and the
    length driven."""

    node: int
    arrival: float
    departure: float
    load: int
    stack: tuple[int, ...]
    length: float


# Builds a WalkState from the tuple of its six fields, in order, without the
# NamedTuple's Python-level __new__ and so without its arity check; the
# walker makes one per stop it records.
_state = partial(tuple.__new__, WalkState)

# A walk's departures never decrease (legs, waits and service only add time),
# so the first state left after a given minute is found by bisecting them.
_DEPARTURE = itemgetter(2)
_LOAD = itemgetter(3)


@dataclass
class Route:
    """A vehicle's committed stop sequence plus its simulated timeline.

    ``walk`` is the route's only timeline: ``walk[i]`` is the state after
    ``stops[i]``, its arrival and departure included, so the vehicle leaves
    its depot at ``walk[0].departure``.  :func:`simulate_timeline` fills it
    and ``violation``, the first time-window or LIFO violation met (``None``
    if there was none); the walk of an infeasible route ends at the stop of
    that violation.  A never-dispatched route is :meth:`empty`: its depot
    stop alone, walked at minute 0.
    """

    vehicle: int
    stops: list[Stop]
    walk: list[WalkState] = field(default_factory=list)
    violation: str | None = None

    @classmethod
    def empty(cls, vehicle: int, depot: int) -> "Route":
        return cls(vehicle, [Stop(depot)], walk=[_state((depot, 0.0, 0.0, 0, (), 0.0))])

    @property
    def length(self) -> float:
        return self.walk[-1].length


@dataclass
class PlannerResult:
    """Outcome of planning one order onto one vehicle: the simulated best
    route, ``None`` when no feasible insertion exists.

    A plan is its route; the class stays only so that the benchmark's
    planner tracer (``_note_plan`` in ``perfbench/layers.py``) can keep
    reading ``feasible``.
    """

    best_route: Route | None

    @property
    def feasible(self) -> bool:
        return self.best_route is not None


# ---------------------------------------------------------------------------
# Walking a route


def _walk(
    state: WalkState,
    stops: Iterable[Stop],
    network: RoadNetwork,
    capacity: float,
    best_len: float = math.inf,
    record: list[WalkState] | None = None,
) -> tuple[WalkState | None, str | None]:
    """Advance ``state`` through further stops; returns (state, violation),
    the state being ``None`` at the first violation.

    A violation is ``"capacity"`` (a pickup lifts the load above
    ``capacity``), ``"lifo"`` (a delivery whose order is not on top of the
    stack, which then skips its pop) or ``"time-window"`` (a delivery
    finishing after its deadline plus ``DEADLINE_TOLERANCE``).  Each stop
    runs all of its actions and keeps the first violation met.  Abandons
    with ``(None, None)`` once the length reaches ``best_len``, since
    distances are non-negative and cannot recover.  When ``record`` is
    given, the state after each stop walked is appended to it, the stop of a
    violation included.
    """
    dist = network.dist
    speed = network.speed
    service = network.service_time
    prev, arrival, t, load, stack, length = state
    stack = list(stack)
    for stop in stops:
        node = stop.node
        leg = dist.item(prev, node)
        length += leg
        if length >= best_len:
            return None, None
        arrival = t = t + leg / speed
        prev = node
        kind = None
        for act in stop.actions:
            o = act.order
            if act.kind == PICKUP:
                if t < o.created_at:
                    t = float(o.created_at)
                t += service
                load += o.quantity
                stack.append(o.id)
                if load > capacity and kind is None:
                    kind = "capacity"
            else:
                if stack and stack[-1] == o.id:
                    stack.pop()
                elif kind is None:
                    kind = "lifo"
                t += service
                if t > o.latest_delivery + DEADLINE_TOLERANCE and kind is None:
                    kind = "time-window"
                load -= o.quantity
        if record is not None:
            record.append(_state((prev, arrival, t, load, tuple(stack), length)))
        if kind is not None:
            return None, kind
    if record:
        return record[-1], None
    return _state((prev, arrival, t, load, tuple(stack), length)), None


def simulate_timeline(route: Route, network: RoadNetwork, start: float | list[WalkState]) -> Route:
    """Record the walk state after each stop and the first violation met.

    ``start`` is either the minute the route leaves its first stop
    (``dist`` has a zero diagonal, so reaching it takes no time) or a
    non-empty list of the states of the route's first stops as this walk
    would record them, which becomes the start of ``route.walk`` and after
    which the walk resumes; a list that covers every stop is kept as the
    whole walk, with no violation.  The walk runs at unlimited capacity, so
    it goes through every stop or ends at the first time-window or LIFO
    violation.
    """
    if isinstance(start, list):
        route.walk, state = start, start[-1]
    else:
        t = float(start)
        route.walk, state = [], _state((route.stops[0].node, t, t, 0, (), 0.0))
    _, route.violation = _walk(state, route.stops[len(route.walk):], network, math.inf, record=route.walk)
    return route


def frozen_index(route: Route, now: float) -> int:
    """Index of the last stop dispatching may not touch at time ``now``.

    The stop the vehicle occupies (waiting or serving) or is driving toward.
    A never-dispatched or completed route freezes up to its last stop.
    """
    idx = bisect_right(route.walk, now, key=_DEPARTURE)
    return idx if idx < len(route.walk) else len(route.stops) - 1


def vehicle_position(route: Route, network: RoadNetwork, now: float) -> tuple[float, float]:
    """Planar position at ``now``: linear interpolation along the current leg."""
    walk = route.walk
    if now <= walk[0].departure:
        return network.coords(route.stops[0].node)
    idx = bisect_right(walk, now, key=_DEPARTURE)
    if idx == len(walk):
        return network.coords(walk[-1].node)
    prev, cur = walk[idx - 1], walk[idx]
    if now >= cur.arrival:
        return network.coords(cur.node)
    travel = cur.arrival - prev.departure
    frac = (now - prev.departure) / travel if travel > 0 else 1.0
    x0, y0 = network.coords(prev.node)
    x1, y1 = network.coords(cur.node)
    return (x0 + frac * (x1 - x0), y0 + frac * (y1 - y0))


# ---------------------------------------------------------------------------
# Insertion planning


def _coalesce(stops: list[Stop], protect: int) -> list[Stop]:
    """Merge adjacent same-node stops, never touching indices <= protect."""
    out: list[Stop] = []
    for stop in stops:
        if out and len(out) - 1 > protect and out[-1].node == stop.node:
            out[-1] = Stop(stop.node, out[-1].actions + stop.actions)
        else:
            out.append(stop)
    return out


def order_stops(order: DeliveryOrder) -> tuple[Stop, Stop]:
    """The order's pickup and delivery stops, for every plan of the order."""
    return Stop(order.pickup, (Action(PICKUP, order),)), Stop(order.delivery, (Action(DELIVER, order),))


def plan_insertion(
    route: Route,
    stops: tuple[Stop, Stop],
    now: float,
    network: RoadNetwork,
    fleet: FleetConfig,
) -> PlannerResult:
    """Find the shortest feasible way to serve an order with this vehicle.

    ``stops`` are the order's pickup and delivery stops from
    :func:`order_stops`, built once per order and shared by its plans.
    Considers every pickup/delivery gap pair strictly after the frozen
    prefix, keeping existing stops in their relative order; the new stops go
    before the final depot return.  When the frozen stop is that return (a
    never-dispatched or completed route, or one driving home), the one gap
    pair puts the new stops after it, followed by a fresh return, and one
    walk from its state decides.  Otherwise pairs are screened by their
    predicted length and confirmed best first by one bounded walk each (see
    the module docstring); the answer is the feasible pair of least (walked
    length, pickup gap, delivery gap), so ties on length go to the
    lexicographically smallest gap pair.  The best route's walk resumes from
    the committed walk's states of the stops it keeps.  Infeasibility is a
    value (a ``best_route`` of ``None``), not an error.
    """
    capacity = fleet.capacity
    walk, base = route.walk, route.stops
    if len(base) == 1:
        # A never-dispatched route is Route.empty's depot stop, which cannot
        # be infeasible; it leaves now.
        start = float(now)
        walk = [_state((base[0].node, start, start, 0, (), 0.0))]
        frozen = 0
    else:
        if route.violation is not None or max(map(_LOAD, walk)) > capacity:
            raise RuntimeError(f"committed route of vehicle {route.vehicle} became infeasible")
        frozen = frozen_index(route, now)
    last = len(base) - 1

    pick, drop = stops
    if frozen == last:
        # Nothing left to serve: the one gap pair puts the order after the
        # final depot stop and returns to that depot.  The walk goes on from
        # that stop's state.  On a completed route its departure is when the
        # last trip ended, which may be before ``now``: a known fault, whose
        # fix (starting the new trip at the later of the two) belongs here.
        trip = [pick, drop, base[-1]]
        timeline = list(walk)
        if _walk(walk[-1], trip, network, capacity, record=timeline)[1] is not None:
            return PlannerResult(None)
        return PlannerResult(simulate_timeline(Route(route.vehicle, [*base, *trip]), network, timeline))

    # A candidate with the pickup in gap i starts from the walk state after
    # stop i - 1 of the committed route; with the delivery in gap j it then
    # drives from ``mid`` to the delivery and on to stop j, and from there
    # the committed route's rest.
    dist = network.dist
    cur_len = walk[-1].length
    candidates = []
    for i in range(frozen + 1, last + 1):
        mid, _ = _walk(walk[i - 1], [pick], network, capacity)
        if mid is None:
            continue
        for j in range(i, last + 1):
            rest = cur_len - walk[j].length
            via_drop = dist.item(mid.node, drop.node) + dist.item(drop.node, base[j].node)
            candidates.append((mid.length + via_drop + rest, i, j, mid))
            if j < last:
                mid, _ = _walk(mid, [base[j]], network, capacity)
                if mid is None:
                    break

    candidates.sort()
    best_len = math.inf
    best_pair: tuple[int, int] | None = None
    for predicted, i, j, mid in candidates:
        if predicted > best_len * (1.0 + SCREEN_SLACK):
            break
        # An earlier gap pair also wins on an equal length.
        cut = math.nextafter(best_len, math.inf) if best_pair is not None and (i, j) < best_pair else best_len
        cand, _ = _walk(mid, [drop, *base[j:]], network, capacity, cut)
        if cand is not None:
            best_len, best_pair = cand.length, (i, j)

    if best_pair is None:
        return PlannerResult(None)

    i, j = best_pair
    new_stops = _coalesce([*base[:i], pick, *base[i:j], drop, *base[j:]], frozen)
    # No stop after the frozen one shares a node with its successor in a
    # planned route, so _coalesce keeps every stop before i - 1, and stop
    # i - 1 too unless the pickup merges into it; their committed states,
    # stop 0's at least since it is frozen, are what a fresh walk records.
    kept = i - 1 if new_stops[i - 1] is not base[i - 1] else i
    best_route = Route(vehicle=route.vehicle, stops=new_stops)
    simulate_timeline(best_route, network, walk[:kept])
    return PlannerResult(best_route)
