"""Episode simulator and the route-centric decision process.

Orders are processed strictly in creation order, each immediately on
arrival.  For every order the simulator plans the order onto each vehicle's
route, builds the joint state from the plans (five features per vehicle:
the length of its committed and of its planned route, demand-alignment
score of the planned route, used flag and the current interval index),
hands it to a dispatch policy, and commits the chosen vehicle's best
insertion.  The demand score reads a forecast grid of ``n_factories x
horizon`` cells; a caller's grid of another shape is refused up front.
Rewards are cost-shaped: an instant term charging the per-km cost of the
detour plus the fixed cost when the assignment activates a fresh vehicle,
and an episode-mean term added to every order's reward once the day ends.
The instant terms alone sum to the negated scaled total cost, and the mean
terms add the same sum again, so the summed signal is twice the negated
scaled total cost.

Only a transition whose next order falls in the same interval has a next
state to bootstrap from (5.0%, 15.8%, 30.5% and 70.0% of greedy ones at 6,
30, 60 and 300 orders a day) until a day-end rule wins (ROADMAP item 2).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import demand, routing
from .demand import DemandError, build_demand_grid, predict_grid
from .instance import DeliveryOrder, Instance
from .routing import PlannerResult, Route, Stop, order_stops, plan_insertion

DEFAULT_ALPHA = 0.01


class UnserviceableOrderError(RuntimeError):
    """No vehicle can feasibly serve an order; the episode cannot continue."""

    def __init__(self, order_id: int):
        super().__init__(f"no vehicle has a feasible insertion for order {order_id}")


@dataclass
class JointState:
    """Fleet state with respect to one order, one row per vehicle.

    ``features`` holds each vehicle's five features: the length of its
    committed route and of the planner's best route, the Jensen-Shannon score
    between the planned route's residual capacity and the demand forecast,
    the used flag (1 once the vehicle has a committed order) and the
    interval of the decision time; the row is all -1 when the vehicle is
    infeasible.  ``positions`` holds each vehicle's current coordinates.
    ``accepted`` carries each vehicle's committed order count as side
    information for dispatch rules; it is not part of the feature rows.
    """

    features: np.ndarray  # (K, 5) float
    feasible: np.ndarray  # (K,) bool
    positions: np.ndarray  # (K, 2) float
    accepted: np.ndarray  # (K,) int
    order_id: int

    @property
    def n_vehicles(self) -> int:
        return len(self.feasible)


@dataclass
class Transition:
    """One decision; ``next_state`` is ``None`` unless its target bootstraps."""

    state: JointState
    action: int
    reward: float
    next_state: JointState | None


@dataclass
class AssignmentRecord:
    order_id: int
    vehicle: int
    delta_d: float
    reward: float
    frozen_until: int
    stops: tuple[Stop, ...]


@dataclass
class EpisodeReport:
    nuv: int
    ttl: float
    tc: float
    assignments: list[AssignmentRecord]
    routes: list[Route]
    decision_seconds_mean: float = 0.0
    decision_seconds_max: float = 0.0

    def trace_lines(self) -> list[str]:
        return [
            f"{a.order_id} {a.vehicle} {a.delta_d!r} {a.reward!r}" for a in self.assignments
        ]

    def to_dict(self) -> dict:
        return {
            "nuv": self.nuv,
            "ttl": self.ttl,
            "tc": self.tc,
            "assignments": [
                {
                    "order": a.order_id,
                    "vehicle": a.vehicle,
                    "delta_d": a.delta_d,
                    "reward": a.reward,
                }
                for a in self.assignments
            ],
            "routes": [
                {
                    "vehicle": r.vehicle,
                    "stops": [
                        {
                            "node": s.node,
                            "arrival": w.arrival,
                            "departure": w.departure,
                            "actions": [(a.kind, a.order.id) for a in s.actions],
                        }
                        for s, w in zip(r.stops, r.walk, strict=True)
                    ],
                    "length": r.length,
                }
                for r in self.routes
            ],
            "decision_seconds_mean": self.decision_seconds_mean,
            "decision_seconds_max": self.decision_seconds_max,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1, sort_keys=True) + "\n"


def instant_reward(
    used_flag: int, delta_d: float, fixed_cost: float, unit_cost: float, alpha: float
) -> float:
    """Negated, scaled marginal cost of one assignment.

    The fixed cost is charged exactly when the assignment activates the
    vehicle (its used flag is still 0), so instant rewards over an episode
    sum to ``-alpha * (fixed_cost * NUV + unit_cost * TTL)``.
    """
    activation = 1 if used_flag == 0 else 0
    return -alpha * (fixed_cost * activation + unit_cost * delta_d)


def long_term_reward(instant_rewards: Sequence[float]) -> float:
    """Mean instant reward per served order across the whole episode."""
    if not instant_rewards:
        raise ValueError("cannot average rewards over an episode with no served orders")
    return float(sum(instant_rewards) / len(instant_rewards))


def episode_demand_grid(instance: Instance) -> np.ndarray:
    """Forecast grid for an episode: mean over history days when available,
    otherwise the instance's own order stream.  That fallback is
    clairvoyant: it sees each of the day's orders before it is created."""
    n = instance.network.n_factories
    if instance.history:
        grids = [build_demand_grid(day, n, instance.horizon) for day in instance.history]
        return predict_grid(grids)
    return build_demand_grid(instance.orders, n, instance.horizon)


def _forecast(instance: Instance, predicted: np.ndarray | None) -> np.ndarray:
    """The episode's forecast grid, or a caller's grid once its shape is
    checked against the instance's (factories, intervals)."""
    if predicted is None:
        return episode_demand_grid(instance)
    shape = (instance.network.n_factories, instance.horizon)
    if predicted.shape != shape:
        raise DemandError(f"forecast grid shape {predicted.shape} does not match (factories, horizon) {shape}")
    return predicted


def _fleet_state(
    order: DeliveryOrder,
    routes: Sequence[Route],
    accepted: Sequence[int],
    instance: Instance,
    predicted: np.ndarray,
    now: float,
) -> tuple[JointState, list[PlannerResult]]:
    """Plan ``order`` onto every route; returns the joint state and the plans.

    An idle route (``accepted[k] == 0``) is its depot stop planned from
    ``now``, so every idle route with the same depot gets the same best
    route, feature row and position (its depot).  These are computed once
    per such idle class and copied, bit for bit, to the class's other
    vehicles; a dispatched route's are computed for it alone.  The demand
    cells index ``predicted``, the instance's checked (factories, intervals) grid.

    The planner, the demand functions and ``vehicle_position`` are looked up
    at call time (``plan_insertion`` as this module's global, the others
    through their modules), so a wrapper installed there, as the perfbench
    tracer installs, sees every call: one plan per vehicle, one demand
    score per feasible dispatched vehicle and per feasible idle class, and
    one position per dispatched vehicle and per idle class.
    """
    network, fleet = instance.network, instance.fleet
    stops = order_stops(order)
    plans = [plan_insertion(route, stops, now, network, fleet) for route in routes]
    interval = instance.interval_of(now)
    rows, positions = [], []
    memo: dict[int | None, tuple[tuple[float, ...], tuple[float, float]]] = {}
    for k, (route, plan) in enumerate(zip(routes, plans, strict=True)):
        idle_class = route.stops[0].node if accepted[k] == 0 else None
        if idle_class is None or idle_class not in memo:
            row = (-1.0,) * 5
            best = plan.best_route
            if best is not None:
                cells = demand.route_cells(best, *predicted.shape)
                score = demand.divergence_score(
                    demand.capacity_profile(best, cells, fleet.capacity), demand.demand_profile(cells, predicted)
                )
                row = (route.length, best.length, score, float(accepted[k] > 0), interval)
            memo[idle_class] = row, routing.vehicle_position(route, network, now)
        row, position = memo[idle_class]
        rows.append(row)
        positions.append(position)
    state = JointState(
        features=np.array(rows, dtype=float),
        feasible=np.array([plan.feasible for plan in plans], dtype=bool),
        positions=np.array(positions, dtype=float),
        accepted=np.array(accepted, dtype=int),
        order_id=order.id,
    )
    return state, plans


PolicyFn = Callable[[JointState], int]


def run_episode(
    instance: Instance,
    policy: PolicyFn,
    alpha: float = DEFAULT_ALPHA,
    predicted: np.ndarray | None = None,
) -> tuple[EpisodeReport, list[Transition]]:
    """Simulate one day; returns the cost report and the transitions.

    Deterministic given the instance and the policy's own randomness; the
    last order of an interval or of the day gets no next state.  Aborts with
    :class:`UnserviceableOrderError` when an order fits no vehicle, and with
    :class:`DemandError` when ``predicted`` is not an ``n_factories x
    horizon`` grid.
    """
    predicted = _forecast(instance, predicted)
    fleet = instance.fleet
    routes = [Route.empty(v.id, v.depot) for v in fleet.vehicles]
    accepted = [0] * len(routes)

    records: list[AssignmentRecord] = []
    states: list[JointState] = []
    decision_times: list[float] = []

    for order in instance.orders:
        now = float(order.created_at)
        t0 = time.perf_counter()
        state, plans = _fleet_state(order, routes, accepted, instance, predicted, now)
        if not state.feasible.any():
            raise UnserviceableOrderError(order.id)
        k = int(policy(state))
        decision_times.append(time.perf_counter() - t0)
        new_route = plans[k].best_route
        if new_route is None:
            raise ValueError(f"policy chose infeasible vehicle {k} for order {order.id}")
        frozen = routing.frozen_index(routes[k], now)
        if new_route.stops[: frozen + 1] != routes[k].stops[: frozen + 1]:
            raise RuntimeError(
                f"insertion for order {order.id} altered the frozen prefix of vehicle {k}"
            )
        delta = new_route.length - routes[k].length
        r = instant_reward(accepted[k] > 0, delta, fleet.fixed_cost, fleet.unit_cost, alpha)
        routes[k] = new_route
        accepted[k] += 1
        records.append(
            AssignmentRecord(
                order_id=order.id,
                vehicle=k,
                delta_d=delta,
                reward=r,
                frozen_until=frozen,
                stops=tuple(new_route.stops),
            )
        )
        states.append(state)

    if records:
        mean_reward = long_term_reward([rec.reward for rec in records])
        for rec in records:
            rec.reward += mean_reward
    intervals = [instance.interval_of(o.created_at) for o in instance.orders]
    transitions = [
        Transition(state, rec.vehicle, rec.reward, nxt if a == b else None)
        for state, rec, nxt, a, b in zip(states, records, states[1:] + [None], intervals, intervals[1:] + [None])
    ]

    nuv = sum(1 for n in accepted if n > 0)
    ttl = sum(r.length for r in routes)
    report = EpisodeReport(
        nuv=nuv,
        ttl=ttl,
        tc=fleet.fixed_cost * nuv + fleet.unit_cost * ttl,
        assignments=records,
        routes=routes,
        decision_seconds_mean=float(np.mean(decision_times)) if decision_times else 0.0,
        decision_seconds_max=float(max(decision_times)) if decision_times else 0.0,
    )
    return report, transitions
