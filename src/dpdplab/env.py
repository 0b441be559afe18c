"""Episode simulator and the route-centric decision process.

Orders are processed strictly in creation order, each immediately on
arrival.  For every order the simulator plans the order onto each vehicle's
route, builds the joint state from the plans (five features per vehicle:
current/new route length from the planner, demand-alignment score of the
planned route, used flag and the current interval index), hands it to a
dispatch policy, and commits the chosen vehicle's best insertion.  Rewards
are cost-shaped: an instant term charging the per-km cost of the detour
plus the fixed cost when the assignment activates a fresh vehicle, and an
episode-mean term added to every order's reward once the day ends so the
summed signal equals the negated scaled total cost.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import demand, routing
from .demand import DemandGrid, build_demand_grid, predict_grid
from .instance import DeliveryOrder, Instance
from .routing import PlannerResult, Route, plan_insertion

DEFAULT_ALPHA = 0.01


class UnserviceableOrderError(RuntimeError):
    """No vehicle can feasibly serve an order; the episode cannot continue."""

    def __init__(self, order_id: int):
        super().__init__(f"no vehicle has a feasible insertion for order {order_id}")
        self.order_id = order_id


@dataclass
class JointState:
    """Fleet state with respect to one order, one row per vehicle.

    ``features`` holds each vehicle's five features: the current and new
    route length from the insertion planner, the Jensen-Shannon score
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
    state: JointState
    action: int
    interval_end: bool
    reward: float
    next_state: JointState | None


@dataclass
class AssignmentRecord:
    order_id: int
    vehicle: int
    delta_d: float
    reward: float
    frozen_until: int
    stops: tuple


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
                            "arrival": s.arrival,
                            "departure": s.departure,
                            "actions": [(a.kind, a.order.id) for a in s.actions],
                        }
                        for s in r.stops
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


def episode_demand_grid(instance: Instance) -> DemandGrid:
    """Forecast grid for an episode: mean over history days when available,
    otherwise the instance's own order stream."""
    n = instance.network.n_factories
    if instance.history:
        grids = [build_demand_grid(day, n, instance.horizon) for day in instance.history]
        return predict_grid(grids)
    return build_demand_grid(instance.orders, n, instance.horizon)


def _fleet_state(
    order: DeliveryOrder,
    routes: Sequence[Route],
    accepted: Sequence[int],
    instance: Instance,
    predicted: DemandGrid,
    now: float,
) -> tuple[JointState, list[PlannerResult]]:
    """Plan ``order`` onto every route; returns the joint state and the plans.

    The planner, the demand functions and ``vehicle_position`` are looked up
    at call time (``plan_insertion`` as this module's global, the others
    through their modules), so a wrapper installed there, as the perfbench
    tracer installs, sees every call.
    """
    network, fleet = instance.network, instance.fleet
    plans = [plan_insertion(route, order, now, network, fleet) for route in routes]
    interval = instance.interval_of(now)
    features = np.full((len(routes), 5), -1.0)
    for k, (route, plan) in enumerate(zip(routes, plans)):
        if plan.feasible:
            best = plan.best_route
            cap_vec = demand.capacity_profile(best, fleet.capacity, network, instance.horizon)
            dem_vec = demand.demand_profile(best, predicted, network)
            score = demand.divergence_score(cap_vec, dem_vec)
            used_flag = 0.0 if route.is_empty else 1.0
            features[k] = (plan.cur_len, plan.new_len, score, used_flag, interval)
    state = JointState(
        features=features,
        feasible=np.array([plan.feasible for plan in plans], dtype=bool),
        positions=np.array([routing.vehicle_position(r, network, now) for r in routes], dtype=float),
        accepted=np.array(accepted, dtype=int),
        order_id=order.id,
    )
    return state, plans


def build_joint_state(
    order: DeliveryOrder,
    routes: Sequence[Route],
    instance: Instance,
    predicted: DemandGrid | None = None,
    now: float | None = None,
) -> JointState:
    """Assemble the fleet state for one order from committed routes."""
    if predicted is None:
        predicted = episode_demand_grid(instance)
    if now is None:
        now = float(order.created_at)
    accepted = [len(r.order_ids()) for r in routes]
    return _fleet_state(order, routes, accepted, instance, predicted, now)[0]


PolicyFn = Callable[[JointState], int]


def run_episode(
    instance: Instance,
    policy: PolicyFn,
    alpha: float = DEFAULT_ALPHA,
    predicted: DemandGrid | None = None,
) -> tuple[EpisodeReport, list[Transition]]:
    """Simulate one day; returns the cost report and the transitions.

    Deterministic given the instance and the policy's own randomness; aborts
    with :class:`UnserviceableOrderError` when an order fits no vehicle.
    """
    if predicted is None:
        predicted = episode_demand_grid(instance)
    fleet = instance.fleet
    routes = [Route.empty(v.id, v.depot) for v in fleet.vehicles]
    accepted = [0] * len(routes)
    orders = instance.orders
    intervals = [instance.interval_of(o.created_at) for o in orders]
    last_in_interval = [
        i == len(orders) - 1 or intervals[i] != intervals[i + 1] for i in range(len(orders))
    ]

    transitions: list[Transition] = []
    rewards: list[float] = []
    records: list[AssignmentRecord] = []
    decision_times: list[float] = []

    for idx, order in enumerate(orders):
        now = float(order.created_at)
        t0 = time.perf_counter()
        state, plans = _fleet_state(order, routes, accepted, instance, predicted, now)
        if not state.feasible.any():
            raise UnserviceableOrderError(order.id)
        k = int(policy(state))
        decision_times.append(time.perf_counter() - t0)
        plan = plans[k]
        if not plan.feasible:
            raise ValueError(f"policy chose infeasible vehicle {k} for order {order.id}")

        new_route = plan.best_route
        frozen = new_route.frozen_until
        if new_route.signatures()[: frozen + 1] != routes[k].signatures()[: frozen + 1]:
            raise RuntimeError(
                f"insertion for order {order.id} altered the frozen prefix of vehicle {k}"
            )
        delta = plan.new_len - plan.cur_len
        used_flag = int(state.features[k, 3])
        r = instant_reward(used_flag, delta, fleet.fixed_cost, fleet.unit_cost, alpha)
        routes[k] = new_route
        accepted[k] += 1
        rewards.append(r)
        records.append(
            AssignmentRecord(
                order_id=order.id,
                vehicle=k,
                delta_d=delta,
                reward=r,
                frozen_until=frozen,
                stops=new_route.signatures(),
            )
        )
        tr = Transition(state, k, last_in_interval[idx], r, None)
        if transitions:
            transitions[-1].next_state = state
        transitions.append(tr)

    if rewards:
        mean_reward = long_term_reward(rewards)
        for tr, rec in zip(transitions, records):
            tr.reward = tr.reward + mean_reward
            rec.reward = tr.reward

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
