"""Spatial-temporal demand grids and the capacity/demand alignment score.

A demand grid is a plain ``(n_factories, intervals)`` float array whose cell
(i, j) holds the total cargo quantity created at factory i during interval j.
Forecasting is element-wise averaging over past days' grids.

For a planned route we find the (factory, arrival-interval) cell of each
factory stop once, with :func:`route_cells`, and read two aligned vectors
over those cells: the vehicle's residual capacity on arrival and the
forecast demand.  Their Jensen-Shannon divergence (base-2 logarithm, so the
value lies in [0, 1]) measures how poorly the route's spare capacity tracks
where demand is expected; low values indicate cheap opportunities to absorb
nearby future orders.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .instance import DeliveryOrder, MINUTES_PER_DAY, RoadNetwork
from .routing import Route

JS_SMOOTHING = 1e-9


class DemandError(ValueError):
    """Raised on malformed grids or profile vectors."""


def build_demand_grid(
    orders: Sequence[DeliveryOrder], n_factories: int, intervals: int
) -> np.ndarray:
    """Accumulate order quantities into (pickup factory, creation interval) cells.

    Intervals are left-closed right-open, so a creation time exactly on a
    boundary counts toward the later interval.
    """
    width = MINUTES_PER_DAY / intervals
    grid = np.zeros((n_factories, intervals), dtype=float)
    for o in orders:
        if not 0 <= o.pickup < n_factories:
            raise DemandError(f"order {o.id} pickup {o.pickup} outside factory range 0..{n_factories - 1}")
        j = int(o.created_at // width)
        if not 0 <= j < intervals:
            raise DemandError(f"order {o.id} created_at {o.created_at} outside the day horizon")
        grid[o.pickup, j] += o.quantity
    return grid


def predict_grid(history: Sequence[np.ndarray]) -> np.ndarray:
    """Element-wise mean of past days' grids."""
    if not history:
        raise DemandError("history must contain at least one grid")
    shape = history[0].shape
    for g in history[1:]:
        if g.shape != shape:
            raise DemandError(f"grid shape {g.shape} does not match {shape}")
    return np.stack(history).mean(axis=0)


def route_cells(route: Route, network: RoadNetwork, intervals: int) -> list[tuple[int, int, int]]:
    """(stop index, factory, arrival interval) for each non-depot stop of a
    simulated route; arrival intervals past the end of the day clamp to the
    final interval."""
    width = MINUTES_PER_DAY / intervals
    return [
        (idx, stop.node, min(max(int(state.arrival // width), 0), intervals - 1))
        for idx, (stop, state) in enumerate(zip(route.stops, route.walk, strict=True))
        if not network.is_depot(stop.node)
    ]


def capacity_profile(route: Route, cells: Sequence[tuple[int, int, int]], capacity: int) -> np.ndarray:
    """Residual capacity on arrival at each of the route's cells."""
    return np.array(
        [float(capacity - (route.walk[idx - 1].load if idx > 0 else 0)) for idx, _, _ in cells], dtype=float
    )


def demand_profile(cells: Sequence[tuple[int, int, int]], grid: np.ndarray) -> np.ndarray:
    """Forecast demand at each cell's (factory, interval) coordinate."""
    return np.array([grid[f, j] for _, f, j in cells], dtype=float)


def divergence_score(capacity: np.ndarray, demand: np.ndarray) -> float:
    """Base-2 Jensen-Shannon divergence between the two normalized profiles.

    Both vectors are additively smoothed and renormalized into probability
    distributions (an all-zero vector becomes uniform), so the result is
    well-defined and bounded in [0, 1]; 0 means identical shapes.
    """
    if len(capacity) != len(demand):
        raise DemandError(f"profile length mismatch: {len(capacity)} vs {len(demand)}")
    if len(capacity) == 0:
        raise DemandError("profiles must contain at least one entry")
    p = np.asarray(capacity, dtype=float) + JS_SMOOTHING
    q = np.asarray(demand, dtype=float) + JS_SMOOTHING
    p /= p.sum()
    q /= q.sum()
    m = 0.5 * (p + q)
    js = 0.5 * float(np.sum(p * np.log2(p / m))) + 0.5 * float(np.sum(q * np.log2(q / m)))
    return float(min(max(js, 0.0), 1.0))
