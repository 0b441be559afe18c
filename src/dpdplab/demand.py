"""Spatial-temporal demand grids and the capacity/demand alignment score.

A demand grid is a plain ``(n_factories, intervals)`` float array whose cell
(i, j) holds the total cargo quantity created at factory i during interval j.
Forecasting is element-wise averaging over past days' grids.

For a planned route, :func:`route_cells` reads the (factory, arrival-interval)
cell of each factory stop from its walk into aligned integer arrays, which
index two aligned vectors: the vehicle's residual capacity on arrival and
the forecast demand.  Their Jensen-Shannon divergence (base-2 logarithm, so
the value lies in [0, 1]) measures how poorly the route's spare capacity
tracks where demand is expected; low values indicate cheap opportunities to
absorb nearby future orders.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
from typing import Sequence

import numpy as np

from .instance import DeliveryOrder, MINUTES_PER_DAY
from .routing import Route

JS_SMOOTHING = 1e-9

_NODE, _ARRIVAL, _LOAD = itemgetter(0), itemgetter(1), itemgetter(3)


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


def route_cells(route: Route, n_factories: int, intervals: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``(n_factories, intervals)`` grid cells of a simulated route's
    factory stops: their stop indices, factories and arrival intervals, as
    aligned integer arrays.  Arrival intervals past the end of the day clamp
    to the final interval.  Factories are the nodes below ``n_factories``
    (an instance lists them before its depots)."""
    walk = route.walk
    nodes = np.fromiter(map(_NODE, walk), np.intp, len(walk))
    stops = (nodes < n_factories).nonzero()[0]
    cell = np.fromiter(map(_ARRIVAL, walk), float, len(walk))[stops]
    np.floor_divide(cell, MINUTES_PER_DAY / intervals, out=cell)
    return stops, nodes[stops], cell.clip(0, intervals - 1, out=cell).astype(np.intp)


def capacity_profile(route: Route, cells: Sequence[np.ndarray], capacity: int) -> np.ndarray:
    """Residual capacity on arrival at each of the route's cells; the load on
    arrival at a stop is the load after the stop before it, 0 at the first."""
    loads = np.fromiter(chain((0,), map(_LOAD, route.walk)), float, len(route.walk))
    return capacity - loads[cells[0]]


def demand_profile(cells: Sequence[np.ndarray], grid: np.ndarray) -> np.ndarray:
    """Forecast demand at each cell's (factory, interval) coordinate."""
    return grid[cells[1], cells[2]].astype(float, copy=False)


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
