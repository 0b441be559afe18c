"""Problem data model: road network, order stream, fleet configuration.

An :class:`Instance` bundles everything one simulated day needs: a complete
road network (factories and depots with pairwise distances), a time-ordered
stream of delivery orders, a homogeneous fleet, the number of equal time
intervals the day is split into, and optionally a few past days of orders
used for demand forecasting.

Instances are stored as a single JSON document; the schema is documented in
``docs/instance-format.md``.  Distances are kilometres, times are minutes
from midnight, quantities are integer cargo units.
"""

from __future__ import annotations

import json
import types
import typing
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from functools import cache
from pathlib import Path
from typing import Sequence

import numpy as np

MINUTES_PER_DAY = 1440
TRIANGLE_TOLERANCE = 1e-9

FACTORY = "factory"
DEPOT = "depot"


class InstanceError(ValueError):
    """Raised when instance data violates the schema or an invariant."""


@dataclass(frozen=True)
class Node:
    id: int
    role: str  # "factory" | "depot"
    x: float
    y: float


@dataclass(frozen=True)
class DeliveryOrder:
    """One pickup-and-delivery request.

    ``created_at`` is both the release time and the earliest minute a
    vehicle may start loading at the pickup factory; ``latest_delivery``
    is the latest minute unloading at the delivery factory may finish.
    """

    id: int
    pickup: int
    delivery: int
    quantity: int
    created_at: int
    latest_delivery: int

    def validate(self, prefix: str) -> None:
        if self.pickup == self.delivery:
            raise InstanceError(f"{prefix}.delivery must differ from pickup")
        if self.quantity <= 0:
            raise InstanceError(f"{prefix}.quantity must be positive")
        if not 0 <= self.created_at:
            raise InstanceError(f"{prefix}.created_at must be non-negative")
        if self.latest_delivery <= self.created_at:
            raise InstanceError(f"{prefix}.latest_delivery must exceed created_at")
        if self.latest_delivery > MINUTES_PER_DAY:
            raise InstanceError(f"{prefix}.latest_delivery must be at most {MINUTES_PER_DAY}")


@dataclass(frozen=True)
class VehicleSpec:
    id: int
    depot: int


@dataclass
class FleetConfig:
    vehicles: list[VehicleSpec]
    capacity: int
    fixed_cost: float = 300.0
    unit_cost: float = 2.0

    def validate(self, depot_ids: set[int]) -> None:
        if not self.vehicles:
            raise InstanceError("fleet.vehicles must not be empty")
        for i, v in enumerate(self.vehicles):
            if v.id != i:
                raise InstanceError(f"fleet.vehicles[{i}].id must equal its position {i}")
        if self.capacity <= 0:
            raise InstanceError("fleet.capacity must be positive")
        # Every comparison with NaN is false, so these also refuse NaN.
        for name in ("fixed_cost", "unit_cost"):
            if not 0 <= getattr(self, name) < np.inf:
                raise InstanceError(f"fleet.{name} must be finite and non-negative")
        for v in self.vehicles:
            if v.depot not in depot_ids:
                raise InstanceError(f"fleet.vehicles[{v.id}].depot is not a depot node")


@dataclass
class RoadNetwork:
    """Complete directed network over factory and depot nodes.

    ``dist`` may be asymmetric when loaded from a file, but must satisfy the
    triangle inequality (checked on load); when it is ``None`` it is derived
    from coordinates as Euclidean distance (then symmetric and
    triangle-inequality consistent).
    """

    nodes: list[Node]
    dist: np.ndarray | None = None
    speed: float = 1.0
    service_time: float = 0.0

    def __post_init__(self):
        if self.dist is None:
            self.dist = euclidean_matrix(self.nodes)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def factory_ids(self) -> list[int]:
        return [n.id for n in self.nodes if n.role == FACTORY]

    @property
    def depot_ids(self) -> list[int]:
        return [n.id for n in self.nodes if n.role == DEPOT]

    @property
    def n_factories(self) -> int:
        return len(self.factory_ids)

    def coords(self, node: int) -> tuple[float, float]:
        n = self.nodes[node]
        return (n.x, n.y)

    def validate(self) -> None:
        if not self.nodes:
            raise InstanceError("network.nodes must not be empty")
        for i, node in enumerate(self.nodes):
            if node.id != i:
                raise InstanceError(f"network.nodes[{i}].id must equal its position {i}")
            if node.role not in (FACTORY, DEPOT):
                raise InstanceError(f"network.nodes[{i}].role must be 'factory' or 'depot'")
            if node.role == FACTORY and i and self.nodes[i - 1].role == DEPOT:
                raise InstanceError(f"network.nodes[{i}] is a factory after a depot; factories must come first")
            for axis in ("x", "y"):
                if not np.isfinite(getattr(node, axis)):
                    raise InstanceError(f"network.nodes[{i}].{axis} must be finite")
        n = self.n_nodes
        if self.dist.shape != (n, n):
            raise InstanceError(f"network.dist must be a {n}x{n} matrix")
        if not np.all(np.isfinite(self.dist)):
            raise InstanceError("network.dist entries must be finite")
        if np.any(self.dist < 0):
            raise InstanceError("network.dist entries must be non-negative")
        if np.any(np.diag(self.dist) != 0):
            raise InstanceError("network.dist diagonal must be zero")
        if not 0 < self.speed < np.inf:
            raise InstanceError("network.speed must be finite and positive")
        if not 0 <= self.service_time < np.inf:
            raise InstanceError("network.service_time must be finite and non-negative")


def euclidean_matrix(nodes: Sequence[Node]) -> np.ndarray:
    xy = np.array([[n.x, n.y] for n in nodes], dtype=float).reshape(-1, 2)
    diff = xy[:, None, :] - xy[None, :, :]
    return np.sqrt((diff**2).sum(axis=2))


@dataclass
class Instance:
    network: RoadNetwork
    orders: list[DeliveryOrder]
    fleet: FleetConfig
    horizon: int = 144
    history: list[list[DeliveryOrder]] | None = None

    def interval_of(self, minute: float) -> int:
        """Interval index of a time, clamped into [0, horizon)."""
        idx = int(minute // (MINUTES_PER_DAY / self.horizon))
        return min(max(idx, 0), self.horizon - 1)

    @property
    def n_vehicles(self) -> int:
        return len(self.fleet.vehicles)

    def validate(self) -> None:
        self.network.validate()
        if self.horizon < 1 or MINUTES_PER_DAY % self.horizon != 0:
            raise InstanceError("horizon must be a positive divisor of 1440")
        factory_ids = set(self.network.factory_ids)
        depot_ids = set(self.network.depot_ids)
        if not depot_ids:
            raise InstanceError("network must contain at least one depot")
        self.fleet.validate(depot_ids)
        for where, orders in [("orders", self.orders)] + [
            (f"history[{d}]", day) for d, day in enumerate(self.history or [])
        ]:
            seen: set[int] = set()
            for i, order in enumerate(orders):
                prefix = f"{where}[{i}]"
                order.validate(prefix)
                if order.pickup not in factory_ids:
                    raise InstanceError(f"{prefix}.pickup must be a factory node")
                if order.delivery not in factory_ids:
                    raise InstanceError(f"{prefix}.delivery must be a factory node")
                if order.id in seen:
                    raise InstanceError(f"{prefix}.id {order.id} repeats an earlier order id")
                seen.add(order.id)
        for i in range(1, len(self.orders)):
            if self.orders[i].created_at < self.orders[i - 1].created_at:
                raise InstanceError(f"orders[{i}] breaks ascending created_at order")

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["network"]["dist"] = self.network.dist.tolist()
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1, sort_keys=True) + "\n"


_JSON_NAMES = {int: "an integer", float: "a number", str: "a string", bool: "a boolean"}


@cache
def _field_types(cls) -> dict:
    return typing.get_type_hints(cls)


def _refused(where: str, expected: str, value) -> InstanceError:
    shown = {dict: "an object", list: "an array"}.get(type(value)) or repr(value)
    return InstanceError(f"{where or 'document'} must be {expected}, not {shown}")


def read_json(tp, value, where: str):
    """Build a value of type ``tp`` from parsed JSON ``value``.

    One rule for every typed file the program reads: a dataclass comes from
    an object, whose absent fields take their defaults and whose unknown
    keys are ignored; a list or tuple from an array; an ``ndarray`` from
    equal-length arrays of numbers; an ``int`` from a number with an integer
    value; a ``float`` from any number; a ``str`` or ``bool`` only from
    itself.  Booleans are not numbers, and ``null`` fills only an
    ``X | None`` field.  Anything else is an InstanceError naming the path
    ``where``, and so is a ValueError from a dataclass's own checks, whose
    message starts with the field it names.
    """
    if tp in _JSON_NAMES:
        if tp in (int, float) and type(value) in (int, float):
            try:
                number = float(value)
            except OverflowError:
                raise InstanceError(f"{where} is too large a number") from None
            if tp is float or number % 1 == 0:
                return tp(value)
        elif type(value) is tp:
            return value
        raise _refused(where, _JSON_NAMES[tp], value)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType:
        (tp,) = [a for a in args if a is not type(None)]
        return None if value is None else read_json(tp, value, where)
    if origin in (list, tuple):
        if not isinstance(value, list):
            raise _refused(where, "an array", value)
        items = [read_json(args[0], v, f"{where}[{i}]") for i, v in enumerate(value)]
        return items if origin is list else tuple(items)
    if is_dataclass(tp):
        if not isinstance(value, dict):
            raise _refused(where, "an object", value)
        prefix = f"{where}." if where else ""
        kwargs = {}
        for f in fields(tp):
            if f.name in value:
                kwargs[f.name] = read_json(_field_types(tp)[f.name], value[f.name], prefix + f.name)
            elif f.default is MISSING:
                raise InstanceError(f"{where or 'document'} is missing field {f.name!r}")
        try:
            return tp(**kwargs)
        except ValueError as exc:
            raise InstanceError(prefix + str(exc)) from None
    if tp is not np.ndarray:
        raise TypeError(f"read_json cannot build {tp!r}")
    rows = read_json(list[list[float]], value, where)
    if len({len(row) for row in rows}) > 1:
        raise InstanceError(f"{where} must have rows of equal length")
    return np.array(rows, dtype=float)


def _check_triangle_inequality(dist: np.ndarray) -> None:
    """Refuse a matrix with ``dist[i][j] > dist[i][k] + dist[k][j]`` beyond the
    relative ``TRIANGLE_TOLERANCE``, which absorbs a Euclidean matrix's rounding.
    Two bounds of the exact solver are admissible only without such a
    shortcut: its branch-and-bound set bound and its pricing's completion
    bound, whose ``baselines.COMPLETION_SLACK`` covers this tolerance.

    One ``n x n`` comparison per intermediate node ``k`` keeps memory at
    ``n^2``.
    """
    for k in range(len(dist)):
        via = dist[:, k, None] + dist[None, k, :]
        bad = np.argwhere(dist > via * (1.0 + TRIANGLE_TOLERANCE))
        if len(bad):
            i, j = bad[0]
            raise InstanceError(
                f"network.dist breaks the triangle inequality: dist[{i}][{j}] = {float(dist[i, j])!r}"
                f" > dist[{i}][{k}] + dist[{k}][{j}] = {float(via[i, j])!r}"
            )


def instance_from_dict(doc: dict) -> Instance:
    """Build and validate an instance; a ``dist`` given in the document must
    also be a metric (a derived Euclidean one is by construction)."""
    inst = read_json(Instance, doc, "")
    inst.validate()
    if doc["network"].get("dist") is not None:
        _check_triangle_inequality(inst.network.dist)
    return inst


def load_instance(path: str | Path) -> Instance:
    path = Path(path)
    if not path.exists():
        raise InstanceError(f"instance file {path} does not exist")
    with path.open("r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InstanceError(f"instance file {path} is not valid JSON: {exc}") from None
    return instance_from_dict(doc)


def save_instance(instance: Instance, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(instance.to_json(), encoding="utf-8")
    return path


# Synthetic generation.  Orders are spread uniformly over factories and the
# day, with a configurable share concentrated on a few hot factories during
# morning/afternoon peaks so demand grids show structure worth forecasting.

_HOT_WINDOWS = ((600, 720), (840, 1020))
_LATEST_CREATION = 1020
_AREA_KM = 10.0  # nodes lie in a square of this side


def generate_instance(
    seed: int,
    n_factories: int,
    n_orders: int,
    n_vehicles: int,
    horizon: int = 144,
    *,
    n_depots: int = 1,
    capacity: int = 12,
    fixed_cost: float = 300.0,
    unit_cost: float = 2.0,
    speed: float = 1.0,
    service_time: float = 0.0,
    hot_spot: float = 0.4,
    history_days: int = 3,
) -> Instance:
    """Deterministically generate a synthetic instance for a given seed."""
    if min(n_factories, n_orders, n_vehicles, horizon, n_depots) < 1:
        raise InstanceError("n_factories, n_orders, n_vehicles, horizon and n_depots must all be >= 1")
    if n_factories < 2:
        raise InstanceError("n_factories must be >= 2 so pickup and delivery can differ")
    if history_days < 0:
        raise InstanceError(f"history_days must be >= 0, not {history_days}")
    if not 0.0 <= hot_spot <= 1.0:
        raise InstanceError(f"hot_spot must be in [0, 1], not {hot_spot}")
    rng = np.random.default_rng(seed)

    nodes = []
    for i in range(n_factories + n_depots):
        role = FACTORY if i < n_factories else DEPOT
        x = round(float(rng.uniform(0.0, _AREA_KM)), 3)
        y = round(float(rng.uniform(0.0, _AREA_KM)), 3)
        nodes.append(Node(id=i, role=role, x=x, y=y))
    network = RoadNetwork(nodes=nodes, speed=speed, service_time=service_time)

    n_hot = max(1, n_factories // 5)
    hot_factories = np.sort(rng.choice(n_factories, size=n_hot, replace=False))

    history = [
        _sample_orders(rng, n_orders, n_factories, capacity, hot_factories, hot_spot)
        for _ in range(history_days)
    ]
    orders = _sample_orders(rng, n_orders, n_factories, capacity, hot_factories, hot_spot)

    depot_ids = [n.id for n in nodes if n.role == DEPOT]
    fleet = FleetConfig(
        vehicles=[VehicleSpec(id=k, depot=depot_ids[k % n_depots]) for k in range(n_vehicles)],
        capacity=capacity,
        fixed_cost=fixed_cost,
        unit_cost=unit_cost,
    )
    inst = Instance(
        network=network,
        orders=orders,
        fleet=fleet,
        horizon=horizon,
        history=history or None,
    )
    inst.validate()
    return inst


def _sample_orders(
    rng: np.random.Generator,
    n_orders: int,
    n_factories: int,
    capacity: int,
    hot_factories: np.ndarray,
    hot_spot: float,
) -> list[DeliveryOrder]:
    qmax = max(1, capacity // 3)
    orders = []
    for i in range(n_orders):
        if rng.random() < hot_spot:
            pickup = int(rng.choice(hot_factories))
            lo, hi = _HOT_WINDOWS[int(rng.integers(len(_HOT_WINDOWS)))]
            created = int(rng.integers(lo, hi))
        else:
            pickup = int(rng.integers(n_factories))
            created = int(rng.integers(0, _LATEST_CREATION))
        delivery = int(rng.integers(n_factories - 1))
        if delivery >= pickup:
            delivery += 1
        quantity = int(rng.integers(1, qmax + 1))
        slack = int(rng.integers(180, 421))
        latest = min(MINUTES_PER_DAY, created + slack)
        orders.append(
            DeliveryOrder(
                id=i,
                pickup=pickup,
                delivery=delivery,
                quantity=quantity,
                created_at=created,
                latest_delivery=latest,
            )
        )
    orders.sort(key=lambda o: (o.created_at, o.id))
    return orders
