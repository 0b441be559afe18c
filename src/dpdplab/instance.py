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
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

MINUTES_PER_DAY = 1440

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

    def validate(self, prefix: str = "order") -> None:
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
        for i, v in enumerate(self.vehicles):
            if v.id != i:
                raise InstanceError(f"fleet.vehicles[{i}].id must equal its position {i}")
        if self.capacity <= 0:
            raise InstanceError("fleet.capacity must be positive")
        if self.fixed_cost < 0:
            raise InstanceError("fleet.fixed_cost must be non-negative")
        if self.unit_cost < 0:
            raise InstanceError("fleet.unit_cost must be non-negative")
        for v in self.vehicles:
            if v.depot not in depot_ids:
                raise InstanceError(f"fleet.vehicles[{v.id}].depot is not a depot node")


@dataclass
class RoadNetwork:
    """Complete directed network over factory and depot nodes.

    ``dist`` may be asymmetric when loaded from a file; when omitted it is
    derived from coordinates as Euclidean distance (then symmetric and
    triangle-inequality consistent).
    """

    nodes: list[Node]
    dist: np.ndarray
    speed: float
    service_time: float = 0.0

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

    def is_depot(self, node: int) -> bool:
        return self.nodes[node].role == DEPOT

    def coords(self, node: int) -> tuple[float, float]:
        n = self.nodes[node]
        return (n.x, n.y)

    def travel_time(self, a: int, b: int) -> float:
        return float(self.dist[a, b]) / self.speed

    def validate(self) -> None:
        if not self.nodes:
            raise InstanceError("network.nodes must not be empty")
        for i, node in enumerate(self.nodes):
            if node.id != i:
                raise InstanceError(f"network.nodes[{i}].id must equal its position {i}")
            if node.role not in (FACTORY, DEPOT):
                raise InstanceError(f"network.nodes[{i}].role must be 'factory' or 'depot'")
        n = self.n_nodes
        if self.dist.shape != (n, n):
            raise InstanceError(f"network.dist must be a {n}x{n} matrix")
        if not np.all(np.isfinite(self.dist)):
            raise InstanceError("network.dist entries must be finite")
        if np.any(self.dist < 0):
            raise InstanceError("network.dist entries must be non-negative")
        if np.any(np.diag(self.dist) != 0):
            raise InstanceError("network.dist diagonal must be zero")
        if not self.speed > 0:
            raise InstanceError("network.speed must be positive")
        if self.service_time < 0:
            raise InstanceError("network.service_time must be non-negative")


def euclidean_matrix(nodes: Sequence[Node]) -> np.ndarray:
    xy = np.array([[n.x, n.y] for n in nodes], dtype=float)
    diff = xy[:, None, :] - xy[None, :, :]
    return np.sqrt((diff**2).sum(axis=2))


@dataclass
class Instance:
    network: RoadNetwork
    orders: list[DeliveryOrder]
    fleet: FleetConfig
    horizon: int = 144
    history: list[list[DeliveryOrder]] | None = None

    @property
    def interval_minutes(self) -> float:
        return MINUTES_PER_DAY / self.horizon

    def interval_of(self, minute: float) -> int:
        """Interval index of a time, clamped into [0, horizon)."""
        idx = int(minute // self.interval_minutes)
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


@contextmanager
def _reading(field: str):
    """Report a missing or malformed value under ``field`` as an InstanceError."""
    try:
        yield
    except InstanceError:
        raise
    except KeyError as exc:
        raise InstanceError(f"{field} is missing field {exc.args[0]!r}") from None
    except (TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise InstanceError(f"{field} is malformed: {exc}") from None


def _integer(value, field: str) -> int:
    """A JSON number with an integer value; booleans, strings and fractions
    are an InstanceError naming ``field``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not float(value).is_integer():
        raise InstanceError(f"{field} must be an integer, not {value!r}")
    return int(value)


def _order_from_dict(d: dict, prefix: str) -> DeliveryOrder:
    with _reading(prefix):
        return DeliveryOrder(
            **{
                name: _integer(d[name], f"{prefix}.{name}")
                for name in ("id", "pickup", "delivery", "quantity", "created_at", "latest_delivery")
            }
        )


def instance_from_dict(doc: dict) -> Instance:
    if not isinstance(doc, dict):
        raise InstanceError("instance document must be a JSON object")
    for key in ("network", "orders", "fleet"):
        if key not in doc:
            raise InstanceError(f"instance document is missing top-level key {key!r}")
    net = doc["network"]
    with _reading("network.nodes entry"):
        nodes = [
            Node(
                id=_integer(n["id"], f"network.nodes[{i}].id"),
                role=str(n["role"]),
                x=float(n["x"]),
                y=float(n["y"]),
            )
            for i, n in enumerate(net["nodes"])
        ]
    with _reading("network"):
        if net.get("dist") is None:
            dist = euclidean_matrix(nodes)
        else:
            dist = np.array(net["dist"], dtype=float)
            if dist.ndim != 2:
                raise InstanceError("network.dist must be a square matrix")
        network = RoadNetwork(
            nodes=nodes,
            dist=dist,
            speed=float(net.get("speed", 1.0)),
            service_time=float(net.get("service_time", 0.0)),
        )
    fleet_doc = doc["fleet"]
    with _reading("fleet"):
        fleet = FleetConfig(
            vehicles=[
                VehicleSpec(
                    id=_integer(v["id"], f"fleet.vehicles[{i}].id"),
                    depot=_integer(v["depot"], f"fleet.vehicles[{i}].depot"),
                )
                for i, v in enumerate(fleet_doc["vehicles"])
            ],
            capacity=_integer(fleet_doc["capacity"], "fleet.capacity"),
            fixed_cost=float(fleet_doc.get("fixed_cost", 300.0)),
            unit_cost=float(fleet_doc.get("unit_cost", 2.0)),
        )
    with _reading("orders"):
        orders = [_order_from_dict(o, f"orders[{i}]") for i, o in enumerate(doc["orders"])]
    history = doc.get("history")
    if history is not None:
        with _reading("history"):
            history = [
                [_order_from_dict(o, f"history[{d}][{i}]") for i, o in enumerate(day)]
                for d, day in enumerate(history)
            ]
    with _reading("horizon"):
        horizon = _integer(doc.get("horizon", 144), "horizon")
    inst = Instance(network=network, orders=orders, fleet=fleet, horizon=horizon, history=history)
    inst.validate()
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
    area_km: float = 10.0,
    hot_spot: float = 0.4,
    history_days: int = 3,
) -> Instance:
    """Deterministically generate a synthetic instance for a given seed."""
    if min(n_factories, n_orders, n_vehicles, horizon) < 1:
        raise InstanceError("n_factories, n_orders, n_vehicles and horizon must all be >= 1")
    if n_factories < 2:
        raise InstanceError("n_factories must be >= 2 so pickup and delivery can differ")
    rng = np.random.default_rng(seed)

    nodes = []
    for i in range(n_factories + n_depots):
        role = FACTORY if i < n_factories else DEPOT
        x = round(float(rng.uniform(0.0, area_km)), 3)
        y = round(float(rng.uniform(0.0, area_km)), 3)
        nodes.append(Node(id=i, role=role, x=x, y=y))
    network = RoadNetwork(
        nodes=nodes, dist=euclidean_matrix(nodes), speed=speed, service_time=service_time
    )

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
