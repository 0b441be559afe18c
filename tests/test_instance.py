import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpdplab.instance import (
    InstanceError,
    generate_instance,
    instance_from_dict,
    load_instance,
    save_instance,
)

MINIMAL = {
    "network": {
        "nodes": [
            {"id": 0, "role": "factory", "x": 0.0, "y": 0.0},
            {"id": 1, "role": "factory", "x": 3.0, "y": 4.0},
            {"id": 2, "role": "depot", "x": 1.0, "y": 0.0},
        ],
        "dist": None,
        "speed": 1.0,
        "service_time": 0.0,
    },
    "orders": [
        {"id": 0, "pickup": 0, "delivery": 1, "quantity": 2, "created_at": 60, "latest_delivery": 600}
    ],
    "fleet": {
        "vehicles": [{"id": 0, "depot": 2}],
        "capacity": 10,
        "fixed_cost": 300.0,
        "unit_cost": 2.0,
    },
    "horizon": 144,
    "history": None,
}


def test_minimal_file_loads(tmp_path):
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(MINIMAL), encoding="utf-8")
    inst = load_instance(path)
    assert len(inst.orders) == 1
    assert inst.network.n_factories == 2
    assert inst.fleet.capacity == 10


def test_order_window_must_be_positive():
    doc = json.loads(json.dumps(MINIMAL))
    doc["orders"][0]["latest_delivery"] = 60
    with pytest.raises(InstanceError, match="latest_delivery must exceed created_at"):
        instance_from_dict(doc)


def test_missing_dist_derives_euclidean():
    bare = json.loads(json.dumps(MINIMAL))
    for key in ("dist", "speed", "service_time"):
        del bare["network"][key]
    bare["network"]["note"] = "unknown keys are ignored"
    for doc in (MINIMAL, bare):
        inst = instance_from_dict(doc)
        assert inst.network.dist[0, 1] == pytest.approx(5.0)
        assert np.all(np.diag(inst.network.dist) == 0)
        assert (inst.network.speed, inst.network.service_time) == (1.0, 0.0)


def test_empty_network_is_refused():
    doc = json.loads(json.dumps(MINIMAL))
    doc["network"]["nodes"] = []
    with pytest.raises(InstanceError, match="network.nodes must not be empty"):
        instance_from_dict(doc)


def test_missing_field_is_named():
    doc = json.loads(json.dumps(MINIMAL))
    del doc["orders"][0]["quantity"]
    with pytest.raises(InstanceError, match="quantity"):
        instance_from_dict(doc)


def test_pickup_equal_delivery_rejected():
    doc = json.loads(json.dumps(MINIMAL))
    doc["orders"][0]["delivery"] = 0
    with pytest.raises(InstanceError, match="delivery must differ"):
        instance_from_dict(doc)


def test_orders_must_be_sorted():
    doc = json.loads(json.dumps(MINIMAL))
    doc["orders"].append(
        {"id": 1, "pickup": 1, "delivery": 0, "quantity": 1, "created_at": 30, "latest_delivery": 400}
    )
    with pytest.raises(InstanceError, match="ascending created_at"):
        instance_from_dict(doc)


def test_horizon_must_divide_day():
    doc = json.loads(json.dumps(MINIMAL))
    doc["horizon"] = 100
    with pytest.raises(InstanceError, match="divisor of 1440"):
        instance_from_dict(doc)


def test_depot_reference_checked():
    doc = json.loads(json.dumps(MINIMAL))
    doc["fleet"]["vehicles"][0]["depot"] = 0
    with pytest.raises(InstanceError, match="depot"):
        instance_from_dict(doc)


def test_round_trip_identity(tmp_path):
    for i, extra in enumerate([{}, {"n_depots": 2, "service_time": 1.5, "history_days": 0}]):
        inst = generate_instance(seed=9, n_factories=5, n_orders=7, n_vehicles=3, **extra)
        path = save_instance(inst, tmp_path / f"a{i}.json")
        again = load_instance(path)
        assert again.to_dict() == inst.to_dict()
        path2 = save_instance(again, tmp_path / f"b{i}.json")
        assert path.read_bytes() == path2.read_bytes()


def test_same_seed_same_bytes():
    a = generate_instance(seed=4, n_factories=8, n_orders=10, n_vehicles=4)
    b = generate_instance(seed=4, n_factories=8, n_orders=10, n_vehicles=4)
    assert a.to_json() == b.to_json()
    c = generate_instance(seed=5, n_factories=8, n_orders=10, n_vehicles=4)
    assert c.to_json() != a.to_json()


def test_reference_scales():
    small = generate_instance(seed=1, n_orders=6, n_vehicles=5, n_factories=8)
    assert len(small.orders) == 6
    assert small.n_vehicles == 5
    wide = generate_instance(seed=1, n_factories=27, n_orders=40, n_vehicles=10, horizon=144)
    assert wide.network.n_factories == 27
    assert wide.horizon == 144


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_generated_invariants(seed):
    inst = generate_instance(seed=seed, n_factories=6, n_orders=8, n_vehicles=3)
    for o in inst.orders:
        assert 0 <= o.created_at < o.latest_delivery <= 1440
        assert o.pickup != o.delivery
        assert 0 < o.quantity <= inst.fleet.capacity
    created = [o.created_at for o in inst.orders]
    assert created == sorted(created)
    d = inst.network.dist
    n = inst.network.n_nodes
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert d[i, j] <= d[i, k] + d[k, j] + 1e-9


def test_asymmetric_distances_accepted():
    doc = json.loads(json.dumps(MINIMAL))
    doc["network"]["dist"] = [
        [0.0, 5.0, 2.0],
        [4.0, 0.0, 2.5],
        [2.0, 3.0, 0.0],
    ]
    inst = instance_from_dict(doc)
    assert inst.network.dist[0, 1] == 5.0
    assert inst.network.dist[1, 0] == 4.0


def test_distance_with_a_shortcut_rejected():
    doc = json.loads(json.dumps(MINIMAL))
    # 0 -> 2 -> 1 is 2.0 + 3.0 = 5.0 km, shorter than the direct 5.5.
    doc["network"]["dist"] = [
        [0.0, 5.5, 2.0],
        [4.0, 0.0, 2.5],
        [2.0, 3.0, 0.0],
    ]
    with pytest.raises(InstanceError, match=r"triangle inequality: dist\[0\]\[1\] = 5.5 > dist\[0\]\[2\] \+ dist\[2\]\[1\] = 5.0"):
        instance_from_dict(doc)


def test_euclidean_rounding_passes_the_triangle_check(tmp_path):
    doc = json.loads(json.dumps(MINIMAL))
    # Collinear nodes whose computed distances break the inequality by 9e-16.
    for node, x in zip(doc["network"]["nodes"], (0.0, 2.738, 7.027)):
        node.update(x=x, y=0.0)
    derived = instance_from_dict(doc)
    d = derived.network.dist
    assert d[0, 2] > d[0, 1] + d[1, 2]
    again = load_instance(save_instance(derived, tmp_path / "collinear.json"))
    assert np.array_equal(again.network.dist, d)


def test_negative_distance_rejected():
    doc = json.loads(json.dumps(MINIMAL))
    doc["network"]["dist"] = [
        [0.0, -5.0, 2.0],
        [4.0, 0.0, 2.5],
        [2.0, 3.0, 0.0],
    ]
    with pytest.raises(InstanceError, match="non-negative"):
        instance_from_dict(doc)


def test_history_days_generated():
    inst = generate_instance(seed=2, n_factories=6, n_orders=5, n_vehicles=2, history_days=4)
    assert inst.history is not None and len(inst.history) == 4
    inst2 = generate_instance(seed=2, n_factories=6, n_orders=5, n_vehicles=2, history_days=0)
    assert inst2.history is None
