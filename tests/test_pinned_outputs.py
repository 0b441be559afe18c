"""Greedy, exact-solver and command-line session outputs pinned to recorded digests.

Each greedy digest is the sha256 of an episode's trace lines plus its report
JSON (without the two wall-clock fields).  The first set was recorded before
the fleet state became arrays, the second (two depots, two minutes of
service per action) before the route walkers were folded into one.  The
fleet-state digests cover every transition's ``features``, ``feasible``,
``positions`` and ``accepted`` bytes; they were recorded before the feature
rows moved from the planner into the environment.  The pricing and
exact-plan digests were recorded before exact pricing gained its completion
bound; they also see which sequence the pricer picks among equal lengths,
which the route oracle (lengths only) cannot.  The insertion-plan digest was
recorded before the planner screened its gap pairs by length; it sees which
gap pair wins among equal lengths, which the brute-force oracle cannot.  The
session digests cover every CSV file of a short command-line session; they
were recorded before the CSV rows went through one formatter.  The same
session's two generated instance files and its checkpoint were pinned
before `gen` took its flags from the generator's signature and the Q
network's blocks shared one parameter registry.  The training digests
cover the online weights and per-episode losses of three training runs,
one at the benchmark's train shape; they were recorded before each state's
network layout came to be built once, on entering the replay buffer.  A
refactor that is meant to keep behaviour must keep these bytes.
"""

import hashlib
import itertools
import json

import numpy as np
import pytest

from dpdplab.baselines import _best_route_for, make_greedy_policy, solve_exact
from dpdplab.cli import main
from dpdplab.env import run_episode
from dpdplab.instance import DEPOT, FACTORY, FleetConfig, VehicleSpec, generate_instance
from dpdplab.policy import QNetworkConfig, Trainer, TrainerConfig
from dpdplab.routing import Route, depart, order_stops, plan_insertion, simulate_timeline

from conftest import make_network, make_order

RECORDED = {
    (0, "incremental"): "e26641731082e453c2cf9d13e4305500bee456d3ff54a76ba3c7279555ea38e8",
    (0, "total"): "af1cc9791d2c2ef222fc0559a041a3fa94a3a25b646a1b4252dc11f56d0a6237",
    (0, "max_orders"): "c3d500f071305ed7198f5f471a815c9f55c11b0c1105fe5998c4c98ab2f5bf96",
    (1, "incremental"): "add68771e0aef8826d11cbbaaa9e75ac80732442c749cc9233b8b0b94d4bf6af",
    (1, "total"): "d05756549dc4c3b6e870c4f02890ec2eb99a8cb316461976cb44aa19a505c207",
    (1, "max_orders"): "353644d7d4a4255d59f2b92238a006c16152f9dc5345a4c1ebb0a62dbf8b8b22",
    (2, "incremental"): "a30fd2dac275129d295139b36259439b395df2a69824741e370889f825baeb26",
    (2, "total"): "8ff983b8caff52ee31fe5e9b0258af0621735db3349a32b1f1edffabf03bdf32",
    (2, "max_orders"): "39550a4fd8d40e46082349acd83c20fb3c48ab651e9867a1e18ea22e94a74c98",
}

SERVICE_DEPOTS = dict(n_depots=2, service_time=2.0)

RECORDED_SERVICE_DEPOTS = {
    (0, "incremental"): "959ac893c26baa1e341a2f381b7e4de7108bdef66896ba27b53401fbab1065b5",
    (0, "total"): "b19ffcab62ab63ddfcfc2ca63ae66ecf8c5bf641f77626d37a6a693a36c49bf8",
    (0, "max_orders"): "18d2630100bb734383e18f45e2ce7d04df7a120b10794dc7caab7f16b58734f5",
    (1, "incremental"): "739cb43129025088a9c2ea4bf73f749f0edfc42664a56233cc3d4611d822c703",
    (1, "total"): "39653efe04f07a54e8589767f059e50d14d5844e7714972156b4724318e1f36e",
    (1, "max_orders"): "5f41c699e071cb7e4b313483363012f5e870feb7e33f9bd64b44e7711a78ae8f",
}

# sha256 of to_json() for the instances behind RECORDED_SERVICE_DEPOTS.
RECORDED_SERVICE_DEPOTS_JSON = {
    0: "1762bf81a81e70498c99f5b928930624657badb40587f2fba9766c2de6a07841",
    1: "8625fad02e5ec332f653ce6ef1d2fdf5f77cf258e0fecb2f10950711621301cb",
}

# (seed, service and two depots, rule) -> sha256 of every transition's state arrays.
RECORDED_FLEET_STATES = {
    (0, False, "incremental"): "8e2ef09109fd5d3a231dfec583d0894f4a9e122fdc47b6711890c2a1ad8b2230",
    (0, False, "total"): "c71c9450e0fadc3cf3893199a85e78080956411bc358a24a99a3851488303839",
    (0, False, "max_orders"): "be98471a861a40d9076b0c84db8285520277a6968878db5f3bdc209e62c49ed8",
    (0, True, "incremental"): "d18f28912bdcec4a7c423ecf6a959a82ec2675702a075e3a6c73ac4dc49b1e92",
    (0, True, "total"): "3b1662cdbc1516754bc45f2f45917b6151606abb25105eaa40318fe09d34af89",
    (0, True, "max_orders"): "19e108885bf071d4e923a0a76482746595639db1a00e62e9a08ee01c7f0afb3c",
    (1, False, "incremental"): "07a9dad671e9b3da634c4d267a914c6d96dd0fae76433768052a4ffa80275e6b",
    (1, False, "total"): "d86f22b3f672fb9e702ad39b1242119f527e5ccbe9aac832b47fbf9a8939c57c",
    (1, False, "max_orders"): "acb4bac806e0bb9c718421ca00054feb6880e3e0d477df4efa406618ccd62e13",
    (1, True, "incremental"): "9aa24dda771435191d183283c7c9ba03b74b9b407aacacabd55cf185ecf0f574",
    (1, True, "total"): "33a9e6e42154380692bb23aea6859df712041da2d9d32843372cf1bbbd3f60aa",
    (1, True, "max_orders"): "810106a187cb60274b53decdaecb78e972e71169dc938714ab44f63f8dac3161",
}


def _instance(seed, **kwargs):
    return generate_instance(seed=seed, n_factories=10, n_orders=30, n_vehicles=8, **kwargs)


def _digest(inst, rule):
    report, _ = run_episode(inst, make_greedy_policy(rule))
    doc = report.to_dict()
    del doc["decision_seconds_mean"], doc["decision_seconds_max"]
    text = "\n".join(report.trace_lines()) + "\n" + json.dumps(doc, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("seed, rule", sorted(RECORDED))
def test_greedy_outputs_match_recorded_digest(seed, rule):
    assert _digest(_instance(seed), rule) == RECORDED[(seed, rule)]


@pytest.mark.parametrize("seed, rule", sorted(RECORDED_SERVICE_DEPOTS))
def test_greedy_outputs_with_service_and_two_depots_match_recorded_digest(seed, rule):
    inst = _instance(seed, **SERVICE_DEPOTS)
    assert hashlib.sha256(inst.to_json().encode()).hexdigest() == RECORDED_SERVICE_DEPOTS_JSON[seed]
    assert _digest(inst, rule) == RECORDED_SERVICE_DEPOTS[(seed, rule)]


@pytest.mark.parametrize("seed, service_depots, rule", sorted(RECORDED_FLEET_STATES))
def test_greedy_fleet_states_match_recorded_digest(seed, service_depots, rule):
    inst = _instance(seed, **(SERVICE_DEPOTS if service_depots else {}))
    _, transitions = run_episode(inst, make_greedy_policy(rule))
    digest = hashlib.sha256()
    for tr in transitions:
        s = tr.state
        for array in (s.features, s.feasible, s.positions, s.accepted):
            digest.update(np.ascontiguousarray(array).tobytes())
    assert digest.hexdigest() == RECORDED_FLEET_STATES[(seed, service_depots, rule)]


@pytest.mark.parametrize(
    "seed, service_depots, rule",
    [(seed, False, rule) for seed, rule in sorted(RECORDED)]
    + [(seed, True, rule) for seed, rule in sorted(RECORDED_SERVICE_DEPOTS)],
)
def test_greedy_routes_leave_their_depot_when_their_first_order_is_created(seed, service_depots, rule):
    # A used vehicle leaves its depot when its first order is committed; an
    # unused one keeps Route.empty's depot stop.
    inst = _instance(seed, **(SERVICE_DEPOTS if service_depots else {}))
    report, _ = run_episode(inst, make_greedy_policy(rule))
    created = {o.id: o.created_at for o in inst.orders}
    first: dict[int, int] = {}
    for rec in report.assignments:
        first.setdefault(rec.vehicle, created[rec.order_id])
    assert first
    for route in report.routes:
        if route.vehicle in first:
            assert route.walk[0].departure == first[route.vehicle]
        else:
            empty = Route.empty(route.vehicle, inst.fleet.vehicles[route.vehicle].depot)
            assert (route.stops, route.walk) == (empty.stops, empty.walk)


PRICING_SHAPES = [{}, {"speed": 0.25}, {"service_time": 2.0, "n_depots": 2}, {"service_time": 5.0, "n_depots": 2}]

# sha256 of (depot, ids, _best_route_for(...)) over every subset and depot of
# 6-order instances, seeds 0-7, for each of PRICING_SHAPES (3,024 sets).
RECORDED_PRICING = "80d66597b452a11cd8ecd59b54bae0d8d038870a115780010fd7fcc695f4b520"

# sha256 of solve_exact's tc, nuv, nodes, assignment and plan lines on
# 8 factories x 5 vehicles at 7 orders, seeds 0-2.
RECORDED_EXACT_PLANS = "b102f7c688694ca72b39e5fe5c63e3c05e731cde403be92144b4acad27a6a6d9"


def test_exact_pricing_matches_recorded_digest():
    digest = hashlib.sha256()
    for shape in PRICING_SHAPES:
        for seed in range(8):
            inst = generate_instance(seed=seed, n_factories=6, n_orders=6, n_vehicles=2, **shape)
            orders_by_id = {o.id: o for o in inst.orders}
            for depot in sorted({v.depot for v in inst.fleet.vehicles}):
                for size in range(1, len(orders_by_id) + 1):
                    for ids in itertools.combinations(sorted(orders_by_id), size):
                        priced = _best_route_for(depot, ids, orders_by_id, inst)
                        digest.update(repr((depot, ids, priced)).encode() + b"\n")
    assert digest.hexdigest() == RECORDED_PRICING


def test_exact_plans_match_recorded_digest():
    digest = hashlib.sha256()
    for seed in range(3):
        res = solve_exact(generate_instance(seed=seed, n_factories=8, n_orders=7, n_vehicles=5))
        fields = (res.tc, res.nuv, res.nodes_explored, sorted(res.assignment.items()), res.optimal)
        digest.update(repr(fields).encode())
        digest.update("\n".join(res.plan_lines()).encode())
    assert digest.hexdigest() == RECORDED_EXACT_PLANS


# sha256 of (feasible, length before, length after, stops, walk) of every
# plan in _planner_corpus(), both lengths -1.0 when the order fits nowhere.
RECORDED_PLANS = "8a496bc7d0e79d867ea0cebadd3bb392a7a87584f2ab4fabcbe3cf3ae9b1ee69"


def _planner_corpus():
    """Plan seeded orders onto one vehicle each of 300 small networks.

    Nodes sit on a 4 x 4 integer grid, so many gap pairs give equal lengths,
    and tight deadlines and capacities of 2-6 reject many of them.  ``now``
    advances between orders, so plans meet frozen prefixes and completed
    trips.  Yields each plan with its network, its fleet and the route it
    plans onto; each feasible plan is committed.
    """
    rng = np.random.default_rng(20)
    for _ in range(300):
        n_factories = int(rng.integers(3, 7))
        cells = rng.choice(16, size=n_factories + 1, replace=False)
        network = make_network(
            coords=[(float(c % 4), float(c // 4)) for c in cells],
            roles=[FACTORY] * n_factories + [DEPOT],
            service_time=float(rng.integers(0, 2)),
        )
        depot = n_factories
        fleet = FleetConfig(vehicles=[VehicleSpec(0, depot)], capacity=int(rng.integers(2, 7)))
        route = Route.empty(0, depot)
        now = 0
        for oid in range(12):
            now += int(rng.integers(0, 8))
            pickup, delivery = (int(n) for n in rng.choice(n_factories, size=2, replace=False))
            order = make_order(
                oid, pickup, delivery, quantity=int(rng.integers(1, 3)),
                created_at=now, latest_delivery=now + int(rng.integers(4, 25)),
            )
            res = plan_insertion(route, order_stops(order), float(now), network, fleet)
            yield network, fleet, route, res
            if res.feasible:
                route = res.best_route


def test_insertion_plans_match_recorded_digest():
    digest = hashlib.sha256()
    plans = 0
    for network, fleet, route, res in _planner_corpus():
        stops = walk = None
        lengths = (-1.0, -1.0)
        if res.feasible:
            best = res.best_route
            stops = [(s.node, [(a.kind, a.order.id) for a in s.actions]) for s in best.stops]
            walk = best.walk
            lengths = (route.length, best.length)
            fresh = simulate_timeline(
                best.vehicle, list(best.stops), network, fleet.capacity, depart(best.stops[0].node, best.walk[0].departure)
            )
            assert fresh.walk == best.walk
        digest.update(repr((res.feasible, *lengths, stops, walk)).encode() + b"\n")
        plans += 1
    assert plans == 3600
    assert digest.hexdigest() == RECORDED_PLANS


# sha256 of every CSV file, both instance files and the checkpoint that
# _cli_session() writes.
RECORDED_SESSION = {
    "a.json": "42581349582ac03fa6fdce10d0553e94139e03a8b5bdd796a8244d1e37f8f823",
    "b.json": "86424b3ff15471e20a0efd1ab44dfb75b2003bad28188ac3194e228e8e065633",
    "compare/compare.csv": "e07b3ad27452329a42ae45a258b68e137161af4db7e191c5b9c614e1a732edcc",
    "compare/metrics.csv": "a2ecb2297491bcbccd34a4366890cf3c3e03ff7781d9a801ae0ed067a3fd4593",
    "eval/metrics.csv": "6e132e794d1c14f4b8858d0daee27f4ccf9e9d40f21866bfa4bf7e0a0bc1db27",
    "eval/summary.csv": "5cf850e47324405aaa3dac8a73af385e08c7212f164c70291089aef6691b9c05",
    "history/grid.csv": "e441242c1f5dec1f68e48ef25a9440b4e95c929b2f7e68e71bf298049322d0d5",
    "orders/grid.csv": "3a560ee88e81bcde31aab767698b9d3f3d0de79b5af8ae7591c4b6d38061dbac",
    "run/metrics.csv": "9000c1509ea28fa7f4ad72afb52976fb3225cb722d2dc2f29d6f534b06bca807",
    "train/checkpoint.ckpt": "9d839a39b4e4dc93137c9b0933b09e0949622e4b46775a36f3238588c5068860",
    "train/curve.csv": "8da677135dc4008c5337eb4939a1251b26dd47e214c82071d038077d50ce492e",
}


def _cli_session(out):
    """Run a short fixed CLI session into ``out``; returns its pinned files by name."""
    a, b, ckpt = str(out / "a.json"), str(out / "b.json"), str(out / "train" / "checkpoint.ckpt")
    commands = [
        ["gen", "--seed", "9", "--orders", "8", "--vehicles", "3", "--factories", "6", "--out", a],
        ["gen", "--seed", "10", "--orders", "6", "--vehicles", "3", "--factories", "6", "--out", b],
        ["run", "--instance", a, "--policy", "greedy1"],
        ["train", "--instance", a, "--instance", b, "--episodes", "4", "--seed", "3",
         "--batch-size", "12", "--steps-per-episode", "2"],
        ["eval", "--checkpoint", ckpt, "--instance", a, "--instance", b],
        ["compare", "--instance", a, "--policies", "greedy1,greedy3,learned", "--checkpoint", ckpt, "--exact"],
        ["heatmap", "--instance", a, "--source", "orders", "--out", str(out / "orders")],
        ["heatmap", "--instance", b, "--source", "history", "--out", str(out / "history")],
    ]
    for argv in commands:
        if "--out" not in argv:
            argv += ["--out", str(out / argv[0])]
        assert main(argv) == 0, argv
    files = [out / "a.json", out / "b.json", out / "train" / "checkpoint.ckpt", *sorted(out.glob("*/*.csv"))]
    return {str(p.relative_to(out)): p for p in files}


def test_cli_session_files_match_recorded_digests(tmp_path):
    files = _cli_session(tmp_path)
    got = {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in files.items()}
    assert got == RECORDED_SESSION


# name -> (Q-network config, trainer config, generate_instance arguments,
# episodes): the benchmark's train shape, and two small shapes without
# attention and without the score feature.
TRAINING_RUNS = {
    "benchmark-shape": (None, TrainerConfig(seed=0, steps_per_episode=8), (0, 10, 30, 10), 8),
    "no-attention": (
        QNetworkConfig(use_attention=False), TrainerConfig(seed=1, batch_size=16, steps_per_episode=3), (1, 6, 12, 4), 5,
    ),
    "no-score": (
        QNetworkConfig(use_score_feature=False), TrainerConfig(seed=1, batch_size=16, steps_per_episode=3), (1, 6, 12, 4), 5,
    ),
}

# sha256 of the online weights (sorted names, each followed by its bytes)
# and then the per-episode losses as float64 bytes.
RECORDED_TRAINING = {
    "benchmark-shape": "452aaf1458eb94c17c0f75cf6e9d40530a5f9f7b8d083bba61aabe3fa08478f7",
    "no-attention": "d8e6e1533f7f378a813c9b22d697f7b93b46ade6daa7cbbaea9d6499e12722bb",
    "no-score": "7d615acc2e1db12ecd170082298cced72c6914ed5b8f412fa64835da2757b841",
}


@pytest.mark.parametrize("name", sorted(TRAINING_RUNS))
def test_training_matches_recorded_digest(name):
    qconfig, config, shape, episodes = TRAINING_RUNS[name]
    trainer = Trainer(qconfig, config)
    log = trainer.train([generate_instance(*shape)], episodes)
    digest = hashlib.sha256()
    for param, p, _ in sorted(trainer.online.parameters()):
        digest.update(param.encode())
        digest.update(p.tobytes())
    digest.update(np.array([row["loss"] for row in log], dtype=float).tobytes())
    assert digest.hexdigest() == RECORDED_TRAINING[name]
