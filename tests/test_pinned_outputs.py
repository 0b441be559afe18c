"""Greedy outputs pinned to recorded digests.

Each digest is the sha256 of an episode's trace lines plus its report JSON
(without the two wall-clock fields).  The first set was recorded before the
fleet state became arrays, the second (two depots, two minutes of service
per action) before the route walkers were folded into one.  The fleet-state
digests cover every transition's ``features``, ``feasible``, ``positions``
and ``accepted`` bytes; they were recorded before the feature rows moved
from the planner into the environment.  A refactor that is meant to keep
behaviour must keep these bytes.
"""

import hashlib
import json

import numpy as np
import pytest

from dpdplab.baselines import make_greedy_policy
from dpdplab.env import run_episode
from dpdplab.instance import generate_instance

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
