"""Which dpdplab functions the traced run wraps, and the per-layer metrics
computed from the spans they record."""

from __future__ import annotations

import numpy as np

import dpdplab.baselines
import dpdplab.demand
import dpdplab.env
import dpdplab.instance
import dpdplab.neural
import dpdplab.policy
import dpdplab.routing

from tracing import MEASURE, Tracer, inside, self_times


def _note_plan(tracer: Tracer, args, result) -> None:
    if result.feasible:
        tracer.count("feasible_plans")


def _note_episode(tracer: Tracer, args, result) -> None:
    instance = args[0]
    report = result[0]
    tracer.count("orders", len(report.assignments))
    tracer.count("expected_plans", len(instance.orders) * instance.n_vehicles)


def _note_attn(tracer: Tracer, args, result) -> None:
    tracer.count("attn_rows", args[1].shape[0])


def _note_step(tracer: Tracer, args, result) -> None:
    if result is not None:
        tracer.count("train_steps")


def _note_exact(tracer: Tracer, args, result) -> None:
    tracer.count("exact_nodes", result.nodes_explored)


def patches() -> list[tuple]:
    """(owner, attribute, span name, note) for every wrapped call site."""
    return [
        (dpdplab.instance, "generate_instance", "instance.generate_instance", None),
        (dpdplab.env, "episode_demand_grid", "demand.episode_demand_grid", None),
        (dpdplab.env, "run_episode", "env.run_episode", _note_episode),
        (dpdplab.policy, "run_episode", "env.run_episode", _note_episode),
        (dpdplab.env, "plan_insertion", "routing.plan_insertion", _note_plan),
        (dpdplab.routing, "simulate_timeline", "routing.simulate_timeline", None),
        (dpdplab.routing, "vehicle_position", "routing.vehicle_position", None),
        (dpdplab.demand, "capacity_profile", "demand.capacity_profile", None),
        (dpdplab.demand, "demand_profile", "demand.demand_profile", None),
        (dpdplab.demand, "divergence_score", "demand.divergence_score", None),
        (dpdplab.policy, "neighbor_indices", "policy.neighbor_indices", None),
        (dpdplab.policy.QNetwork, "q_values", "policy.q_values", None),
        (dpdplab.policy.QNetwork, "backward", "policy.backward", None),
        (dpdplab.policy.Trainer, "train_step", "policy.train_step", _note_step),
        (dpdplab.policy.Trainer, "double_q_target", "policy.double_q_target", None),
        (dpdplab.neural.Mlp, "forward", "neural.mlp_forward", None),
        (dpdplab.neural.Mlp, "backward", "neural.mlp_backward", None),
        (dpdplab.neural.AttentionBlock, "forward", "neural.attn_forward", _note_attn),
        (dpdplab.neural.AttentionBlock, "backward", "neural.attn_backward", None),
        (dpdplab.neural.Adam, "step", "neural.adam_step", None),
        (dpdplab.baselines, "greedy_dispatch", "baselines.greedy_dispatch", None),
        (dpdplab.baselines, "solve_exact", "baselines.solve_exact", _note_exact),
        # Branch and bound calls the budget check once per node it visits;
        # counting the calls gives a node count independent of the solver's own.
        (dpdplab.baselines._Budget, "check", "baselines.bnb_node", None),
        (dpdplab.baselines, "validate_routes", "baselines.validate_routes", None),
    ]


def _ratio(num: float, den: float) -> float:
    return float(num) / den if den else 0.0


def layer_metrics(tracer: Tracer, overhead_pct: float) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics and the list of failed cross-checks.

    Counts and times are taken from spans of the measured phase, except the
    set-up functions and the validator, which run outside it.
    """
    a = tracer.arrays()
    name, parent, phase = a["name"], a["parent"], a["phase"]
    dur = a["end"] - a["start"]
    own = self_times(a["start"], a["end"], parent)
    ids = {n: i for i, n in enumerate(tracer.names)}
    measured = phase == MEASURE
    counts = tracer.counts[MEASURE]

    def sel(span: str, extra=None) -> np.ndarray:
        mask = name == ids.get(span, -1)
        return mask if extra is None else mask & extra

    def calls(span: str, extra=measured) -> int:
        return int(sel(span, extra).sum())

    def total_ms(span: str, extra=measured, self_only=True) -> float:
        return 1e3 * float((own if self_only else dur)[sel(span, extra)].sum())

    orders = counts.get("orders", 0)
    steps = counts.get("train_steps", 0)
    in_step = inside(parent, name, ids["policy.train_step"]) if "policy.train_step" in ids else np.zeros(len(name), bool)
    under_plan = np.zeros(len(name), bool)
    if "routing.plan_insertion" in ids and len(name):
        has_parent = parent >= 0
        under_plan[has_parent] = name[parent[has_parent]] == ids["routing.plan_insertion"]
    materialised = calls("routing.simulate_timeline", measured & under_plan)
    solves = calls("baselines.solve_exact")

    m = {
        "routing.plan_insertion.calls_per_order": _ratio(calls("routing.plan_insertion"), orders),
        "routing.plan_insertion.feasible_share": _ratio(counts.get("feasible_plans", 0), calls("routing.plan_insertion")),
        "routing.plan_insertion.self_ms_per_order": _ratio(total_ms("routing.plan_insertion"), orders),
        "routing.simulate_timeline.calls_per_order": _ratio(calls("routing.simulate_timeline"), orders),
        "routing.simulate_timeline.self_ms_per_order": _ratio(total_ms("routing.simulate_timeline"), orders),
        "routing.commit_share": _ratio(orders, materialised),
        "routing.vehicle_position.self_ms_per_order": _ratio(total_ms("routing.vehicle_position"), orders),
        "env.run_episode.self_ms_per_order": _ratio(total_ms("env.run_episode"), orders),
        "env.run_episode.ms_per_episode": _ratio(total_ms("env.run_episode", self_only=False), calls("env.run_episode")),
    }
    for fn in ("capacity_profile", "demand_profile", "divergence_score"):
        m[f"demand.{fn}.calls_per_order"] = _ratio(calls(f"demand.{fn}"), orders)
        m[f"demand.{fn}.self_ms_per_order"] = _ratio(total_ms(f"demand.{fn}"), orders)
    for span in ("demand.episode_demand_grid", "instance.generate_instance"):
        m[f"{span}.ms"] = _ratio(total_ms(span, None, False), calls(span, None))
    m.update({
        "policy.neighbor_indices.self_ms_per_call": _ratio(total_ms("policy.neighbor_indices"), calls("policy.neighbor_indices")),
        "policy.q_values.ms_per_call": _ratio(total_ms("policy.q_values", self_only=False), calls("policy.q_values")),
        "policy.q_values.self_ms_per_call": _ratio(total_ms("policy.q_values"), calls("policy.q_values")),
        "policy.q_values.calls_per_train_step": _ratio(calls("policy.q_values", measured & in_step), steps),
        "policy.double_q_target.ms_per_train_step": _ratio(total_ms("policy.double_q_target", measured & in_step, False), steps),
        "policy.backward.self_ms_per_train_step": _ratio(total_ms("policy.backward", measured & in_step), steps),
        "policy.train_step.self_ms_per_train_step": _ratio(total_ms("policy.train_step"), steps),
        "neural.attn_forward.rows_per_call": _ratio(counts.get("attn_rows", 0), calls("neural.attn_forward")),
    })
    for fn in ("mlp_forward", "mlp_backward", "attn_forward", "attn_backward"):
        m[f"neural.{fn}.self_ms_per_train_step"] = _ratio(total_ms(f"neural.{fn}", measured & in_step), steps)
    m["neural.adam_step.self_ms"] = _ratio(total_ms("neural.adam_step"), calls("neural.adam_step"))
    m["baselines.solve_exact.ms_per_instance"] = _ratio(total_ms("baselines.solve_exact", self_only=False), solves)
    m["baselines.solve_exact.nodes_per_instance"] = _ratio(counts.get("exact_nodes", 0), solves)
    m["baselines.greedy_dispatch.self_ms_per_order"] = _ratio(total_ms("baselines.greedy_dispatch"), orders)
    m["baselines.validate_routes.ms"] = _ratio(
        total_ms("baselines.validate_routes", None, False), calls("baselines.validate_routes", None)
    )
    m["trace.overhead_pct"] = overhead_pct

    failures = []
    if calls("routing.plan_insertion") != counts.get("expected_plans", 0):
        failures.append(
            f"plan_insertion calls {calls('routing.plan_insertion')} != orders x vehicles {counts.get('expected_plans', 0)}"
        )
    if materialised != counts.get("feasible_plans", 0):
        failures.append(f"simulate_timeline calls {materialised} != feasible planner results {counts.get('feasible_plans', 0)}")
    if calls("neural.adam_step") != steps:
        failures.append(f"Adam steps {calls('neural.adam_step')} != effective train steps {steps}")
    if calls("baselines.bnb_node") != counts.get("exact_nodes", 0):
        failures.append(f"branch-and-bound nodes {calls('baselines.bnb_node')} != nodes_explored {counts.get('exact_nodes', 0)}")
    return m, failures
