"""Desk-scale laboratory for dynamic pickup-and-delivery dispatching."""

__version__ = "0.1.0"

from .instance import (
    DeliveryOrder,
    FleetConfig,
    Instance,
    InstanceError,
    Node,
    RoadNetwork,
    VehicleSpec,
    generate_instance,
    load_instance,
    save_instance,
)
from .routing import PlannerResult, Route, Stop, Verdict, check_feasibility, plan_insertion, simulate_timeline
from .demand import build_demand_grid, divergence_score, predict_grid
from .env import EpisodeReport, JointState, Transition, UnserviceableOrderError, run_episode

__all__ = [
    "DeliveryOrder",
    "EpisodeReport",
    "FleetConfig",
    "Instance",
    "InstanceError",
    "JointState",
    "Node",
    "PlannerResult",
    "RoadNetwork",
    "Route",
    "Stop",
    "Transition",
    "UnserviceableOrderError",
    "Verdict",
    "VehicleSpec",
    "build_demand_grid",
    "check_feasibility",
    "divergence_score",
    "generate_instance",
    "load_instance",
    "plan_insertion",
    "predict_grid",
    "run_episode",
    "save_instance",
    "simulate_timeline",
]
