#!/usr/bin/env python3
"""Policy comparison experiment on a batch of seeded instances.

Runs the three greedy rules and the exact reference on every instance, and
trains the learned dispatcher five times with different seeds (deterministic
policies run once).  Prints a per-instance table and a summary with the
learned policy's mean and half-range band, and writes everything to CSV.

Example:
    python scripts/compare_policies.py --out runs/compare --instances 5 --episodes 150
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dpdplab.baselines import GREEDY_RULES, make_greedy_policy, solve_exact
from dpdplab.cli import csv_text
from dpdplab.env import run_episode
from dpdplab.instance import generate_instance
from dpdplab.policy import Trainer, TrainerConfig, make_learned_policy


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", required=True)
    ap.add_argument("--instances", type=int, default=5)
    ap.add_argument("--base-seed", type=int, default=300)
    ap.add_argument("--orders", type=int, default=6)
    ap.add_argument("--vehicles", type=int, default=5)
    ap.add_argument("--factories", type=int, default=8)
    ap.add_argument("--episodes", type=int, default=150)
    ap.add_argument("--reps", type=int, default=5)
    args = ap.parse_args()

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    instances = [
        generate_instance(
            seed=args.base_seed + i,
            n_factories=args.factories,
            n_orders=args.orders,
            n_vehicles=args.vehicles,
        )
        for i in range(args.instances)
    ]

    nets = []
    for rep in range(args.reps):
        trainer = Trainer(config=TrainerConfig(seed=rep, steps_per_episode=4, batch_size=32))
        trainer.train(instances, args.episodes)
        nets.append(trainer.online)
        print(f"trained repetition {rep + 1}/{args.reps}")

    rows = []
    for i, inst in enumerate(instances):
        exact = solve_exact(inst)
        rows.append((i, "exact", exact.nuv, exact.tc))
        for rule in GREEDY_RULES:
            report, _ = run_episode(inst, make_greedy_policy(rule))
            rows.append((i, rule, report.nuv, report.tc))
        learned_tcs = []
        learned_nuvs = []
        for net in nets:
            report, _ = run_episode(inst, make_learned_policy(net))
            learned_tcs.append(report.tc)
            learned_nuvs.append(report.nuv)
        mean_tc = float(np.mean(learned_tcs))
        band = (max(learned_tcs) - min(learned_tcs)) / 2.0
        rows.append((i, "learned", float(np.mean(learned_nuvs)), mean_tc))
        print(
            f"instance {i}: exact {exact.tc:8.2f} | "
            + " | ".join(f"{r} {tc:8.2f}" for (_, r, _, tc) in rows[-4:-1])
            + f" | learned {mean_tc:8.2f} +- {band:.2f}"
        )

    csv = outdir / "comparison.csv"
    csv.write_text(csv_text([("instance", "policy", "nuv", "tc"), *rows]), encoding="utf-8")
    print(f"wrote {csv}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
