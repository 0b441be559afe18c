#!/usr/bin/env python3
"""Training-convergence experiment: one medium instance, long training run,
learning-curve CSV and SVG plus greedy reference lines.

Example:
    python scripts/train_convergence.py --out runs/convergence --episodes 200
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dpdplab.baselines import GREEDY_RULES, make_greedy_policy
from dpdplab.cli import _svg_polyline, write_curve
from dpdplab.env import run_episode
from dpdplab.instance import generate_instance
from dpdplab.policy import Trainer, TrainerConfig


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--trainer-seed", type=int, default=5)
    ap.add_argument("--orders", type=int, default=30)
    ap.add_argument("--vehicles", type=int, default=10)
    ap.add_argument("--factories", type=int, default=10)
    ap.add_argument("--episodes", type=int, default=200)
    ap.add_argument("--steps-per-episode", type=int, default=8)
    args = ap.parse_args()

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    inst = generate_instance(
        seed=args.seed,
        n_factories=args.factories,
        n_orders=args.orders,
        n_vehicles=args.vehicles,
    )

    greedy_tc = {}
    for rule in GREEDY_RULES:
        report, _ = run_episode(inst, make_greedy_policy(rule))
        greedy_tc[rule] = report.tc
        print(f"greedy {rule}: NUV={report.nuv} TC={report.tc:.1f}")

    trainer = Trainer(
        config=TrainerConfig(seed=args.trainer_seed, steps_per_episode=args.steps_per_episode)
    )
    log = trainer.train([inst], args.episodes)
    trainer.save_checkpoint(outdir / "checkpoint.ckpt")

    write_curve(outdir / "curve.csv", log)

    tcs = [r["tc"] for r in log]
    series = {"learned": tcs}
    for rule, tc in greedy_tc.items():
        series[rule] = [tc] * len(tcs)
    (outdir / "curve_tc.svg").write_text(
        _svg_polyline(series, "total cost per training episode"), encoding="utf-8"
    )

    if tcs:
        # A quarter of the run, at least one episode.
        q = max(1, len(tcs) // 4)
        print(f"mean TC first quarter {np.mean(tcs[:q]):.1f} -> last quarter {np.mean(tcs[-q:]):.1f}")
    print(f"wrote {outdir / 'curve.csv'} and curve_tc.svg")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
