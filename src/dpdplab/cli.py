"""Command-line harness: generation, episode runs, training, evaluation,
the exact reference, policy comparison tables, grid heatmaps and learning
curves.

Every subcommand writes a ``config.json`` snapshot (arguments and seeds)
into its output directory so runs can be reproduced bit-identically.  CSV
files are the canonical outputs; SVG files are rendered directly (no
plotting dependency) as a convenience.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .baselines import GREEDY_ALIASES, make_greedy_policy, make_plan_policy, solve_exact, validate_routes
from .demand import build_demand_grid
from .env import EpisodeReport, episode_demand_grid, run_episode
from .instance import Instance, generate_instance, load_instance, save_instance
from .policy import QNetwork, QNetworkConfig, Trainer, TrainerConfig, make_learned_policy
from .routing import route_dump

POLICY_CHOICES = sorted(set(GREEDY_ALIASES)) + ["learned", "exact_plan"]

OUT_ROOT_ENV = "DPDPLAB_OUT"


def _resolve_out(args: argparse.Namespace) -> str | None:
    """Fill a missing --out from the $DPDPLAB_OUT root; error text when unset."""
    if args.out is not None:
        return None
    root = os.environ.get(OUT_ROOT_ENV)
    if not root:
        return f"--out is required (or set {OUT_ROOT_ENV} to a default output root)"
    args.out = str(Path(root) / ("instance.json" if args.command == "gen" else args.command))
    return None


def _write_config(outdir: Path, args: argparse.Namespace) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    doc = {k: v for k, v in vars(args).items() if k != "func"}
    doc["version"] = __version__
    (outdir / "config.json").write_text(
        json.dumps(doc, indent=1, sort_keys=True, default=str) + "\n", encoding="utf-8"
    )


def _append_metrics(path: Path, row: dict) -> None:
    """Append one episode row; its ``episode`` column is the row's index."""
    text = path.read_text(encoding="utf-8") if path.exists() else "episode,policy,instance,nuv,ttl,tc\n"
    episode = text.count("\n") - 1
    line = "{episode},{policy},{instance},{nuv},{ttl!r},{tc!r}\n".format(episode=episode, **row)
    path.write_text(text + line, encoding="utf-8")


def aggregate_metrics(reports: Sequence[EpisodeReport]) -> dict:
    """Mean/min/max summary of NUV, TC and TTL over episode reports."""
    if not reports:
        raise ValueError("cannot aggregate an empty list of reports")
    nuv = [r.nuv for r in reports]
    tc = [r.tc for r in reports]
    ttl = [r.ttl for r in reports]
    return {
        "count": len(reports),
        "nuv_mean": float(np.mean(nuv)),
        "nuv_min": float(min(nuv)),
        "nuv_max": float(max(nuv)),
        "tc_mean": float(np.mean(tc)),
        "tc_min": float(min(tc)),
        "tc_max": float(max(tc)),
        "ttl_mean": float(np.mean(ttl)),
        "ttl_min": float(min(ttl)),
        "ttl_max": float(max(ttl)),
    }


def _summary_csv(summary: dict) -> str:
    keys = sorted(summary)
    return ",".join(keys) + "\n" + ",".join(repr(summary[k]) for k in keys) + "\n"


def _policy_for(name: str, checkpoint: str | None, epsilon: float, seed: int, instance: Instance):
    if name in GREEDY_ALIASES:
        return make_greedy_policy(name)
    if name == "learned":
        if not checkpoint:
            raise SystemExit("--checkpoint is required for the learned policy")
        net, _ = _load_any_checkpoint(checkpoint)
        rng = np.random.default_rng(seed) if epsilon > 0 else None
        return make_learned_policy(net, epsilon=epsilon, rng=rng)
    if name == "exact_plan":
        plan = solve_exact(instance)
        return make_plan_policy(plan.assignment)
    raise SystemExit(f"unknown policy {name!r}")


def _load_any_checkpoint(path: str | Path) -> tuple[QNetwork, dict]:
    from .neural import load_tensors

    tensors, meta = load_tensors(path)
    if any(name.startswith("online.") for name in tensors):
        trainer = Trainer.load_checkpoint(path)
        return trainer.online, meta
    return QNetwork.load(path)


# ---------------------------------------------------------------------------
# SVG rendering (hand-rolled: polylines and grid heatmaps)


def _svg_polyline(series: dict[str, list[float]], title: str, width=720, height=400) -> str:
    pad = 46
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd"]
    all_vals = [v for vals in series.values() for v in vals if np.isfinite(v)]
    if not all_vals:
        all_vals = [0.0, 1.0]
    lo, hi = min(all_vals), max(all_vals)
    if hi == lo:
        hi = lo + 1.0
    n = max(len(v) for v in series.values())
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<text x="{width // 2}" y="18" text-anchor="middle" font-size="14">{title}</text>',
        f'<rect x="{pad}" y="{pad}" width="{width - 2 * pad}" height="{height - 2 * pad}" fill="none" stroke="#999"/>',
        f'<text x="8" y="{pad + 4}" font-size="11">{hi:.1f}</text>',
        f'<text x="8" y="{height - pad}" font-size="11">{lo:.1f}</text>',
    ]
    for ci, (name, vals) in enumerate(sorted(series.items())):
        pts = []
        for i, v in enumerate(vals):
            if not np.isfinite(v):
                continue
            x = pad + (width - 2 * pad) * (i / max(1, n - 1))
            y = height - pad - (height - 2 * pad) * ((v - lo) / (hi - lo))
            pts.append(f"{x:.1f},{y:.1f}")
        color = colors[ci % len(colors)]
        parts.append(f'<polyline points="{" ".join(pts)}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{pad + 6}" y="{pad + 16 + 14 * ci}" font-size="12" fill="{color}">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _svg_heatmap(matrix: np.ndarray, title: str, cell=6) -> str:
    rows, cols = matrix.shape
    pad = 34
    width = cols * cell + 2 * pad
    height = rows * cell + 2 * pad
    peak = float(matrix.max()) if matrix.size and matrix.max() > 0 else 1.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<text x="{width // 2}" y="16" text-anchor="middle" font-size="13">{title}</text>',
    ]
    for i in range(rows):
        for j in range(cols):
            v = matrix[i, j] / peak
            shade = int(255 - 215 * v)
            parts.append(
                f'<rect x="{pad + j * cell}" y="{pad + i * cell}" width="{cell}" height="{cell}" '
                f'fill="rgb({shade},{shade},255)"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_gen(args: argparse.Namespace) -> int:
    inst = generate_instance(
        seed=args.seed,
        n_factories=args.factories,
        n_orders=args.orders,
        n_vehicles=args.vehicles,
        horizon=args.horizon,
        n_depots=args.depots,
        capacity=args.capacity,
        fixed_cost=args.fixed_cost,
        unit_cost=args.unit_cost,
        speed=args.speed,
        service_time=args.service_time,
        hot_spot=args.hot_spot,
        history_days=args.history_days,
    )
    path = save_instance(inst, args.out)
    print(f"wrote {path} ({len(inst.orders)} orders, {inst.n_vehicles} vehicles)")
    return 0


def _run_one(instance: Instance, policy, outdir: Path, label: str, instance_label: str) -> EpisodeReport:
    report, _ = run_episode(instance, policy)
    validation = validate_routes(report, instance)
    if not validation.ok:
        raise RuntimeError("executed episode failed validation: " + "; ".join(validation.violations))
    (outdir / f"report_{label}.json").write_text(report.to_json(), encoding="utf-8")
    (outdir / f"trace_{label}.txt").write_text(
        "\n".join(report.trace_lines()) + ("\n" if report.assignments else ""), encoding="utf-8"
    )
    _append_metrics(
        outdir / "metrics.csv",
        {"policy": label, "instance": instance_label, "nuv": report.nuv, "ttl": report.ttl, "tc": report.tc},
    )
    return report


def _cmd_run(args: argparse.Namespace) -> int:
    outdir = Path(args.out)
    _write_config(outdir, args)
    instance = load_instance(args.instance)
    policy = _policy_for(args.policy, args.checkpoint, args.epsilon, args.seed, instance)
    label = getattr(policy, "policy_name", args.policy)
    report = _run_one(instance, policy, outdir, label, Path(args.instance).stem)
    if args.dump_routes:
        dump = "\n\n".join(route_dump(r) for r in report.routes if not r.is_empty)
        (outdir / f"routes_{label}.txt").write_text(dump + "\n", encoding="utf-8")
    print(f"policy={label} NUV={report.nuv} TTL={report.ttl:.3f} TC={report.tc:.3f}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    outdir = Path(args.out)
    _write_config(outdir, args)
    instances = [load_instance(p) for p in args.instance]
    qconfig = QNetworkConfig(
        neighbors=args.neighbors,
        use_attention=not args.no_attention,
        use_score_feature=not args.no_score,
    )
    tconfig = TrainerConfig(
        gamma=args.gamma,
        buffer_capacity=args.buffer_capacity,
        batch_size=args.batch_size,
        target_period=args.target_period,
        steps_per_episode=args.steps_per_episode,
        learning_rate=args.lr,
        alpha=args.alpha,
        seed=args.seed,
    )
    trainer = Trainer(qconfig, tconfig)
    log = trainer.train(instances, args.episodes)
    ckpt = trainer.save_checkpoint(outdir / "checkpoint.ckpt")
    curve = outdir / "curve.csv"
    lines = ["episode,loss,nuv,ttl,tc,epsilon"]
    lines += [
        f"{r['episode']},{r['loss']!r},{r['nuv']},{r['ttl']!r},{r['tc']!r},{r['epsilon']!r}"
        for r in log
    ]
    curve.write_text("\n".join(lines) + "\n", encoding="utf-8")
    final = log[-1]["tc"] if log else float("nan")
    print(f"trained {args.episodes} episodes -> {ckpt} (final TC {final})")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    outdir = Path(args.out)
    _write_config(outdir, args)
    net, _ = _load_any_checkpoint(args.checkpoint)
    reports = []
    for path in args.instance:
        instance = load_instance(path)
        policy = make_learned_policy(net)
        reports.append(_run_one(instance, policy, outdir, f"learned_{Path(path).stem}", Path(path).stem))
    summary = aggregate_metrics(reports)
    (outdir / "summary.csv").write_text(_summary_csv(summary), encoding="utf-8")
    print(f"evaluated {len(reports)} instances: mean TC {summary['tc_mean']:.3f}")
    return 0


def _cmd_exact(args: argparse.Namespace) -> int:
    outdir = Path(args.out)
    _write_config(outdir, args)
    instance = load_instance(args.instance)
    result = solve_exact(instance, budget=args.budget)
    doc = {
        "tc": result.tc,
        "nuv": result.nuv,
        "ttl": result.ttl,
        "optimal": result.optimal,
        "nodes_explored": result.nodes_explored,
        "seconds": result.seconds,
        "assignment": {str(k): v for k, v in sorted(result.assignment.items())},
    }
    (outdir / "exact.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    (outdir / "plan.txt").write_text("\n".join(result.plan_lines()) + "\n", encoding="utf-8")
    status = "optimal" if result.optimal else "budget-exhausted"
    print(f"exact ({status}) NUV={result.nuv} TC={result.tc:.3f} in {result.seconds:.2f}s")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    outdir = Path(args.out)
    _write_config(outdir, args)
    instance = load_instance(args.instance)
    rows = []
    for name in args.policies.split(","):
        name = name.strip()
        policy = _policy_for(name, args.checkpoint, 0.0, args.seed, instance)
        label = getattr(policy, "policy_name", name)
        report = _run_one(instance, policy, outdir, label, Path(args.instance).stem)
        rows.append({"policy": label, "nuv": report.nuv, "ttl": report.ttl, "tc": report.tc})
    if args.exact:
        result = solve_exact(instance, budget=args.budget)
        rows.append({"policy": "exact", "nuv": result.nuv, "ttl": result.ttl, "tc": result.tc})
    rows.sort(key=lambda r: r["policy"])
    lines = ["policy,nuv,ttl,tc"] + [
        f"{r['policy']},{r['nuv']},{r['ttl']!r},{r['tc']!r}" for r in rows
    ]
    (outdir / "compare.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    for r in rows:
        print(f"{r['policy']:>14}  NUV={r['nuv']:<3} TTL={r['ttl']:<10.3f} TC={r['tc']:.3f}")
    return 0


def _cmd_heatmap(args: argparse.Namespace) -> int:
    outdir = Path(args.out)
    _write_config(outdir, args)
    instance = load_instance(args.instance)
    n = instance.network.n_factories
    if args.source == "orders":
        grid = build_demand_grid(instance.orders, n, instance.horizon)
    else:
        grid = episode_demand_grid(instance)
    (outdir / "grid.csv").write_text(grid.to_csv(), encoding="utf-8")
    (outdir / "grid.svg").write_text(
        _svg_heatmap(grid.values, f"demand grid ({args.source})"), encoding="utf-8"
    )
    print(f"wrote {outdir / 'grid.csv'} ({n}x{instance.horizon})")
    return 0


def _cmd_curves(args: argparse.Namespace) -> int:
    outdir = Path(args.out)
    _write_config(outdir, args)
    path = Path(args.curve)
    header, *rows = path.read_text(encoding="utf-8").strip().splitlines()
    cols = header.split(",")
    data = {c: [] for c in cols}
    for row in rows:
        for c, v in zip(cols, row.split(",")):
            data[c].append(float(v))
    for metric in args.metrics.split(","):
        metric = metric.strip()
        if metric not in data:
            raise SystemExit(f"curve file has no column {metric!r}")
        svg = _svg_polyline({metric: data[metric]}, f"{metric} per episode")
        (outdir / f"curve_{metric}.svg").write_text(svg, encoding="utf-8")
    print(f"wrote curves for {args.metrics} into {outdir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dpdplab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"dpdplab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic instance file")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--factories", type=int, default=10)
    p.add_argument("--orders", type=int, required=True)
    p.add_argument("--vehicles", type=int, required=True)
    p.add_argument("--horizon", type=int, default=144)
    p.add_argument("--depots", type=int, default=1)
    p.add_argument("--capacity", type=int, default=12)
    p.add_argument("--fixed-cost", type=float, default=300.0)
    p.add_argument("--unit-cost", type=float, default=2.0)
    p.add_argument("--speed", type=float, default=1.0)
    p.add_argument("--service-time", type=float, default=0.0)
    p.add_argument("--hot-spot", type=float, default=0.4)
    p.add_argument("--history-days", type=int, default=3)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("run", help="run one policy on one instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--policy", required=True, choices=POLICY_CHOICES)
    p.add_argument("--checkpoint")
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dump-routes", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("train", help="train the dispatch network")
    p.add_argument("--instance", action="append", required=True, help="repeatable")
    p.add_argument("--episodes", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--gamma", type=float, default=0.95)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--buffer-capacity", type=int, default=100_000)
    p.add_argument("--target-period", type=int, default=5)
    p.add_argument("--steps-per-episode", type=int, default=1)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--neighbors", type=int, default=8)
    p.add_argument("--no-attention", action="store_true")
    p.add_argument("--no-score", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint over instances")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--instance", action="append", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("exact", help="solve the static relaxation exactly")
    p.add_argument("--instance", required=True)
    p.add_argument("--budget", type=float, default=None, help="wall-clock cap in seconds")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("compare", help="table of policies (optionally with the exact row)")
    p.add_argument("--instance", required=True)
    p.add_argument("--policies", default="greedy1,greedy2,greedy3")
    p.add_argument("--checkpoint")
    p.add_argument("--exact", action="store_true")
    p.add_argument("--budget", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("heatmap", help="export a demand grid as CSV and SVG")
    p.add_argument("--instance", required=True)
    p.add_argument("--source", choices=("orders", "history"), default="history")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_heatmap)

    p = sub.add_parser("curves", help="render learning-curve CSV columns as SVG")
    p.add_argument("--curve", required=True)
    p.add_argument("--metrics", default="tc")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_curves)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    problem = _resolve_out(args)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())
