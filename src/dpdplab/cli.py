"""Command-line harness: generation, episode runs, training, evaluation,
the exact reference, policy comparison tables, grid heatmaps and learning
curves.

Every subcommand but ``gen`` (whose ``--out`` is the instance file) writes
a ``config.json`` snapshot (arguments and seeds) into its output directory
so runs can be rerun byte for byte, wall-clock timings aside.  CSV
files are the canonical outputs; SVG files are rendered directly (no
plotting dependency) as a convenience.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import inspect
import io
import json
import os
import sys
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import __version__
from .baselines import GREEDY_ALIASES, ExactResult, make_greedy_policy, make_plan_policy, solve_exact, validate_routes
from .demand import build_demand_grid
from .env import EpisodeReport, episode_demand_grid, run_episode
from .instance import Instance, generate_instance, load_instance, save_instance
from .policy import QNetworkConfig, Trainer, TrainerConfig, make_learned_policy

POLICY_CHOICES = sorted(set(GREEDY_ALIASES)) + ["learned", "exact_plan"]

OUT_ROOT_ENV = "DPDPLAB_OUT"

# The `train` flag of each TrainerConfig field: the field's name, but `--lr`
# for ``learning_rate``.  Each maps the field to its argparse dest.
_TRAINER_DESTS = {f.name: {"learning_rate": "lr"}.get(f.name, f.name) for f in dataclasses.fields(TrainerConfig)}

# The `gen` flag of each generate_instance parameter: its name without the
# ``n_`` prefix.  Each maps the parameter to its argparse dest.
_GEN_PARAMS = inspect.signature(generate_instance, eval_str=True).parameters
_GEN_DESTS = {name: name.removeprefix("n_") for name in _GEN_PARAMS}


def _resolve_out(args: argparse.Namespace) -> str | None:
    """Fill a missing --out from the $DPDPLAB_OUT root; error text when unset."""
    if args.out is not None:
        return None
    root = os.environ.get(OUT_ROOT_ENV)
    if not root:
        return f"--out is required (or set {OUT_ROOT_ENV} to a default output root)"
    args.out = str(Path(root) / ("instance.json" if args.command == "gen" else args.command))
    return None


def _write_config(args: argparse.Namespace) -> Path:
    """Make the output directory ``--out``, write ``config.json`` into it
    and return it.  Each command calls it once its inputs are loaded and
    checked, so that a refused command writes no file."""
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    doc = {k: v for k, v in vars(args).items() if k != "func"}
    doc["version"] = __version__
    (outdir / "config.json").write_text(
        json.dumps(doc, indent=1, sort_keys=True, default=str) + "\n", encoding="utf-8"
    )
    return outdir


def csv_text(rows: Iterable[Sequence]) -> str:
    """CSV text with one line per row: a string cell as is, quoted if it holds
    a comma, a quote or a line break, and any other cell by ``repr``."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([c if isinstance(c, str) else repr(c) for c in row] for row in rows)
    return out.getvalue()


def _append_metrics(path: Path, policy: str, instance: str, report: EpisodeReport) -> None:
    """Append one episode row; its ``episode`` column is the row's index."""
    header = ("episode", "policy", "instance", "nuv", "ttl", "tc")
    text = path.read_text(encoding="utf-8") if path.exists() else csv_text([header])
    episode = sum(1 for _ in csv.reader(io.StringIO(text))) - 1
    row = (episode, policy, instance, report.nuv, report.ttl, report.tc)
    path.write_text(text + csv_text([row]), encoding="utf-8")


def aggregate_metrics(reports: Sequence[EpisodeReport]) -> dict:
    """Mean/min/max summary of NUV, TC and TTL over episode reports."""
    if not reports:
        raise ValueError("cannot aggregate an empty list of reports")
    summary = {"count": len(reports)}
    for name in ("nuv", "tc", "ttl"):
        values = [getattr(r, name) for r in reports]
        summary[f"{name}_mean"] = float(np.mean(values))
        summary[f"{name}_min"] = float(min(values))
        summary[f"{name}_max"] = float(max(values))
    return summary


def _policy_for(
    name: str, checkpoint: str | None, instance: Instance, epsilon: float = 0.0, seed: int = 0, exact: ExactResult | None = None
):
    """The named policy; ``exact_plan`` replays ``exact``, else an unbudgeted exact solve."""
    if name in GREEDY_ALIASES:
        return make_greedy_policy(name)
    if name == "learned":
        if not checkpoint:
            raise ValueError("--checkpoint is required for the learned policy")
        rng = np.random.default_rng(seed) if epsilon > 0 else None
        return make_learned_policy(Trainer.load_checkpoint(checkpoint).online, epsilon=epsilon, rng=rng)
    if name == "exact_plan":
        plan = exact if exact is not None else solve_exact(instance)
        return make_plan_policy(plan.assignment)
    raise ValueError(f"unknown policy {name!r}")


def write_curve(path: Path, log: Sequence[dict]) -> None:
    """Write ``Trainer.train``'s log rows as ``curve.csv``."""
    columns = ("episode", "loss", "nuv", "ttl", "tc", "epsilon")
    path.write_text(csv_text([columns, *([r[c] for c in columns] for r in log)]), encoding="utf-8")


# ---------------------------------------------------------------------------
# SVG rendering (hand-rolled: polylines and grid heatmaps)
_PLOT_WIDTH, _PLOT_HEIGHT = 720, 400
_HEATMAP_CELL = 6


def _svg_polyline(series: dict[str, list[float]], title: str) -> str:
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
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_PLOT_WIDTH}" height="{_PLOT_HEIGHT}">',
        f'<text x="{_PLOT_WIDTH // 2}" y="18" text-anchor="middle" font-size="14">{title}</text>',
        f'<rect x="{pad}" y="{pad}" width="{_PLOT_WIDTH - 2 * pad}" height="{_PLOT_HEIGHT - 2 * pad}" fill="none" stroke="#999"/>',
        f'<text x="8" y="{pad + 4}" font-size="11">{hi:.1f}</text>',
        f'<text x="8" y="{_PLOT_HEIGHT - pad}" font-size="11">{lo:.1f}</text>',
    ]
    for ci, (name, vals) in enumerate(sorted(series.items())):
        pts = []
        for i, v in enumerate(vals):
            if not np.isfinite(v):
                continue
            x = pad + (_PLOT_WIDTH - 2 * pad) * (i / max(1, n - 1))
            y = _PLOT_HEIGHT - pad - (_PLOT_HEIGHT - 2 * pad) * ((v - lo) / (hi - lo))
            pts.append(f"{x:.1f},{y:.1f}")
        color = colors[ci % len(colors)]
        parts.append(f'<polyline points="{" ".join(pts)}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{pad + 6}" y="{pad + 16 + 14 * ci}" font-size="12" fill="{color}">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _svg_heatmap(matrix: np.ndarray, title: str) -> str:
    rows, cols = matrix.shape
    cell = _HEATMAP_CELL
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
    inst = generate_instance(**{name: getattr(args, dest) for name, dest in _GEN_DESTS.items()})
    path = save_instance(inst, args.out)
    print(f"wrote {path} ({len(inst.orders)} orders, {inst.n_vehicles} vehicles)")
    return 0


def _refuse_repeats(names: Sequence[str], what: str) -> None:
    """Refuse a name given twice: both of its runs would write one report file."""
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ValueError(f"{what} {name!r} is given twice; its second run would overwrite the first's report")


def _run_one(instance: Instance, policy, outdir: Path, label: str, instance_label: str) -> EpisodeReport:
    report, _ = run_episode(instance, policy)
    validation = validate_routes(report, instance)
    if not validation.ok:
        raise RuntimeError("executed episode failed validation: " + "; ".join(validation.violations))
    (outdir / f"report_{label}.json").write_text(report.to_json(), encoding="utf-8")
    (outdir / f"trace_{label}.txt").write_text(
        "\n".join(report.trace_lines()) + ("\n" if report.assignments else ""), encoding="utf-8"
    )
    _append_metrics(outdir / "metrics.csv", label, instance_label, report)
    return report


def _cmd_run(args: argparse.Namespace) -> int:
    if args.policy != "learned" and (args.checkpoint is not None or args.epsilon != 0.0):
        raise ValueError(f"--checkpoint and a nonzero --epsilon apply only to --policy learned, not {args.policy}")
    instance = load_instance(args.instance)
    policy = _policy_for(args.policy, args.checkpoint, instance, args.epsilon, args.seed)
    outdir = _write_config(args)
    label = policy.policy_name
    report = _run_one(instance, policy, outdir, label, Path(args.instance).stem)
    print(f"policy={label} NUV={report.nuv} TTL={report.ttl:.3f} TC={report.tc:.3f}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    if args.episodes < 0:
        raise ValueError(f"--episodes must be >= 0, not {args.episodes}")
    instances = [load_instance(p) for p in args.instance]
    qconfig = QNetworkConfig(
        neighbors=args.neighbors,
        use_attention=not args.no_attention,
        use_score_feature=not args.no_score,
    )
    tconfig = TrainerConfig(**{name: getattr(args, dest) for name, dest in _TRAINER_DESTS.items()})
    trainer = Trainer(qconfig, tconfig)
    outdir = _write_config(args)
    log = trainer.train(instances, args.episodes)
    ckpt = trainer.save_checkpoint(outdir / "checkpoint.ckpt")
    write_curve(outdir / "curve.csv", log)
    final = log[-1]["tc"] if log else float("nan")
    print(f"trained {args.episodes} episodes -> {ckpt} (final TC {final})")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    _refuse_repeats([Path(path).stem for path in args.instance], "instance name")
    net = Trainer.load_checkpoint(args.checkpoint).online
    instances = [load_instance(path) for path in args.instance]
    outdir = _write_config(args)
    reports = []
    for path, instance in zip(args.instance, instances):
        policy = make_learned_policy(net)
        reports.append(_run_one(instance, policy, outdir, f"learned_{Path(path).stem}", Path(path).stem))
    summary = aggregate_metrics(reports)
    keys = sorted(summary)
    (outdir / "summary.csv").write_text(csv_text([keys, [summary[k] for k in keys]]), encoding="utf-8")
    print(f"evaluated {len(reports)} instances: mean TC {summary['tc_mean']:.3f}")
    return 0


def _cmd_exact(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    result = solve_exact(instance, budget=args.budget)
    outdir = _write_config(args)
    doc = {f.name: getattr(result, f.name) for f in dataclasses.fields(result) if f.name != "routes"}
    doc["assignment"] = {str(k): v for k, v in result.assignment.items()}
    (outdir / "exact.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    (outdir / "plan.txt").write_text("\n".join(result.plan_lines()) + "\n", encoding="utf-8")
    status = "optimal" if result.optimal else "budget-exhausted"
    print(f"exact ({status}) NUV={result.nuv} TC={result.tc:.3f} in {result.seconds:.2f}s")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    names = [name.strip() for name in args.policies.split(",")]
    if args.checkpoint is not None and "learned" not in names:
        raise ValueError(f"--checkpoint applies only when --policies names learned, not {args.policies}")
    # One budgeted solve serves both the exact_plan policy and the exact row.
    exact = solve_exact(instance, budget=args.budget) if args.exact or "exact_plan" in names else None
    policies = [_policy_for(name, args.checkpoint, instance, exact=exact) for name in names]
    labels = [policy.policy_name for policy in policies]
    _refuse_repeats(labels, "policy")
    outdir = _write_config(args)
    rows = []
    for policy, label in zip(policies, labels):
        report = _run_one(instance, policy, outdir, label, Path(args.instance).stem)
        rows.append((label, report.nuv, report.ttl, report.tc))
    if args.exact:
        rows.append(("exact", exact.nuv, exact.ttl, exact.tc))
    rows.sort(key=lambda r: r[0])
    (outdir / "compare.csv").write_text(csv_text([("policy", "nuv", "ttl", "tc"), *rows]), encoding="utf-8")
    for label, nuv, ttl, tc in rows:
        print(f"{label:>14}  NUV={nuv:<3} TTL={ttl:<10.3f} TC={tc:.3f}")
    return 0


def _cmd_heatmap(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    n = instance.network.n_factories
    if args.source == "orders":
        grid = build_demand_grid(instance.orders, n, instance.horizon)
    elif not instance.history:
        raise ValueError(f"{args.instance} has no history days; use --source orders")
    else:
        grid = episode_demand_grid(instance)
    outdir = _write_config(args)
    (outdir / "grid.csv").write_text(csv_text(grid.tolist()), encoding="utf-8")
    (outdir / "grid.svg").write_text(_svg_heatmap(grid, f"demand grid ({args.source})"), encoding="utf-8")
    print(f"wrote {outdir / 'grid.csv'} ({n}x{instance.horizon})")
    return 0


def _cmd_curves(args: argparse.Namespace) -> int:
    path = Path(args.curve)
    with path.open(encoding="utf-8", newline="") as fh:
        # An empty file reads as one empty header, so it has no column.
        header, *rows = list(csv.reader(fh)) or [[]]
    for number, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise ValueError(f"{path} line {number}: expected {len(header)} cells as in the header, found {len(row)}")
    svgs = {}
    for metric in args.metrics.split(","):
        metric = metric.strip()
        if metric not in header:
            raise ValueError(f"{path}: curve file has no column {metric!r}")
        column = header.index(metric)
        values = []
        for number, row in enumerate(rows, start=2):
            try:
                values.append(float(row[column]))
            except ValueError:
                raise ValueError(f"{path} line {number}: column {metric!r} holds {row[column]!r}, not a number") from None
        svgs[metric] = _svg_polyline({metric: values}, f"{metric} per episode")
    outdir = _write_config(args)
    for metric, svg in svgs.items():
        (outdir / f"curve_{metric}.svg").write_text(svg, encoding="utf-8")
    print(f"wrote curves for {args.metrics} into {outdir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dpdplab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"dpdplab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic instance file")
    for name, param in _GEN_PARAMS.items():
        # The generator has no default factory count; the command line's is 10.
        default = 10 if name == "n_factories" else param.default
        given = {"required": True} if default is param.empty else {"default": default}
        p.add_argument("--" + _GEN_DESTS[name].replace("_", "-"), type=param.annotation, **given)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("run", help="run one policy on one instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--policy", required=True, choices=POLICY_CHOICES)
    p.add_argument("--checkpoint")
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("train", help="train the dispatch network")
    p.add_argument("--instance", action="append", required=True, help="repeatable")
    p.add_argument("--episodes", type=int, required=True)
    for f in dataclasses.fields(TrainerConfig):
        p.add_argument("--" + _TRAINER_DESTS[f.name].replace("_", "-"), type=type(f.default), default=f.default)
    p.add_argument("--neighbors", type=int, default=QNetworkConfig.neighbors)
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


if __name__ == "__main__":
    entrypoint()
