"""The benchmark's workloads.

Each workload is a closed loop with one client in one process: an episode
hands the next order to the planner only after the previous decision has
committed, and simulated time is independent of wall time.  A workload's
inputs come only from ``generate_instance`` and the workload seed.

A *round* is a fixed amount of work on freshly set-up inputs (the same
inputs, in the same order), made of *units* (an episode, a training run, a
solve) that every round repeats identically.  Each unit's wall time is cut
into consecutive *gaps* at operation boundaries, so the same gap can be
compared across rounds.  ``round_seconds`` is a round's nominal wall time,
set-up and checks included, on a 2-core x86 virtual machine (Python 3.11,
numpy 2.4); a run of ``--seconds`` does ``seconds / round_seconds`` rounds.
"""

from __future__ import annotations

import hashlib
import math
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import dpdplab.baselines
import dpdplab.env
import dpdplab.instance
import dpdplab.policy

clock = time.perf_counter

# sha256 over the episode's trace lines and repr(tc) of one greedy round
# at seed 0.  Fixed seeds give byte-identical greedy traces, so any change to
# them shows here.
GREEDY_DIGEST_SEED0 = "18276f44d24466b51c4dec65d91120a8755d10e8eaaba04f24127763fe34290a"


def instance_seeds(seed: int, n: int) -> list[int]:
    """Disjoint instance seeds for each workload seed."""
    return [seed * 1000 + i for i in range(n)]


@dataclass
class Unit:
    """One repeatable piece of a round: an episode, a training run or a solve."""

    items: int  # orders dispatched, training samples or instances solved
    gaps: np.ndarray  # seconds between consecutive boundaries; they sum to the unit's wall
    ops: list[int]  # indices of the gaps that are operations (decisions, steps, solves)


@dataclass
class Round:
    """What one round measured and produced; ``units`` is keyed by position."""

    units: dict[int, Unit] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    outputs: list = field(default_factory=list)


def _op_failed(rnd: Round, what: str) -> None:
    rnd.failed += 1
    print(f"perfbench: {what} failed:\n{traceback.format_exc()}", file=sys.stderr, flush=True)


def _validate(report, instance) -> list[str]:
    result = dpdplab.baselines.validate_routes(report, instance)
    return [] if result.ok else result.violations[:3]


def _episode_digest(report) -> str:
    text = "\n".join(report.trace_lines()) + f"\ntc {report.tc!r}\n"
    return hashlib.sha256(text.encode()).hexdigest()


class Greedy:
    """Online greedy (``incremental``) dispatch of 300 orders over 50
    vehicles: one episode on one instance."""

    name = "greedy-300x50"
    unit = "orders dispatched"
    op = "dispatch decision"
    attempts = "episodes"
    shape = (30, 300, 50)  # factories, orders, vehicles
    n_instances = 1
    round_seconds = 2.8

    def setup(self, seed: int):
        gen = dpdplab.instance.generate_instance
        instances = [gen(s, *self.shape) for s in instance_seeds(seed, self.n_instances)]
        grids = [dpdplab.env.episode_demand_grid(inst) for inst in instances]
        return instances, grids, dpdplab.baselines.make_greedy_policy("incremental")

    def round(self, inputs) -> Round:
        instances, grids, policy = inputs
        rnd = Round()
        for key, (inst, grid) in enumerate(zip(instances, grids)):
            stamps: list[float] = []

            def timed(state, policy=policy, stamps=stamps):
                k = policy(state)
                stamps.append(clock())
                return k

            rnd.attempted += 1
            t0 = clock()
            try:
                report, _ = dpdplab.env.run_episode(inst, timed, predicted=grid)
            except Exception:
                _op_failed(rnd, "episode")
                continue
            stamps.append(clock())
            # Every gap but the last (the rest of the episode after its last
            # decision) is one decision.
            rnd.units[key] = Unit(len(report.assignments), np.diff([t0, *stamps]), list(range(len(stamps) - 1)))
            rnd.outputs.append((inst, report))
        return rnd

    def check(self, inputs, seed: int, rnd: Round) -> list[str]:
        problems = []
        for inst, report in rnd.outputs:
            bad = _validate(report, inst)
            if bad:
                rnd.failed += 1
                problems.append(f"episode fails validate_routes: {bad}")
        if seed == 0:
            digest = hashlib.sha256(
                "".join(_episode_digest(r) for _, r in rnd.outputs).encode()
            ).hexdigest()
            if digest != GREEDY_DIGEST_SEED0:
                problems.append(f"greedy trace digest {digest} != recorded {GREEDY_DIGEST_SEED0}")
        return problems


class Train:
    """Double-DQN training on the criterion-3 instance shape.

    A round is one ``Trainer.train`` call of 8 episodes on the trainer its
    set-up built: the buffer holds a batch after three 30-order episodes, so
    6 episodes of 8 steps give 48 effective train steps.
    """

    name = "train-30x10"
    unit = "training samples"
    op = "effective train step"
    attempts = "effective train steps and rollout episodes"
    shape = (10, 30, 10)
    episodes = 8
    round_seconds = 5.5

    def setup(self, seed: int):
        inst = dpdplab.instance.generate_instance(instance_seeds(seed, 1)[0], *self.shape)
        config = dpdplab.policy.TrainerConfig(seed=seed, steps_per_episode=8)
        trainer = dpdplab.policy.Trainer(config=config)
        return inst, config, trainer

    def round(self, inputs) -> Round:
        inst, config, trainer = inputs
        rnd = Round()
        step = trainer.train_step
        losses: list[float] = []
        rollouts: list = []
        # Boundaries at the entry and exit of every train_step call: the gaps
        # alternate between rollouts (or nothing) and steps.
        bounds: list[float] = []
        ops: list[int] = []

        def timed_step():
            bounds.append(clock())
            loss = step()
            bounds.append(clock())
            if loss is not None:
                ops.append(len(bounds) - 2)
                losses.append(loss)
            return loss

        episode = dpdplab.policy.run_episode

        def captured(instance, *args, **kwargs):
            result = episode(instance, *args, **kwargs)
            rollouts.append((instance, result[0]))
            return result

        trainer.train_step = timed_step
        dpdplab.policy.run_episode = captured
        bounds.append(clock())
        try:
            trainer.train([inst], self.episodes)
            bounds.append(clock())
            rnd.units[0] = Unit(len(losses) * config.batch_size, np.diff(bounds), ops)
        except Exception:
            rnd.attempted += 1
            _op_failed(rnd, "training")
        finally:
            dpdplab.policy.run_episode = episode
            # The wrapper refers back to the trainer; dropping it lets the
            # trainer and its replay buffer be freed as soon as the round ends.
            del trainer.train_step
        rnd.attempted += len(losses) + len(rollouts)
        rnd.outputs = [losses, rollouts]
        return rnd

    def check(self, inputs, seed: int, rnd: Round) -> list[str]:
        problems = []
        losses, rollouts = rnd.outputs
        bad_losses = sum(1 for loss in losses if not math.isfinite(loss))
        if bad_losses:
            rnd.failed += bad_losses
            problems.append(f"{bad_losses} train steps returned a non-finite loss")
        for inst, report in rollouts:
            bad = _validate(report, inst)
            if bad:
                rnd.failed += 1
                problems.append(f"rollout fails validate_routes: {bad}")
        return problems


class Exact:
    """Branch-and-bound optimum, one solve per instance over 200 instances of
    8 factories, 5 orders and 5 vehicles."""

    name = "exact-5x5"
    unit = "instances solved"
    op = "exact solve"
    attempts = "exact solves"
    shape = (8, 5, 5)
    n_instances = 200
    round_seconds = 3.3

    def setup(self, seed: int):
        gen = dpdplab.instance.generate_instance
        return [gen(s, *self.shape) for s in instance_seeds(seed, self.n_instances)]

    def round(self, inputs) -> Round:
        rnd = Round()
        for key, inst in enumerate(inputs):
            rnd.attempted += 1
            t0 = clock()
            try:
                result = dpdplab.baselines.solve_exact(inst)
            except Exception:
                _op_failed(rnd, "exact solve")
                continue
            rnd.units[key] = Unit(1, np.array([clock() - t0]), [0])
            rnd.outputs.append((inst, result))
        return rnd

    def check(self, inputs, seed: int, rnd: Round) -> list[str]:
        problems = []
        policy = dpdplab.baselines.make_greedy_policy("incremental")
        for inst, result in rnd.outputs:
            greedy, _ = dpdplab.env.run_episode(inst, policy)
            bad = _validate(greedy, inst)
            if bad:
                problems.append(f"greedy reference episode fails validate_routes: {bad}")
            if not result.optimal or result.tc > greedy.tc + 1e-9:
                rnd.failed += 1
                problems.append(f"exact solve optimal={result.optimal} tc={result.tc!r} vs greedy tc={greedy.tc!r}")
        return problems


WORKLOADS = {
    w.name: w
    for w in (
        Greedy(),
        Train(),
        Exact(),
    )
}
