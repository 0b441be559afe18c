"""Learned dispatching: per-vehicle Q towers with neighborhood attention,
trained with Double DQN over whole-episode replay.

Every vehicle shares one set of weights.  A feasible vehicle's five-feature
row is embedded by an initial MLP; two stacked attention levels then mix
each vehicle's embedding with those of its nearest feasible neighbours
(Euclidean distance between current positions); the initial and both
attention-level representations are concatenated into a final MLP that
emits the scalar Q-value.  Infeasible vehicles are excluded before any
network evaluation: their Q-value is pinned to a large negative sentinel,
they are never sampled or selected, and no gradient ever flows to or from
their rows.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .env import JointState, Transition, run_episode
from .instance import Instance
from .neural import Adam, AttentionBlock, Mlp, load_tensors, save_tensors

SENTINEL_Q = -1e9


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise ValueError(message)


@dataclass
class QNetworkConfig:
    state_dim: int = 5
    embed_dim: int = 64
    mlp_hidden: tuple[int, ...] = (64, 64)
    attn_heads: int = 4
    attn_head_dim: int = 16
    neighbors: int = 8
    use_attention: bool = True
    use_score_feature: bool = True
    feature_scale: tuple[float, ...] = (0.02, 0.02, 1.0, 1.0, 1.0 / 144.0)

    def __post_init__(self):
        # JSON round trips hand the sequences back as lists.
        self.mlp_hidden = tuple(self.mlp_hidden)
        self.feature_scale = tuple(self.feature_scale)
        _check(self.state_dim == 5, f"state_dim must be 5, the feature row length, not {self.state_dim}")
        for name in ("embed_dim", "attn_heads", "attn_head_dim"):
            _check(getattr(self, name) >= 1, f"{name} must be >= 1, not {getattr(self, name)}")
        _check(
            all(h >= 1 for h in self.mlp_hidden),
            f"mlp_hidden entries must be >= 1, not {list(self.mlp_hidden)}",
        )
        _check(self.neighbors >= 0, f"neighbors must be >= 0, not {self.neighbors}")
        _check(
            len(self.feature_scale) == self.state_dim,
            f"feature_scale must hold state_dim = {self.state_dim} entries, not {len(self.feature_scale)}",
        )


def neighbor_indices(positions: np.ndarray, n_neighbors: int) -> np.ndarray:
    """Group index matrix (rows, 1 + NE): self first, then the NE nearest
    others ordered by (distance, index).  NE clamps to rows - 1."""
    ne = min(n_neighbors, positions.shape[0] - 1)
    diff = positions[:, None, :] - positions[None, :, :]
    d2 = (diff**2).sum(axis=2)
    # Squared distances are >= 0, so a negative diagonal sorts self first;
    # the stable sort breaks distance ties by index.
    np.fill_diagonal(d2, -1.0)
    return np.argsort(d2, axis=1, kind="stable")[:, : ne + 1]


class QNetwork:
    """Shared-weight per-vehicle Q tower over a joint fleet state."""

    def __init__(self, config: QNetworkConfig | None = None, seed: int = 0):
        self.config = config or QNetworkConfig()
        cfg = self.config
        rng = np.random.default_rng(seed)
        self.init_mlp = Mlp([cfg.state_dim, *cfg.mlp_hidden, cfg.embed_dim], rng)
        if cfg.use_attention:
            self.attn1 = AttentionBlock(
                cfg.embed_dim, cfg.attn_heads, cfg.attn_head_dim, cfg.embed_dim, rng
            )
            self.attn2 = AttentionBlock(
                cfg.embed_dim, cfg.attn_heads, cfg.attn_head_dim, cfg.embed_dim, rng
            )
            final_in = 3 * cfg.embed_dim
        else:
            self.attn1 = self.attn2 = None
            final_in = cfg.embed_dim
        self.final_mlp = Mlp([final_in, *cfg.mlp_hidden, 1], rng)

    def blocks(self) -> list[tuple[str, object]]:
        out: list[tuple[str, object]] = [("init.", self.init_mlp)]
        if self.attn1 is not None:
            out += [("attn1.", self.attn1), ("attn2.", self.attn2)]
        out.append(("final.", self.final_mlp))
        return out

    def parameters(self) -> Iterator[tuple[str, np.ndarray, np.ndarray]]:
        for prefix, block in self.blocks():
            yield from block.parameters(prefix)

    def zero_grad(self) -> None:
        for _, block in self.blocks():
            block.zero_grad()

    def copy_weights_from(self, other: "QNetwork") -> None:
        mine = {name: p for name, p, _ in self.parameters()}
        for name, p, _ in other.parameters():
            mine[name][...] = p

    def q_values(self, state: JointState) -> tuple[np.ndarray, dict]:
        """Q per vehicle and the tape :meth:`backward` needs; infeasible rows
        get the sentinel without evaluation."""
        rows = np.flatnonzero(state.feasible)
        q = np.full(state.n_vehicles, SENTINEL_Q, dtype=float)
        tape: dict = {"rows": rows}
        if not rows.size:
            return q, tape
        x = state.features[rows]
        if not self.config.use_score_feature:
            x[:, 2] = 0.0
        x = x * np.asarray(self.config.feature_scale, dtype=float)
        h0, tape["init"] = self.init_mlp.forward(x)
        if self.attn1 is not None:
            idx = neighbor_indices(state.positions[rows], self.config.neighbors)
            h1, tape["attn1"] = self.attn1.forward(h0[idx])
            h2, tape["attn2"] = self.attn2.forward(h1[idx])
            tape["idx"] = idx
            cat = np.concatenate([h0, h1, h2], axis=1)
        else:
            cat = h0
        out, tape["final"] = self.final_mlp.forward(cat)
        q[rows] = out[:, 0]
        return q, tape

    def backward(self, tape: dict, dq: np.ndarray) -> None:
        """Accumulate gradients of a scalar loss whose dL/dQ is ``dq`` (per
        vehicle) through the forward pass recorded in ``tape``.

        Components on infeasible rows must be zero: those rows never entered
        the forward pass.
        """
        rows = tape["rows"]
        infeasible_mask = np.ones(len(dq), dtype=bool)
        infeasible_mask[rows] = False
        if np.any(dq[infeasible_mask] != 0.0):
            raise ValueError("loss gradient on an infeasible row")
        if not rows.size:
            return
        dout = np.asarray(dq, dtype=float)[rows].reshape(-1, 1)
        dcat = self.final_mlp.backward(tape["final"], dout)
        if self.attn1 is not None:
            d = self.config.embed_dim
            idx = tape["idx"]
            dh0 = dcat[:, :d].copy()
            dh1 = dcat[:, d : 2 * d].copy()
            dh2 = dcat[:, 2 * d :].copy()
            dx1 = self.attn2.backward(tape["attn2"], dh2)
            np.add.at(dh1, idx, dx1)
            dx0 = self.attn1.backward(tape["attn1"], dh1)
            np.add.at(dh0, idx, dx0)
        else:
            dh0 = dcat
        self.init_mlp.backward(tape["init"], dh0)

    def tensors(self) -> dict[str, np.ndarray]:
        return {name: p for name, p, _ in self.parameters()}

    def save(self, path: str | Path, meta: dict | None = None) -> Path:
        payload = dict(meta or {})
        payload["qnetwork_config"] = asdict(self.config)
        return save_tensors(path, self.tensors(), payload)

    @classmethod
    def load(cls, path: str | Path) -> tuple["QNetwork", dict]:
        tensors, meta = load_tensors(path)
        net = cls(_config_from_meta(QNetworkConfig, meta, "qnetwork_config", path), seed=0)
        _copy_weights(path, tensors, [("", net)])
        return net, meta


def _same_json_type(value, default) -> bool:
    """Whether a JSON value fits a config field with this default: booleans
    and numbers differ, an integer field takes only integers, a float field
    any number, and a tuple field a list of values fitting its first item."""
    if isinstance(default, tuple):
        return isinstance(value, list) and all(_same_json_type(v, default[0]) for v in value)
    if isinstance(default, float) and not isinstance(value, bool):
        return isinstance(value, (int, float))
    return type(value) is type(default)


def _config_from_meta(cls, meta, key: str, path: str | Path):
    """Build config dataclass ``cls`` from ``meta[key]``; a field that is
    unknown, missing, of another type than its default or out of range is a
    ValueError."""
    doc = meta.get(key) if isinstance(meta, dict) else None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: meta.{key} must be an object")
    defaults = asdict(cls())
    if set(doc) != set(defaults):
        unknown, missing = sorted(set(doc) - set(defaults)), sorted(set(defaults) - set(doc))
        raise ValueError(f"{path}: meta.{key} has unknown fields {unknown} and lacks fields {missing}")
    for name, default in defaults.items():
        if not _same_json_type(doc[name], default):
            raise ValueError(f"{path}: meta.{key}.{name} is {doc[name]!r}, of another type than its default {default!r}")
    try:
        return cls(**doc)
    except ValueError as exc:
        raise ValueError(f"{path}: meta.{key}.{exc}") from None


def _copy_weights(path: str | Path, tensors: dict[str, np.ndarray], nets: list[tuple[str, QNetwork]]) -> None:
    """Copy checkpoint tensors into networks whose parameter names take the
    given prefixes; the names and shapes must match exactly."""
    mine = {prefix + name: p for prefix, net in nets for name, p, _ in net.parameters()}
    if set(mine) != set(tensors):
        missing, unknown = sorted(set(mine) - set(tensors)), sorted(set(tensors) - set(mine))
        raise ValueError(f"{path}: tensors do not match the network layout: missing {missing}, unknown {unknown}")
    for name, p in mine.items():
        if p.shape != tensors[name].shape:
            raise ValueError(f"{path}: tensor {name} has shape {tensors[name].shape}, expected {p.shape}")
        p[...] = tensors[name]


def select_action(
    state: JointState,
    net: QNetwork,
    epsilon: float = 0.0,
    rng: np.random.Generator | None = None,
) -> int:
    """Epsilon-greedy over feasible vehicles; greedy ties go to the lowest id."""
    feasible = np.flatnonzero(state.feasible)
    if not feasible.size:
        raise ValueError(f"no feasible vehicle for order {state.order_id}")
    if epsilon > 0.0:
        if rng is None:
            raise ValueError("exploration requires a random generator")
        if rng.random() < epsilon:
            return int(feasible[int(rng.integers(len(feasible)))])
    q, _ = net.q_values(state)
    return int(np.argmax(q))


def make_learned_policy(
    net: QNetwork, epsilon: float = 0.0, rng: np.random.Generator | None = None
) -> Callable[[JointState], int]:
    def policy(state: JointState) -> int:
        return select_action(state, net, epsilon, rng)

    policy.policy_name = "learned"
    return policy


@dataclass
class TrainerConfig:
    gamma: float = 0.95
    epsilon_start: float = 1.0
    epsilon_final: float = 0.05
    epsilon_decay_fraction: float = 0.6
    buffer_capacity: int = 100_000
    batch_size: int = 64
    target_period: int = 5
    steps_per_episode: int = 1
    learning_rate: float = 1e-3
    alpha: float = 0.01
    seed: int = 0

    def __post_init__(self):
        for name in ("batch_size", "target_period"):
            _check(getattr(self, name) >= 1, f"{name} must be >= 1, not {getattr(self, name)}")
        _check(self.steps_per_episode >= 0, f"steps_per_episode must be >= 0, not {self.steps_per_episode}")
        _check(
            self.buffer_capacity >= self.batch_size,
            f"buffer_capacity must be >= batch_size = {self.batch_size}, not {self.buffer_capacity}",
        )


class Trainer:
    """Double-DQN training loop: whole-episode rollouts feed a FIFO replay
    buffer; each episode takes ``steps_per_episode`` mini-batch gradient
    steps (none until the buffer holds a full batch) and the target network
    syncs every ``target_period`` episodes."""

    def __init__(self, qconfig: QNetworkConfig | None = None, config: TrainerConfig | None = None):
        self.config = config or TrainerConfig()
        self.online = QNetwork(qconfig, seed=self.config.seed)
        self.target = QNetwork(qconfig, seed=self.config.seed)
        self.target.copy_weights_from(self.online)
        self.buffer: deque[Transition] = deque(maxlen=self.config.buffer_capacity)
        self.rng = np.random.default_rng(self.config.seed)
        self.optimizer = Adam(self.online.parameters(), lr=self.config.learning_rate)
        self.episodes_trained = 0
        self.last_epsilon = self.config.epsilon_start

    def epsilon_at(self, episode: int, max_episode: int) -> float:
        cfg = self.config
        decay_span = max(1.0, cfg.epsilon_decay_fraction * max_episode)
        frac = min(1.0, episode / decay_span)
        return cfg.epsilon_start + frac * (cfg.epsilon_final - cfg.epsilon_start)

    def double_q_target(self, transition: Transition) -> float:
        """Terminal transitions return the raw reward; otherwise bootstrap with
        the online argmax evaluated by the target network."""
        if transition.interval_end or transition.next_state is None:
            return float(transition.reward)
        nxt = transition.next_state
        online_q, _ = self.online.q_values(nxt)
        target_q, _ = self.target.q_values(nxt)
        best = int(np.argmax(online_q))
        return float(transition.reward + self.config.gamma * target_q[best])

    def train_step(self) -> float | None:
        cfg = self.config
        if len(self.buffer) < cfg.batch_size:
            return None
        picks = self.rng.choice(len(self.buffer), size=cfg.batch_size, replace=False)
        batch = [self.buffer[int(i)] for i in picks]
        targets = [self.double_q_target(tr) for tr in batch]
        self.online.zero_grad()
        total = 0.0
        for tr, y in zip(batch, targets):
            q, tape = self.online.q_values(tr.state)
            diff = float(q[tr.action]) - y
            total += diff * diff
            dq = np.zeros_like(q)
            dq[tr.action] = 2.0 * diff / cfg.batch_size
            self.online.backward(tape, dq)
        self.optimizer.step()
        return total / cfg.batch_size

    def sync_target(self) -> None:
        self.target.copy_weights_from(self.online)

    def train(
        self,
        instances: Sequence[Instance],
        max_episode: int,
    ) -> list[dict]:
        """Run the full loop over episodes cycling through ``instances``.

        Returns one log row per episode: episode index, mean loss of the
        episode's gradient steps (NaN before the buffer warms up), NUV, TTL,
        TC and the exploration rate used.
        """
        if not instances:
            raise ValueError("need at least one training instance")
        log: list[dict] = []
        for episode in range(max_episode):
            eps = self.epsilon_at(episode, max_episode)
            self.last_epsilon = eps
            instance = instances[episode % len(instances)]
            policy = make_learned_policy(self.online, epsilon=eps, rng=self.rng)
            report, transitions = run_episode(instance, policy, alpha=self.config.alpha)
            self.buffer.extend(transitions)
            losses = [
                loss
                for _ in range(self.config.steps_per_episode)
                if (loss := self.train_step()) is not None
            ]
            self.episodes_trained += 1
            if self.episodes_trained % self.config.target_period == 0:
                self.sync_target()
            log.append(
                {
                    "episode": episode,
                    "loss": float(np.mean(losses)) if losses else float("nan"),
                    "nuv": report.nuv,
                    "ttl": report.ttl,
                    "tc": report.tc,
                    "epsilon": eps,
                }
            )
        return log

    def save_checkpoint(self, path: str | Path) -> Path:
        tensors = {f"online.{n}": p for n, p, _ in self.online.parameters()}
        tensors.update({f"target.{n}": p for n, p, _ in self.target.parameters()})
        meta = {
            "qnetwork_config": asdict(self.online.config),
            "trainer_config": asdict(self.config),
            "episodes_trained": self.episodes_trained,
            "epsilon": self.last_epsilon,
            "rng_state": self.rng.bit_generator.state,
        }
        return save_tensors(path, tensors, meta)

    @classmethod
    def load_checkpoint(cls, path: str | Path) -> "Trainer":
        tensors, meta = load_tensors(path)
        qconfig = _config_from_meta(QNetworkConfig, meta, "qnetwork_config", path)
        tconfig = _config_from_meta(TrainerConfig, meta, "trainer_config", path)
        trainer = cls(qconfig, tconfig)
        _copy_weights(path, tensors, [("online.", trainer.online), ("target.", trainer.target)])
        episodes = meta.get("episodes_trained")
        epsilon = meta.get("epsilon", tconfig.epsilon_start)
        if not (_same_json_type(episodes, 0) and _same_json_type(epsilon, 0.0)):
            raise ValueError(f"{path}: meta.episodes_trained must be an integer and meta.epsilon a number")
        try:
            trainer.rng.bit_generator.state = meta["rng_state"]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{path}: meta.rng_state is malformed: {exc!r}") from None
        trainer.episodes_trained = episodes
        trainer.last_epsilon = float(epsilon)
        return trainer

