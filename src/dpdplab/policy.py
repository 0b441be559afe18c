"""Learned dispatching: per-vehicle Q towers with neighborhood attention,
trained with Double DQN over whole-episode replay.

Every vehicle shares one set of weights.  A feasible vehicle's five-feature
row is embedded by an initial MLP; two stacked attention levels then mix
each vehicle's embedding with those of its nearest feasible neighbours
(Euclidean distance between current positions); the initial and both
attention-level representations are concatenated into a final MLP that
emits the scalar Q-value.  Only feasible vehicles have a Q value: a pass
returns one per feasible row, in vehicle id order within each state, so an
infeasible vehicle is never evaluated, sampled, selected or differentiated.
Two places map between rows and vehicle ids: acting turns the greedy row into
its vehicle, and the replay buffer stores each action as its row.

The network reads a fleet state through its layout (:meth:`QNetwork.lay_out`):
the feasible rows, scaled, and each row's neighbour group.  A layout depends
only on the state and the network's config, so it is built once per state:
when an episode's transitions enter the replay buffer, or when acting.  A
pass evaluates a block of layouts (:func:`block_layout`): the MLPs run on the
block's packed feasible rows, and each attention level is masked attention
over a zero-padded grid of one group per state, whose mask admits each
row's neighbour group.  Acting evaluates a block of one state; training
runs one forward and one backward per block of ``BLOCK_STATES`` states of
its minibatch, and evaluates the Double-Q targets' next states in the same
blocks, one block shared by the online and the target pass.  Greedy choices
treat Q values equal up to rounding as ties and take the lowest row, which is
the lowest feasible vehicle id.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .env import DEFAULT_ALPHA, JointState, Transition, run_episode
from .instance import Instance, read_json
from .neural import Adam, AttentionBlock, Block, Mlp, load_tensors, save_tensors

# Per-column scale of a feature row (lengths in km, score, used flag,
# interval of a 144-interval day) before it enters the initial MLP.  The
# interval scale does not follow an instance's horizon: at 1440 intervals
# the scaled interval reaches about 10.0.
FEATURE_SCALE = np.array([0.02, 0.02, 1.0, 1.0, 1.0 / 144.0])
# Relative gap under which two Q values are a tie (see greedy_index).
TIE_TOLERANCE = 1e-12
# States per forward/backward pass in training: large enough to fill the
# matmuls, small enough that a pass's attention grid stays in cache.
BLOCK_STATES = 8
# Training's exploration rate falls linearly from EPSILON_START to
# EPSILON_FINAL over the first EPSILON_DECAY_FRACTION of the episodes.
EPSILON_START = 1.0
EPSILON_FINAL = 0.05
EPSILON_DECAY_FRACTION = 0.6


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise ValueError(message)


@dataclass
class QNetworkConfig:
    embed_dim: int = 64
    mlp_hidden: tuple[int, ...] = (64, 64)
    attn_heads: int = 4
    attn_head_dim: int = 16
    neighbors: int = 8
    use_attention: bool = True
    use_score_feature: bool = True

    def __post_init__(self):
        for name in ("embed_dim", "attn_heads", "attn_head_dim"):
            _check(getattr(self, name) >= 1, f"{name} must be >= 1, not {getattr(self, name)}")
        _check(
            all(h >= 1 for h in self.mlp_hidden),
            f"mlp_hidden entries must be >= 1, not {list(self.mlp_hidden)}",
        )
        _check(self.neighbors >= 0, f"neighbors must be >= 0, not {self.neighbors}")


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


@dataclass(frozen=True, slots=True)
class StateLayout:
    """One fleet state as a network reads it (see :meth:`QNetwork.lay_out`).

    ``x`` holds the k feasible vehicles' feature rows, in vehicle id order,
    after the score-column rule and ``FEATURE_SCALE``.  ``groups`` holds each
    of those rows' neighbour group as indices among them, padded to
    ``neighbors + 1`` columns with the row's own index; it is None without
    attention.  At the default config a layout stores 76 bytes per feasible
    vehicle (40 of features, 36 of group).  Measured with tracemalloc over
    240 entries of the benchmark's train shape, whose 10 vehicles were all
    feasible, a buffer entry holds about 1.3 kB, 560 bytes of it object
    headers, so a full default buffer of 100 000 such entries takes about
    130 MB.
    """

    x: np.ndarray  # (k, 5) float
    groups: np.ndarray | None  # (k, neighbors + 1) int32


@dataclass(frozen=True, slots=True)
class BlockLayout:
    """A sequence of state layouts assembled for one pass (see
    :func:`block_layout`).  ``x`` concatenates the states' feasible rows and
    ``offsets[s]`` is where state s starts in it.  With attention, ``slots``
    are those rows' places in a grid of one group of ``Kmax`` rows per state
    (every place, as a slice, when no state has fewer rows), and ``mask`` is
    the ``(S, Kmax, Kmax)`` attention mask."""

    offsets: np.ndarray
    x: np.ndarray
    slots: np.ndarray | slice | None
    mask: np.ndarray | None


def block_layout(layouts: Sequence[StateLayout]) -> BlockLayout:
    """Concatenate the layouts' rows and write their neighbour groups into
    one mask.  A padding row of the grid attends only to itself; a padded
    group column names its own row, which the diagonal already admits."""
    offsets = np.cumsum([0, *(len(lay.x) for lay in layouts)])
    x = np.concatenate([lay.x for lay in layouts])
    if layouts[0].groups is None:
        return BlockLayout(offsets, x, None, None)
    counts = np.diff(offsets)
    kmax = counts.max()
    slots = np.flatnonzero(np.arange(kmax) < counts[:, None])
    mask = np.zeros((len(layouts), kmax, kmax), dtype=bool)
    mask[:, np.arange(kmax), np.arange(kmax)] = True
    mask.reshape(len(layouts) * kmax, kmax)[slots[:, None], np.concatenate([lay.groups for lay in layouts])] = True
    # A grid without padding rows is read and written through views.
    if len(slots) == len(layouts) * kmax:
        slots = slice(None)
    return BlockLayout(offsets, x, slots, mask)


class QNetwork(Block):
    """Shared-weight per-vehicle Q tower over a joint fleet state."""

    def __init__(self, config: QNetworkConfig | None = None, seed: int = 0):
        super().__init__()
        self.config = config or QNetworkConfig()
        cfg = self.config
        rng = np.random.default_rng(seed)
        self.init_mlp = self._add_block("init.", Mlp([len(FEATURE_SCALE), *cfg.mlp_hidden, cfg.embed_dim], rng))
        if cfg.use_attention:
            self.attn1 = self._add_block(
                "attn1.", AttentionBlock(cfg.embed_dim, cfg.attn_heads, cfg.attn_head_dim, cfg.embed_dim, rng)
            )
            self.attn2 = self._add_block(
                "attn2.", AttentionBlock(cfg.embed_dim, cfg.attn_heads, cfg.attn_head_dim, cfg.embed_dim, rng)
            )
            final_in = 3 * cfg.embed_dim
        else:
            self.attn1 = self.attn2 = None
            final_in = cfg.embed_dim
        self.final_mlp = self._add_block("final.", Mlp([final_in, *cfg.mlp_hidden, 1], rng))

    def copy_weights_from(self, other: "QNetwork") -> None:
        for name, p in other.params.items():
            self.params[name][...] = p

    def lay_out(self, state: JointState) -> StateLayout:
        """The layout this network's passes read of ``state``.  It depends
        only on the state and the config, so the trainer builds it once, when
        the state enters the replay buffer, and every pass reuses it."""
        cfg = self.config
        x = state.features[state.feasible]
        if not cfg.use_score_feature:
            x[:, 2] = 0.0
        x = x * FEATURE_SCALE
        if not cfg.use_attention:
            return StateLayout(x, None)
        near = neighbor_indices(state.positions[state.feasible], cfg.neighbors)
        groups = np.empty((len(x), cfg.neighbors + 1), dtype=np.int32)
        groups[...] = np.arange(len(x))[:, None]
        groups[:, : near.shape[1]] = near
        return StateLayout(x, groups)

    def q_values(self, block: BlockLayout) -> tuple[np.ndarray, dict]:
        """Q per feasible row of every state of ``block``, concatenated in
        order, and the tape :meth:`backward` needs; ``tape["offsets"][s]`` is
        where state s starts.  Row i of a state is its i-th feasible vehicle.

        The block must come from layouts made by a network of this config.
        Each state's layout is built once, when the state enters the replay
        buffer (or when acting on it), and every pass that replays the state
        assembles its block from it.  A pass only reads its block, so the
        online and the target pass of a Double-Q target share one.  The MLPs
        run on the block's packed feasible rows; attention runs on its grid,
        zero-padded past each state's feasible rows.
        """
        tape: dict = {"offsets": block.offsets}
        if not len(block.x):
            return np.zeros(0), tape
        h0, tape["init"] = self.init_mlp.forward(block.x)
        if self.attn1 is not None:
            slots, mask = block.slots, block.mask
            grid = np.zeros((mask.shape[0] * mask.shape[1], h0.shape[1]))
            grid[slots] = h0
            h1, tape["attn1"] = self.attn1.forward(grid, mask)
            h2, tape["attn2"] = self.attn2.forward(h1, mask)
            tape["slots"] = slots
            cat = np.concatenate([h0, h1[slots], h2[slots]], axis=1)
        else:
            cat = h0
        out, tape["final"] = self.final_mlp.forward(cat)
        return out[:, 0], tape

    def backward(self, tape: dict, dq: np.ndarray) -> None:
        """Accumulate gradients of a scalar loss whose dL/dQ is ``dq`` (per
        feasible row, over the same concatenation as the Q values) through
        the forward pass recorded in ``tape``."""
        n = tape["offsets"][-1]
        _check(len(dq) == n, f"dq has {len(dq)} entries, but the forward pass had {n} rows")
        if not n:
            return
        dcat = self.final_mlp.backward(tape["final"], np.asarray(dq, dtype=float).reshape(-1, 1))
        if self.attn1 is not None:
            d = self.config.embed_dim
            slots = tape["slots"]
            dh2 = np.zeros_like(tape["attn2"]["x"])
            dh2[slots] = dcat[:, 2 * d :]
            dh1 = self.attn2.backward(tape["attn2"], dh2)
            dh1[slots] += dcat[:, d : 2 * d]
            dh0 = self.attn1.backward(tape["attn1"], dh1)[slots] + dcat[:, :d]
        else:
            dh0 = dcat
        self.init_mlp.backward(tape["init"], dh0)


def _config_from_meta(cls, meta, key: str, path: str | Path):
    """Build config dataclass ``cls`` from ``meta[key]`` by :func:`read_json`;
    the program writes every field, so an unknown or missing field is a
    ValueError too."""
    doc = meta.get(key) if isinstance(meta, dict) else None
    names = {f.name for f in fields(cls)}
    if isinstance(doc, dict) and set(doc) != names:
        unknown, missing = sorted(set(doc) - names), sorted(names - set(doc))
        raise ValueError(f"{path}: meta.{key} has unknown fields {unknown} and lacks fields {missing}")
    return read_json(cls, doc, f"{path}: meta.{key}")


def _copy_weights(path: str | Path, tensors: dict[str, np.ndarray], nets: list[tuple[str, QNetwork]]) -> None:
    """Copy checkpoint tensors into networks whose parameter names take the
    given prefixes; the names and shapes must match exactly."""
    mine = {name: p for prefix, net in nets for name, p, _ in net.parameters(prefix)}
    if set(mine) != set(tensors):
        missing, unknown = sorted(set(mine) - set(tensors)), sorted(set(tensors) - set(mine))
        raise ValueError(f"{path}: tensors do not match the network layout: missing {missing}, unknown {unknown}")
    for name, p in mine.items():
        if p.shape != tensors[name].shape:
            raise ValueError(f"{path}: tensor {name} has shape {tensors[name].shape}, expected {p.shape}")
        p[...] = tensors[name]


def greedy_index(q: np.ndarray) -> int:
    """Index of the largest of one state's Q values, one per feasible row.
    Values within ``TIE_TOLERANCE * max(1, |max|)`` of it are ties, and ties
    go to the lowest index, so interchangeable vehicles are not chosen by
    rounding."""
    if not np.isfinite(q).all():
        raise ValueError(f"the feasible Q values are not finite: {q.tolist()}")
    top = q.max()
    return int(np.argmax(q >= top - TIE_TOLERANCE * max(1.0, abs(top))))


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
    q, _ = net.q_values(block_layout([net.lay_out(state)]))
    return int(feasible[greedy_index(q)])


def make_learned_policy(
    net: QNetwork, epsilon: float = 0.0, rng: np.random.Generator | None = None
) -> Callable[[JointState], int]:
    _check(0.0 <= epsilon <= 1.0, f"epsilon must be in [0, 1], not {epsilon}")

    def policy(state: JointState) -> int:
        return select_action(state, net, epsilon, rng)

    policy.policy_name = "learned"
    return policy


@dataclass(frozen=True, slots=True)
class Replay:
    """A buffered transition: its action, as ``row``, the action's index
    among its state's feasible rows, and its reward beside the layouts of
    its state and of its next state (None unless its target bootstraps)."""

    layout: StateLayout
    row: int
    reward: float
    next_layout: StateLayout | None


@dataclass
class TrainerConfig:
    gamma: float = 0.95
    buffer_capacity: int = 100_000
    batch_size: int = 64
    target_period: int = 5
    steps_per_episode: int = 1
    learning_rate: float = 1e-3
    alpha: float = DEFAULT_ALPHA
    seed: int = 0

    def __post_init__(self):
        for name in ("batch_size", "target_period"):
            _check(getattr(self, name) >= 1, f"{name} must be >= 1, not {getattr(self, name)}")
        _check(self.steps_per_episode >= 0, f"steps_per_episode must be >= 0, not {self.steps_per_episode}")
        # Every comparison with NaN is false, so these also refuse NaN.
        _check(0.0 <= self.gamma <= 1.0, f"gamma must be in [0, 1], not {self.gamma}")
        for name in ("learning_rate", "alpha"):
            _check(0.0 < getattr(self, name) < np.inf, f"{name} must be finite and > 0, not {getattr(self, name)}")
        _check(
            self.buffer_capacity >= self.batch_size,
            f"buffer_capacity must be >= batch_size = {self.batch_size}, not {self.buffer_capacity}",
        )


class Trainer:
    """Double-DQN training loop: whole-episode rollouts feed a FIFO replay
    buffer of :class:`Replay` entries; each episode takes
    ``steps_per_episode`` mini-batch gradient steps (none until the buffer
    holds a full batch) and the target network syncs every
    ``target_period`` episodes."""

    def __init__(self, qconfig: QNetworkConfig | None = None, config: TrainerConfig | None = None):
        self.config = config or TrainerConfig()
        self.online = QNetwork(qconfig, seed=self.config.seed)
        self.target = QNetwork(qconfig, seed=self.config.seed)
        self.target.copy_weights_from(self.online)
        self.buffer: deque[Replay] = deque(maxlen=self.config.buffer_capacity)
        self.rng = np.random.default_rng(self.config.seed)
        self.optimizer = Adam(self.online.parameters(), lr=self.config.learning_rate)
        self.episodes_trained = 0

    def epsilon_at(self, episode: int, max_episode: int) -> float:
        decay_span = max(1.0, EPSILON_DECAY_FRACTION * max_episode)
        frac = min(1.0, episode / decay_span)
        return EPSILON_START + frac * (EPSILON_FINAL - EPSILON_START)

    def replays(self, transitions: Sequence[Transition]) -> list[Replay]:
        """The buffer entries of ``transitions``, each state laid out once.
        In an episode a bootstrapping transition's next state is the
        following transition's state, and the two share its layout.  An
        action that is not a feasible vehicle is a ValueError."""
        layouts = [self.online.lay_out(tr.state) for tr in transitions]
        following = [tr.state for tr in transitions[1:]] + [None]
        entries = []
        for i, tr in enumerate(transitions):
            if tr.next_state is None:
                nxt = None
            elif tr.next_state is following[i]:
                nxt = layouts[i + 1]
            else:
                nxt = self.online.lay_out(tr.next_state)
            feasible = tr.state.feasible
            _check(
                0 <= tr.action < len(feasible) and feasible[tr.action],
                f"action {tr.action} is not a feasible vehicle for order {tr.state.order_id}",
            )
            row = int(np.count_nonzero(feasible[: tr.action]))
            entries.append(Replay(layouts[i], row, float(tr.reward), nxt))
        return entries

    def double_q_target(self, batch: Sequence[Replay]) -> np.ndarray:
        """One target per entry.  An entry without a next state takes its
        raw reward; the others bootstrap with the online argmax evaluated by
        the target network, over their next states in blocks that the two
        networks share."""
        targets = np.array([r.reward for r in batch])
        live = [i for i, r in enumerate(batch) if r.next_layout is not None]
        for start in range(0, len(live), BLOCK_STATES):
            part = live[start : start + BLOCK_STATES]
            block = block_layout([batch[i].next_layout for i in part])
            online_q, _ = self.online.q_values(block)
            target_q, _ = self.target.q_values(block)
            for i, lo, hi in zip(part, block.offsets, block.offsets[1:]):
                best = lo + greedy_index(online_q[lo:hi])
                targets[i] = batch[i].reward + self.config.gamma * target_q[best]
        return targets

    def train_step(self) -> float | None:
        cfg = self.config
        if len(self.buffer) < cfg.batch_size:
            return None
        picks = self.rng.choice(len(self.buffer), size=cfg.batch_size, replace=False)
        batch = [self.buffer[int(i)] for i in picks]
        targets = self.double_q_target(batch)
        self.online.zero_grad()
        total = 0.0
        for start in range(0, len(batch), BLOCK_STATES):
            part = batch[start : start + BLOCK_STATES]
            q, tape = self.online.q_values(block_layout([r.layout for r in part]))
            picked = tape["offsets"][:-1] + [r.row for r in part]
            diff = q[picked] - targets[start : start + BLOCK_STATES]
            total += float(diff @ diff)
            dq = np.zeros_like(q)
            dq[picked] = 2.0 * diff / cfg.batch_size
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
            instance = instances[episode % len(instances)]
            policy = make_learned_policy(self.online, epsilon=eps, rng=self.rng)
            report, transitions = run_episode(instance, policy, alpha=self.config.alpha)
            self.buffer.extend(self.replays(transitions))
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
        tensors = {n: p for n, p, _ in (*self.online.parameters("online."), *self.target.parameters("target."))}
        meta = {
            "qnetwork_config": asdict(self.online.config),
            "trainer_config": asdict(self.config),
            "episodes_trained": self.episodes_trained,
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
        episodes = read_json(int, meta.get("episodes_trained"), f"{path}: meta.episodes_trained")
        _check(episodes >= 0, f"{path}: meta.episodes_trained must be >= 0, not {episodes}")
        try:
            trainer.rng.bit_generator.state = meta["rng_state"]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{path}: meta.rng_state is malformed: {exc!r}") from None
        trainer.episodes_trained = episodes
        return trainer

