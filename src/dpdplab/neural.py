"""Minimal float64 layer stack with exact reverse-mode gradients.

Just the pieces the dispatch network needs: multi-layer perceptrons, and
multi-head scaled dot-product attention within masked groups of rows, where
every row is a query, followed by a concatenative dense head.  No block
keeps activations between calls: ``forward`` returns ``(output, tape)``,
where the tape holds what the matching ``backward(tape, grad)`` needs.  Gradients accumulate in
mirrored buffers across backward calls until :meth:`zero_grad`.  A block built
from child blocks holds their arrays, shared, in its own registry under a
prefix per child, so one ``params``/``grads`` pair names every array below it.

Checkpoints are a small named-tensor archive: a JSON manifest followed by
raw little-endian float64 payloads, deterministic byte-for-byte for equal
tensors (see ``docs/checkpoint-format.md``).
"""

from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(np.float64)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


class Block:
    """Base for parameterized blocks: named parameters with gradient mirrors."""

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}

    def _add_param(self, name: str, value: np.ndarray) -> np.ndarray:
        self.params[name] = value
        self.grads[name] = np.zeros_like(value)
        return value

    def _add_block(self, prefix: str, block: "Block") -> "Block":
        """Enter ``block``'s parameters and gradients, shared, under ``prefix``."""
        for name in block.params:
            self.params[prefix + name] = block.params[name]
            self.grads[prefix + name] = block.grads[name]
        return block

    def zero_grad(self) -> None:
        for g in self.grads.values():
            g[...] = 0.0

    def parameters(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray, np.ndarray]]:
        for name in self.params:
            yield (prefix + name, self.params[name], self.grads[name])


class Linear(Block):
    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator):
        super().__init__()
        self._add_param("W", glorot_uniform(rng, d_in, d_out))
        self._add_param("b", np.zeros(d_out, dtype=np.float64))

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Affine map; the tape is the input."""
        return x @ self.params["W"] + self.params["b"], x

    def backward(self, tape: np.ndarray, grad: np.ndarray) -> np.ndarray:
        self.grads["W"] += tape.T @ grad
        self.grads["b"] += grad.sum(axis=0)
        return grad @ self.params["W"].T


class Mlp(Block):
    """Affine + ReLU hidden layers, linear output layer."""

    def __init__(self, sizes: Iterable[int], rng: np.random.Generator):
        super().__init__()
        sizes = list(sizes)
        if len(sizes) < 2:
            raise ValueError("an MLP needs at least input and output sizes")
        self.layers = [
            self._add_block(f"layer{i}.", Linear(a, b, rng)) for i, (a, b) in enumerate(zip(sizes, sizes[1:]))
        ]

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """The tape is every layer's input; past the first they are ReLU
        outputs, so they also give the ReLU masks."""
        inputs = []
        h = x
        for i, layer in enumerate(self.layers):
            if i > 0:
                h = relu(h)
            h, layer_in = layer.forward(h)
            inputs.append(layer_in)
        return h, inputs

    def backward(self, tape: list[np.ndarray], grad: np.ndarray) -> np.ndarray:
        g = grad
        for i in range(len(self.layers) - 1, -1, -1):
            g = self.layers[i].backward(tape[i], g)
            if i > 0:
                g = g * (tape[i] > 0)
        return g


class AttentionBlock(Block):
    """Multi-head scaled dot-product attention within masked groups, with a
    concatenative dense head.

    The input is S groups of K rows, taken as the ``(S * K, d_in)`` row
    matrix, and a ``(S, K, K)`` boolean mask: row i of group s attends to
    row j of the same group where ``mask[s, i, j]``.  Every row is a query,
    and Q, K and V are projected once per row.  Per head a row's context is
    ``softmax(q K^T / sqrt(d_head)) V`` over the rows its mask admits; the
    heads are concatenated, the row is concatenated with its context and
    passed through an affine + ReLU layer, giving ``(S * K, d_out)``.  Each
    mask row must admit at least one row.  The tape's ``"weights"`` entry
    holds the attention weights, shape ``(S, H, K, K)``, zero outside the
    mask.
    """

    def __init__(self, d_in: int, n_heads: int, d_head: int, d_out: int, rng: np.random.Generator):
        super().__init__()
        self.d_in = d_in
        self.n_heads = n_heads
        self.d_head = d_head
        width = n_heads * d_head
        self._add_param("WQ", glorot_uniform(rng, d_in, width))
        self._add_param("WK", glorot_uniform(rng, d_in, width))
        self._add_param("WV", glorot_uniform(rng, d_in, width))
        self._add_param("W", glorot_uniform(rng, d_in + width, d_out))
        self._add_param("b", np.zeros(d_out, dtype=np.float64))

    def _heads(self, rows: np.ndarray, S: int, K: int) -> np.ndarray:
        """(S * K, H * dh) -> (S, H, K, dh)."""
        return rows.reshape(S, K, self.n_heads, self.d_head).transpose(0, 2, 1, 3)

    def _rows(self, heads: np.ndarray) -> np.ndarray:
        """(S, H, K, dh) -> (S * K, H * dh)."""
        S, H, K, dh = heads.shape
        return heads.transpose(0, 2, 1, 3).reshape(S * K, H * dh)

    def forward(self, x: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, dict]:
        if mask.ndim != 3 or mask.shape[1] != mask.shape[2]:
            raise ValueError(f"expected a mask of shape (S, K, K), got {mask.shape}")
        S, K, _ = mask.shape
        if x.shape != (S * K, self.d_in):
            raise ValueError(f"expected input of shape ({S * K}, {self.d_in}), got {x.shape}")
        Q = self._heads(x @ self.params["WQ"], S, K)
        Kh = self._heads(x @ self.params["WK"], S, K)
        V = self._heads(x @ self.params["WV"], S, K)
        scores = (Q @ Kh.transpose(0, 1, 3, 2)) / np.sqrt(self.d_head)
        weights = softmax(np.where(mask[:, None], scores, -np.inf))
        cat = np.concatenate([x, self._rows(weights @ V)], axis=1)
        pre = cat @ self.params["W"] + self.params["b"]
        tape = {"x": x, "Q": Q, "K": Kh, "V": V, "weights": weights, "cat": cat, "pre": pre}
        return relu(pre), tape

    def backward(self, tape: dict, grad: np.ndarray) -> np.ndarray:
        x, Q, Kh, V, weights, cat, pre = (
            tape["x"], tape["Q"], tape["K"], tape["V"], tape["weights"], tape["cat"], tape["pre"],
        )
        S, _, K, _ = Q.shape

        dpre = grad * (pre > 0)
        self.grads["W"] += cat.T @ dpre
        self.grads["b"] += dpre.sum(axis=0)
        dcat = dpre @ self.params["W"].T
        dctx = self._heads(dcat[:, self.d_in :], S, K)

        dweights = dctx @ V.transpose(0, 1, 3, 2)
        dV = self._rows(weights.transpose(0, 1, 3, 2) @ dctx)
        dscores = weights * (dweights - (dweights * weights).sum(axis=-1, keepdims=True))
        dscores /= np.sqrt(self.d_head)
        dQ = self._rows(dscores @ Kh)
        dK = self._rows(dscores.transpose(0, 1, 3, 2) @ Q)

        self.grads["WQ"] += x.T @ dQ
        self.grads["WK"] += x.T @ dK
        self.grads["WV"] += x.T @ dV
        dx = dcat[:, : self.d_in] + dQ @ self.params["WQ"].T
        dx += dK @ self.params["WK"].T
        dx += dV @ self.params["WV"].T
        return dx


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Adaptive-moment optimizer over (name, param, grad) triples."""

    def __init__(self, parameters: Iterable[tuple[str, np.ndarray, np.ndarray]], lr: float):
        self.triples = list(parameters)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p) for _, p, _ in self.triples]
        self.v = [np.zeros_like(p) for _, p, _ in self.triples]

    def step(self) -> None:
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        for i, (_, p, g) in enumerate(self.triples):
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * (g * g)
            m_hat = self.m[i] / (1 - b1**self.t)
            v_hat = self.v[i] / (1 - b2**self.t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


# ---------------------------------------------------------------------------
# Named-tensor archive

_MAGIC = b"DPTN\x01"


def save_tensors(path: str | Path, tensors: dict[str, np.ndarray], meta: dict) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    manifest = []
    offset = 0
    names = sorted(tensors)
    for name in names:
        arr = np.ascontiguousarray(tensors[name], dtype="<f8")
        manifest.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += arr.nbytes
    header = json.dumps({"tensors": manifest, "meta": meta}, sort_keys=True).encode()
    with path.open("wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        for name in names:
            fh.write(np.ascontiguousarray(tensors[name], dtype="<f8").tobytes())
    return path


def load_tensors(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    path = Path(path)
    raw = path.read_bytes()
    header_start = len(_MAGIC) + 8
    if raw[: len(_MAGIC)] != _MAGIC or len(raw) < header_start:
        raise ValueError(f"{path} is not a tensor archive")
    (header_len,) = struct.unpack("<Q", raw[len(_MAGIC) : header_start])
    try:
        header = json.loads(raw[header_start : header_start + header_len].decode())
        payload = raw[header_start + header_len :]
        tensors = {}
        for entry in header["tensors"]:
            shape = tuple(entry["shape"])
            count = int(np.prod(shape)) if shape else 1
            start = entry["offset"]
            arr = np.frombuffer(payload, dtype="<f8", count=count, offset=start).reshape(shape)
            tensors[entry["name"]] = arr.astype(np.float64)
        return tensors, header["meta"]
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"{path} is a damaged tensor archive: {exc!r}") from None
