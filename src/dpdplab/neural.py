"""Minimal float64 layer stack with exact reverse-mode gradients.

Just the pieces the dispatch network needs: multi-layer perceptrons,
multi-head scaled dot-product attention where the first row of each group
is the query, and a concatenative dense head.  No block keeps activations
between calls: ``forward`` returns ``(output, tape)``, where the tape holds
what the matching ``backward(tape, grad)`` needs.  Gradients accumulate in
mirrored buffers across backward calls until :meth:`zero_grad`.

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


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(np.float64)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


class Block:
    """Base for parameterized blocks: named parameters with gradient mirrors."""

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}

    def _add_param(self, name: str, value: np.ndarray) -> np.ndarray:
        self.params[name] = value
        self.grads[name] = np.zeros_like(value)
        return value

    def zero_grad(self) -> None:
        for g in self.grads.values():
            g[...] = 0.0

    def parameters(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray, np.ndarray]]:
        for name in self.params:
            yield (prefix + name, self.params[name], self.grads[name])


class Linear(Block):
    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator):
        super().__init__()
        self._add_param("W", glorot_uniform(rng, d_in, d_out, (d_in, d_out)))
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
        self.layers = [Linear(a, b, rng) for a, b in zip(sizes, sizes[1:])]

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

    def zero_grad(self) -> None:
        for layer in self.layers:
            layer.zero_grad()

    def parameters(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray, np.ndarray]]:
        for i, layer in enumerate(self.layers):
            yield from layer.parameters(f"{prefix}layer{i}.")


class AttentionBlock(Block):
    """Multi-head scaled dot-product attention with a concatenative dense head.

    Input is a batch of groups shaped ``(B, M, d_in)`` whose first row is the
    querying member; output is its next-level representation ``(B, d_out)``:
    per head ``softmax(q K^T / sqrt(d_head)) V``, heads concatenated, then
    the query row is concatenated with the attention context and passed
    through an affine + ReLU layer.  The tape's ``"weights"`` entry holds the
    attention weights, shape ``(B, H, M)``.
    """

    def __init__(self, d_in: int, n_heads: int, d_head: int, d_out: int, rng: np.random.Generator):
        super().__init__()
        self.d_in = d_in
        self.n_heads = n_heads
        self.d_head = d_head
        self.d_out = d_out
        width = n_heads * d_head
        self._add_param("WQ", glorot_uniform(rng, d_in, width, (d_in, width)))
        self._add_param("WK", glorot_uniform(rng, d_in, width, (d_in, width)))
        self._add_param("WV", glorot_uniform(rng, d_in, width, (d_in, width)))
        self._add_param("W", glorot_uniform(rng, d_in + width, d_out, (d_in + width, d_out)))
        self._add_param("b", np.zeros(d_out, dtype=np.float64))

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, dict]:
        if x.ndim != 3 or x.shape[2] != self.d_in:
            raise ValueError(f"expected input of shape (B, M, {self.d_in}), got {x.shape}")
        B, M, _ = x.shape
        H, dh = self.n_heads, self.d_head
        q_in = x[:, 0, :]
        Q = (q_in @ self.params["WQ"]).reshape(B, H, dh)
        K = (x @ self.params["WK"]).reshape(B, M, H, dh)
        V = (x @ self.params["WV"]).reshape(B, M, H, dh)
        scores = np.einsum("bhd,bmhd->bhm", Q, K) / np.sqrt(dh)
        weights = softmax(scores, axis=-1)
        ctx = np.einsum("bhm,bmhd->bhd", weights, V).reshape(B, H * dh)
        cat = np.concatenate([q_in, ctx], axis=1)
        pre = cat @ self.params["W"] + self.params["b"]
        tape = {"x": x, "Q": Q, "K": K, "V": V, "weights": weights, "cat": cat, "pre": pre}
        return relu(pre), tape

    def backward(self, tape: dict, grad: np.ndarray) -> np.ndarray:
        x, Q, K, V, weights, cat, pre = (
            tape["x"], tape["Q"], tape["K"], tape["V"], tape["weights"], tape["cat"], tape["pre"],
        )
        B, M, _ = x.shape
        H, dh = self.n_heads, self.d_head
        width = H * dh

        dpre = grad * (pre > 0)
        self.grads["W"] += cat.T @ dpre
        self.grads["b"] += dpre.sum(axis=0)
        dcat = dpre @ self.params["W"].T
        dq_in = dcat[:, : self.d_in].copy()
        dctx = dcat[:, self.d_in :].reshape(B, H, dh)

        dweights = np.einsum("bhd,bmhd->bhm", dctx, V)
        dV = np.einsum("bhm,bhd->bmhd", weights, dctx)
        dscores = weights * (dweights - (dweights * weights).sum(axis=-1, keepdims=True))
        dscores /= np.sqrt(dh)
        dQ = np.einsum("bhm,bmhd->bhd", dscores, K)
        dK = np.einsum("bhm,bhd->bmhd", dscores, Q)

        q_in = x[:, 0, :]
        self.grads["WQ"] += q_in.T @ dQ.reshape(B, width)
        flat_x = x.reshape(B * M, self.d_in)
        self.grads["WK"] += flat_x.T @ dK.reshape(B * M, width)
        self.grads["WV"] += flat_x.T @ dV.reshape(B * M, width)

        dx = dK.reshape(B, M, width) @ self.params["WK"].T
        dx += dV.reshape(B, M, width) @ self.params["WV"].T
        dx[:, 0, :] += dQ.reshape(B, width) @ self.params["WQ"].T + dq_in
        return dx


class Adam:
    """Adaptive-moment optimizer over (name, param, grad) triples."""

    def __init__(
        self,
        parameters: Iterable[tuple[str, np.ndarray, np.ndarray]],
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.triples = list(parameters)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p) for _, p, _ in self.triples]
        self.v = [np.zeros_like(p) for _, p, _ in self.triples]

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for i, (_, p, g) in enumerate(self.triples):
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * (g * g)
            m_hat = self.m[i] / (1 - b1**self.t)
            v_hat = self.v[i] / (1 - b2**self.t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


# ---------------------------------------------------------------------------
# Named-tensor archive

_MAGIC = b"DPTN\x01"


def save_tensors(path: str | Path, tensors: dict[str, np.ndarray], meta: dict | None = None) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    manifest = []
    offset = 0
    names = sorted(tensors)
    for name in names:
        arr = np.ascontiguousarray(tensors[name], dtype="<f8")
        manifest.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += arr.nbytes
    header = json.dumps({"tensors": manifest, "meta": meta or {}}, sort_keys=True).encode()
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
