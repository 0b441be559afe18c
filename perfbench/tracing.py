"""Span tracing of dpdplab from outside the package.

The tracer replaces public functions and methods of the package with
wrappers that record one span per call: name, start, end, the span that was
open when the call began (its parent) and the benchmark phase.  Functions are
patched where callers look them up at call time, so a name a module imported
at load time is patched in the importing module (``dpdplab.env.plan_insertion``)
and methods are patched on their classes.  Spans stay in compact in-memory
arrays until the run ends.

Self time is a span's duration minus the part of it covered by its children.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

import numpy as np

SETUP, MEASURE, CHECK = 0, 1, 2
PHASES = ("setup", "measure", "check")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.phase_of = array("b")
        self.start = array("d")
        self.end = array("d")
        self.phase = SETUP
        # Counts the wrappers take from arguments and results, per phase.
        self.counts: list[dict[str, float]] = [{}, {}, {}]
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, n: float = 1) -> None:
        counts = self.counts[self.phase]
        counts[key] = counts.get(key, 0) + n

    def wrap(self, name: str, fn, note=None):
        """Return ``fn`` wrapped to record a span; ``note(tracer, args, result)``
        may add counts once the call returns."""
        nid = self.name_id(name)
        names, parents, phases = self.name, self.parent, self.phase_of
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            phases.append(self.phase)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if note is not None:
                note(self, args, result)
            return result

        return traced

    @contextmanager
    def installed(self, patches):
        """Patch ``(owner, attribute, span name, note)`` entries for the
        duration of the block, restoring the originals afterwards."""
        originals = []
        try:
            for owner, attr, name, note in patches:
                fn = getattr(owner, attr)
                originals.append((owner, attr, fn))
                setattr(owner, attr, self.wrap(name, fn, note))
            yield self
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "phase": np.frombuffer(self.phase_of, dtype=np.int8).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), phases=np.array(PHASES), **self.arrays())


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Duration of each span minus the union of its children's intervals,
    clipped to the span itself."""
    n = len(start)
    children: dict[int, list[int]] = {}
    for i in range(n):
        p = int(parent[i])
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = end - start
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered = 0.0
        cur_lo = cur_hi = None
        for k in sorted(kids, key=lambda k: start[k]):
            a, b = max(start[k], lo), min(end[k], hi)
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[p] -= covered
    return out


def inside(parent: np.ndarray, name: np.ndarray, ancestor: int) -> np.ndarray:
    """Mask of spans that are ``ancestor`` spans or nested in one.

    Parents are recorded before their children, so one forward pass works.
    """
    mask = np.zeros(len(parent), dtype=bool)
    for i in range(len(parent)):
        p = parent[i]
        mask[i] = name[i] == ancestor or (p >= 0 and mask[p])
    return mask
