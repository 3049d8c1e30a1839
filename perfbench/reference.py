"""A fixed reference kernel, timed next to every request to track machine speed.

The kernel mixes the kinds of work polyadic does (frozen-dataclass hashing,
dict counting, small numpy slices compared and scanned, JSON encoding with
an indent) and never calls the package, so no change to the program moves
it.  On a shared host whose speed drifts, a request's time divided by the
kernel's time around it changes with the program and hardly with the host.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

# the kernel's time on the reference machine in its fast state: a program
# time in kernel units times this reads as seconds on that machine
NOMINAL_S = 0.025


@dataclass(frozen=True)
class _Node:
    level: int
    coords: tuple


_A = np.arange(256, dtype=np.int64)
_B = _A.copy()
_B[200] = -1
_DOC = {"rows": [{"v": [i, i + 1, i + 2], "ok": i % 3 == 0, "w": [i * 0.5, -i]} for i in range(40)]}


def kernel() -> int:
    acc = 0
    seen: dict[_Node, int] = {}
    for i in range(5000):
        node = _Node(i & 7, (i & 63, i >> 6, 3))
        seen[node] = seen.get(node, 0) + 1
        acc += sum(node.coords)
    for i in range(1200):
        lo = i & 127
        seg = _A[lo : lo + 64] != _B[lo : lo + 64]
        acc += int(np.argmax(seg))
    for _ in range(12):
        acc += len(json.dumps(_DOC, sort_keys=True, indent=2))
    return acc + len(seen)


def timed() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
