"""A fixed reference task that gauges the host's speed next to each timing.

On a shared host the speed of this process swings by up to 1.8x within
seconds (other tenants' load on the same cores and caches; CPU time swings
with wall time, so it is no way out), and a whole run can fall on a slow or
a fast stretch. So the benchmark runs this task right before and right after
each timed operation and reports the operation as it would take on a host on
which the task takes REFERENCE_S:

    scaled = duration * REFERENCE_S / median(task times next to it)

The task does not touch fedfocal, so a change to fedfocal moves only the
duration. It mixes what a fedfocal training step spends its time on: small
numpy array operations, Python-level object and list work, and a per-sample
scalar loop.
"""

from __future__ import annotations

import time

import numpy as np

from percentiles import median

# nominal time of one task, about its median on the 2-vCPU host the benchmark
# was tuned on; it sets only the scale of the reported times
REFERENCE_S = 0.003
STEPS = 64

_RNG = np.random.default_rng(0)
_X = _RNG.standard_normal((16, 8))
_W1 = _RNG.standard_normal((8, 32)) * 0.1
_W2 = _RNG.standard_normal((32, 5)) * 0.1
_Y = _RNG.integers(0, 5, 16)


class _Node:
    __slots__ = ("value", "parents")

    def __init__(self, value, parents=()):
        self.value, self.parents = value, parents


def _step() -> float:
    h = _Node(np.maximum(_X @ _W1, 0.0))
    z = _Node(h.value @ _W2, (h,))
    e = np.exp(z.value - z.value.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    tally = [0] * 5
    loss = 0.0
    for i, y in enumerate(_Y.tolist()):
        tally[y] += 1
        loss -= float(np.log(p[i, y])) * (1.0 - p[i, y]) ** 2 / (1 + tally[y])
    grad = p.copy()
    grad[np.arange(16), _Y] -= 1.0
    g2 = h.value.T @ grad
    g1 = _X.T @ ((grad @ _W2.T) * (h.value > 0))
    return loss + float(g1.sum() + g2.sum())


def task() -> float:
    """Runs the reference task once; returns its wall time in seconds."""
    start = time.perf_counter()
    for _ in range(STEPS):
        _step()
    return time.perf_counter() - start


def scaled(duration: float, *samples: float) -> float:
    """`duration` as on a host where the task takes REFERENCE_S, given task
    times taken next to it."""
    return duration * REFERENCE_S / median(samples)
