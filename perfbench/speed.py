"""Host-speed sampling, so that session times can be given in fixed work units.

On a shared 2-core host, the speed of the same code was seen to change by
up to 1.7x within a second and to drift over minutes, so wall times of the
same work spread by 9 to 36% between runs, and CPU times alike. While a
block runs, a `SpeedSampler` times one short fixed loop every `PERIOD_S`
seconds from a SIGALRM handler on the main thread (no extra thread or
process). A stretch of program time divided by the loop times sampled
inside it is the number of loop times the stretch lasted, in the unit "ref"
(about 0.3 ms on that host when it was quiet). Host slowdowns stretch both
alike and cancel in that ratio. A slower program mostly does not: work that
also slows the loop, through the shared heap, collector or caches, partly
cancels (see "What kref hides" in README.md).
"""
from __future__ import annotations

import signal
import time
from collections import Counter
from typing import List, Tuple

import numpy as np

_RNG = np.random.default_rng(0)
_W = _RNG.standard_normal((2, 8))
_ROWS = [_RNG.standard_normal(8) for _ in range(16)]
_IDS = _RNG.integers(0, 32, size=16)
_TABLE = np.zeros((32, 8))
_TEXT = " ".join(f"tok{i}" for i in _IDS[:9])
_PAIR = _RNG.standard_normal(2)

# Sampling period of the reference loop. Every "ref" metric depends on it, so
# it is fixed: 25 ms puts several samples inside the shortest timed command
# (one continual method, about 0.2 s) while the samples take only about 1.5%
# of the run.
PERIOD_S = 0.025


class _Row:
    def __init__(self, value, tags):
        self.value = value
        self.tags = tags

    def scaled(self, k):
        return self.value * k


def reference_loop() -> float:
    """A fixed mix like the program's hot paths; calls nothing in shiftlab.

    Numpy calls on 2-element and 16x8 arrays, a scatter-add, n-gram counting,
    and object, dict and list churn. On the host described above, these
    kinds of work slowed down by similar factors when the host was busy.
    Changing this loop changes every "ref" metric.
    """
    start = time.perf_counter()
    for _ in range(3):
        z = np.stack(_ROWS) @ _W.T
        z = np.exp(z - z.max(axis=1, keepdims=True))
        z /= z.sum(axis=1, keepdims=True)
        np.add.at(_TABLE, _IDS, z[:, :1])
        Counter(_TEXT[i:i + 3] for i in range(len(_TEXT) - 2))
        for i in range(10):
            a = np.asarray(_PAIR, dtype=float)
            b = np.zeros_like(a)
            b[0] = a[1]
            np.exp(b).sum()
            _Row(i, {"i": i, "ids": [i, i + 1]}).scaled(2)
    return time.perf_counter() - start


class SpeedSampler:
    """Time `reference_loop` every `PERIOD_S` seconds while the block runs."""

    def __init__(self):
        self.samples: List[float] = []
        self._previous = None

    def __enter__(self) -> "SpeedSampler":
        for _ in range(5):  # warm the loop's code and data paths
            reference_loop()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        self.samples.append(reference_loop())

    def mark(self) -> int:
        return len(self.samples)

    def split(self, start_mark: int, end_mark: int, seconds: float) -> Tuple[float, float]:
        """(program seconds, refs) of a stretch of `seconds` between two marks.

        Program seconds leave out the sampler's own time. With no sample in
        the stretch, the nearest earlier sample stands for the host speed.
        """
        inside = self.samples[start_mark:end_mark]
        program_s = seconds - sum(inside)
        loops = inside or self.samples[max(start_mark - 1, 0):start_mark + 1] or [reference_loop()]
        return program_s, program_s * sum(1.0 / d for d in loops) / len(loops)
