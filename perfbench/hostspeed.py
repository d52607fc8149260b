"""Host speed, read by timing a fixed reference computation.

The benchmark shares its host with other work, and the host's speed
drifts by a third or more in phases of seconds to minutes; CPU time drifts
with wall time, so it is no steadier.  The runner times this reference
between operations and, through ``Sampler``, every tenth of a second while
an operation runs, and scales the operation's time by how much slower or
faster the reference ran meanwhile.  The reference mixes the two kinds of
work rootlift does: interpreted Python loops over complex numbers, and
numpy calls on small batched arrays.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

_MATRICES = np.random.default_rng(20260101).standard_normal((48, 5, 5))
SAMPLE_PERIOD_S = 0.1   # wall time between the Sampler's reference units


def _python_part() -> float:
    z, acc = 0j, 0.0
    for k in range(14000):
        z = z * 0.999 + complex(k % 7, 1.0)
        acc += abs(z)
    return acc


def _numpy_part() -> None:
    for _ in range(10):
        np.sort(np.linalg.eigvals(_MATRICES), axis=-1)


def _unit() -> float:
    t0 = time.perf_counter()
    _python_part()
    _numpy_part()
    return time.perf_counter() - t0


def reference_seconds(repeats: int = 5) -> float:
    """Median time of a few reference units, taken back to back."""
    return statistics.median(_unit() for _ in range(repeats))


class Sampler:
    """Times one reference unit every ``SAMPLE_PERIOD_S`` while active.

    The handler of a wall-clock timer signal runs in the main thread
    between bytecodes, so it samples the host's speed in the middle of an
    operation.  Its own time is summed in ``overhead``, for the caller to
    take off the operation's time.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.overhead = 0.0
        self._previous = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(_unit())
        self.overhead += time.perf_counter() - t0

    def __enter__(self):
        self.samples, self.overhead = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
