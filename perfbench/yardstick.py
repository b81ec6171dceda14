"""A fixed piece of work that tells how fast the machine runs Python just now.

The benchmark runs on a few cores of a shared host, whose speed drifts by a
quarter or more within seconds as neighbours come and go.  `sample()` times
one Gauss-Jordan elimination of a fixed 8x10 matrix of `Fraction`s (about
3 ms), the same kind of work (small rationals, short lists) that dominates
quivertilt.  It uses only the standard library and none of the program, so
no change to the program moves it.

`Ticker` takes a sample every `period` seconds while a timed section runs,
from a SIGALRM handler, and adds up the time its samples took so that the
caller can subtract it.  A timing is then rescaled to the reference speed:
`timing * REFERENCE_S / mean(samples)`.  A slow phase of the host
stretches both, and the ratio cancels most of it; a slower program still
reads slower.  The mean, not the median: the host switches between fast and
slow phases, and a timing adds up both, as the mean does.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from fractions import Fraction

# mean of sample() on the machine in baseline.json, so that rescaled
# timings read in that machine's seconds
REFERENCE_S = 0.0034

_rng = random.Random(20010404)
_MATRIX = [[Fraction(_rng.randint(-9, 9), _rng.randint(1, 4)) for _ in range(10)] for _ in range(8)]


def _eliminate(rows: list[list[Fraction]]) -> int:
    """Reduced row echelon form in place; returns the rank."""
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def sample() -> float:
    """Seconds for one elimination of the fixed matrix."""
    rows = [row[:] for row in _MATRIX]
    start = time.perf_counter()
    rank = _eliminate(rows)
    elapsed = time.perf_counter() - start
    if rank != len(_MATRIX):
        raise AssertionError(f"yardstick matrix has rank {rank}, expected {len(_MATRIX)}")
    return elapsed


def samples(count: int) -> list[float]:
    return [sample() for _ in range(count)]


class Ticker:
    """Samples the yardstick every `period` seconds of wall time while active.

    `spent` is the wall time the samples took, handler included."""

    def __init__(self, period: float):
        self.period = period
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(sample())
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "Ticker":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def rescale(seconds: float, yardstick_s: list[float]) -> float:
    """`seconds` measured beside `yardstick_s`, in reference-machine seconds."""
    return seconds * REFERENCE_S / statistics.fmean(yardstick_s)
