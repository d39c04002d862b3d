"""A machine-speed reference for rescaling measured times.

On a shared host the speed of pure-Python exact arithmetic drifts by tens of
percent over minutes, and every run of a workload would read that drift.  So
while a run measures, a timer interrupts it every ``INTERVAL_S`` seconds and
times one repetition of a fixed reference loop.  The time spent in these
samples is left out of every measured time (``spent``), and a time measured
from ``t0`` to ``t1`` is rescaled by ``factor(t0, t1)``: ``NOMINAL_S`` over
the median of the samples taken from ``WINDOW_S`` before ``t0`` to
``WINDOW_S`` after ``t1``.  A rescaled time reads as it would on a machine
on which one repetition takes ``NOMINAL_S``.  Samples fall inside long items
and around short ones, so each time is rescaled by the speed it saw.

The loop is exact ``Fraction`` 4x4 matrix products written with the standard
library alone, close to what the package spends its time on, but it calls
no ``omljordan`` code: no change to the package moves it.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# Seconds one repetition takes on an idle 2-vCPU machine with Python 3.11;
# only the scale of the rescaled figures depends on it.
NOMINAL_S = 0.025
INTERVAL_S = 0.5
WINDOW_S = 1.0
PRODUCTS = 80

_TRIPLES = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25))
_A = [
    [Fraction((i + j) % 3 - 1) * Fraction(a, c) + Fraction(b, c)
     for j, (a, b, c) in enumerate(_TRIPLES)]
    for i in range(4)
]
_B_COLUMNS = list(zip(*[
    [Fraction(b, c) - Fraction((i * j) % 2) * Fraction(a, c)
     for j, (a, b, c) in enumerate(_TRIPLES)]
    for i in range(4)
]))

# (perf_counter at the end of the sample, seconds of the sample)
_samples: list[tuple[float, float]] = []
_spent = 0.0


def _repetition() -> float:
    start = time.perf_counter()
    for _ in range(PRODUCTS):
        [[sum(x * y for x, y in zip(row, col)) for col in _B_COLUMNS]
         for row in _A]
    return time.perf_counter() - start


def _sample(signum, frame) -> None:
    global _spent
    start = time.perf_counter()
    seconds = _repetition()
    end = time.perf_counter()
    _samples.append((end, seconds))
    _spent += end - start


def start() -> None:
    """Start sampling, with no samples yet."""
    global _spent
    _samples.clear()
    _spent = 0.0
    signal.signal(signal.SIGALRM, _sample)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)


def stop() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)


def spent() -> float:
    """Seconds spent in samples since the last ``start``."""
    return _spent


def sample_count() -> int:
    return len(_samples)


def factor(t0: float, t1: float) -> float:
    """NOMINAL_S over the median sample from WINDOW_S before t0 to WINDOW_S
    after t1; over all samples when none falls there, and over three
    repetitions made now when there is none at all."""
    near = [s for t, s in _samples if t0 - WINDOW_S <= t <= t1 + WINDOW_S]
    measured = near or [s for _, s in _samples] or [
        _repetition() for _ in range(3)
    ]
    return NOMINAL_S / statistics.median(measured)
