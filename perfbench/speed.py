"""Machine-speed yardstick, so that times from a machine whose speed drifts compare.

On a shared 2-core Xeon virtual machine the same op took 9.5 ms in one minute
and 14.7 ms the next. Three fixed pieces of work slow down with it: an LU
factorization (BLAS and memory), a pure-Python loop (the interpreter) and one
small determinant of the independent reference (numpy on small arrays, as the
program's ops run). In 20-second windows of a 6-minute run that mixed the three
workloads' ops, op time divided by the geometric mean of the three varied
(quartile distance over median) 3.0%, 4.2% and 7.2% on prob, scan and verify
ops, where the raw op time varied 27%, 21% and 18% and the mean of the LU and
the loop alone left 8.5%, 6.6% and 7.9%. The benchmark therefore times this
yardstick next to the ops and reports every time scaled to the reference speed:

    reported = measured * (REFERENCE_S[0] / lu * REFERENCE_S[1] / py * REFERENCE_S[2] / det) ** (1/3)

with lu, py and det the median yardstick times near the op. The yardstick uses
numpy, scipy, Python and reference.py only, never the benchmarked package, so a
change to the program moves the reported times and a change in machine speed
does not.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np
import scipy.linalg as sla

from reference import Reference

__all__ = ["REFERENCE_S", "unit", "scale", "SpeedLog"]

# Seconds each yardstick part (LU, loop, determinant) takes at the speed that
# reported times refer to.
REFERENCE_S = (5e-4, 2e-4, 7.5e-4)
# Yardstick time spent after each op, as a share of the op's time.
SHARE = 0.1
# Ops are scaled by the median yardstick times within this window around them.
WINDOW_S = 1.0

_MATRIX = 128.0 * np.eye(128) + np.random.default_rng(0).random((128, 128))
_ORACLE = Reference()


def unit() -> tuple[float, float, float]:
    """Seconds for four LU factorizations of a fixed 128x128 matrix, for a Python
    loop, and for one reference determinant at n=5 with 32 nodes per ray."""
    t0 = time.perf_counter()
    for _ in range(4):
        sla.lu_factor(_MATRIX, check_finite=False)
    t1 = time.perf_counter()
    acc = 0
    for i in range(3000):
        acc += i * i
    t2 = time.perf_counter()
    _ORACLE.clear()
    _ORACLE.log_det(5, 0.5, 3.0, 3.3, 32)
    return t1 - t0, t2 - t1, time.perf_counter() - t2


def scale(*parts: list) -> float:
    """Factor that takes times measured beside these yardstick samples (one list
    per part, in the order unit() returns them) to the reference speed."""
    ratios = [ref / statistics.median(p) for ref, p in zip(REFERENCE_S, parts, strict=True)]
    return math.prod(ratios) ** (1.0 / len(ratios))


class SpeedLog:
    """Yardstick samples over a run, and the scale they imply at any moment."""

    def __init__(self):
        self._t: list[float] = []
        self._units: list[tuple] = []

    def measure_after(self, op_seconds: float) -> None:
        """Run the yardstick for about SHARE of the op just timed (at least once)."""
        spent = 0.0
        while spent < SHARE * op_seconds or not spent:
            parts = unit()
            self._t.append(time.perf_counter())
            self._units.append(parts)
            spent += sum(parts)

    def scale(self, t: float) -> float:
        """Scale from the yardstick samples within WINDOW_S of time t."""
        lo = min(bisect.bisect_left(self._t, t - WINDOW_S), len(self._t) - 1)
        hi = max(bisect.bisect_right(self._t, t + WINDOW_S), lo + 1)
        return scale(*zip(*self._units[lo:hi]))
