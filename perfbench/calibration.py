"""Calibration kernel: fixed georobust-free work timed between requests.

On a shared 2-vCPU host the speed of the core drifts: the same batch of
requests took up to 40% longer a few minutes later, in CPU time as much as in
wall time. A worker therefore samples this kernel (small complex matrix
exponentials written in checks.py, the same kind of work as a request) about
every CALIBRATE_EVERY_S seconds between requests (the set-up-only processes
sample it too), and run.py scales every timing of the run by REFERENCE_S over
the median of all the run's kernel times. In five-seed
trials during such a drift this cut the seed-to-seed spread of wall_s from
10-20% to 3-10%. The kernel is part of the benchmark, so a change to the
program does not move it. Raw timings are printed next to the scaled ones.
"""

from __future__ import annotations

import time

import numpy as np

from checks import expm

# Median kernel time on the reference host (Intel Xeon, 2 vCPUs, CPython
# 3.11, numpy 2.4.6); it only sets the scale of the normalized times.
REFERENCE_S = 0.0095
CALIBRATE_EVERY_S = 0.25
MAX_BURST = 40

_GENERATOR = -1j * np.array([[0.0, 0.5, 0.0], [0.5, 0.0, 0.3], [0.0, 0.3, 0.0]])


def kernel() -> float:
    """Seconds taken by one run of the fixed calibration work."""
    t0 = time.perf_counter()
    for k in range(80):
        expm(_GENERATOR * (1.0 + k / 80.0))
    return time.perf_counter() - t0


class Calibration:
    def __init__(self, count: int = 3):
        self.samples: list[float] = []
        self.sample(count)

    def sample(self, count: int = 1) -> None:
        self.samples += [kernel() for _ in range(count)]
        self._last = time.monotonic()

    def maybe_sample(self) -> None:
        """Sample in proportion to the time since the last samples."""
        owed = int((time.monotonic() - self._last) / CALIBRATE_EVERY_S)
        if owed:
            self.sample(min(owed, MAX_BURST))
