"""A fixed reference computation that measures how fast the machine runs now.

On a shared host the same code runs up to about 2x slower for minutes at a
time, as other tenants load the cores, caches and memory.  `probe()` times a
fixed computation, about 10 ms long, that mixes the kinds of work smoothop
does: an interpreter-bound loop, numpy ufuncs on short vectors, fresh
1025 x 64 temporaries and a dense least-squares solve.  It calls no smoothop
code, so no change to the package moves it.

run.py takes a probe before every item of a pass and after the last, and
three just before and three just after each fresh process (set-up probe,
CLI run).  It multiplies each wall time by NOMINAL_S / (mean of its probes):
wall seconds at a fixed reference speed.
"""

from __future__ import annotations

import time

import numpy as np

# Probe time on an unloaded 2-vCPU x86-64 VM (one BLAS thread): the scale of
# the reported times.  A constant, so it cancels in any comparison.
NOMINAL_S = 0.010


class SpeedProbe:
    """Holds the fixed inputs of the reference work."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self._vec = rng.standard_normal(256)
        self._grid = np.linspace(-1.0, 1.0, 1025)
        self._freq = np.arange(64.0)
        self._mat = rng.standard_normal((1025, 17))
        self._rhs = rng.standard_normal(1025)

    def _work(self) -> float:
        acc = 0
        for i in range(30000):
            acc += i * 2
        v = self._vec
        for _ in range(100):
            acc += float((np.cos(v) * v + np.sqrt(np.abs(v)))[0])
        for _ in range(4):
            acc += float(np.cos(np.outer(self._grid, self._freq)).sum())
        acc += float(np.linalg.lstsq(self._mat, self._rhs, rcond=None)[0][0])
        return acc

    def probe(self) -> float:
        """Wall time of the reference work, once."""
        t0 = time.perf_counter()
        self._work()
        return time.perf_counter() - t0


def factor(probes: list[float]) -> float:
    """NOMINAL_S over the mean of `probes`: multiply a wall time taken among
    them by it to get the time at the reference speed."""
    return NOMINAL_S / (sum(probes) / len(probes))
