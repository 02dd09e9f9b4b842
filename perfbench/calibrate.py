"""Reference computations that measure how fast the machine runs right now.

The shared host this benchmark was built on changes speed by up to 1.8x
in phases lasting tens of seconds, far more than the changes the benchmark
must resolve.  Every timed operation is therefore bracketed by two fixed
reference computations that do not touch masec, and its wall time is
scaled by nominal / measured reference time: the reported times are
seconds at a fixed nominal machine speed.

Two references cover the two kinds of work masec does: ``small`` is a
Python loop over tiny numpy arrays, like the ascent and the ZF solvers;
``bulk`` draws and reduces large arrays, like the Monte Carlo.  Fresh
processes (import plus compute) are scaled by their sum.
"""
from __future__ import annotations

import time

import numpy as np

# Typical reference times on the 2-core 2.1 GHz x86-64 VM the benchmark
# was tuned on (Python 3.11, numpy 2.4).  They only fix the unit.
NOMINAL_SMALL_S = 0.0142
NOMINAL_BULK_S = 0.0195


def _small() -> float:
    x = np.linspace(0.0, 4.0, 8)
    w = np.exp(1j * x) / np.sqrt(8.0)
    start = time.perf_counter()
    acc = 0.0
    for i in range(1000):
        rows = np.exp(1j * np.outer(np.sin(x[:3] + i), x))
        v = rows @ w
        acc += float(np.abs(v[0]) ** 2) + sum(range(20))
    return time.perf_counter() - start


def _bulk() -> float:
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    ones = np.ones(8)
    z = rng.standard_normal((20000, 2, 8)) \
        + 1j * rng.standard_normal((20000, 2, 8))
    np.abs(z @ ones) ** 2
    return time.perf_counter() - start


def measure() -> dict[str, float]:
    """Speed factors now: nominal / measured time, per reference and for
    their sum ("cli").  Below 1 means the machine is running slow."""
    small, bulk = _small(), _bulk()
    return {"small": NOMINAL_SMALL_S / small, "bulk": NOMINAL_BULK_S / bulk,
            "cli": (NOMINAL_SMALL_S + NOMINAL_BULK_S) / (small + bulk)}
