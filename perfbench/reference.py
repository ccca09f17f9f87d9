"""Fixed reference computations that gauge the host's current speed.

The host this benchmark was made on gives its process a few cores of a
shared machine, and their speed drifts by tens of percent over seconds
to minutes (CPU time tracks wall time, so it is not descheduling).  Every
op is therefore timed next to a reference, and ``op_rel_p50`` divides
each op's time by its reference time.

A reference uses the interpreter and numpy only, never momflow, so a
change to momflow moves ``op_rel_p50`` by exactly as much as it moves
the op's time.  Each resembles the ops it gauges, since the host's slow
phases do not slow every kind of work alike:

- ``reference_seconds`` (ensemble ops, run in-process before and after
  each op): numpy generator construction and draws (as in per-member
  seeding), arithmetic on a 10k-element complex array (one ensemble
  state, inside L2) and on a 200k-element float array (outside L2), and
  plain interpreter work.  Its inputs are fixed.
- ``interpreter_seconds`` (CLI ops, which are mostly interpreter
  start-up and imports; run after each CLI process of the op): a fresh
  interpreter that imports numpy.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

_RNG = np.random.default_rng(20_161_228)
_SMALL = _RNG.random(10_000) + 1j * _RNG.random(10_000)
_LARGE = _RNG.random(200_000)


def _generators():
    for i in range(2500):
        rng = np.random.default_rng([7, i])
        rng.normal(0.0, 1.0)
        rng.random(1)


def _small_arrays():
    z = _SMALL.copy()
    for _ in range(1000):
        z = z + 1e-3 * (z * z.conj() - 0.5) / (z + 2.0)


def _large_arrays():
    y = _LARGE.copy()
    for _ in range(60):
        y = y + 1e-3 * np.sqrt(y * y + 1.0)


def _interpreter():
    x = 0.0
    for i in range(400_000):
        x += (i % 7) * 0.5


def reference_seconds() -> float:
    """Wall seconds of one run of the reference computation (~0.25 s on the 2-core VM)."""
    start = time.perf_counter()
    _generators()
    _small_arrays()
    _large_arrays()
    _interpreter()
    return time.perf_counter() - start


def interpreter_seconds() -> float:
    """Wall seconds of a fresh interpreter that imports numpy (~0.2 s on the 2-core VM)."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)
    return time.perf_counter() - start
