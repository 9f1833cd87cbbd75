"""A fixed reference computation that tracks the host's speed.

The benchmark host is a shared virtual machine whose speed drifts by
10-25 % between runs of a few seconds (measured on the 2-core box this
benchmark was written on; CPU time drifts as much as wall time, so the
cause is contention below the guest, not CPU steal).  Medians within a
run cannot remove a drift that lasts the whole run, so every timed run
also times this kernel in short bursts between its scenarios and scales
its timings by ``NOMINAL_S / mean(kernel times)``.  The kernel shares no
code with covariant-kit: a change to the program moves the corrected
timings in full, while a slow or fast spell of the host moves the kernel
as well and cancels.  The raw timings are printed next to the corrected
ones.

A burst lasts milliseconds and can land in a brief fast or slow spell, so
the correction needs many bursts spread over the run.  With fewer than
``MIN_BURSTS`` (a workload of a few long scenarios) the factor is 1 and
the timings stay raw; measured there, a few bursts added more noise than
they removed.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.linalg import expm

# Median kernel time on the host where the baseline was recorded
# (Intel Xeon, 2 vCPUs, Python 3.11.7, numpy 2.4.6, scipy 1.17.1).
NOMINAL_S = 2.0e-3
MIN_BURSTS = 20

_GEN = np.array([[0.0, 0.3, 0.1, 0.0], [0.3, 0.0, 0.0, -0.2], [0.1, 0.0, 0.0, 0.4], [0.0, 0.2, -0.4, 0.0]])
_X = np.linspace(-3.0, 3.0, 4096).reshape(-1, 4)


def kernel() -> float:
    """One timed run of a mix like the workloads': interpreter, small scipy, array math."""
    start = time.perf_counter()
    table: dict = {}
    for i in range(3000):
        table[i % 97] = table.get(i % 97, 0.0) + i * 0.5
    for k in range(12):
        expm(_GEN * (0.1 * k))
    for _ in range(8):
        np.einsum("ij,pj->pi", _GEN, np.exp(-np.sum(_X * _X, axis=-1))[:, None] * _X)
    return time.perf_counter() - start


def sample(reps: int) -> list:
    return [kernel() for _ in range(reps)]


def speed_factor(bursts: list) -> float:
    """How much slower than nominal the host ran, from bursts of kernel times.

    A mean, because the workload's time is a sum over the same spells; the
    kernel's times are bimodal, so a median would jump between the modes.
    The slowest and fastest tenth are dropped: a preempted kernel is an
    outlier that says nothing about the host's speed.
    """
    if len(bursts) < MIN_BURSTS:
        return 1.0
    ordered = sorted(t for burst in bursts for t in burst)
    cut = len(ordered) // 10
    return statistics.fmean(ordered[cut:len(ordered) - cut]) / NOMINAL_S
