"""Host-speed probe: a fixed amount of pure-Python and small-numpy work.

The probe never imports the program under test.  It runs while the
program is idle (between load segments), and its median time says how
fast this host is running right now; the benchmark scales every
host-time metric by it (see ``run.py``).
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np


def _python_work() -> int:
    # Integer arithmetic, a dict and attribute-free loops: the same kind
    # of interpreter work the fabric simulator's dispatch loops do.
    acc = 0
    table = {}
    for i in range(6000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[i & 255] = acc
    return acc + len(table)


def _numpy_work(vec: np.ndarray) -> float:
    # Many small-array operations: per-call overhead, as in the K-lane
    # batched tier, rather than memory bandwidth.
    total = 0.0
    for _ in range(120):
        vec = (vec * 1.0000001 + 0.5) % 97.0
        total += float(vec.sum())
    return total


def probe_once() -> float:
    """Milliseconds one probe unit takes on this host right now."""
    vec = np.arange(64, dtype=np.float64)
    start = time.perf_counter()
    _python_work()
    _numpy_work(vec)
    return (time.perf_counter() - start) * 1e3


def probe(repeats: int = 8) -> float:
    """Milliseconds of one probe unit, averaged over this process's CPUs.

    The program's threads and processes move between CPUs, and on a
    shared host each CPU can be slowed by a different neighbour, so the
    probe runs ``repeats`` units pinned to each allowed CPU in turn and
    averages the per-CPU medians.
    """
    allowed = os.sched_getaffinity(0)
    readings = []
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            probe_once()  # first call pays the migration and cache warm-up
            readings.append(statistics.median(
                probe_once() for _ in range(repeats)))
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.fmean(readings)


if __name__ == "__main__":
    print(f"{probe():.4f} ms")
