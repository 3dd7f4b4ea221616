"""Machine-speed calibration for the flow perf gate.

A fixed pure-Python kernel (hashing, integer arithmetic, sorting) timed
beside every bench run.  It imports nothing from ``repro``, so the ratio
of two machines' kernel times measures the machines, never the code
under test: a slower cold path cannot widen its own allowance.
"""

from __future__ import annotations

import hashlib
import math
import time


def _kernel() -> int:
    """Fixed pure-Python work: hashing, integer arithmetic, sorting."""
    digest = b"perfbench"
    for _ in range(4000):
        digest = hashlib.sha256(digest).digest()
    acc = 0
    for i in range(200_000):
        acc = (acc * 31 + i) % 1_000_003
    values = [(i * 7919) % 10_007 for i in range(60_000)]
    values.sort()
    return acc + values[len(values) // 2] + digest[0]


def calibrate(reps: int = 5) -> float:
    """Seconds one calibration kernel takes here (minimum of ``reps``)."""
    best = math.inf
    for _ in range(reps):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best
