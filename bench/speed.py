"""A fixed reference kernel that tracks the host's speed during a run.

The host this benchmark was built on runs the same code up to about 1.5x
slower for stretches of seconds to minutes, because of other guests on
the same hardware. No statistic taken over one run's own timings removes
that: a run that falls in a slow stretch is slow throughout. So the run
times this kernel next to every operation and divides the operation's
time by it. The kernel is pure Python integer elimination, the same kind
of work as the program's normal forms, so both slow down together.

REFERENCE_MS is the kernel's median time on the calibration machine
(2-core x86-64 VM, Intel Xeon, Python 3.11.7) in its fast state; in its
slow state the kernel takes about 1.9 ms. An operation's time divided by
the kernel time next to it, times REFERENCE_MS, is its latency in ms at
that speed. The kernel belongs to the benchmark, not to the program, so
no change to the program moves it.
"""

from __future__ import annotations

import random
import time

REFERENCE_SIZE = 28
REFERENCE_MS = 1.3
_MATRIX = [[random.Random(f"{i},{j}").randint(-5, 5) for j in range(REFERENCE_SIZE)]
           for i in range(REFERENCE_SIZE)]


def eliminate(rows: list[list[int]]) -> int:
    """Fraction-free (Bareiss) elimination; returns the last pivot."""
    a = [row[:] for row in rows]
    n, prev = len(a), 1
    for k in range(n - 1):
        pivot_row = a[k]
        pivot = pivot_row[k]
        if pivot == 0:
            continue
        for row in a[k + 1:]:
            factor = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - factor * pivot_row[j]) // prev
        prev = pivot
    return prev


def reference_seconds() -> float:
    """Wall time of one run of the reference kernel."""
    start = time.perf_counter()
    eliminate(_MATRIX)
    return time.perf_counter() - start
