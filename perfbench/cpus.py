"""Start each timed step on the CPU that runs fastest at that moment.

On a shared host a neighbour slows one CPU at a time by up to 1.5x, for
seconds, more often than both at once (NOTES.md, "Statistics"). A step
started on the quieter CPU is less often slowed. run.py uses this for the
set-up processes, workloads.py before every timed step.
"""

from __future__ import annotations

import os
import time

# Each CPU runs the probe this many times; the lowest time counts.
PROBES = 5


def _probe() -> float:
    t0 = time.perf_counter()
    x = 0
    for i in range(10_000):
        x += i * i
    return time.perf_counter() - t0


def quietest_cpu(cpus: frozenset[int]) -> None:
    """Pin the calling process to the CPU of ``cpus`` that runs the probe fastest.

    A pure-Python loop tracks the slowdown of a numpy GEMM + cos closely
    (the same CPU wins), and needs no import. With one CPU it does nothing.
    """
    if len(cpus) < 2:
        return
    best = {}
    for cpu in sorted(cpus):
        os.sched_setaffinity(0, {cpu})
        _probe()
        best[cpu] = min(_probe() for _ in range(PROBES))
    os.sched_setaffinity(0, {min(best, key=best.get)})
