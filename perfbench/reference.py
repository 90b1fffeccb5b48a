"""Reference kernel that tracks the machine's speed during a run.

On a shared virtual machine, neighbours slow every process by up to ~50% in
bursts that last seconds, longer than most calls and long enough to move a
whole run. The benchmark therefore times this fixed kernel (a little
interpreter work, small numpy ops and a small BLAS product, the mix detkit
runs) next to the workload and reports each timing scaled to the speed at
which the kernel takes NOMINAL_S:

    reported = measured * NOMINAL_S / (kernel time measured around it)

On an undisturbed machine of the reference kind the factor is about 1. The
kernel never changes, so the factor is the same for every commit; raw
timings are kept next to the scaled ones in each run's result file.
"""
from __future__ import annotations

import time

import numpy as np

# Kernel time between calls on an undisturbed shared 2-vCPU x86-64 VM
# (CPython 3.11, numpy 2.4, OpenBLAS, one thread).
NOMINAL_S = 0.003
REPEATS = 3

_A = np.linspace(0.0, 1.0, 64 * 64).reshape(64, 64)
# a few MB of small objects, so the kernel also feels cache and memory contention
_ROWS = [(i, i * 0.5, str(i)) for i in range(20000)]


def _kernel() -> None:
    acc = 0
    for i in range(8000):
        acc += i * i % 7
    table = {row[2]: row for row in _ROWS}
    acc += sum(row[0] for row in table.values())
    x = np.arange(4096.0)
    for _ in range(40):
        x = np.sqrt(x * 1.0001 + 1.0)
    y = _A
    for _ in range(8):
        y = y @ _A * 0.01
    acc += int(x[0] + y[0, 0])


def sample() -> float:
    """Seconds the kernel takes now: the fastest of a few back-to-back runs."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


def scale(durations: list[float], samples: list[tuple[int, float]]) -> list[float]:
    """Scale each call's duration to nominal speed.

    samples are (k, kernel seconds) taken just before call k, in order, the
    last one after the final call. A call is scaled by the faster of the two
    samples that bracket it, so one disturbed sample cannot shrink it.
    """
    out = []
    j = 0
    for i, d in enumerate(durations):
        while j + 1 < len(samples) and samples[j + 1][0] <= i:
            j += 1
        after = samples[j + 1][1] if j + 1 < len(samples) else samples[j][1]
        out.append(d * NOMINAL_S / min(samples[j][1], after))
    return out
