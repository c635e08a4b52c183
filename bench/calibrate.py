"""Machine-speed calibration: a fixed kernel timed between measurements.

On a shared host the speed of the same code drifts by 10-30% over tens of
seconds, because other tenants contend for the cores and their caches; the
process is on the CPU the whole time, so CPU time drifts with wall time.
The benchmark times this kernel, which does not touch `ucbfw`, just before
and just after every measured repetition and right after every set-up
probe, and scales each measured time to what it would have been at
`REFERENCE_SPEED` kernel calls per second:

    scaled time = measured time x (measured kernel speed / REFERENCE_SPEED)

A change to the program moves the measured time and not the kernel, so it
moves the scaled time by the same share; a slower or faster spell of the
host moves both and cancels out.  The kernel mixes interpreter work with
small numpy calls, as the simulator's step loop and minimizer do.

A cold import in a fresh interpreter is mostly mapping files and faulting
in fresh memory, and on such a host its cost shifts by 25-35% for half an
hour at a time while the kernel's speed does not.  So the import part of a
set-up probe is scaled instead by a reference import of numpy and PyYAML,
timed in a fresh interpreter just before it (import_probe.py):

    scaled import = measured import x REFERENCE_IMPORT_S / reference import
"""

from __future__ import annotations

import multiprocessing
import statistics
import time

import numpy as np

# kernel calls per second, a round figure near that of a quiet 2-CPU Xeon
# (Python 3.11.7, numpy 2.4.6); any fixed value would do
REFERENCE_SPEED = 5000.0
# seconds of import_probe.py, a round figure near that of the same machine
REFERENCE_IMPORT_S = 0.15
SLICE_S = 0.2

_SIG = np.eye(8) + 0.05
_RHS = np.linspace(0.4, 0.6, 8)
_SUPPORTS = [[i for i in range(8) if mask >> i & 1] for mask in (3, 7, 15, 31, 63, 127, 255, 170)]


def _kernel() -> float:
    """Bordered solves on sub-blocks of a fixed 8x8 matrix, then a float loop."""
    s = 0.0
    for support in _SUPPORTS:
        m = len(support)
        a = np.zeros((m + 1, m + 1))
        a[:m, :m] = _SIG[np.ix_(support, support)]
        a[:m, m] = 1.0
        a[m, :m] = 1.0
        b = np.zeros(m + 1)
        b[:m] = _RHS[support]
        b[m] = 1.0
        s += float(np.linalg.solve(a, b)[:m].sum())
    for i in range(300):
        s += (i * 0.5) ** 0.5
    return s


def speed(seconds: float = SLICE_S) -> float:
    """Kernel calls per second, timed over `seconds` of wall time.

    One untimed call comes first, to warm the caches that a process run
    just before may have evicted.
    """
    _kernel()
    n = 0
    t0 = time.perf_counter()
    end = t0 + seconds
    while True:
        _kernel()
        n += 1
        t = time.perf_counter()
        if t >= end:
            return n / (t - t0)


class Kernel:
    """Times the kernel on as many cores as the measured program keeps busy.

    With one worker the kernel runs in this process.  With several, a pool
    of that many processes runs it at the same time on each, and the speed
    is their mean: a program that fans out over every core is slowed by a
    tenant on any of them.
    """

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self.pool = multiprocessing.get_context("fork").Pool(workers) if workers > 1 else None

    def speed(self) -> float:
        if self.pool is None:
            return speed()
        return statistics.fmean(self.pool.map(speed, [SLICE_S] * self.workers, chunksize=1))

    def __enter__(self) -> "Kernel":
        return self

    def __exit__(self, *exc) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool.join()


def scale_import(seconds: float, reference_s: float) -> float:
    """Import `seconds` measured next to a `reference_s` import probe, scaled."""
    return seconds * REFERENCE_IMPORT_S / reference_s


def scale(seconds: float, *speeds: float) -> float:
    """`seconds` measured at the mean of `speeds`, scaled to REFERENCE_SPEED."""
    return seconds * sum(speeds) / len(speeds) / REFERENCE_SPEED
