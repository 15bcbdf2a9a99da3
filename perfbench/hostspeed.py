"""Host-speed reference for the end-to-end timings.

The benchmark shares its host with other tenants whose load moves this
machine's speed by up to 1.7x, within seconds and across minutes (the
same small_dense run gave a 500 ms and an 850 ms median 20 minutes
apart).  A short reference kernel that shares no code with dsmsolve
(interpreter work and small numpy/LAPACK calls, the work the n <= 20
workloads are made of) is timed right before and right after every
operation, and the operation's time is scaled by REFERENCE_S / (mean
of the two readings).  Scaled times read as seconds at the reference
speed; the raw ones are printed next to them.

``large_dim`` is not scaled.  Its operations last ~10 s, over which the
host's speed swings several times, and readings taken between them
tracked it worse than no scaling at all: over ten seeds the quartile
spread of its op_ms.p50 was 0.26 scaled (by a dense n=200 LU kernel)
against 0.21 unscaled.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np
import scipy.linalg

REFERENCE_S = 1.5e-3  # median kernel time on the baseline host (2-core x86-64, one BLAS thread)
READING_S = 4e-3  # a reading repeats the kernel for at least this long


class HostSpeed:
    """Readings of the reference kernel, and the scaling they imply.

    An inactive HostSpeed reads exactly REFERENCE_S, so it scales by 1.
    """

    def __init__(self, active: bool):
        self.active = active
        rng = np.random.default_rng(0)
        self._matrix = rng.standard_normal((5, 5)) + 5.0 * np.eye(5)
        self._rhs = rng.standard_normal(5)

    def _kernel(self) -> None:
        acc = 0
        for i in range(10000):
            acc += i * i
        for _ in range(20):
            lu = scipy.linalg.lu_factor(self._matrix, check_finite=False)
            x = scipy.linalg.lu_solve(lu, self._rhs, check_finite=False)
            acc += float(np.linalg.norm(x))

    def reading(self, window: float = 0.0) -> float:
        """Kernel seconds now: the median run over max(window, READING_S)."""
        if not self.active:
            return REFERENCE_S
        times = []
        t_end = perf_counter() + max(window, READING_S)
        while len(times) < 3 or perf_counter() < t_end:
            t0 = perf_counter()
            self._kernel()
            times.append(perf_counter() - t0)
        return statistics.median(times)

    def scale(self, *readings: float) -> float:
        """Factor turning a time measured among these readings into
        seconds at the reference speed."""
        return REFERENCE_S * len(readings) / sum(readings)
