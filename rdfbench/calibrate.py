"""Host-speed calibration: a fixed kernel timed between requests.

On a shared 2-core host the same deterministic work runs up to 30%
faster or slower from one minute to the next: frequency, cache and
memory-bandwidth contention from other tenants, never visible as lost
CPU time.  A run therefore times a fixed kernel that does not depend on
the program — a small matmul and sort, a Python loop, and a 5 MB
streaming pass, the three kinds of work the program's requests mix — a
block of units before each set-up and after every few requests.  The
first unit of a block only re-warms the kernel's data after the
program's requests and is not kept, so the kept units measure the host,
not the program's memory footprint.  The median kept unit time,
relative to :data:`REFERENCE_UNIT_S`, is the host factor; dividing
times by it reports them at reference speed.  A slower program still
reads slower, since the kernel does not change with it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

__all__ = ["Calibrator", "REFERENCE_UNIT_S"]

#: Median time of one kernel unit on the 2-core x86 host the bounds were
#: set on [s]; only the scale of the reported times depends on it.
REFERENCE_UNIT_S = 1.7e-3


class Calibrator:
    """Times kernel units and turns them into a host-speed factor."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((64, 200))
        self._b = rng.standard_normal((200, 120))
        self._big = rng.standard_normal((400, 1530))
        self._q = rng.standard_normal((8, 1530))
        self._loop = list(range(1500))
        self.samples: list[float] = []

    def _unit(self) -> float:
        c = np.sort(self._a @ self._b, axis=1)
        streamed = self._q @ np.multiply(self._big, 0.5).T
        acc = 0
        for x in self._loop:
            acc += x * x
        return float(c[:, -1].sum() + streamed[0, 0]) + acc

    def block(self, n: int) -> None:
        """Run one warm-up unit, then time ``n`` units."""
        clock = time.perf_counter
        self._unit()
        for _ in range(n):
            t0 = clock()
            self._unit()
            self.samples.append(clock() - t0)

    def factor(self) -> float:
        """Median unit time over :data:`REFERENCE_UNIT_S` (>1: slow host)."""
        return statistics.median(self.samples) / REFERENCE_UNIT_S
