"""Host-speed adjustment of operation timings.

The benchmark runs on shared hosts whose speed drifts by 20-40% over
minutes as other tenants come and go, and the same run of the same seed
can read 35% slower a minute later.  A fixed kernel that runs none of
the program's code -- a NumPy sort of 2**20 int64 keys, about 11 ms --
is timed before every operation and every set-up.  Each pass's timings
are multiplied by
``NOMINAL_S / median(kernel times of that pass)``: they read as seconds
on a host where the kernel takes :data:`NOMINAL_S`.  A change to the
program moves the adjusted timings exactly as much as the raw ones; a
change in host speed moves the kernel with them and cancels out.
Set-up times are scaled by the median kernel time of the whole run.

Of the kernels tried against the plan workload's pass means over eight
runs, the sort tracked them best: it cut their run-to-run variation
from 2.1-3.1% to 0.9-1.2%, where a pure-Python loop left 2.4-9.3% and
a random gather from a 32 MB array up to 45%.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Sequence

import numpy as np

NOMINAL_S = 0.011
"""The kernel's median time on the host the baseline was measured on."""


class Kernel:
    """The reference kernel; calling it returns its wall time in seconds."""

    def __init__(self) -> None:
        self.keys = np.random.default_rng(0).integers(0, 1 << 40, 1 << 20)

    def __call__(self) -> float:
        t0 = time.perf_counter()
        np.sort(self.keys)
        return time.perf_counter() - t0


def adjust(seconds: Sequence[float], kernel_s: Sequence[float]) -> List[float]:
    """Timings in nominal-host seconds, given the kernel times taken among
    them (failures stay infinite)."""
    factor = NOMINAL_S / statistics.median(kernel_s)
    return [s * factor for s in seconds]
