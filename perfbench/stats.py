"""Summary rules for operation timings.

* A failed operation -- one that raised, left an invalid placement, or
  was never reached because an earlier operation of its pass raised --
  is recorded as :data:`FAILED` (+infinity), so it counts as missing
  every latency limit and sorts above every real sample.
* ``p50`` is the median of all samples.
* ``tail`` is the highest sample that still has at least ten samples
  above it: the sample at sorted index ``n - 11``.  Its percentile,
  ``100 * (n - 10) / n``, is reported alongside, with the sample count.
* For a fixed mix of unlike operations, :func:`pass_mean_median` is the
  median over passes of each pass's mean operation time.  The pooled
  median of such a mix sits between two of its operation kinds and
  jumps between them from seed to seed; a pass mean weighs every kind.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Sequence

FAILED = math.inf
"""The latency recorded for a failed or unreached operation."""

TAIL_BEYOND = 10
"""Samples that must lie beyond the tail percentile."""


@dataclass(frozen=True)
class Summary:
    """Median and tail of one run's operation timings."""

    n: int
    failed: int
    p50: float
    tail: float
    tail_pct: float


def summarize(samples: Sequence[float]) -> Summary:
    """Summarize timings (seconds; :data:`FAILED` for failures)."""
    n = len(samples)
    if n < TAIL_BEYOND + 1:
        raise ValueError(
            f"need at least {TAIL_BEYOND + 1} samples for a tail, got {n}"
        )
    ordered = sorted(samples)
    return Summary(
        n=n,
        failed=sum(1 for s in samples if s == FAILED),
        p50=statistics.median(ordered),
        tail=ordered[n - 1 - TAIL_BEYOND],
        tail_pct=100.0 * (n - TAIL_BEYOND) / n,
    )


def pass_mean_median(passes: Sequence[Sequence[float]]) -> float:
    """Median over passes of the mean timing in each pass.

    A pass with a :data:`FAILED` operation has an infinite mean.
    """
    if not passes or not all(passes):
        raise ValueError("need at least one pass, and no empty pass")
    return statistics.median(math.fsum(p) / len(p) for p in passes)
