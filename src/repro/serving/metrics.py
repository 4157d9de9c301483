"""Lightweight metrics primitives for the serving layer.

Counters, gauges and an exact-quantile latency recorder -- enough to
meter the micro-epoch loop without dragging in a metrics dependency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

__all__ = [
    "Counter",
    "Gauge",
    "LatencyRecorder",
    "MetricsRegistry",
]


@dataclass
class Counter:
    """A monotonically increasing count."""

    value: int = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


@dataclass
class Gauge:
    """A point-in-time value."""

    value: float = 0.0

    def set(self, value: float) -> None:
        """Replace the current value."""
        self.value = float(value)


class LatencyRecorder:
    """Exact-quantile latency recorder with an injectable clock.

    SLO gates need exact percentiles, so this keeps every sample
    (bounded -- one per micro-epoch, not per message) and computes
    nearest-rank quantiles over the sorted list.  The clock is injected
    so tier-1 tests can drive it deterministically: ``time()`` marks a
    start, ``stop()`` records the elapsed interval as a sample.
    """

    def __init__(self, clock=None) -> None:
        import time as _time

        self._clock = clock if clock is not None else _time.perf_counter
        self._samples: List[float] = []
        self._sorted: Optional[List[float]] = None
        self._sum = 0.0
        self._start: Optional[float] = None

    def start(self) -> None:
        """Mark the start of an interval on the injected clock."""
        self._start = self._clock()

    def stop(self) -> float:
        """Record the interval since :meth:`start`; returns it."""
        if self._start is None:
            raise RuntimeError("stop() without a matching start()")
        elapsed = self._clock() - self._start
        self._start = None
        self.observe(elapsed)
        return elapsed

    def observe(self, seconds: float) -> None:
        """Record one latency sample directly."""
        if seconds < 0:
            raise ValueError("samples must be non-negative")
        self._samples.append(float(seconds))
        self._sorted = None
        self._sum += seconds

    @property
    def count(self) -> int:
        """Number of samples recorded."""
        return len(self._samples)

    @property
    def mean(self) -> float:
        """Mean sample, 0 when empty."""
        return self._sum / len(self._samples) if self._samples else 0.0

    @property
    def total(self) -> float:
        """Sum of all samples."""
        return self._sum

    @property
    def max(self) -> float:
        """Largest sample, 0 when empty."""
        return max(self._samples) if self._samples else 0.0

    def quantile(self, q: float) -> float:
        """Exact nearest-rank quantile (q in [0, 1]); 0 when empty."""
        if not 0 <= q <= 1:
            raise ValueError("quantile must be in [0, 1]")
        if not self._samples:
            return 0.0
        if self._sorted is None:
            self._sorted = sorted(self._samples)
        rank = max(0, math.ceil(q * len(self._sorted)) - 1)
        return self._sorted[rank]


class MetricsRegistry:
    """Named counters and gauges."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}

    def counter(self, name: str) -> Counter:
        """Get or create a counter."""
        return self._counters.setdefault(name, Counter())

    def gauge(self, name: str) -> Gauge:
        """Get or create a gauge."""
        return self._gauges.setdefault(name, Gauge())

    def snapshot(self) -> Dict[str, float]:
        """Flat name -> value view."""
        out: Dict[str, float] = {}
        for name, counter in self._counters.items():
            out[name] = float(counter.value)
        for name, gauge in self._gauges.items():
            out[name] = gauge.value
        return out
