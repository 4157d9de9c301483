"""Serving-layer SLO metrics: exact latency quantiles + throughput.

An SLO gate needs exact percentiles over a bounded sample set (one
sample per micro-epoch), so :class:`ServingMetrics` keeps plain values:

* **latency** -- every micro-epoch's seconds in arrival order, with
  p50/p95/p99 from :func:`quantile` (exact nearest-rank), mean and max;
* **throughput** -- the :data:`COUNTERS` (churn operations, pair
  moves, adds, removals and rebuilds), plus derived ``ops_per_s`` /
  ``moves_per_s`` over the summed epoch time;
* **state** -- the :data:`GAUGES`: the last seal's batch size
  (``batch_ops``), fleet cost, cost drift vs the fresh-solve reference
  and fleet size.

Each sample is the seconds :class:`~repro.serving.MicroEpochService`
measured on its injected clock, so tier-1 tests assert exact numbers
with a scripted fake clock -- no timing-flaky assertions.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

from ..dynamic.reprovision import EpochReport

__all__ = ["COUNTERS", "GAUGES", "ServingMetrics", "quantile"]

# In snapshot order, where each name gets a ``serve.`` prefix.  A
# checkpoint saves each counter as a ``serve_<counter>`` member.  The
# micro-epochs served are the reprovisioner's epoch, not a counter.
COUNTERS = (
    "ops",
    "moves",
    "pairs_added",
    "pairs_removed",
    "rebuilds",
)
GAUGES = ("batch_ops", "cost_usd", "drift", "num_vms")


def quantile(samples: Sequence[float], q: float) -> float:
    """Exact nearest-rank quantile (``q`` in [0, 1]); 0 when empty."""
    if not 0 <= q <= 1:
        raise ValueError("quantile must be in [0, 1]")
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class ServingMetrics:
    """Aggregated SLO view of a :class:`MicroEpochService` run."""

    def __init__(self) -> None:
        self.counters: Dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self.gauges: Dict[str, float] = dict.fromkeys(GAUGES, 0.0)
        self.samples: List[float] = []
        self.busy_seconds = 0.0  # running sum of the samples

    def record_epoch(
        self,
        report: EpochReport,
        *,
        ops: int,
        batch_ops: int,
        seconds: float,
        num_vms: int,
    ) -> None:
        """Fold one micro-epoch's outcome into the running series."""
        if seconds < 0:
            raise ValueError("samples must be non-negative")
        self.samples.append(float(seconds))
        self.busy_seconds += seconds
        counters = self.counters
        counters["ops"] += int(ops)
        counters["moves"] += report.pairs_moved
        counters["pairs_added"] += report.pairs_added
        counters["pairs_removed"] += report.pairs_removed
        counters["rebuilds"] += int(report.rebuilt)
        self.gauges.update(
            batch_ops=float(batch_ops),
            cost_usd=float(report.cost.total_usd),
            drift=float(report.drift),
            num_vms=float(num_vms),
        )

    def check_slo(self, p99_bound_seconds: float) -> bool:
        """True when the exact p99 micro-epoch latency meets the bound."""
        if p99_bound_seconds <= 0:
            raise ValueError("p99 bound must be positive")
        return quantile(self.samples, 0.99) <= p99_bound_seconds

    def snapshot(self, micro_epochs: int = 0) -> Dict[str, float]:
        """Flat name -> value view: counters, gauges, exact quantiles.

        ``micro_epochs`` is the caller's count (the service passes its
        reprovisioner's epoch).
        """
        out = {"serve.micro_epochs": float(micro_epochs)}
        for name, value in (*self.counters.items(), *self.gauges.items()):
            out["serve." + name] = float(value)
        samples, busy = self.samples, self.busy_seconds
        out["serve.epoch_latency.p50_s"] = quantile(samples, 0.50)
        out["serve.epoch_latency.p95_s"] = quantile(samples, 0.95)
        out["serve.epoch_latency.p99_s"] = quantile(samples, 0.99)
        out["serve.epoch_latency.mean_s"] = busy / len(samples) if samples else 0.0
        out["serve.epoch_latency.max_s"] = max(samples, default=0.0)
        out["serve.epoch_latency.count"] = float(len(samples))
        out["serve.ops_per_s"] = self.counters["ops"] / busy if busy else 0.0
        out["serve.moves_per_s"] = self.counters["moves"] / busy if busy else 0.0
        return out
