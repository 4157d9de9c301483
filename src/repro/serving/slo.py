"""Serving-layer SLO metrics: exact latency quantiles + throughput.

An SLO gate needs exact percentiles over a bounded sample set (one
sample per micro-epoch).  This module wires a
:class:`~repro.serving.metrics.LatencyRecorder` and a
:class:`~repro.serving.metrics.MetricsRegistry` into one serving-shaped
view:

* **latency** -- p50/p95/p99/mean/max micro-epoch seconds, exact
  nearest-rank over all recorded epochs;
* **throughput** -- monotonic counters for micro-epochs, churn
  operations, pair moves, adds, removals and rebuilds, plus derived
  ``ops_per_s`` / ``moves_per_s`` over the summed epoch time;
* **state** -- gauges for the sealed batch size (``batch_ops``), the
  queue backlog left behind the seal (``queue_depth``), fleet cost,
  cost drift vs the fresh-solve reference and fleet size.

The clock is injected end-to-end so tier-1 tests assert exact numbers
with a scripted fake clock -- no timing-flaky assertions.
"""

from __future__ import annotations

from typing import Dict

from ..dynamic.reprovision import EpochReport
from .metrics import LatencyRecorder, MetricsRegistry

__all__ = ["ServingMetrics"]


class ServingMetrics:
    """Aggregated SLO view of a :class:`MicroEpochService` run."""

    def __init__(self, clock=None) -> None:
        self.registry = MetricsRegistry()
        self.epoch_latency = LatencyRecorder(clock=clock)
        # Touch every series up front so snapshots are stable-shaped
        # from micro-epoch zero.
        for name in (
            "serve.micro_epochs",
            "serve.ops",
            "serve.moves",
            "serve.pairs_added",
            "serve.pairs_removed",
            "serve.rebuilds",
        ):
            self.registry.counter(name)
        for name in (
            "serve.batch_ops",
            "serve.queue_depth",
            "serve.cost_usd",
            "serve.drift",
            "serve.num_vms",
        ):
            self.registry.gauge(name)

    def record_epoch(
        self,
        report: EpochReport,
        *,
        ops: int,
        batch_ops: int,
        queue_depth: int,
        seconds: float,
        num_vms: int,
    ) -> None:
        """Fold one micro-epoch's outcome into the running series."""
        self.epoch_latency.observe(seconds)
        reg = self.registry
        reg.counter("serve.micro_epochs").inc()
        reg.counter("serve.ops").inc(int(ops))
        reg.counter("serve.moves").inc(report.pairs_moved)
        reg.counter("serve.pairs_added").inc(report.pairs_added)
        reg.counter("serve.pairs_removed").inc(report.pairs_removed)
        if report.rebuilt:
            reg.counter("serve.rebuilds").inc()
        reg.gauge("serve.batch_ops").set(float(batch_ops))
        reg.gauge("serve.queue_depth").set(float(queue_depth))
        reg.gauge("serve.cost_usd").set(report.cost.total_usd)
        reg.gauge("serve.drift").set(report.drift)
        reg.gauge("serve.num_vms").set(float(num_vms))

    # ---- derived SLO series ------------------------------------------
    @property
    def p50_seconds(self) -> float:
        """Exact median micro-epoch latency."""
        return self.epoch_latency.quantile(0.50)

    @property
    def p95_seconds(self) -> float:
        """Exact p95 micro-epoch latency."""
        return self.epoch_latency.quantile(0.95)

    @property
    def p99_seconds(self) -> float:
        """Exact p99 micro-epoch latency."""
        return self.epoch_latency.quantile(0.99)

    @property
    def ops_per_second(self) -> float:
        """Churn operations absorbed per second of epoch time."""
        busy = self.epoch_latency.total
        return self.registry.counter("serve.ops").value / busy if busy else 0.0

    @property
    def moves_per_second(self) -> float:
        """Pair moves executed per second of epoch time."""
        busy = self.epoch_latency.total
        return self.registry.counter("serve.moves").value / busy if busy else 0.0

    def check_slo(self, p99_bound_seconds: float) -> bool:
        """True when the exact p99 micro-epoch latency meets the bound."""
        if p99_bound_seconds <= 0:
            raise ValueError("p99 bound must be positive")
        return self.p99_seconds <= p99_bound_seconds

    def snapshot(self) -> Dict[str, float]:
        """Flat name -> value view: counters, gauges, exact quantiles."""
        out = self.registry.snapshot()
        out["serve.epoch_latency.p50_s"] = self.p50_seconds
        out["serve.epoch_latency.p95_s"] = self.p95_seconds
        out["serve.epoch_latency.p99_s"] = self.p99_seconds
        out["serve.epoch_latency.mean_s"] = self.epoch_latency.mean
        out["serve.epoch_latency.max_s"] = self.epoch_latency.max
        out["serve.epoch_latency.count"] = float(self.epoch_latency.count)
        out["serve.ops_per_s"] = self.ops_per_second
        out["serve.moves_per_s"] = self.moves_per_second
        return out
