"""Micro-epoch serving layer: the reprovisioner as a running service.

The batch experiments step whole epochs; production churn arrives as a
stream.  This package closes that gap without giving up the repo's
bit-exactness discipline:

* :mod:`~repro.serving.queue` -- churn fragments in, lossless
  per-micro-epoch :class:`~repro.dynamic.churn.WorkloadDelta` seals
  out: however the stream is chopped, the sealed delta is identical.
* :mod:`~repro.serving.service` -- :class:`MicroEpochService`, the
  serving loop: seal, step, meter, checkpoint on cadence.
* :mod:`~repro.serving.slo` -- :class:`ServingMetrics`, exact
  p50/p95/p99 micro-epoch latency plus throughput counters and SLO
  gates, kept as plain values over the seconds the service measures
  on its injectable clock.
* :mod:`~repro.serving.checkpoint` -- ``save_checkpoint`` /
  ``load_checkpoint``: everything the service holds in one digested,
  atomically written ``.npz``.

``tests/test_serving.py`` pins the whole path against the
``reprovision-loop`` referee across randomized fragment splits.
"""

from .queue import ChurnFragment, ChurnIngestQueue, split_delta
from .service import MicroEpochReport, MicroEpochService, ServingConfig
from .slo import ServingMetrics

__all__ = [
    "ChurnFragment",
    "ChurnIngestQueue",
    "MicroEpochReport",
    "MicroEpochService",
    "ServingConfig",
    "ServingMetrics",
    "split_delta",
]
