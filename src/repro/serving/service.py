"""The micro-epoch serving loop around the incremental reprovisioner.

:class:`MicroEpochService` turns the batch
:class:`~repro.dynamic.reprovision.IncrementalReprovisioner` into a
long-running service:

* churn arrives continuously as :class:`~repro.serving.queue.ChurnFragment`
  slices through :meth:`offer` / :meth:`ingest_delta` and buffers in a
  :class:`~repro.serving.queue.ChurnIngestQueue`;
* :meth:`run_micro_epoch` seals the buffered fragments into one exact
  :class:`~repro.dynamic.churn.WorkloadDelta` and steps the
  reprovisioner once -- thanks to the lossless reassembly, the
  resulting placements are bit-identical to the batch pipeline (and,
  with ``fresh_solve_every=1``, to the ``reprovision-loop`` referee)
  however the stream was fragmented.  A step that raises leaves the
  sealed batch queued, so the next micro-epoch carries it;
* every micro-epoch feeds the :class:`~repro.serving.slo.ServingMetrics`
  SLO view (exact p50/p95/p99 epoch latency, ops/s, moves/s, sealed
  batch size, cost drift);
* on cadence the service checkpoints through
  :mod:`repro.resilience.checkpoint` and :meth:`resume` continues a
  killed run bit-exactly, serving counters included.  The micro-epoch
  count is the reprovisioner's epoch, so a checkpoint without serving
  counters resumes at the right micro-epoch too.

The service constructs no RNGs: churn randomness lives in the caller's
:class:`~repro.dynamic.churn.ChurnModel`, keeping the serving layer
replayable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..core import MCSSProblem
from ..dynamic.reprovision import EpochReport, IncrementalReprovisioner
from ..resilience.checkpoint import (
    load_checkpoint,
    load_serving_state,
    save_checkpoint,
)
from .queue import ChurnFragment, ChurnIngestQueue, split_delta
from .slo import COUNTERS, ServingMetrics

__all__ = [
    "MicroEpochReport",
    "MicroEpochService",
    "ServingConfig",
]


@dataclass(frozen=True)
class ServingConfig:
    """Knobs for a serving run (solve parameters + cadences)."""

    rebuild_threshold: float = 1.15
    fresh_solve_every: int = 8
    checkpoint_path: Optional[str] = None
    checkpoint_every: int = 0
    slo_p99_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        if self.checkpoint_every and not self.checkpoint_path:
            raise ValueError("checkpoint_every needs a checkpoint_path")
        if self.slo_p99_seconds < 0:
            raise ValueError("slo_p99_seconds must be >= 0 (0 = no SLO)")


@dataclass(frozen=True)
class MicroEpochReport:
    """One micro-epoch's outcome, as seen by the serving layer.

    ``batch_ops`` is the number of churn operations the seal drained
    from the queue: all of them, since a seal empties it.  The
    micro-epoch is ``report.epoch``.
    """

    report: EpochReport
    ops: int
    batch_ops: int
    seconds: float


class MicroEpochService:
    """Serve a placement under continuous churn, one micro-epoch at a time."""

    def __init__(
        self,
        problem: MCSSProblem,
        config: ServingConfig = ServingConfig(),
        clock=None,
    ) -> None:
        reprovisioner = IncrementalReprovisioner(
            problem,
            rebuild_threshold=config.rebuild_threshold,
            fresh_solve_every=config.fresh_solve_every,
        )
        self._init_from(reprovisioner, config, clock)

    @classmethod
    def from_reprovisioner(
        cls,
        reprovisioner: IncrementalReprovisioner,
        config: ServingConfig = ServingConfig(),
        clock=None,
    ) -> "MicroEpochService":
        """Wrap an existing reprovisioner (e.g. a restored one)."""
        inst = cls.__new__(cls)
        inst._init_from(reprovisioner, config, clock)
        return inst

    def _init_from(self, reprovisioner, config, clock) -> None:
        self._reprovisioner = reprovisioner
        self._config = config
        self._clock = clock if clock is not None else time.perf_counter
        self._queue = ChurnIngestQueue()
        self._metrics = ServingMetrics()
        # The reprovisioner's epochs are micro-epochs already served.
        self._metrics.counters["micro_epochs"] = reprovisioner.epoch
        self._churn_model = None

    # ---- read surface ------------------------------------------------
    @property
    def config(self) -> ServingConfig:
        """The serving configuration."""
        return self._config

    @property
    def reprovisioner(self) -> IncrementalReprovisioner:
        """The wrapped placement maintainer."""
        return self._reprovisioner

    @property
    def metrics(self) -> ServingMetrics:
        """The SLO metrics view."""
        return self._metrics

    @property
    def queue_depth(self) -> int:
        """Churn operations offered and not yet sealed."""
        return self._queue.depth

    @property
    def micro_epochs(self) -> int:
        """Micro-epochs served (including before a resume).

        One micro-epoch is one reprovisioner step, so this is the
        reprovisioner's epoch.
        """
        return self._reprovisioner.epoch

    def placement(self):
        """The live placement."""
        return self._reprovisioner.placement()

    def metrics_snapshot(self) -> dict:
        """Flat metrics view (see :meth:`ServingMetrics.snapshot`)."""
        return self._metrics.snapshot()

    # ---- ingestion ---------------------------------------------------
    def offer(self, fragment: ChurnFragment) -> None:
        """Buffer one churn fragment for the next micro-epoch."""
        self._queue.offer(fragment)

    def ingest_delta(self, delta, cuts: Sequence[int] = ()) -> None:
        """Buffer a whole epoch delta, optionally pre-split at ``cuts``.

        Splitting then re-sealing is lossless (see
        :func:`~repro.serving.queue.split_delta`), so any ``cuts`` --
        including none -- yield the same micro-epoch.
        """
        for fragment in split_delta(delta, cuts):
            self.offer(fragment)

    # ---- the serving loop --------------------------------------------
    def run_micro_epoch(self, workload, changed_topics) -> MicroEpochReport:
        """Seal the buffered churn into one delta and step the placement.

        ``workload`` is the epoch's resulting workload and
        ``changed_topics`` its re-priced topics (both from the churn
        source; rate drift applies at the seal, not per fragment).  If
        the step raises (:class:`~repro.dynamic.InfeasibleEpochError`,
        or the cadence audit's ``ValueError``), the placement is
        unchanged and the sealed batch goes back to the queue, changed
        topics included, so the next call carries it; the error
        propagates.
        """
        batch_ops = self._queue.depth
        delta = self._queue.seal_epoch(workload, changed_topics)
        t0 = self._clock()
        try:
            report = self._reprovisioner.step(delta)
        except ValueError:  # InfeasibleEpochError, or the cadence audit
            self._queue.unseal(delta)
            raise
        seconds = self._clock() - t0
        ops = int(
            delta.subscribed_topics.size
            + delta.unsubscribed_topics.size
            + delta.changed_topics.size
        )
        self._metrics.record_epoch(
            report,
            ops=ops,
            batch_ops=batch_ops,
            seconds=seconds,
            num_vms=self._reprovisioner.num_vms,
        )
        cfg = self._config
        if cfg.checkpoint_every and self.micro_epochs % cfg.checkpoint_every == 0:
            self.checkpoint(cfg.checkpoint_path)
        return MicroEpochReport(
            report=report,
            ops=ops,
            batch_ops=batch_ops,
            seconds=seconds,
        )

    def serve(self, churn_model, micro_epochs: int) -> List[MicroEpochReport]:
        """Drive ``micro_epochs`` epochs from a churn model.

        Each churn epoch is ingested as one fragment and sealed
        immediately -- the simplest cadence.  Callers needing
        finer-grained arrival patterns drive :meth:`offer` /
        :meth:`run_micro_epoch` directly; the sealed delta (and hence
        the placement trajectory) is identical either way.
        """
        self._churn_model = churn_model
        reports = []
        for _ in range(int(micro_epochs)):
            delta = churn_model.step()
            self.ingest_delta(delta)
            reports.append(
                self.run_micro_epoch(delta.workload, delta.changed_topics)
            )
        return reports

    # ---- checkpoint / resume -----------------------------------------
    def serving_state(self) -> dict:
        """The serving counters that ride along in a checkpoint."""
        return dict(self._metrics.counters, micro_epochs=self.micro_epochs)

    def checkpoint(self, path=None) -> str:
        """Persist the full serving state atomically; returns the path."""
        path = path or self._config.checkpoint_path
        if not path:
            raise ValueError("no checkpoint path configured")
        return save_checkpoint(
            path,
            self._reprovisioner,
            churn_model=self._churn_model,
            serving_state=self.serving_state(),
        )

    @classmethod
    def resume(
        cls,
        path,
        plan,
        config: ServingConfig = ServingConfig(),
        clock=None,
    ):
        """Restore ``(service, churn_model_or_None)`` from a checkpoint.

        The reprovisioner resumes bit-exactly, and the micro-epoch count
        with it; the other serving counters continue from their
        checkpointed values, or from 0 when the checkpoint carries none.
        Latency samples are wall-clock and start fresh -- quantiles
        describe the current process, not the dead one.
        """
        reprovisioner, churn_model = load_checkpoint(path, plan)
        inst = cls.from_reprovisioner(reprovisioner, config, clock=clock)
        state = load_serving_state(path)
        if state is not None:
            inst._metrics.counters.update(
                {name: int(state[name]) for name in COUNTERS},
                micro_epochs=inst.micro_epochs,
            )
        if churn_model is not None:
            inst._churn_model = churn_model
        return inst, churn_model
