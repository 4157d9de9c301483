"""Checkpointed churn -> reprovision runs, served as micro-epochs.

:func:`run_serving_experiment` is the one driver of the dynamic loop
(the periodic re-solve of Section IV-F, kept incremental): a
:class:`~repro.dynamic.ChurnModel` feeds a
:class:`~repro.serving.MicroEpochService` one epoch per micro-epoch
for a fixed number of micro-epochs, checkpointing on cadence and
resuming bit-exactly -- from the service's own checkpoints or from any
:func:`~repro.resilience.save_checkpoint` that carries the churn
stream.  It returns the per-micro-epoch reports (cost, fleet size,
pairs added / removed / moved) plus the SLO metrics snapshot (exact
p50/p95/p99 micro-epoch latency, ops/s, moves/s, sealed batch size,
cost drift).

Exposed on the CLI as ``mcss serve``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core import MCSSProblem, Workload
from ..dynamic import ChurnConfig, ChurnModel
from ..pricing import PricingPlan
from ..serving import MicroEpochReport, MicroEpochService, ServingConfig

__all__ = ["ServeRunResult", "run_serving_experiment"]


@dataclass
class ServeRunResult:
    """Outcome of one (possibly resumed) serving run."""

    reports: List[MicroEpochReport] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    resumed_from_micro_epoch: int = 0  # 0 = fresh start
    checkpoints_written: int = 0
    service: Optional[MicroEpochService] = None
    slo_met: Optional[bool] = None  # None = no SLO configured

    def render(self) -> str:
        lines = []
        if self.resumed_from_micro_epoch:
            lines.append(
                f"resumed from micro-epoch {self.resumed_from_micro_epoch}"
            )
        for r in self.reports:
            lines.append(
                f"micro-epoch {r.report.epoch:4d}  "
                f"cost ${r.report.cost.total_usd:10.2f}  "
                f"vms {r.report.cost.num_vms:4d}  ops {r.ops:5d}  "
                f"{r.seconds * 1e3:8.2f} ms  "
                f"+{r.report.pairs_added} -{r.report.pairs_removed} "
                f"~{r.report.pairs_moved} pairs"
                + ("  [fresh]" if r.report.fresh_solved else "")
                + ("  [rebuilt]" if r.report.rebuilt else "")
            )
        m = self.metrics
        lines.append(
            f"{len(self.reports)} micro-epochs served, "
            f"{self.checkpoints_written} checkpoints written"
        )
        lines.append(
            "epoch latency p50/p95/p99: "
            f"{m.get('serve.epoch_latency.p50_s', 0.0) * 1e3:.2f} / "
            f"{m.get('serve.epoch_latency.p95_s', 0.0) * 1e3:.2f} / "
            f"{m.get('serve.epoch_latency.p99_s', 0.0) * 1e3:.2f} ms  "
            f"throughput {m.get('serve.ops_per_s', 0.0):.0f} ops/s, "
            f"{m.get('serve.moves_per_s', 0.0):.0f} moves/s"
        )
        if self.slo_met is not None:
            lines.append("SLO: " + ("met" if self.slo_met else "MISSED"))
        return "\n".join(lines)


def run_serving_experiment(
    workload: Workload,
    plan: PricingPlan,
    tau: float,
    micro_epochs: int,
    *,
    churn_config: Optional[ChurnConfig] = None,
    seed: int = 0,
    serving_config: Optional[ServingConfig] = None,
    resume: bool = False,
) -> ServeRunResult:
    """Serve ``micro_epochs`` micro-epochs of churn, metered end to end.

    With ``resume=True`` and an existing checkpoint at
    ``serving_config.checkpoint_path``, the service restores from it --
    placement trajectory and churn stream position bit-identical to the
    run that was never killed, serving counters carried over -- and
    only the remaining micro-epochs run; ``resume=True`` without a
    checkpoint path is rejected, and a checkpoint file that does not
    exist yet starts a fresh run.  An SLO verdict is recorded when
    ``serving_config.slo_p99_seconds > 0``.
    """
    if micro_epochs < 0:
        raise ValueError("micro_epochs must be >= 0")
    config = serving_config or ServingConfig()
    if resume and not config.checkpoint_path:
        raise ValueError("resume requires a checkpoint_path")

    result = ServeRunResult()
    checkpoint_path = config.checkpoint_path
    if resume and os.path.exists(checkpoint_path):
        service, churn_model = MicroEpochService.resume(
            checkpoint_path, plan, config
        )
        if churn_model is None:
            raise ValueError(
                f"checkpoint {checkpoint_path!r} carries no churn state; "
                "cannot resume the serving stream from it"
            )
        result.resumed_from_micro_epoch = service.micro_epochs
    else:
        problem = MCSSProblem(workload, tau, plan)
        service = MicroEpochService(problem, config)
        churn_model = ChurnModel(
            workload, churn_config or ChurnConfig(), seed=seed
        )

    remaining = max(0, micro_epochs - service.micro_epochs)
    result.reports = service.serve(churn_model, remaining)
    result.checkpoints_written = sum(
        1
        for r in result.reports
        if config.checkpoint_every
        and r.report.epoch % config.checkpoint_every == 0
    )
    result.metrics = service.metrics_snapshot()
    if config.slo_p99_seconds > 0:
        result.slo_met = service.metrics.check_slo(config.slo_p99_seconds)
    result.service = service
    return result
