"""Checkpointed churn/reprovision epoch runs.

:func:`run_epoch_experiment` drives the standard dynamic loop --
:class:`~repro.dynamic.ChurnModel` feeding
:class:`~repro.dynamic.IncrementalReprovisioner` -- for a fixed number
of epochs, with the fault-tolerance a 1000-epoch run needs: every
``checkpoint_every`` epochs the complete run state (pair arrays, epoch
counters, calibration, churn RNG stream position) is persisted
*atomically* via :mod:`repro.resilience.checkpoint`, and a re-run with
``resume=True`` picks up from the checkpoint and produces epoch
reports, placements and costs bit-identical to the run that was never
killed (pinned in tests/test_vectorized_equivalence.py).

Exposed on the CLI as ``mcss churn``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import List, Optional

from ..core import MCSSProblem, Workload
from ..dynamic import (
    ChurnConfig,
    ChurnModel,
    EpochReport,
    IncrementalReprovisioner,
)
from ..pricing import PricingPlan
from ..resilience.checkpoint import load_checkpoint, save_checkpoint
from ..solver import MCSSSolver

__all__ = ["EpochRunResult", "run_epoch_experiment"]


@dataclass
class EpochRunResult:
    """Outcome of one (possibly resumed) epoch run."""

    reports: List[EpochReport] = field(default_factory=list)
    resumed_from_epoch: int = 0  # 0 = fresh start
    checkpoints_written: int = 0
    reprovisioner: Optional[IncrementalReprovisioner] = None
    churn_model: Optional[ChurnModel] = None

    def render(self) -> str:
        lines = []
        if self.resumed_from_epoch:
            lines.append(f"resumed from epoch {self.resumed_from_epoch}")
        for r in self.reports:
            lines.append(
                f"epoch {r.epoch:4d}  cost ${r.cost.total_usd:10.2f}  "
                f"vms {r.cost.num_vms:4d}  +{r.pairs_added} -{r.pairs_removed} "
                f"~{r.pairs_moved} pairs"
                + ("  [rebuilt]" if r.rebuilt else "")
            )
        lines.append(
            f"{len(self.reports)} epochs run, "
            f"{self.checkpoints_written} checkpoints written"
        )
        return "\n".join(lines)


def run_epoch_experiment(
    workload: Workload,
    plan: PricingPlan,
    tau: float,
    epochs: int,
    *,
    churn_config: Optional[ChurnConfig] = None,
    seed: int = 0,
    rebuild_threshold: float = 1.15,
    fresh_solve_every: int = 8,
    solver: Optional[MCSSSolver] = None,
    checkpoint_path: Optional[str] = None,
    checkpoint_every: int = 0,
    resume: bool = False,
) -> EpochRunResult:
    """Run ``epochs`` churn->reprovision epochs with optional checkpoints.

    With ``resume=True`` and an existing ``checkpoint_path``, the run
    restores from it (skipping the already-completed epochs and the
    epoch-0 solve) and only the remaining epochs' reports are returned;
    the continuation is bit-identical to the uninterrupted run because
    the checkpoint carries the churn RNG stream position;
    ``resume=True`` without a ``checkpoint_path`` is rejected, and a
    checkpoint file that does not exist yet starts a fresh run.  With
    ``checkpoint_every=K > 0`` the state is persisted atomically after
    every K-th epoch, so a kill at any point loses at most K-1 epochs.
    """
    if epochs < 0:
        raise ValueError("epochs must be >= 0")
    if checkpoint_every < 0:
        raise ValueError("checkpoint_every must be >= 0")
    if checkpoint_every and not checkpoint_path:
        raise ValueError("checkpoint_every requires checkpoint_path")
    if resume and not checkpoint_path:
        raise ValueError("resume requires checkpoint_path")

    result = EpochRunResult()
    if resume and os.path.exists(checkpoint_path):
        reprovisioner, churn_model = load_checkpoint(
            checkpoint_path, plan, solver=solver
        )
        if churn_model is None:
            raise ValueError(
                f"checkpoint {checkpoint_path!r} carries no churn state; "
                "cannot resume the epoch stream from it"
            )
        result.resumed_from_epoch = reprovisioner.epoch
    else:
        problem = MCSSProblem(workload, tau, plan)
        reprovisioner = IncrementalReprovisioner(
            problem,
            rebuild_threshold=rebuild_threshold,
            solver=solver,
            fresh_solve_every=fresh_solve_every,
        )
        churn_model = ChurnModel(
            workload, churn_config or ChurnConfig(), seed=seed
        )

    for epoch in range(reprovisioner.epoch, epochs):
        result.reports.append(reprovisioner.step(churn_model.step()))
        if checkpoint_every and (epoch + 1) % checkpoint_every == 0:
            save_checkpoint(checkpoint_path, reprovisioner, churn_model)
            result.checkpoints_written += 1

    result.reprovisioner = reprovisioner
    result.churn_model = churn_model
    return result
