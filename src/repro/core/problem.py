"""The MCSS problem instance (Section II-C).

:class:`MCSSProblem` bundles everything the formal definition
``MCSS(T, V, ev, Int, tau, BC, C1, C2)`` names:

* the workload ``(T, V, ev, Int)`` -- a :class:`~repro.core.workload.Workload`;
* the satisfaction threshold ``tau``;
* the per-VM capacity ``BC`` and the cost functions ``C1``/``C2`` --
  via a :class:`~repro.pricing.PricingPlan`.

It is the single argument solvers take, and it knows how to evaluate
the objective and validate candidate solutions, so every algorithm is
scored by exactly the same code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..pricing import PricingPlan, paper_plan
from .placement import Placement
from .workload import Workload

__all__ = ["MCSSProblem", "SolutionCost"]


@dataclass(frozen=True)
class SolutionCost:
    """The cost breakdown of a candidate solution.

    ``total_usd = vm_usd + bandwidth_usd`` is the MCSS objective; the
    individual components are kept because the paper's figures report
    cost, VM count and bandwidth volume side by side.
    """

    num_vms: int
    total_bytes: float
    vm_usd: float
    bandwidth_usd: float

    @property
    def total_usd(self) -> float:
        """``C1(|B|) + C2(sum bw_b)``."""
        return self.vm_usd + self.bandwidth_usd

    @property
    def total_gb(self) -> float:
        """Bandwidth volume in decimal gigabytes (as plotted in Figs. 2-3)."""
        return self.total_bytes / 1e9

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        def usd(x: float) -> str:
            return f"${x:,.2f}" if abs(x) >= 1 else f"${x:,.6f}"

        return (
            f"{usd(self.total_usd)} ({self.num_vms} VMs = {usd(self.vm_usd)}, "
            f"{self.total_gb:,.3f} GB = {usd(self.bandwidth_usd)})"
        )


@dataclass(frozen=True)
class MCSSProblem:
    """One instance of Minimum Cost Subscriber Satisfaction."""

    workload: Workload
    tau: float
    plan: PricingPlan = field(default_factory=paper_plan)

    def __post_init__(self) -> None:
        if not self.tau >= 0:
            raise ValueError("tau must be non-negative")
        # A single pair must always be placeable: the largest topic's
        # byte rate (outgoing + one incoming copy) has to fit in a VM.
        if self.workload.num_topics:
            largest = float(self.workload.event_rates.max())
            needed = 2.0 * largest * self.workload.message_size_bytes
            if needed > self.capacity_bytes:
                raise ValueError(
                    "infeasible instance: the most expensive single pair needs "
                    f"{needed:.0f} B but BC is {self.capacity_bytes:.0f} B"
                )

    # ------------------------------------------------------------------
    @property
    def capacity_bytes(self) -> float:
        """``BC`` in bytes per billing period."""
        return self.plan.capacity_bytes

    def topic_bytes_array(self) -> np.ndarray:
        """Per-topic byte rate of one event-stream copy (``ev_t * msg``).

        One whole-array multiply; the vectorized Stage-2 packers index
        this instead of recomputing ``rate * message_size`` per topic.
        """
        return self.workload.event_rates * self.workload.message_size_bytes

    # ------------------------------------------------------------------
    def empty_placement(self) -> Placement:
        """A fresh placement bound to this problem's workload and BC."""
        return Placement(self.workload, self.capacity_bytes)

    def cost_of(self, placement: Placement) -> SolutionCost:
        """Evaluate the objective for a placement."""
        return self.cost_components(placement.num_vms, placement.total_bytes)

    def cost_components(self, num_vms: int, total_bytes: float) -> SolutionCost:
        """Evaluate the objective from raw components (for bounds)."""
        return SolutionCost(
            num_vms=num_vms,
            total_bytes=total_bytes,
            vm_usd=self.plan.c1(num_vms),
            bandwidth_usd=self.plan.c2(total_bytes),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MCSSProblem(workload={self.workload!r}, tau={self.tau:g}, "
            f"plan={self.plan.describe()})"
        )
