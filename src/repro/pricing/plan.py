"""Pricing plans: binding instance types, prices, and the trace period.

The core optimization model is unit-agnostic: event rates are "events
per time unit".  A :class:`PricingPlan` fixes that time unit to a
concrete billing period (the paper uses the 10-day span of its traces)
and derives, for a chosen instance type:

* ``capacity_bytes`` -- the per-VM bandwidth budget ``BC`` over the
  period, against which the capacity constraint is checked;
* ``C1`` -- VM rental for the period;
* ``C2`` -- data transfer cost.

With this convention the total bytes a VM moves over the period equals
its byte *rate* in the core model, so no further conversion is needed
anywhere else.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from .costs import (
    BandwidthCostFunction,
    LinearBandwidthCost,
    LinearVMCost,
    VMCostFunction,
)
from .instances import EC2_CATALOG, InstanceType, get_instance

__all__ = ["PricingPlan", "TRACE_PERIOD_HOURS", "paper_plan"]


TRACE_PERIOD_HOURS = 240.0
"""Ten days -- the span of both the Spotify and Twitter traces."""


@dataclass(frozen=True)
class PricingPlan:
    """A complete billing configuration for one MCSS instance.

    Parameters
    ----------
    instance:
        The VM type rented for every broker (the paper provisions a
        homogeneous fleet).
    period_hours:
        Billing period; also the time unit of all event rates.
    bandwidth_cost:
        ``C2``.  Defaults to the paper's flat $0.12/GB.
    vm_cost:
        ``C1``.  Defaults to ``instance price x period``; override for
        the hardness reduction (where ``C1(x) = x``) or for sweeps.
    capacity_bytes_override:
        Explicit ``BC`` in bytes per period, bypassing the instance's
        bandwidth cap.  Used by synthetic instances (e.g. the
        Partition reduction) where ``BC`` is part of the construction.
    """

    instance: InstanceType
    period_hours: float = TRACE_PERIOD_HOURS
    bandwidth_cost: BandwidthCostFunction = field(default_factory=LinearBandwidthCost)
    vm_cost: Optional[VMCostFunction] = None
    capacity_bytes_override: Optional[float] = None

    def __post_init__(self) -> None:
        # ``not x > 0`` so NaN fails here, not later inside CBP.
        if not self.period_hours > 0:
            raise ValueError("period_hours must be positive")
        if self.capacity_bytes_override is not None and not (
            self.capacity_bytes_override > 0
        ):
            raise ValueError("capacity_bytes_override must be positive")

    # ------------------------------------------------------------------
    @property
    def capacity_bytes(self) -> float:
        """``BC`` -- per-VM byte budget over the billing period."""
        if self.capacity_bytes_override is not None:
            return self.capacity_bytes_override
        return self.instance.capacity_bytes(self.period_hours)

    @property
    def c1(self) -> VMCostFunction:
        """``C1`` -- VM rental cost function."""
        if self.vm_cost is not None:
            return self.vm_cost
        return LinearVMCost(self.instance.price(self.period_hours))

    @property
    def c2(self) -> BandwidthCostFunction:
        """``C2`` -- bandwidth cost function."""
        return self.bandwidth_cost

    # ------------------------------------------------------------------
    def scaled(self, fraction: float) -> "PricingPlan":
        """Scale the plan to a down-sampled trace.

        The paper evaluates 10%/1% samples of the real traces against
        full-size VMs; our synthetic traces are smaller still.  Scaling
        *both* the capacity ``BC`` and the per-VM price by ``fraction``
        models "fractional VMs": the instance keeps the paper's exact
        price-per-capacity ratio, so VM counts, the VM-vs-bandwidth
        trade-off, and all *relative* savings match what the same
        workload would produce at full scale (``C2`` is linear, so the
        whole objective simply scales by ``fraction``).
        """
        if fraction <= 0:
            raise ValueError("fraction must be positive")
        base_price = (
            self.vm_cost(1) - self.vm_cost(0)
            if self.vm_cost is not None
            else self.instance.price(self.period_hours)
        )
        return replace(
            self,
            capacity_bytes_override=self.capacity_bytes * fraction,
            vm_cost=LinearVMCost(base_price * fraction),
        )

    def describe(self) -> str:
        """One-line human summary for experiment logs."""
        return (
            f"{self.instance.name} @ ${self.instance.hourly_price_usd}/h, "
            f"BC={self.instance.bandwidth_mbps:g} mbps, "
            f"period={self.period_hours:g} h"
        )


def paper_plan(instance_name: str = "c3.large") -> PricingPlan:
    """The exact configuration of Section IV-A.

    c3.large or c3.xlarge, 10-day period, $0.12/GB flat transfer cost.
    """
    return PricingPlan(instance=get_instance(instance_name))
