"""Amazon EC2 instance catalog (Section IV-A).

The paper evaluates with *On-Demand, Compute Optimized -- Current
Generation* instances, specifically ``c3.large`` ($0.15/hour, 64 mbps
bandwidth cap) and ``c3.xlarge`` ($0.30/hour, 128 mbps), because these
types have documented bandwidth limits [13].  We ship the full c3
family (prices from the 2014 price sheet the paper cites);
:meth:`repro.pricing.PricingPlan.scaled` sweeps capacity and price
together, and a plain :class:`InstanceType` builds any other type.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Mapping

__all__ = ["InstanceType", "EC2_CATALOG", "get_instance", "mbps_to_bytes_per_hour"]


def mbps_to_bytes_per_hour(mbps: float) -> float:
    """Convert a link rate in megabits/s to bytes per hour."""
    return mbps * 1e6 / 8.0 * 3600.0


@dataclass(frozen=True)
class InstanceType:
    """An IaaS VM type with an hourly price and a bandwidth cap.

    ``bandwidth_mbps`` is the *total* (incoming + outgoing) cap ``BC``
    of Section II-B; the paper derives 64/128 mbps for c3.large and
    c3.xlarge from the EBS-optimized dedicated-throughput figures [13].
    """

    name: str
    hourly_price_usd: float
    bandwidth_mbps: float
    vcpus: int = 2
    memory_gib: float = 3.75

    def __post_init__(self) -> None:
        if self.hourly_price_usd < 0:
            raise ValueError("hourly price must be non-negative")
        if self.bandwidth_mbps <= 0:
            raise ValueError("bandwidth cap must be positive")

    @property
    def bandwidth_bytes_per_hour(self) -> float:
        """Bandwidth cap expressed in bytes per hour."""
        return mbps_to_bytes_per_hour(self.bandwidth_mbps)

    def capacity_bytes(self, period_hours: float) -> float:
        """Total bytes the VM may transfer over ``period_hours``."""
        if period_hours <= 0:
            raise ValueError("period must be positive")
        return self.bandwidth_bytes_per_hour * period_hours

    def price(self, period_hours: float) -> float:
        """Rental price of one VM for ``period_hours``."""
        if period_hours < 0:
            raise ValueError("period must be non-negative")
        return self.hourly_price_usd * period_hours


# 2014 us-east-1 On-Demand prices for the Compute Optimized (c3) family,
# matching the snapshot of [8] the paper used.  Bandwidth caps scale the
# paper's 64 mbps (c3.large) figure with instance size, following [13].
EC2_CATALOG: Mapping[str, InstanceType] = {
    it.name: it
    for it in (
        InstanceType("c3.large", 0.15, 64.0, vcpus=2, memory_gib=3.75),
        InstanceType("c3.xlarge", 0.30, 128.0, vcpus=4, memory_gib=7.5),
        InstanceType("c3.2xlarge", 0.60, 256.0, vcpus=8, memory_gib=15.0),
        InstanceType("c3.4xlarge", 1.20, 512.0, vcpus=16, memory_gib=30.0),
        InstanceType("c3.8xlarge", 2.40, 1024.0, vcpus=32, memory_gib=60.0),
    )
}


def get_instance(name: str) -> InstanceType:
    """Look up an instance type by name, with a helpful error."""
    try:
        return EC2_CATALOG[name]
    except KeyError:
        known = ", ".join(sorted(EC2_CATALOG))
        raise KeyError(f"unknown instance type {name!r}; known types: {known}") from None


def iter_catalog() -> Iterator[InstanceType]:
    """Iterate over the built-in catalog, smallest instance first."""
    return iter(sorted(EC2_CATALOG.values(), key=lambda it: it.hourly_price_usd))
