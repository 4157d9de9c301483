"""Experiment configuration: traces, pricing, and scale calibration.

The paper runs every experiment on two datasets (Spotify, Twitter), two
VM types (c3.large at 64 mbps, c3.xlarge at 128 mbps) and three
satisfaction thresholds (tau in {10, 100, 1000}).  This module pins
those axes and handles the one extra step our reproduction needs:
**capacity calibration**.

The synthetic traces are orders of magnitude smaller than the paper's
(millions of subscribers do not fit a laptop-scale rerun), so a
full-size c3.large would swallow the whole workload in one VM and every
packing algorithm would trivially tie.  :func:`calibrate_fraction`
computes the factor by which trace volume falls short of a target
fleet size and scales the plan with
:meth:`~repro.pricing.PricingPlan.scaled`, which shrinks capacity *and*
VM price together -- preserving the paper's price-per-capacity ratio,
so VM counts, the VM/bandwidth trade-off, and all relative savings are
comparable with Figures 2-3 (a documented substitution; see
docs/ARCHITECTURE.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from ..core import MCSSProblem, Workload
from ..pricing import PricingPlan, paper_plan
from ..workloads import (
    GeneratedTrace,
    SpotifyConfig,
    SpotifyWorkloadGenerator,
    TwitterConfig,
    TwitterWorkloadGenerator,
)

__all__ = [
    "PAPER_TAUS",
    "PAPER_INSTANCES",
    "ExperimentScale",
    "calibrate_fraction",
    "make_trace",
    "make_plan",
]

PAPER_TAUS: Tuple[int, ...] = (10, 100, 1000)
"""The satisfaction thresholds of Section IV."""

PAPER_INSTANCES: Tuple[str, ...] = ("c3.large", "c3.xlarge")
"""The two VM types of Section IV-A."""


@dataclass(frozen=True)
class ExperimentScale:
    """How large to draw a trace and how big a fleet to aim for.

    ``target_vms`` is the fleet size the *all-pairs* workload should
    need on the baseline instance (c3.large); actual runs select
    subsets and use fewer, matching how the paper's counts vary with
    tau.  Defaults mirror the paper's fleet magnitudes (Spotify peaks
    near 180 VMs, Twitter near 550) at a size that keeps the slow
    FFBP baseline runnable.
    """

    num_users: int = 8_000
    seed: int = 42
    target_vms: int = 120


def all_pairs_bytes(workload: Workload) -> float:
    """Single-copy volume of the full workload (outgoing + ingest)."""
    audience = workload.audience_sizes()
    held = audience > 0
    per_topic = workload.event_rates[held] * (audience[held] + 1)
    # A running sum in topic order, not numpy's pairwise one.
    total = float(np.cumsum(per_topic)[-1]) if per_topic.size else 0.0
    return total * workload.message_size_bytes


def selected_volume_bytes(workload: Workload, tau: float) -> float:
    """Single-copy volume of the GSP selection at threshold ``tau``.

    This is the volume the fleet actually carries at the largest
    threshold of an experiment, and therefore the right yardstick for
    sizing VMs: calibrating on the *all-pairs* volume would leave small
    thresholds with near-empty fleets where integer effects drown the
    trends.
    """
    from ..selection import GreedySelectPairs

    plan = PricingPlan(
        instance=paper_plan("c3.large").instance,
        capacity_bytes_override=4.0
        * float(workload.event_rates.max())
        * workload.message_size_bytes,
    )
    problem = MCSSProblem(workload, tau, plan)
    return GreedySelectPairs().select(problem).single_vm_bytes(workload)


def calibrate_fraction(
    workload: Workload,
    target_vms: int,
    reference_plan: Optional[PricingPlan] = None,
    reference_tau: Optional[float] = None,
) -> float:
    """Scale factor making the reference workload fill ``target_vms``.

    The reference volume is the GSP selection at ``reference_tau``
    (default: the largest paper threshold, 1000); pass ``None`` via
    ``reference_tau=0`` semantics is not supported -- use the all-pairs
    volume by passing ``reference_tau=float("inf")``.

    Computed against the c3.large reference so both instance types of
    an experiment share one factor (the xlarge then fits the same
    workload in about half the VMs, as in Figures 2b/3b).
    """
    if target_vms <= 0:
        raise ValueError("target_vms must be positive")
    plan = reference_plan or paper_plan("c3.large")
    if reference_tau is None:
        reference_tau = float(max(PAPER_TAUS))
    if reference_tau == float("inf"):
        volume = all_pairs_bytes(workload)
    else:
        volume = selected_volume_bytes(workload, reference_tau)
    if volume <= 0:
        raise ValueError("workload carries no traffic")
    fraction = volume / (plan.capacity_bytes * target_vms)
    # Feasibility floor: the scaled BC must still fit the most
    # expensive single pair (2 * ev_t * message size, Section II-C);
    # heavy-tailed traces can have one bot topic that dominates.  The
    # floor wins over the target when they conflict -- fewer, larger
    # VMs beat an unsolvable instance.
    max_pair_bytes = (
        2.0 * float(workload.event_rates.max()) * workload.message_size_bytes
    )
    floor = 1.05 * max_pair_bytes / plan.capacity_bytes
    return max(fraction, floor)


_GENERATORS: Dict[str, Callable[[int], GeneratedTrace]] = {
    "spotify": lambda n, seed: SpotifyWorkloadGenerator(
        SpotifyConfig(num_users=n)
    ).generate(seed=seed),
    "twitter": lambda n, seed: TwitterWorkloadGenerator(
        TwitterConfig(num_users=n)
    ).generate(seed=seed),
}


def make_trace(name: str, scale: ExperimentScale = ExperimentScale()) -> GeneratedTrace:
    """Draw the named trace (``"spotify"`` or ``"twitter"``)."""
    try:
        factory = _GENERATORS[name]
    except KeyError:
        known = ", ".join(sorted(_GENERATORS))
        raise KeyError(f"unknown trace {name!r}; known: {known}") from None
    return factory(scale.num_users, scale.seed)


def make_plan(
    instance: str,
    workload: Workload,
    scale: ExperimentScale = ExperimentScale(),
) -> PricingPlan:
    """The paper's plan for ``instance``, calibrated to the trace."""
    fraction = calibrate_fraction(workload, scale.target_vms)
    return paper_plan(instance).scaled(fraction)
