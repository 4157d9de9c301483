"""Shared fixtures for the test suite.

Conventions:

* "tiny" objects are hand-written and human-checkable;
* "small" objects are generated but fast (< 100 ms to build);
* plans use ``unit_plan`` (capacity/cost chosen for readable numbers)
  unless a test is specifically about EC2 pricing.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pytest

from repro.core import MCSSProblem, Workload
from repro.pricing import (
    FreeBandwidthCost,
    LinearBandwidthCost,
    LinearVMCost,
    PricingPlan,
    get_instance,
)
from repro.workloads import uniform_workload, zipf_workload


def make_unit_plan(
    capacity_events: float,
    vm_price: float = 10.0,
    usd_per_gb: float = 0.12,
) -> PricingPlan:
    """A plan with explicit capacity in *event* units (msg size 1 B)."""
    return PricingPlan(
        instance=get_instance("c3.large"),
        period_hours=1.0,
        bandwidth_cost=LinearBandwidthCost(usd_per_gb),
        vm_cost=LinearVMCost(vm_price),
        capacity_bytes_override=capacity_events,
    )


@pytest.fixture
def force_shards(monkeypatch):
    """``force_shards(shard_size, workers=None)``: solve out of core in this test.

    Sets the ``MCSS_SHARD_SIZE`` knob that ``MCSSSolver.solve`` and GSP
    read at call time, and ``MCSS_SHARD_WORKERS`` (the threads that run
    the shard sweeps) only when ``workers`` is given -- otherwise the
    worker count follows the environment, so a suite run under
    ``MCSS_SHARD_WORKERS=2`` threads these tests too.  monkeypatch
    restores both after the test.
    """

    def force(shard_size: int, workers: Optional[int] = None) -> None:
        monkeypatch.setenv("MCSS_SHARD_SIZE", str(shard_size))
        if workers is not None:
            monkeypatch.setenv("MCSS_SHARD_WORKERS", str(workers))

    return force


@pytest.fixture
def unit_plan() -> PricingPlan:
    """Capacity 100 event-bytes, $10/VM, $0.12/GB."""
    return make_unit_plan(100.0)


@pytest.fixture
def tiny_workload() -> Workload:
    """The paper's Figure-1 example: 2 topics, 3 subscribers, 5 pairs.

    ``ev_t1 = 20``, ``ev_t2 = 10`` (events/min), 1 KB messages reduced
    to 1 B so numbers stay readable; pairs (t1,v1) (t2,v1) (t2,v2)
    (t1,v2) (t2,v3).
    """
    return Workload(
        event_rates=[20.0, 10.0],
        interests=[[0, 1], [0, 1], [1]],
        message_size_bytes=1.0,
    )


@pytest.fixture
def tiny_problem(tiny_workload: Workload) -> MCSSProblem:
    """Figure-1 workload with tau=30 and capacity 80 event-bytes."""
    return MCSSProblem(tiny_workload, tau=30.0, plan=make_unit_plan(80.0))


@pytest.fixture
def small_zipf() -> Workload:
    """A 60-topic / 200-subscriber Zipf workload (seeded)."""
    return zipf_workload(60, 200, mean_interest=6.0, seed=3)


@pytest.fixture
def small_uniform() -> Workload:
    """A 40-topic / 150-subscriber uniform workload (seeded)."""
    return uniform_workload(40, 150, mean_interest=5.0, seed=5)


@pytest.fixture(params=["ram", "mmap"])
def backed_small_zipf(request, tmp_path) -> Workload:
    """The ``small_zipf`` workload on both storage backends.

    ``ram`` is the workload as built; ``mmap`` round-trips it through a
    format-2 trace file and reopens it memory-mapped
    (:class:`repro.core.MmapBackend`), so every test using this fixture
    pins backend-independence of its path.
    """
    workload = zipf_workload(60, 200, mean_interest=6.0, seed=3)
    if request.param == "mmap":
        from repro.workloads import load_workload, save_workload

        workload = load_workload(
            save_workload(workload, tmp_path / "backed"), mmap=True
        )
    return workload


def random_workload(
    rng: np.random.Generator,
    max_topics: int = 8,
    max_subscribers: int = 8,
    max_rate: int = 20,
) -> Workload:
    """A small random workload for fuzz tests (every topic subscribed)."""
    num_topics = int(rng.integers(1, max_topics + 1))
    num_subscribers = int(rng.integers(1, max_subscribers + 1))
    rates = rng.integers(1, max_rate + 1, size=num_topics).astype(float)
    interests = []
    for _ in range(num_subscribers):
        k = int(rng.integers(1, num_topics + 1))
        interests.append(sorted(rng.choice(num_topics, size=k, replace=False).tolist()))
    return Workload(rates, interests, message_size_bytes=1.0)
