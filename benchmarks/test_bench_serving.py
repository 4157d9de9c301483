"""Serving-layer bench: micro-epoch latency under steady churn.

Drives :class:`repro.serving.MicroEpochService` for sixteen micro-epochs
of low-rate churn (1% subscribe / 1% unsubscribe, no rate drift -- the
regime where an epoch costs its churn, not the fleet) and reports the
exact SLO view: p50/p95/p99 micro-epoch seconds and ops/s.  The heavyweight
1M-subscriber gate lives in ``scripts/profile_solver.py --serve``; this
bench is the laptop-scale profile of the same loop.
"""

from __future__ import annotations

import pytest

from repro.dynamic import ChurnConfig
from repro.experiments import run_serving_experiment

from .conftest import SCALE, run_once

STEADY_CHURN = ChurnConfig(
    unsubscribe_fraction=0.01, subscribe_fraction=0.01, rate_drift_sigma=0.0
)


@pytest.mark.serve_bench
def test_serving_micro_epochs(benchmark, twitter_trace, twitter_plans):
    plan = twitter_plans["c3.large"].scaled(2.0)

    def measure():
        return run_serving_experiment(
            twitter_trace.workload,
            plan,
            100.0,
            16,
            churn_config=STEADY_CHURN,
            seed=SCALE.seed,
        )

    result = run_once(benchmark, measure)
    print()
    print(result.render())
    metrics = result.metrics
    assert metrics["serve.micro_epochs"] == 16
    assert metrics["serve.epoch_latency.p99_s"] > 0.0
