"""Dynamic reprovisioning bench (the paper's §VI future work, built).

Runs ten epochs of churn over a Twitter-like workload and measures the
stability/optimality trade-off of the incremental reprovisioner:

* drift: incremental cost over a from-scratch solve per epoch
  (bounded by the rebuild threshold by construction; on epochs where
  the estimate gate skipped the fresh solve, drift is measured against
  the calibrated Algorithm-5 estimate and marked ``*``);
* churn amplification: pairs moved per epoch relative to the pairs the
  churn itself touched (an online allocator should not reshuffle the
  world to absorb a 4% workload change);
* gating: how many epochs actually paid for a reference solve (the
  default cadence runs it as a safety net, not per epoch).
"""

from __future__ import annotations

from repro.core import MCSSProblem, validate_placement
from repro.dynamic import ChurnConfig, ChurnModel, IncrementalReprovisioner

from .conftest import run_once


def test_dynamic_reprovisioning_epochs(benchmark, twitter_trace, twitter_plans):
    # Rate drift can push the largest topic past the calibrated
    # feasibility floor over ten epochs; give the plan 2x headroom.
    plan = twitter_plans["c3.large"].scaled(2.0)
    problem = MCSSProblem(twitter_trace.workload, 100, plan)

    def measure():
        reprov = IncrementalReprovisioner(problem, rebuild_threshold=1.15)
        model = ChurnModel(
            problem.workload,
            ChurnConfig(
                unsubscribe_fraction=0.02,
                subscribe_fraction=0.02,
                rate_drift_sigma=0.03,
            ),
            seed=5,
        )
        epochs = []
        for _ in range(10):
            delta = model.step()
            churn_pairs = delta.subscribed_topics.size + delta.unsubscribed_topics.size
            epoch = reprov.step(delta)
            audit = validate_placement(reprov.problem, reprov.placement())
            assert audit.ok, str(audit)
            epochs.append((epoch, churn_pairs))
        return epochs

    epochs = run_once(benchmark, measure)
    print()
    print(
        f"  {'epoch':>5} {'drift':>8} {'moved':>7} {'churned':>8} "
        f"{'fresh':>6} {'rebuilt':>8}"
    )
    drifts = []
    fresh_solves = 0
    for epoch, churn_pairs in epochs:
        moved = epoch.pairs_added + epoch.pairs_removed + epoch.pairs_moved
        drifts.append(epoch.drift)
        fresh_solves += epoch.fresh_solved
        drift_mark = f"{epoch.drift:.3f}" + ("" if epoch.fresh_solved else "*")
        print(
            f"  {epoch.epoch:>5} {drift_mark:>8} {moved:>7} "
            f"{churn_pairs:>8} {'yes' if epoch.fresh_solved else '':>6} "
            f"{'yes' if epoch.rebuilt else '':>8}"
        )
        assert epoch.drift <= 1.15 + 1e-6, "rebuild threshold must cap drift"
    # The incremental solution stays close to fresh solves on average,
    # and the reference solve is gated, not a per-epoch fixture.
    assert sum(drifts) / len(drifts) < 1.15
    assert fresh_solves < len(epochs), "estimate gate never skipped a solve"
