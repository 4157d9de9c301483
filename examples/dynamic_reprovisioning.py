#!/usr/bin/env python
"""Dynamic reprovisioning under workload churn (the paper's future work).

Section IV-F suggests re-running the allocator periodically; Section VI
leaves a true online algorithm as future work.  This example runs that
extension: a Twitter-like workload churns for twelve epochs
(subscriptions, unsubscriptions, rate drift) and the incremental
reprovisioner patches the placement each epoch, falling back to a full
re-solve only when it drifts more than 15% above a fresh solution.

The fresh reference solve no longer runs every epoch: a calibrated
Algorithm-5 estimate prices each epoch in O(pairs) array work, and the
fresh solve runs only on the ``fresh_solve_every`` cadence (the paper's
periodic re-run as a safety net) or when the estimate suggests the
fleet may have drifted past the threshold -- watch the "fresh" column
to see which epochs actually paid for one.  It does not select again:
the maintained pairs already are GSP's selection of the epoch's
workload, so it re-packs them with full CBP and audits the result,
which costs exactly what a from-scratch solve would.

Watch the columns: the incremental fleet tracks the fresh-solve cost
closely while touching only a small fraction of the pairs per epoch --
the stability/optimality trade-off an online system lives on.

Run:  python examples/dynamic_reprovisioning.py
"""

from repro import MCSSProblem, MCSSSolver, paper_plan
from repro.dynamic import ChurnConfig, ChurnModel, IncrementalReprovisioner
from repro.experiments import calibrate_fraction, format_table
from repro.workloads import TwitterConfig, TwitterWorkloadGenerator


def main() -> None:
    trace = TwitterWorkloadGenerator(TwitterConfig(num_users=4000)).generate(seed=5)
    workload = trace.workload
    print(trace.describe())

    plan = paper_plan("c3.large").scaled(calibrate_fraction(workload, target_vms=50))
    problem = MCSSProblem(workload, tau=100, plan=plan)

    reprov = IncrementalReprovisioner(
        problem, rebuild_threshold=1.15, fresh_solve_every=4
    )
    churn = ChurnModel(
        workload,
        ChurnConfig(
            unsubscribe_fraction=0.02,
            subscribe_fraction=0.02,
            rate_drift_sigma=0.05,
        ),
        seed=13,
    )

    rows = []
    for _ in range(12):
        epoch = reprov.step(churn.step())
        rows.append(
            [
                epoch.epoch,
                epoch.cost.num_vms,
                epoch.cost.total_usd,
                f"{epoch.drift:.3f}{'' if epoch.fresh_solved else '*'}",
                epoch.pairs_added + epoch.pairs_removed + epoch.pairs_moved,
                "yes" if epoch.fresh_solved else "",
                "yes" if epoch.rebuilt else "",
            ]
        )

    print()
    print(
        format_table(
            "Twelve epochs of churn (drift = incremental / fresh solve; "
            "* = vs the calibrated estimate, no fresh solve paid)",
            ["epoch", "VMs", "total $", "drift", "pairs touched", "fresh", "rebuilt"],
            rows,
        )
    )


if __name__ == "__main__":
    main()
