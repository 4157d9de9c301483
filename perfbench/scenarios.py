"""The benchmark workloads and their correctness gates.

Each workload generates its inputs from the seed, then offers

* ``setup()`` -- returns ``(seconds, state)``.  The timed part runs from
  generated inputs in hand to a state ready for the first timed
  operation; inputs are copied first, outside the timer, so lazy caches
  start cold every time.
* ``run_pass(state, index, audit)`` -- pass ``index`` of the workload's
  ``passes`` per cycle: a fixed schedule of operations, each timed on its
  own, then the correctness gate, outside every timed region.  A run
  repeats whole cycles, at least ``min_cycles`` of them.

Every pass is deterministic per seed.  The first cycle is the reference;
a pass run again later must reproduce its costs and placement digest.
"""

from __future__ import annotations

import hashlib
import os
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.bounds import lower_bound
from repro.core import MCSSProblem, Workload, validate_placement
from repro.dynamic import ChurnConfig, ChurnModel, IncrementalReprovisioner
from repro.experiments.config import (
    PAPER_INSTANCES,
    PAPER_TAUS,
    ExperimentScale,
    make_plan,
    make_trace,
)
from repro.pricing import LinearBandwidthCost, LinearVMCost, PricingPlan, get_instance
from repro.serving import MicroEpochService, ServingConfig
from repro.solver import MCSSSolver
from repro.workloads import zipf_workload

from .hostspeed import Kernel
from .stats import FAILED


@dataclass
class PassResult:
    """One pass: per-operation seconds plus what the gate saw."""

    seconds: List[float]
    kernel_s: List[float]  # the host-speed kernel, timed before each operation
    ops: int
    costs: List[float]  # USD per operation
    ratios: List[float]  # cost / Algorithm-5 lower bound, per operation
    digest: str
    ok: bool
    counts: Dict[str, int] = field(default_factory=dict)


def fresh_copy(workload: Workload) -> Workload:
    """The same workload as a new object, with every lazy cache empty."""
    return Workload.from_csr(
        workload.event_rates,
        workload.interest_indptr,
        workload.interest_topics,
        message_size_bytes=workload.message_size_bytes,
        validate=False,
    )


def pairs_digest(*arrays: np.ndarray) -> str:
    """SHA-256 over int64 pair arrays (already in canonical order)."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
    return h.hexdigest()


def placement_digest(placement) -> str:
    """Digest of a placement's (subscriber, topic, vm) rows, sorted."""
    vms, topics, sizes, subs = placement.assignment_arrays()
    vm_rows = np.repeat(vms, sizes)
    topic_rows = np.repeat(topics, sizes)
    order = np.lexsort((vm_rows, topic_rows, subs))
    return pairs_digest(subs[order], topic_rows[order], vm_rows[order])


def _report_failure() -> None:
    traceback.print_exc(file=sys.stderr)


class PlanWorkload:
    """Offline planning: the paper's Figures 2-7 sweep, round-robin.

    Twitter- and Spotify-shaped traces, both VM types and the three
    satisfaction thresholds: twelve ``MCSSSolver.paper().solve`` calls
    per pass.  Every solve is independent, so a raise fails only itself.
    The Spotify trace has twice the users: at equal user counts its
    solves are 2-4x cheaper than Twitter's.  Even so the twelve solves
    are twelve kinds of operation, so ``op_s.p50`` is the median pass
    mean, not the pooled median (see :mod:`perfbench.stats`).
    """

    name = "plan"
    op_label = "solve_s"
    pooled_p50 = False
    passes = 1
    # Four passes put 16 samples in the slowest population (the tau=1000
    # solves, a third of the mix), so the tail lands inside it.
    min_cycles = 4
    reuses_state = True
    USERS = {"twitter": 100_000, "spotify": 250_000}

    def __init__(self, seed: int) -> None:
        self.scales = [ExperimentScale(num_users=n, seed=seed) for n in self.USERS.values()]
        self.traces = [
            make_trace(name, scale).workload for name, scale in zip(self.USERS, self.scales)
        ]
        self.solver = MCSSSolver.paper()
        self.kernel = Kernel()
        self.reference_costs: List[float] = []

    def setup(self):
        copies = [fresh_copy(w) for w in self.traces]
        t0 = time.perf_counter()
        problems = []
        for workload, scale in zip(copies, self.scales):
            plans = {inst: make_plan(inst, workload, scale) for inst in PAPER_INSTANCES}
            # Warm-up solve: fills the workload's lazy caches, which every
            # later solve on this trace shares.
            self.solver.solve(MCSSProblem(workload, PAPER_TAUS[0], plans[PAPER_INSTANCES[0]]))
            problems += [
                MCSSProblem(workload, tau, plans[inst])
                for inst in PAPER_INSTANCES
                for tau in PAPER_TAUS
            ]
        return time.perf_counter() - t0, problems

    @staticmethod
    def cost_usd(costs: List[float]) -> float:
        """The mix's cost: the sum over its solutions."""
        return sum(costs)

    def run_pass(self, problems, index: int, audit: bool) -> PassResult:
        seconds: List[float] = []
        kernel_s: List[float] = []
        costs: List[float] = []
        ratios: List[float] = []
        digests: List[str] = []
        ok = True
        for problem in problems:
            kernel_s.append(self.kernel())
            t0 = time.perf_counter()
            try:
                solution = self.solver.solve(problem)
            except Exception:  # a raising solve is a counted failure
                _report_failure()
                seconds.append(FAILED)
                costs.append(float("nan"))
                ok = False
                continue
            seconds.append(time.perf_counter() - t0)
            cost = solution.cost.total_usd
            costs.append(cost)
            if audit:
                bound = lower_bound(problem).total_usd
                ratios.append(cost / bound)
                if not (validate_placement(problem, solution.placement).ok and cost >= bound):
                    seconds[-1] = FAILED
                    ok = False
                digests.append(placement_digest(solution.placement))
        if audit:
            self.reference_costs = costs
        elif costs != self.reference_costs:
            ok = False
        return PassResult(
            seconds=seconds,
            kernel_s=kernel_s,
            ops=len(problems),
            costs=costs,
            ratios=ratios,
            digest=hashlib.sha256("".join(digests).encode()).hexdigest(),
            ok=ok,
        )


class ServeWorkload:
    """``MicroEpochService`` under closed-loop churn, one epoch per seal.

    A 100k-subscriber zipf workload with the serving capacity rule (2.5x
    the hottest topic's rate, or an eighth of the total), tau = 100,
    ``fresh_solve_every=8`` and a checkpoint every 8 micro-epochs.  Each
    pass serves ``epochs`` micro-epochs from a freshly built service with
    its own churn stream, seeded from the workload seed and the pass
    index.  An epoch that raises fails itself and the rest of its pass.
    """

    op_label = "epoch_s"
    pooled_p50 = True
    min_cycles = 1
    reuses_state = False
    TAU = 100.0
    CHECKPOINT_EVERY = 8
    MAX_CHURN_SEEDS = 32

    def __init__(
        self,
        name: str,
        sigma: float,
        users: int,
        passes: int,
        epochs: int,
        seed: int,
        work_dir: str,
    ) -> None:
        self.name = name
        self.passes = passes
        self.epochs = epochs
        self.workload = zipf_workload(max(100, users // 50), users, mean_interest=8.0, seed=seed)
        rates = self.workload.event_rates
        capacity = (
            max(2.5 * float(rates.max()), float(rates.sum()) / 8.0)
            * self.workload.message_size_bytes
        )
        self.plan = PricingPlan(
            instance=get_instance("c3.large"),
            period_hours=1.0,
            bandwidth_cost=LinearBandwidthCost(0.12),
            vm_cost=LinearVMCost(10.0),
            capacity_bytes_override=float(capacity),
        )
        self.config = ServingConfig(
            checkpoint_path=os.path.join(work_dir, f"{name}.ckpt.npz"),
            checkpoint_every=self.CHECKPOINT_EVERY,
        )
        self.churn = ChurnConfig(0.01, 0.01, sigma)
        self.churn_seeds = [self._feasible_churn_seed(seed, i) for i in range(passes)]
        self.kernel = Kernel()
        self.references: Dict[int, PassResult] = {}

    def _feasible_churn_seed(self, seed: int, index: int) -> int:
        """The first churn seed for pass ``index`` that keeps every pair placeable.

        Rate drift can push the hottest topic past half a VM, which
        makes ``MCSSProblem`` raise -- an open robustness item of the
        program, not what this benchmark measures.  Candidates derive
        from the workload seed alone, so inputs still depend on it only.
        """
        for attempt in range(self.MAX_CHURN_SEEDS):
            candidate = int(np.random.SeedSequence([seed, index, attempt]).generate_state(1)[0])
            if self.churn.rate_drift_sigma == 0:
                return candidate
            model = ChurnModel(self.workload, self.churn, seed=candidate)
            try:
                for _ in range(self.epochs):
                    MCSSProblem(model.step().workload, self.TAU, self.plan)
            except ValueError:
                continue
            return candidate
        raise RuntimeError(f"no feasible churn seed derived from {seed}")

    def setup(self):
        workload = fresh_copy(self.workload)
        t0 = time.perf_counter()
        service = MicroEpochService(MCSSProblem(workload, self.TAU, self.plan), self.config)
        return time.perf_counter() - t0, (service, workload)

    @staticmethod
    def cost_usd(costs: List[float]) -> float:
        """The fleet's mean cost per epoch."""
        return float(np.mean(costs))

    def run_pass(self, state, index: int, audit: bool) -> PassResult:
        service, workload = state
        model = ChurnModel(workload, self.churn, seed=self.churn_seeds[index])
        seconds: List[float] = []
        kernel_s: List[float] = []
        costs: List[float] = []
        ratios: List[float] = []
        ops = 0
        counts = dict.fromkeys(
            ("pairs_added", "pairs_removed", "pairs_moved", "fresh_solves", "rebuilds"), 0
        )
        for epoch in range(self.epochs):
            delta = model.step()
            kernel_s.append(self.kernel())
            t0 = time.perf_counter()
            try:
                service.ingest_delta(delta)
                served = service.run_micro_epoch(delta.workload, delta.changed_topics)
            except Exception:  # a raising epoch fails the rest of its pass
                _report_failure()
                seconds += [FAILED] * (self.epochs - epoch)
                return PassResult(seconds, kernel_s, ops, costs, ratios, "", False, counts)
            seconds.append(time.perf_counter() - t0)
            report = served.report
            ops += served.ops
            costs.append(report.cost.total_usd)
            ratios.append(costs[-1] / lower_bound(service.reprovisioner.problem).total_usd)
            counts["pairs_added"] += report.pairs_added
            counts["pairs_removed"] += report.pairs_removed
            counts["pairs_moved"] += report.pairs_moved
            counts["fresh_solves"] += int(report.fresh_solved)
            counts["rebuilds"] += int(report.rebuilt)

        reprovisioner = service.reprovisioner
        ok = validate_placement(reprovisioner.problem, service.placement()).ok
        snapshot = reprovisioner.snapshot()
        try:
            IncrementalReprovisioner.restore(snapshot, self.plan)
        except ValueError:
            _report_failure()
            ok = False
        if not ok:
            # The invalid state cannot be traced to one epoch: fail them all.
            seconds = [FAILED] * len(seconds)
        result = PassResult(
            seconds=seconds,
            kernel_s=kernel_s,
            ops=ops,
            costs=costs,
            ratios=ratios,
            digest=pairs_digest(
                snapshot["pair_subscribers"], snapshot["pair_topics"], snapshot["pair_vms"]
            ),
            ok=ok,
            counts=counts,
        )
        if audit:
            self.references[index] = result
        elif (result.digest, result.costs) != (
            self.references[index].digest,
            self.references[index].costs,
        ):
            result.ok = False
        return result


def make_workload(name: str, seed: int, work_dir: str):
    """Build the named workload's inputs from ``seed``."""
    if name == "plan":
        return PlanWorkload(seed)
    if name == "serve-steady":
        return ServeWorkload(name, 0.0, 100_000, passes=2, epochs=56, seed=seed, work_dir=work_dir)
    if name == "serve-drift":
        # Short passes: over a long pass the random walk of the hottest
        # topic's rate decides how many pairs each epoch evicts, so one
        # stream's timings depend on the seed more than on the code.
        # Four passes from fresh placements average four walks.
        return ServeWorkload(name, 0.02, 50_000, passes=8, epochs=8, seed=seed, work_dir=work_dir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("plan", "serve-steady", "serve-drift")
