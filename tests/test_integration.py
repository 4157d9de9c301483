"""End-to-end integration tests: trace -> solve -> audit -> bound."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bounds import lower_bound
from repro.core import MCSSProblem, validate_placement, validate_placement_loop
from repro.dynamic import ChurnConfig, ChurnModel, IncrementalReprovisioner
from repro.exact import solve_exact
from repro.experiments import ExperimentScale, make_plan, make_trace
from repro.solver import MCSSSolver
from repro.workloads import load_workload, sample_subscribers, save_workload
from tests.conftest import make_unit_plan


SCALE = ExperimentScale(num_users=1500, seed=17, target_vms=20)


@pytest.fixture(scope="module", params=["spotify", "twitter"])
def trace(request):
    return make_trace(request.param, SCALE)


class TestFullPipeline:
    def test_generate_solve_audit_bound(self, trace):
        plan = make_plan("c3.large", trace.workload, SCALE)
        problem = MCSSProblem(trace.workload, 100, plan)
        solution = MCSSSolver.paper().solve(problem)

        audit = validate_placement_loop(problem, solution.placement)
        assert audit.ok, str(audit)
        assert problem.cost_of(solution.placement) == solution.cost
        bound = lower_bound(problem)
        assert bound.total_usd <= solution.cost.total_usd * (1 + 1e-9)

    def test_both_instance_types_same_workload(self, trace):
        # Figure 2a vs 2b: the xlarge fleet is roughly half the size.
        large = MCSSProblem(
            trace.workload, 100, make_plan("c3.large", trace.workload, SCALE)
        )
        xlarge = MCSSProblem(
            trace.workload, 100, make_plan("c3.xlarge", trace.workload, SCALE)
        )
        a = MCSSSolver.paper().solve(large)
        b = MCSSSolver.paper().solve(xlarge)
        assert b.cost.num_vms < a.cost.num_vms
        assert b.cost.num_vms >= a.cost.num_vms / 4

    def test_sampled_trace_roundtrip_through_disk(self, trace, tmp_path):
        sampled = sample_subscribers(trace.workload, 0.5, seed=1)
        path = tmp_path / "sampled.npz"
        save_workload(sampled, path)
        loaded = load_workload(path)
        plan = make_plan("c3.large", loaded, SCALE)
        problem = MCSSProblem(loaded, 50, plan)
        solution = MCSSSolver.paper().solve(problem)
        assert solution.validation.ok


class TestHeuristicVsExactSmall:
    def test_two_stage_near_optimal_on_small_instances(self):
        # Section III-C's claim, quantified: across seeds the two-stage
        # heuristic lands within 2x of the true optimum (it is usually
        # far closer; 2x is the hard ceiling we enforce).
        rng = np.random.default_rng(99)
        worst = 1.0
        for _ in range(6):
            from tests.conftest import random_workload

            w = random_workload(rng, max_topics=4, max_subscribers=4, max_rate=9)
            capacity = 2.5 * 2.0 * float(w.event_rates.max())
            problem = MCSSProblem(w, 7, make_unit_plan(capacity, vm_price=5.0))
            exact = solve_exact(problem, max_vms=4)
            heuristic = MCSSSolver.paper().solve(problem)
            ratio = heuristic.cost.total_usd / exact.cost.total_usd
            worst = max(worst, ratio)
        assert worst < 2.0


class TestDynamicScenario:
    def test_week_of_churn(self, trace):
        plan = make_plan("c3.large", trace.workload, SCALE)
        problem = MCSSProblem(trace.workload, 50, plan)
        reprov = IncrementalReprovisioner(problem, rebuild_threshold=1.25)
        model = ChurnModel(
            trace.workload, ChurnConfig(0.02, 0.02, 0.05), seed=3
        )
        costs = []
        for _ in range(3):
            epoch = reprov.step(model.step())
            costs.append(epoch.cost.total_usd)
            audit = validate_placement(reprov.problem, reprov.placement())
            assert audit.ok
            assert epoch.drift <= 1.25 + 1e-6
        assert all(c > 0 for c in costs)
