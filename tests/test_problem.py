"""Unit tests for repro.core.problem (MCSSProblem, SolutionCost)."""

from __future__ import annotations

import pytest

from repro.core import MCSSProblem, subscriber_thresholds
from tests.conftest import make_unit_plan


class TestProblem:
    def test_capacity_from_plan(self, tiny_workload):
        problem = MCSSProblem(tiny_workload, 30, make_unit_plan(80.0))
        assert problem.capacity_bytes == 80.0

    def test_negative_tau_rejected(self, tiny_workload, unit_plan):
        with pytest.raises(ValueError):
            MCSSProblem(tiny_workload, -1, unit_plan)

    def test_nan_tau_rejected(self, tiny_workload, unit_plan):
        # NaN passes a `< 0` test, and every comparison with it is
        # False: GSP would select nothing and the audit flag no one.
        with pytest.raises(ValueError, match="tau"):
            MCSSProblem(tiny_workload, float("nan"), unit_plan)

    def test_infeasible_largest_pair_rejected(self, tiny_workload):
        # Most expensive pair needs 2*20 = 40 bytes.
        with pytest.raises(ValueError, match="infeasible"):
            MCSSProblem(tiny_workload, 30, make_unit_plan(39.0))
        MCSSProblem(tiny_workload, 30, make_unit_plan(40.0))  # boundary ok

    def test_thresholds_vector(self, tiny_problem):
        thresholds = subscriber_thresholds(tiny_problem.workload, tiny_problem.tau)
        assert thresholds.tolist() == [30.0, 30.0, 10.0]

    def test_empty_placement_bound_to_problem(self, tiny_problem):
        p = tiny_problem.empty_placement()
        assert p.capacity_bytes == tiny_problem.capacity_bytes
        assert p.workload is tiny_problem.workload


class TestSolutionCost:
    def test_cost_of_placement(self, tiny_problem):
        placement = tiny_problem.empty_placement()
        b = placement.new_vm()
        placement.assign(b, 1, [0, 1, 2])  # 30 out + 10 in = 40 B
        cost = tiny_problem.cost_of(placement)
        assert cost.num_vms == 1
        assert cost.total_bytes == 40.0
        assert cost.vm_usd == 10.0  # unit plan: $10/VM
        assert cost.bandwidth_usd == pytest.approx(40.0 / 1e9 * 0.12)
        assert cost.total_usd == pytest.approx(cost.vm_usd + cost.bandwidth_usd)

    def test_total_gb(self, tiny_problem):
        cost = tiny_problem.cost_components(0, 2.5e9)
        assert cost.total_gb == pytest.approx(2.5)

    def test_cost_components_zero(self, tiny_problem):
        cost = tiny_problem.cost_components(0, 0.0)
        assert cost.total_usd == 0.0
