"""Tests for the exact MILP solver (and brute force as trust anchor)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import MCSSProblem, Workload, validate_placement
from repro.exact import solve_bruteforce, solve_dcss, solve_exact
from repro.exact.milp import ExactSolverError
from repro.pricing import TieredBandwidthCost, PricingPlan, get_instance
from repro.solver import MCSSSolver
from tests.conftest import make_unit_plan, random_workload


class TestSolveExact:
    def test_tiny_instance_optimal(self, tiny_workload):
        problem = MCSSProblem(tiny_workload, 30, make_unit_plan(100.0))
        solution = solve_exact(problem, max_vms=2)
        assert solution.optimal
        # Everything fits one VM: full load is 100 B -> $10 + tiny BW.
        assert solution.cost.num_vms == 1
        assert validate_placement(problem, solution.placement).ok

    def test_selects_cheap_subset_only(self):
        # One subscriber, tau=5, topics rates 5 and 50: optimum serves
        # only the rate-5 topic (cost 10 B), never the big one.  The
        # byte price is cranked up so the difference clears the MIP
        # gap tolerance.
        w = Workload([5.0, 50.0], [[0, 1]], message_size_bytes=1.0)
        problem = MCSSProblem(w, 5, make_unit_plan(200.0, usd_per_gb=1e9))
        solution = solve_exact(problem, max_vms=2)
        assert solution.cost.total_bytes == pytest.approx(10.0)

    def test_respects_capacity(self):
        w = Workload([10.0], [[0]] * 4, message_size_bytes=1.0)
        problem = MCSSProblem(w, 10, make_unit_plan(30.0))
        solution = solve_exact(problem, max_vms=4)
        assert solution.cost.num_vms >= 2
        assert validate_placement(problem, solution.placement).ok

    def test_vm_vs_bandwidth_tradeoff(self):
        # Expensive VMs: the optimum packs every pair into as few VMs
        # as possible even at extra ingest cost.
        w = Workload([10.0, 10.0], [[0], [1]], message_size_bytes=1.0)
        problem = MCSSProblem(w, 10, make_unit_plan(40.0, vm_price=1000.0))
        solution = solve_exact(problem, max_vms=2)
        assert solution.cost.num_vms == 1

    def test_nonlinear_c2_rejected(self, tiny_workload):
        plan = PricingPlan(
            instance=get_instance("c3.large"),
            bandwidth_cost=TieredBandwidthCost(),
        )
        problem = MCSSProblem(tiny_workload, 30, plan)
        with pytest.raises(ExactSolverError, match="linear"):
            solve_exact(problem, max_vms=2)

    def test_nonlinear_c1_rejected(self, tiny_workload):
        plan = PricingPlan(
            instance=get_instance("c3.large"),
            vm_cost=lambda num_vms: 10.0 * num_vms**2,
        )
        problem = MCSSProblem(tiny_workload, 30, plan)
        with pytest.raises(ExactSolverError, match="LinearVMCost"):
            solve_exact(problem, max_vms=2)

    def test_default_fleet_bound_reaches_the_optimum(self):
        # Four rate-10 pairs, BC=30: one VM holds two pairs, so the
        # default bound ceil(2 * 40 / 30) = 3 VMs leaves the optimum
        # (two VMs) reachable.
        w = Workload([10.0], [[0]] * 4, message_size_bytes=1.0)
        problem = MCSSProblem(w, 10, make_unit_plan(30.0))
        default = solve_exact(problem)
        explicit = solve_exact(problem, max_vms=4)
        assert default.optimal
        assert default.cost.num_vms == explicit.cost.num_vms == 2
        assert default.cost.total_usd == pytest.approx(explicit.cost.total_usd)
        assert validate_placement(problem, default.placement).ok

    def test_non_positive_max_vms_rejected(self, tiny_workload):
        problem = MCSSProblem(tiny_workload, 30, make_unit_plan(100.0))
        with pytest.raises(ExactSolverError, match="max_vms must be positive"):
            solve_exact(problem, max_vms=0)

    def test_time_limit_reaches_the_solver(self, tiny_workload, monkeypatch):
        import repro.exact.milp as milp_mod

        seen = []
        real = milp_mod.milp

        def spy(*args, **kwargs):
            seen.append(kwargs.get("options"))
            return real(*args, **kwargs)

        monkeypatch.setattr(milp_mod, "milp", spy)
        problem = MCSSProblem(tiny_workload, 30, make_unit_plan(100.0))
        solution = solve_exact(problem, max_vms=2, time_limit=60.0)
        assert seen == [{"time_limit": 60.0}]
        assert solution.optimal and solution.cost.num_vms == 1

    def test_variable_guard(self):
        w = Workload(np.ones(100), [list(range(100))] * 100, message_size_bytes=1.0)
        problem = MCSSProblem(w, 100, make_unit_plan(1e9))
        with pytest.raises(ExactSolverError, match="variables"):
            solve_exact(problem, max_vms=30)


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(12))
    def test_milp_matches_bruteforce(self, seed):
        rng = np.random.default_rng(seed + 100)
        w = random_workload(rng, max_topics=3, max_subscribers=3, max_rate=9)
        capacity = 2.0 * 2.0 * float(w.event_rates.max())
        problem = MCSSProblem(w, 6, make_unit_plan(capacity, vm_price=3.0))
        milp = solve_exact(problem, max_vms=3)
        brute = solve_bruteforce(problem, max_vms=3)
        assert milp.cost.total_usd == pytest.approx(
            brute.cost.total_usd, rel=1e-6
        )
        assert validate_placement(problem, milp.placement).ok
        assert validate_placement(problem, brute.placement).ok

    def test_bruteforce_infeasible_fleet_rejected(self):
        # One VM (BC=30) holds only two of the four rate-10 pairs.
        w = Workload([10.0], [[0]] * 4, message_size_bytes=1.0)
        problem = MCSSProblem(w, 10, make_unit_plan(30.0))
        with pytest.raises(ValueError, match="no feasible assignment within 1 VMs"):
            solve_bruteforce(problem, max_vms=1)
        assert solve_bruteforce(problem, max_vms=2).cost.num_vms == 2

    def test_bruteforce_guard(self):
        w = Workload(np.ones(5), [list(range(5))] * 6, message_size_bytes=1.0)
        problem = MCSSProblem(w, 5, make_unit_plan(100.0))
        with pytest.raises(ValueError, match="guard"):
            solve_bruteforce(problem, max_vms=4)


class TestHeuristicGap:
    """Section III-C: the two-stage split is near-optimal in practice."""

    @pytest.mark.parametrize("seed", range(10))
    def test_heuristic_never_beats_exact(self, seed):
        rng = np.random.default_rng(seed + 500)
        w = random_workload(rng, max_topics=4, max_subscribers=4, max_rate=10)
        capacity = 2.5 * 2.0 * float(w.event_rates.max())
        problem = MCSSProblem(w, 8, make_unit_plan(capacity, vm_price=5.0))
        exact = solve_exact(problem, max_vms=4)
        heuristic = MCSSSolver.paper().solve(problem)
        assert exact.cost.total_usd <= heuristic.cost.total_usd * (1 + 1e-9)


class TestDCSS:
    def test_decision_thresholds(self, tiny_workload):
        problem = MCSSProblem(tiny_workload, 30, make_unit_plan(100.0))
        optimum = solve_exact(problem, max_vms=2).cost.total_usd
        assert solve_dcss(problem, optimum, max_vms=2)
        assert solve_dcss(problem, optimum * 2, max_vms=2)
        assert not solve_dcss(problem, optimum * 0.5, max_vms=2)
