"""Tests for the LP-relaxation lower bound."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bounds import best_lower_bound, lower_bound, lp_lower_bound
from repro.core import MCSSProblem, Workload
from repro.exact import solve_exact
from repro.pricing import (
    FreeBandwidthCost,
    LinearVMCost,
    PricingPlan,
    TieredBandwidthCost,
    get_instance,
)
from repro.solver import MCSSSolver
from tests.conftest import make_unit_plan, random_workload


class TestLPBoundSoundness:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("tau", [3, 12, 40])
    def test_below_heuristic(self, seed, tau):
        rng = np.random.default_rng(seed + 300)
        w = random_workload(rng, max_topics=8, max_subscribers=10)
        capacity = 2.5 * 2.0 * float(w.event_rates.max())
        problem = MCSSProblem(w, tau, make_unit_plan(capacity, vm_price=4.0))
        solution = MCSSSolver.paper().solve(problem)
        lp = lp_lower_bound(problem)
        assert lp.total_usd <= solution.cost.total_usd * (1 + 1e-6)

    def test_tau_zero_bound_is_zero(self):
        # Every subscriber's row drops out (tau_v = 0): the LP has no
        # constraints and its optimum is the empty deployment.
        w = Workload([3.0, 5.0], [[0], [1], [0, 1]], message_size_bytes=1.0)
        problem = MCSSProblem(w, 0.0, make_unit_plan(100.0, vm_price=3.0))
        assert lp_lower_bound(problem).total_usd == 0.0
        assert best_lower_bound(problem).total_usd == 0.0

    def test_below_exact_optimum(self):
        w = Workload([4.0, 7.0, 3.0], [[0, 1], [1, 2], [0, 2]], message_size_bytes=1.0)
        problem = MCSSProblem(w, 6, make_unit_plan(20.0, vm_price=3.0))
        exact = solve_exact(problem, max_vms=3)
        lp = lp_lower_bound(problem)
        assert lp.total_usd <= exact.cost.total_usd * (1 + 1e-6)

    def test_pays_for_ingest_unlike_alg5(self):
        # One subscriber per topic, tau above every rate sum: every
        # pair is forced, so the true volume is out + in = 2x the
        # outgoing.  Algorithm 5 charges only the outgoing; the LP
        # charges both and is strictly tighter here.
        w = Workload([10.0, 10.0], [[0], [1]], message_size_bytes=1.0)
        problem = MCSSProblem(w, 1000, make_unit_plan(100.0, vm_price=0.0,
                                                      usd_per_gb=1e9))
        alg5 = lower_bound(problem)
        lp = lp_lower_bound(problem)
        assert lp.total_usd > alg5.total_usd
        # And it is exact on this instance: volume = 40 events.
        assert lp.total_bytes == pytest.approx(40.0)

    def test_alg5_can_win_at_small_tau(self):
        # tau=1 with only big topics: Algorithm 5's min-rate clause
        # charges a whole topic (10); the LP serves a 1/10 fraction.
        w = Workload([10.0], [[0]], message_size_bytes=1.0)
        problem = MCSSProblem(w, 1, make_unit_plan(100.0, vm_price=0.0,
                                                   usd_per_gb=1e9))
        alg5 = lower_bound(problem)
        lp = lp_lower_bound(problem)
        assert alg5.total_usd > lp.total_usd

    def test_best_bound_takes_max(self):
        w = Workload([10.0], [[0]], message_size_bytes=1.0)
        problem = MCSSProblem(w, 1, make_unit_plan(100.0, vm_price=0.0,
                                                   usd_per_gb=1e9))
        best = best_lower_bound(problem)
        assert best.total_usd == pytest.approx(
            max(lower_bound(problem).total_usd, lp_lower_bound(problem).total_usd)
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_best_bound_sound(self, seed):
        rng = np.random.default_rng(seed + 900)
        w = random_workload(rng, max_topics=6, max_subscribers=8)
        capacity = 3.0 * 2.0 * float(w.event_rates.max())
        problem = MCSSProblem(w, 9, make_unit_plan(capacity, vm_price=2.0))
        solution = MCSSSolver.paper().solve(problem)
        assert best_lower_bound(problem).total_usd <= solution.cost.total_usd * (
            1 + 1e-6
        )


class TestLPBoundEdges:
    def test_empty_workload_pairs(self):
        w = Workload([5.0], [[]], message_size_bytes=1.0)
        problem = MCSSProblem(w, 10, make_unit_plan(100.0))
        assert lp_lower_bound(problem).total_usd == 0.0

    def test_nonlinear_c2_rejected(self, tiny_workload):
        plan = PricingPlan(
            instance=get_instance("c3.large"),
            bandwidth_cost=TieredBandwidthCost(),
        )
        problem = MCSSProblem(tiny_workload, 30, plan)
        from repro.bounds.lp import LPBoundError

        with pytest.raises(LPBoundError, match="linear"):
            lp_lower_bound(problem)

    def test_nonlinear_c1_rejected(self, tiny_workload):
        plan = PricingPlan(
            instance=get_instance("c3.large"),
            vm_cost=lambda num_vms: 10.0 * num_vms**2,
        )
        problem = MCSSProblem(tiny_workload, 30, plan)
        from repro.bounds.lp import LPBoundError

        with pytest.raises(LPBoundError, match="LinearVMCost"):
            lp_lower_bound(problem)

    def test_free_bandwidth_prices_only_the_fleet(self, tiny_workload):
        plan = PricingPlan(
            instance=get_instance("c3.large"),
            period_hours=1.0,
            bandwidth_cost=FreeBandwidthCost(),
            vm_cost=LinearVMCost(10.0),
            capacity_bytes_override=80.0,
        )
        lp = lp_lower_bound(MCSSProblem(tiny_workload, 30, plan))
        # Same fractional fleet as with paid bandwidth (100 event-bytes
        # over BC=80), but the bytes themselves cost nothing.
        assert lp.bandwidth_usd == 0.0
        assert lp.vm_usd == pytest.approx(12.5)
        assert lp.total_usd == pytest.approx(12.5)

    def test_pair_guard(self, tiny_workload, monkeypatch):
        import repro.bounds.lp as lp_mod

        monkeypatch.setattr(lp_mod, "_MAX_PAIRS", tiny_workload.num_pairs - 1)
        problem = MCSSProblem(tiny_workload, 30, make_unit_plan(100.0))
        with pytest.raises(lp_mod.LPBoundError, match="guard"):
            lp_lower_bound(problem)

    def test_best_bound_falls_back_to_alg5(self, tiny_workload):
        # A tiered C2 has no LP bound, so the best bound is Algorithm 5.
        plan = PricingPlan(
            instance=get_instance("c3.large"),
            bandwidth_cost=TieredBandwidthCost(),
        )
        problem = MCSSProblem(tiny_workload, 30, plan)
        assert best_lower_bound(problem) == lower_bound(problem)

    def test_fractional_vm_cost_component(self, tiny_workload):
        problem = MCSSProblem(tiny_workload, 30, make_unit_plan(80.0, vm_price=10.0))
        lp = lp_lower_bound(problem)
        # Full load is 100 event-bytes over BC=80 -> Y >= 1.25.
        assert lp.vm_usd == pytest.approx(12.5)
        assert lp.num_vms == 2  # display rounding
