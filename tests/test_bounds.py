"""Tests for the MCSS lower bound (Algorithm 5 / Theorem A.1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bounds import (
    lower_bound,
    lower_bound_bytes,
    subscriber_bound_terms,
    terms_lower_bound,
)
from repro.core import MCSSProblem, Workload
from repro.solver import MCSSSolver
from tests.conftest import make_unit_plan, random_workload


class TestLowerBoundValues:
    def test_tiny_instance_by_hand(self, tiny_workload):
        # tau=30: v0, v1 need 30; v2 needs min(30, 10)=10 but its only
        # topic has rate 10 -> max(10, 10) = 10.  Total = 70 events.
        problem = MCSSProblem(tiny_workload, 30, make_unit_plan(80.0))
        assert lower_bound_bytes(problem) == pytest.approx(70.0)
        bound = lower_bound(problem)
        assert bound.num_vms == 1  # ceil(70/80)
        assert bound.total_usd == pytest.approx(10.0 + 70 / 1e9 * 0.12)

    def test_min_rate_clause(self):
        # tau=5 but the only topics have rates 20 and 30: serving v
        # costs at least min(20, 30) = 20, not tau=5.
        w = Workload([20.0, 30.0], [[0, 1]], message_size_bytes=1.0)
        problem = MCSSProblem(w, 5, make_unit_plan(100.0))
        assert lower_bound_bytes(problem) == pytest.approx(20.0)

    def test_message_size_scales(self):
        w = Workload([10.0], [[0]], message_size_bytes=200.0)
        problem = MCSSProblem(w, 10, make_unit_plan(1e6))
        assert lower_bound_bytes(problem) == pytest.approx(2000.0)

    def test_empty_interest_contributes_nothing(self):
        # v0 (no interests) adds 0; v1 adds max(tau_v=5, min rate 10)
        # = 10 via the min-rate clause.
        w = Workload([10.0], [[], [0]], message_size_bytes=1.0)
        problem = MCSSProblem(w, 5, make_unit_plan(100.0))
        assert lower_bound_bytes(problem) == pytest.approx(10.0)

    def test_vm_count_rounds_up(self):
        w = Workload([10.0], [[0]] * 5, message_size_bytes=1.0)
        problem = MCSSProblem(w, 10, make_unit_plan(30.0))
        bound = lower_bound(problem)
        assert bound.num_vms == 2  # ceil(50/30)

    def test_forced_ingest_tightens(self, tiny_workload):
        problem = MCSSProblem(tiny_workload, 30, make_unit_plan(100.0))
        plain = lower_bound_bytes(problem)
        tight = lower_bound_bytes(problem, include_forced_ingest=True)
        # tau=30 >= every interest sum -> all topics forced -> +30.
        assert tight == pytest.approx(plain + 30.0)

    def test_forced_ingest_noop_when_tau_small(self, tiny_workload):
        problem = MCSSProblem(tiny_workload, 5, make_unit_plan(100.0))
        assert lower_bound_bytes(problem, True) == pytest.approx(
            lower_bound_bytes(problem, False)
        )


class TestSubscriberTerms:
    """The per-subscriber term that a kept bound vector refreshes."""

    def test_terms_by_hand(self):
        # v0 has no interest, v1 needs tau_v = 5 but its cheapest topic
        # carries 10, v2 reaches tau = 5 with 3 + 10; tau = 0 zeroes all.
        w = Workload([10.0, 3.0], [[], [0], [0, 1]], message_size_bytes=1.0)
        np.testing.assert_array_equal(subscriber_bound_terms(w, 5.0), [0.0, 10.0, 5.0])
        np.testing.assert_array_equal(subscriber_bound_terms(w, 0.0), [0.0, 0.0, 0.0])

    def test_nan_tau_rejected(self, tiny_workload):
        # NaN thresholds would zero every term: a $0 bound.
        with pytest.raises(ValueError, match="tau"):
            subscriber_bound_terms(tiny_workload, float("nan"))

    @pytest.mark.parametrize("seed", range(12))
    def test_view_terms_and_priced_sum_are_bitwise(self, seed):
        rng = np.random.default_rng(700 + seed)
        w = random_workload(rng, max_topics=12, max_subscribers=30, max_rate=50)
        tau = float(rng.choice([0.0, 7.0, 40.0, 1e9]))
        problem = MCSSProblem(w, tau, make_unit_plan(2.0 * 50 * 8))
        terms = subscriber_bound_terms(w, tau)
        assert terms_lower_bound(problem, terms) == lower_bound(problem)
        # A restrict_subscribers view yields those subscribers' terms.
        picked = np.flatnonzero(rng.random(w.num_subscribers) < 0.5)
        view = w.restrict_subscribers(picked)
        np.testing.assert_array_equal(subscriber_bound_terms(view, tau), terms[picked])


class TestLowerBoundSoundness:
    """The bound must never exceed the cost of any feasible solution."""

    @pytest.mark.parametrize("tau", [3, 12, 40])
    @pytest.mark.parametrize("seed", range(10))
    def test_below_heuristic_solutions(self, seed, tau):
        rng = np.random.default_rng(seed)
        w = random_workload(rng, max_topics=10, max_subscribers=12)
        capacity = 2.5 * 2.0 * float(w.event_rates.max())
        problem = MCSSProblem(w, tau, make_unit_plan(capacity))
        for solver in (MCSSSolver.paper(), MCSSSolver.naive()):
            solution = solver.solve(problem)
            for tight in (False, True):
                bound = lower_bound(problem, include_forced_ingest=tight)
                assert bound.total_usd <= solution.cost.total_usd * (1 + 1e-9)

    def test_below_exact_optimum(self):
        from repro.exact import solve_exact

        w = Workload([4.0, 7.0, 3.0], [[0, 1], [1, 2], [0, 2]], message_size_bytes=1.0)
        problem = MCSSProblem(w, 6, make_unit_plan(20.0))
        exact = solve_exact(problem, max_vms=3)
        for tight in (False, True):
            bound = lower_bound(problem, include_forced_ingest=tight)
            assert bound.total_usd <= exact.cost.total_usd * (1 + 1e-9)
