"""Tests for KnapsackSelectPairs (exact per-subscriber selection)."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MCSSProblem, Workload, all_satisfied
from repro.selection import GreedySelectPairs, KnapsackSelectPairs, min_cover_subset
from tests.conftest import make_unit_plan


def brute_force_min_cover(rates, need):
    """Smallest rate-sum subset covering `need`, by enumeration."""
    best = None
    for r in range(len(rates) + 1):
        for combo in itertools.combinations(range(len(rates)), r):
            total = sum(rates[i] for i in combo)
            if total >= need and (best is None or total < best):
                best = total
    return best


class TestMinCoverSubset:
    def test_zero_need(self):
        assert min_cover_subset([3.0, 2.0], 0.0) == []

    def test_single_item(self):
        assert min_cover_subset([5.0], 3.0) == [0]

    def test_picks_cheaper_combination_than_greedy(self):
        # Greedy (largest-fitting-first) pays 7 + 5 = 12 for need 10;
        # the DP finds 5 + 6 = 11.
        picked = min_cover_subset([7.0, 5.0, 6.0], 10.0)
        assert sorted(picked) == [1, 2]

    def test_infeasible_raises(self):
        with pytest.raises(ValueError, match="cannot cover"):
            min_cover_subset([1.0, 2.0], 10.0)

    def test_bad_resolution(self):
        with pytest.raises(ValueError):
            min_cover_subset([1.0], 1.0, resolution=0)

    @given(
        rates=st.lists(st.integers(min_value=1, max_value=25), min_size=1, max_size=9),
        need=st.integers(min_value=1, max_value=100),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, rates, need):
        rates_f = [float(r) for r in rates]
        if sum(rates) < need:
            with pytest.raises(ValueError):
                min_cover_subset(rates_f, float(need))
            return
        picked = min_cover_subset(rates_f, float(need))
        total = sum(rates_f[i] for i in picked)
        assert total >= need
        assert total == pytest.approx(brute_force_min_cover(rates_f, need))

    def test_result_indices_unique(self):
        picked = min_cover_subset([2.0, 2.0, 2.0], 6.0)
        assert sorted(picked) == [0, 1, 2]


class TestKnapsackSelectPairs:
    def test_satisfies_all(self, small_zipf):
        for tau in (5, 50):
            problem = MCSSProblem(small_zipf, tau, make_unit_plan(1e12))
            selection = KnapsackSelectPairs().select(problem)
            assert all_satisfied(small_zipf, selection.topics_by_subscriber(), tau)

    def test_never_worse_than_greedy(self, small_zipf):
        # DP is per-subscriber optimal; greedy is per-subscriber
        # heuristic; the single-VM bandwidth must satisfy DP <= GSP.
        for tau in (5, 50, 500):
            problem = MCSSProblem(small_zipf, tau, make_unit_plan(1e12))
            dp = KnapsackSelectPairs().select(problem)
            greedy = GreedySelectPairs().select(problem)
            assert dp.outgoing_rate(small_zipf) <= greedy.outgoing_rate(
                small_zipf
            ) * (1 + 1e-9)

    def test_beats_greedy_on_crafted_instance(self):
        w = Workload([7.0, 5.0, 6.0], [[0, 1, 2]])
        problem = MCSSProblem(w, 10, make_unit_plan(1e9))
        dp = KnapsackSelectPairs().select(problem)
        greedy = GreedySelectPairs().select(problem)
        assert dp.outgoing_rate(w) == 11.0
        assert greedy.outgoing_rate(w) == 12.0

    def test_invalid_resolution(self):
        with pytest.raises(ValueError):
            KnapsackSelectPairs(resolution=0)

    def test_empty_interest_subscriber_ignored(self):
        w = Workload([5.0, 3.0], [[], [0, 1], []])
        selection = KnapsackSelectPairs().select(
            MCSSProblem(w, 3, make_unit_plan(1e9))
        )
        assert set(selection) == {(1, 1)}

    def test_tau_zero_selects_nothing(self):
        w = Workload([5.0, 3.0], [[0, 1], [1]])
        selection = KnapsackSelectPairs().select(
            MCSSProblem(w, 0, make_unit_plan(1e9))
        )
        assert selection.num_pairs == 0
