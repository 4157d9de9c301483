"""Tests for RandomSelectPairs (the naive Stage-1 baseline)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import MCSSProblem, Workload, all_satisfied
from repro.selection import GreedySelectPairs, RandomSelectPairs, get_selector
from tests.conftest import make_unit_plan


class TestRandomSelectPairs:
    @pytest.mark.parametrize("tau", [1, 10, 500])
    def test_satisfies_all(self, small_zipf, tau):
        problem = MCSSProblem(small_zipf, tau, make_unit_plan(1e12))
        selection = RandomSelectPairs().select(problem)
        assert all_satisfied(small_zipf, selection.topics_by_subscriber(), tau)

    def test_interest_order_without_seed(self):
        # Stored order: topic 0 (rate 2) then topic 1 (rate 50); tau=2
        # is met by the first pair alone.
        w = Workload([2.0, 50.0], [[0, 1]])
        selection = RandomSelectPairs().select(MCSSProblem(w, 2, make_unit_plan(1e9)))
        assert set(selection) == {(0, 0)}

    def test_stops_at_threshold(self):
        w = Workload([5.0, 5.0, 5.0], [[0, 1, 2]])
        selection = RandomSelectPairs().select(MCSSProblem(w, 9, make_unit_plan(1e9)))
        assert selection.num_pairs == 2

    def test_seeded_runs_reproducible(self, small_zipf):
        problem = MCSSProblem(small_zipf, 20, make_unit_plan(1e12))
        a = RandomSelectPairs(seed=11).select(problem)
        b = RandomSelectPairs(seed=11).select(problem)
        assert a == b

    def test_different_seeds_can_differ(self, small_zipf):
        problem = MCSSProblem(small_zipf, 20, make_unit_plan(1e12))
        a = RandomSelectPairs(seed=1).select(problem)
        b = RandomSelectPairs(seed=2).select(problem)
        assert a != b  # overwhelmingly likely for 200 subscribers

    def test_never_cheaper_than_greedy(self, small_zipf):
        # RSP is the baseline GSP must dominate on bandwidth.
        for tau in (5, 50, 500):
            problem = MCSSProblem(small_zipf, tau, make_unit_plan(1e12))
            greedy = GreedySelectPairs().select(problem)
            naive = RandomSelectPairs(seed=0).select(problem)
            assert greedy.single_vm_bytes(small_zipf) <= naive.single_vm_bytes(
                small_zipf
            ) * (1 + 1e-9)

    def test_empty_interest_subscriber_ignored(self):
        w = Workload([2.0, 50.0], [[], [0, 1], []])
        selection = RandomSelectPairs().select(MCSSProblem(w, 2, make_unit_plan(1e9)))
        assert set(selection) == {(0, 1)}

    def test_registry(self):
        assert isinstance(get_selector("rsp"), RandomSelectPairs)
        assert isinstance(get_selector("rsp", seed=3), RandomSelectPairs)
