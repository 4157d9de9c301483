"""Tests for GreedySelectPairs: unit, equivalence, and properties."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MCSSProblem, Workload, all_satisfied
from repro.core.segsearch import grouping_order
from repro.selection import (
    GreedySelectPairs,
    LoopGreedySelectPairs,
    ReferenceGreedySelectPairs,
    SelectionAlgorithm,
    benefit_cost_ratio,
    get_selector,
    register_selector,
)
from tests.conftest import make_unit_plan, random_workload


class TestBenefitCostRatio:
    def test_satisfied_subscriber_zero_benefit(self):
        assert benefit_cost_ratio(5.0, 0.0) == 0.0
        assert benefit_cost_ratio(5.0, -3.0) == 0.0

    def test_non_exceeding_topics_share_ratio(self):
        # Algorithm 1: for ev <= rem the ratio is 1/(2*rem) regardless
        # of the topic's own rate.
        assert benefit_cost_ratio(3.0, 10.0) == pytest.approx(1 / 20)
        assert benefit_cost_ratio(10.0, 10.0) == pytest.approx(1 / 20)

    def test_exceeding_topic_penalized_by_rate(self):
        assert benefit_cost_ratio(20.0, 10.0) == pytest.approx(1 / 40)
        assert benefit_cost_ratio(40.0, 10.0) == pytest.approx(1 / 80)

    def test_exceeding_worse_than_fitting(self):
        assert benefit_cost_ratio(20.0, 10.0) < benefit_cost_ratio(9.0, 10.0)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            benefit_cost_ratio(0.0, 5.0)


class TestGreedySchedule:
    def _select_for_single(self, rates, tau):
        """Run GSP for one subscriber over the given topic rates."""
        w = Workload(rates, [list(range(len(rates)))], message_size_bytes=1.0)
        plan = make_unit_plan(10 * sum(rates))
        sel = GreedySelectPairs().select(MCSSProblem(w, tau, plan))
        return sorted(t for t, _v in sel)

    def test_prefers_largest_fitting_topic(self):
        # tau=10: rates 8 and 3 both fit; greedy takes 8 first, then
        # needs 2 more and takes 3.
        assert self._select_for_single([8.0, 3.0], 10) == [0, 1]

    def test_stops_once_satisfied(self):
        # tau=8: the rate-8 topic alone suffices.
        assert self._select_for_single([8.0, 3.0], 8) == [0]

    def test_overshoot_picks_smallest_exceeding(self):
        # tau=5, all rates exceed: pick the cheapest one (rate 7).
        assert self._select_for_single([20.0, 7.0, 12.0], 5) == [1]

    def test_mixed_fit_then_overshoot(self):
        # tau=10: largest fitting is 8 (rem 2); then 6 and 3 both
        # exceed rem, so the cheapest exceeding topic (3) closes it.
        assert self._select_for_single([6.0, 3.0, 20.0, 8.0], 10) == [1, 3]

    def test_tau_above_sum_selects_everything(self):
        assert self._select_for_single([5.0, 2.0], 1000) == [0, 1]

    def test_tau_zero_selects_nothing(self):
        assert self._select_for_single([5.0, 2.0], 0) == []

    def test_equal_rate_tie_breaks_to_smaller_id(self):
        assert self._select_for_single([4.0, 4.0], 4) == [0]

    def test_overshoot_tie_breaks_to_smaller_id(self):
        assert self._select_for_single([9.0, 9.0], 5) == [0]


class TestSatisfactionInvariant:
    @pytest.mark.parametrize("tau", [1, 5, 17, 100, 100000])
    def test_selection_satisfies_all(self, small_zipf, tau):
        problem = MCSSProblem(small_zipf, tau, make_unit_plan(1e12))
        selection = GreedySelectPairs().select(problem)
        assert all_satisfied(
            small_zipf, selection.topics_by_subscriber(), tau
        )

    def test_empty_interest_subscriber_ignored(self):
        w = Workload([5.0], [[], [0]])
        problem = MCSSProblem(w, 3, make_unit_plan(1e9))
        selection = GreedySelectPairs().select(problem)
        assert selection.num_pairs == 1


class TestFastMatchesReference:
    """The O(k log k) rewrite must equal literal Algorithm 2 exactly."""

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("tau", [3, 10, 50])
    def test_random_instances(self, seed, tau):
        rng = np.random.default_rng(seed)
        workload = random_workload(rng)
        problem = MCSSProblem(workload, tau, make_unit_plan(1e9))
        fast = GreedySelectPairs().select(problem)
        reference = ReferenceGreedySelectPairs().select(problem)
        assert fast == reference

    def test_wide_topic_ids_match_reference(self):
        # Topic ids past the int16 range take the packed-key grouping sort.
        rng = np.random.default_rng(7)
        num_topics = 40_000
        rates = rng.integers(1, 20, size=num_topics).astype(float)
        interests = [
            sorted(rng.choice(num_topics, size=6, replace=False).tolist())
            for _ in range(30)
        ]
        interests.append([num_topics - 1, 5])
        workload = Workload(rates, interests, message_size_bytes=1.0)
        problem = MCSSProblem(workload, 25, make_unit_plan(1e9))
        fast = GreedySelectPairs().select(problem)
        assert int(fast.pair_arrays()[0].max()) >= 1 << 15
        assert fast == ReferenceGreedySelectPairs().select(problem)
        assert all_satisfied(workload, fast.topics_by_subscriber(), 25)
        # The group order and each group's subscriber order, too.
        loop = LoopGreedySelectPairs().select(problem)
        assert list(fast.topics) == list(loop.topics)
        for t in fast.topics:
            assert fast.subscribers_of(t).tolist() == loop.subscribers_of(t).tolist()

    @given(
        rates=st.lists(
            st.integers(min_value=1, max_value=30), min_size=1, max_size=10
        ),
        tau=st.integers(min_value=0, max_value=60),
    )
    @settings(max_examples=200, deadline=None)
    def test_single_subscriber_fuzz(self, rates, tau):
        w = Workload(
            [float(r) for r in rates],
            [list(range(len(rates)))],
            message_size_bytes=1.0,
        )
        problem = MCSSProblem(w, tau, make_unit_plan(4.0 * sum(rates)))
        fast = GreedySelectPairs().select(problem)
        reference = ReferenceGreedySelectPairs().select(problem)
        assert fast == reference


class TestGroupingOrder:
    """``grouping_order`` == ``np.argsort(kind="stable")`` on every path."""

    @pytest.mark.parametrize(
        "keys",
        [
            np.array([3, 1, 2, 0, 1, 3], dtype=np.int64),  # radix, below 2**15
            np.array([(1 << 15) - 1, 0, 7, (1 << 15) - 1]),  # radix, at the edge
            np.array([1 << 15, 40_000, 5, 1 << 15, 97_000, 0]),  # packed keys
            np.array([9, 9, 9, 9, 70_000, 70_000, 9]),  # duplicate keys
            np.random.default_rng(3).integers(0, 1 << 17, size=5000),  # many ties
            np.array([], dtype=np.int64),  # empty
            np.array([1 << 62, 3, 1 << 62, 0]),  # (max + 1) * n overflows
        ],
        ids=["small", "int16-edge", "wide", "duplicates", "random", "empty", "overflow"],
    )
    def test_matches_stable_argsort(self, keys):
        order = grouping_order(keys)
        assert order.tolist() == np.argsort(keys, kind="stable").tolist()


class TestRegistry:
    def test_names(self):
        assert GreedySelectPairs.name == "gsp"
        assert ReferenceGreedySelectPairs.name == "gsp-reference"

    def test_duplicate_name_rejected(self):
        class Impostor(SelectionAlgorithm):
            def select(self, problem):
                raise AssertionError("never registered")

        with pytest.raises(ValueError, match="'gsp' already registered"):
            register_selector("gsp")(Impostor)
        assert isinstance(get_selector("gsp"), GreedySelectPairs)
