"""Tests for the executable Partition -> DCSS reduction (Thm. II.2)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import subscriber_thresholds
from repro.exact import (
    dcss_answer,
    partition_has_solution,
    partition_to_mcss,
    verify_reduction,
)


class TestPartitionDecider:
    def test_classic_yes(self):
        assert partition_has_solution([1, 5, 11, 5])  # {11} vs {1,5,5}... no:
        # 11 vs 11: {11} and {1,5,5} -> yes.

    def test_classic_no(self):
        assert not partition_has_solution([1, 2, 5])

    def test_odd_total_always_no(self):
        assert not partition_has_solution([3, 4])

    def test_pair_equal(self):
        assert partition_has_solution([7, 7])

    def test_invalid_values(self):
        with pytest.raises(ValueError):
            partition_has_solution([0, 1])


class TestReducedInstance:
    def test_construction_matches_proof(self):
        problem = partition_to_mcss([3, 5, 4])
        w = problem.workload
        assert w.num_topics == 3 and w.num_subscribers == 3
        assert problem.tau == 5.0  # max value
        assert problem.capacity_bytes == 12.0  # sum
        # C1(x) = x, C2 = 0.
        assert problem.plan.c1(7) == 7.0
        assert problem.plan.c2(1e12) == 0.0

    def test_every_pair_forced(self):
        problem = partition_to_mcss([3, 5, 4])
        # tau_v = min(max, x_i) = x_i: only the dedicated topic serves v.
        thresholds = subscriber_thresholds(problem.workload, problem.tau)
        assert thresholds.tolist() == [3.0, 5.0, 4.0]

    def test_oversized_element_rejected_by_constructor(self):
        with pytest.raises(ValueError):
            partition_to_mcss([10, 1, 1])  # 2*10 > 12 = BC

    def test_non_positive_values_rejected(self):
        with pytest.raises(ValueError, match="positive integers"):
            partition_to_mcss([3, 0, 3])
        with pytest.raises(ValueError, match="positive integers"):
            partition_to_mcss([4, -2, 2])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            partition_to_mcss([])


class TestReductionAgreement:
    @pytest.mark.parametrize(
        "values",
        [
            [1, 1],
            [2, 3],
            [1, 5, 6],
            [3, 1, 1, 2, 2, 1],
            [4, 5, 6, 7, 8],
            [2, 2, 2, 2],
            [1, 2, 3, 4, 5, 6],
            [10, 1, 1],  # oversized element -> both sides "no"
        ],
    )
    def test_fixed_instances(self, values):
        outcome = verify_reduction(values)
        assert outcome.agree, (
            f"{values}: partition={outcome.partition_answer} "
            f"dcss={outcome.dcss_answer}"
        )

    @given(
        st.lists(st.integers(min_value=1, max_value=9), min_size=2, max_size=6)
    )
    @settings(max_examples=40, deadline=None)
    def test_fuzzed_multisets(self, values):
        assert verify_reduction(values).agree

    def test_dcss_answer_loose_threshold(self):
        # With CT = n (one VM per pair) any constructible instance is
        # a yes.
        assert dcss_answer([2, 3, 5], cost_threshold=3.0)
