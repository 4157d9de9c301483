"""Unit tests for repro.core.satisfaction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    Workload,
    all_satisfied,
    delivered_rate,
    delivered_rates_from_arrays,
    is_satisfied,
    satisfaction_slack,
    satisfied_mask,
    subscriber_threshold,
    subscriber_thresholds,
    unsatisfied_subscribers,
)


class TestThresholds:
    def test_tau_caps_threshold(self, tiny_workload):
        # v0 subscribes to rates 20+10=30.
        assert subscriber_threshold(tiny_workload, 0, tau=25) == 25
        assert subscriber_threshold(tiny_workload, 0, tau=30) == 30

    def test_interest_sum_caps_threshold(self, tiny_workload):
        # Paper: tau_v = min(tau, sum ev_t) -- serving everything must
        # always be enough.
        assert subscriber_threshold(tiny_workload, 2, tau=1000) == 10

    def test_vector_matches_scalar(self, tiny_workload):
        vec = subscriber_thresholds(tiny_workload, tau=15)
        for v in range(3):
            assert vec[v] == subscriber_threshold(tiny_workload, v, 15)

    def test_negative_tau_rejected(self, tiny_workload):
        with pytest.raises(ValueError):
            subscriber_threshold(tiny_workload, 0, -1)
        with pytest.raises(ValueError):
            subscriber_thresholds(tiny_workload, -1)

    def test_empty_interest_threshold_zero(self):
        w = Workload([5.0], [[]])
        assert subscriber_threshold(w, 0, tau=10) == 0


class TestDeliveredRate:
    def test_counts_interest_topics_only(self, tiny_workload):
        # v2 subscribes only to topic 1; topic 0 must not count.
        assert delivered_rate(tiny_workload, 2, [0, 1]) == 10.0

    def test_duplicates_count_once(self, tiny_workload):
        assert delivered_rate(tiny_workload, 0, [1, 1, 1]) == 10.0

    def test_empty_delivery(self, tiny_workload):
        assert delivered_rate(tiny_workload, 0, []) == 0.0

    def test_array_reduction_ignores_unknown_ids(self, tiny_workload):
        # Topic 5, topic -1 and subscriber 7 do not exist; (1, 2) and
        # (0, 0) are the only deliveries that count.
        rates = delivered_rates_from_arrays(
            tiny_workload,
            np.array([0, 5, -1, 1, 1]),
            np.array([0, 0, 1, 7, 2]),
        )
        assert rates.tolist() == [20.0, 0.0, 10.0]
        assert rates[0] == delivered_rate(tiny_workload, 0, [0, 5])

    def test_array_valued_deliveries_match_lists(self, tiny_workload):
        lists = {0: [1, 0], 2: [0, 1]}
        arrays = {v: np.asarray(t, dtype=np.int32) for v, t in lists.items()}
        assert unsatisfied_subscribers(tiny_workload, arrays, tau=30) == (
            unsatisfied_subscribers(tiny_workload, lists, tau=30)
        )
        assert satisfied_mask(tiny_workload, arrays, tau=30).tolist() == [
            True, False, True
        ]


class TestSatisfaction:
    def test_exact_threshold_is_satisfied(self, tiny_workload):
        assert is_satisfied(tiny_workload, 0, [0, 1], tau=30)

    def test_below_threshold_not_satisfied(self, tiny_workload):
        assert not is_satisfied(tiny_workload, 0, [1], tau=30)

    def test_tolerance_absorbs_float_noise(self, tiny_workload):
        # 30 * (1 - 1e-12) should still pass with the default rel_tol.
        assert is_satisfied(tiny_workload, 0, [0, 1], tau=30 * (1 - 1e-12))

    def test_mask_and_all(self, tiny_workload):
        topics = {0: [0, 1], 1: [0], 2: [1]}
        mask = satisfied_mask(tiny_workload, topics, tau=30)
        assert mask.tolist() == [True, False, True]
        assert not all_satisfied(tiny_workload, topics, tau=30)
        assert unsatisfied_subscribers(tiny_workload, topics, tau=30) == [1]

    def test_all_satisfied_full_delivery(self, tiny_workload):
        topics = {v: [0, 1] for v in range(3)}
        assert all_satisfied(tiny_workload, topics, tau=30)

    def test_missing_subscriber_treated_as_nothing_delivered(self, tiny_workload):
        assert unsatisfied_subscribers(tiny_workload, {}, tau=30) == [0, 1, 2]

    def test_subscriber_with_empty_interest_always_satisfied(self):
        w = Workload([5.0], [[], [0]])
        assert all_satisfied(w, {1: [0]}, tau=3)


class TestSlack:
    def test_slack_signs(self, tiny_workload):
        slack = satisfaction_slack(tiny_workload, {0: [0], 1: [1], 2: [1]}, tau=30)
        assert slack[0] == pytest.approx(-10.0)  # got 20, needed 30
        assert slack[1] == pytest.approx(-20.0)
        assert slack[2] == pytest.approx(0.0)

    def test_overshoot_positive(self, tiny_workload):
        slack = satisfaction_slack(tiny_workload, {0: [0, 1]}, tau=25)
        assert slack[0] == pytest.approx(5.0)
