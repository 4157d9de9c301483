"""Unit tests for repro.core.satisfaction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    Workload,
    all_satisfied,
    delivered_rate,
    delivered_rates_from_arrays,
    satisfied_mask,
    subscriber_thresholds,
)


class TestThresholds:
    def test_tau_caps_threshold(self, tiny_workload):
        # v0 subscribes to rates 20+10=30.
        assert subscriber_thresholds(tiny_workload, tau=25)[0] == 25
        assert subscriber_thresholds(tiny_workload, tau=30)[0] == 30

    def test_interest_sum_caps_threshold(self, tiny_workload):
        # Paper: tau_v = min(tau, sum ev_t) -- serving everything must
        # always be enough.
        assert subscriber_thresholds(tiny_workload, tau=1000)[2] == 10

    def test_negative_tau_rejected(self, tiny_workload):
        with pytest.raises(ValueError):
            subscriber_thresholds(tiny_workload, -1)

    def test_nan_tau_rejected(self, tiny_workload):
        # Every comparison with a NaN threshold is False: GSP would
        # select nothing (tau_v > 0) and the audit flag no one
        # (delivered < tau_v).
        with pytest.raises(ValueError, match="tau"):
            subscriber_thresholds(tiny_workload, float("nan"))

    def test_empty_interest_threshold_zero(self):
        w = Workload([5.0], [[]])
        assert subscriber_thresholds(w, tau=10)[0] == 0


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

    def test_array_reduction_of_unknown_ids_only_delivers_nothing(self, tiny_workload):
        # Every lane is dropped by the id filter, leaving no key to merge.
        rates = delivered_rates_from_arrays(
            tiny_workload, np.array([5, -1, 0]), np.array([0, 1, 9])
        )
        assert rates.tolist() == [0.0, 0.0, 0.0]

    def test_array_valued_deliveries_match_lists(self, tiny_workload):
        lists = {0: [1, 0], 2: [0, 1]}
        arrays = {v: np.asarray(t, dtype=np.int32) for v, t in lists.items()}
        assert satisfied_mask(tiny_workload, arrays, tau=30).tolist() == [
            True, False, True
        ]
        assert satisfied_mask(tiny_workload, lists, tau=30).tolist() == [
            True, False, True
        ]


class TestSatisfaction:
    def test_exact_threshold_is_satisfied(self, tiny_workload):
        assert satisfied_mask(tiny_workload, {0: [0, 1]}, tau=30)[0]

    def test_below_threshold_not_satisfied(self, tiny_workload):
        assert not satisfied_mask(tiny_workload, {0: [1]}, tau=30)[0]

    def test_tolerance_absorbs_float_noise(self, tiny_workload):
        # 30 * (1 - 1e-12) should still pass with the default rel_tol.
        assert satisfied_mask(tiny_workload, {0: [0, 1]}, tau=30 * (1 - 1e-12))[0]

    def test_mask_and_all(self, tiny_workload):
        topics = {0: [0, 1], 1: [0], 2: [1]}
        mask = satisfied_mask(tiny_workload, topics, tau=30)
        assert mask.tolist() == [True, False, True]
        assert not all_satisfied(tiny_workload, topics, tau=30)

    def test_all_satisfied_full_delivery(self, tiny_workload):
        topics = {v: [0, 1] for v in range(3)}
        assert all_satisfied(tiny_workload, topics, tau=30)

    def test_missing_subscriber_treated_as_nothing_delivered(self, tiny_workload):
        assert satisfied_mask(tiny_workload, {}, tau=30).tolist() == [False] * 3

    def test_subscriber_with_empty_interest_always_satisfied(self):
        w = Workload([5.0], [[], [0]])
        assert all_satisfied(w, {1: [0]}, tau=3)
