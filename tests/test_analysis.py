"""Tests for repro.analysis (CCDF and Appendix-D statistics)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    ccdf,
    event_rate_ccdf,
    follower_ccdf,
    following_ccdf,
    mean_rate_by_followers,
    mean_sc_by_followings,
    subscription_cardinality,
    subscription_cardinality_ccdf,
)
from repro.core import Workload
from repro.workloads import SocialGraph, TwitterConfig, TwitterWorkloadGenerator


@pytest.fixture(scope="module")
def trace():
    return TwitterWorkloadGenerator(TwitterConfig(num_users=4000)).generate(seed=2)


class TestCCDF:
    def test_simple_values(self):
        # Samples 1,1,2,3: P(X>1)=0.5, P(X>2)=0.25, P(X>3)=0.
        c = ccdf(np.array([1, 1, 2, 3]))
        assert c.values.tolist() == [1, 2, 3]
        assert c.probabilities.tolist() == [0.5, 0.25, 0.0]

    def test_at_interpolates_stepwise(self):
        c = ccdf(np.array([1, 1, 2, 3]))
        assert c.at(0.5) == 1.0  # below the smallest value
        assert c.at(1) == 0.5
        assert c.at(1.5) == 0.5
        assert c.at(2) == 0.25
        assert c.at(10) == 0.0

    def test_single_value(self):
        c = ccdf(np.array([7]))
        assert c.probabilities.tolist() == [0.0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ccdf(np.array([]))

    def test_monotone_decreasing(self, trace):
        c = follower_ccdf(trace.graph)
        assert all(np.diff(c.probabilities) <= 1e-12)

    def test_tail_exponent_requires_points(self):
        c = ccdf(np.array([1, 1, 1]))
        with pytest.raises(ValueError):
            c.tail_exponent(x_min=100)


class TestTraceStatistics:
    def test_follower_and_following_ccdfs(self, trace):
        fers = follower_ccdf(trace.graph)
        fing = following_ccdf(trace.graph)
        assert fers.probabilities[0] <= 1.0
        assert fing.values.min() >= 0

    def test_event_rate_ccdf_active_only(self, trace):
        c = event_rate_ccdf(trace.graph)
        assert c.values.min() >= 1

    def test_subscription_cardinality_definition(self):
        w = Workload([10.0, 30.0], [[0], [0, 1]])
        sc = subscription_cardinality(w)
        assert sc[0] == pytest.approx(25.0)  # 10/40
        assert sc[1] == pytest.approx(100.0)

    def test_sc_ccdf(self, trace):
        c = subscription_cardinality_ccdf(trace.workload)
        assert c.values.max() <= 100.0
        assert (np.diff(c.probabilities) <= 1e-12).all()

    def test_mean_rate_by_followers_bins(self, trace):
        binned = mean_rate_by_followers(trace.graph)
        assert binned.bin_centers.size == binned.means.size
        assert binned.counts.sum() <= trace.graph.num_users
        assert (binned.bin_centers[:-1] < binned.bin_centers[1:]).all()

    def test_mean_sc_by_followings_aligns(self, trace):
        binned = mean_sc_by_followings(trace.graph, trace.workload)
        assert binned.means.min() >= 0
        # SC grows with followings: last occupied bin above the first.
        assert binned.means[-1] > binned.means[0]

    def test_mean_sc_mismatched_trace_rejected(self, trace):
        other = Workload([1.0], [[0]])
        with pytest.raises(ValueError, match="mismatch"):
            mean_sc_by_followings(trace.graph, other)

    def test_binned_means_need_a_follower(self):
        nobody = SocialGraph.from_followings(
            [np.empty(0, dtype=np.int64)] * 3,
            follower_counts=np.zeros(3, dtype=np.int64),
            event_counts=np.ones(3, dtype=np.int64),
        )
        with pytest.raises(ValueError, match="no points"):
            mean_rate_by_followers(nobody)

    def test_sc_needs_events(self):
        w = Workload([1.0], [[]])
        sc = subscription_cardinality(w)
        assert sc[0] == 0.0

    def test_sc_of_a_topicless_workload_rejected(self):
        # No topics, no published events: SC has no denominator.
        with pytest.raises(ValueError, match="no events"):
            subscription_cardinality(Workload([], [[], []]))

    def test_userless_graph_has_no_followings(self):
        empty = np.empty(0, dtype=np.int64)
        graph = SocialGraph.from_followings([], follower_counts=empty, event_counts=empty)
        assert graph.num_users == 0
        assert graph.followings == ()
