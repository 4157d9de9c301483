"""Tests for the heavy-tailed samplers behind the trace generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.workloads import glitched_following_counts, truncated_power_law


@pytest.fixture
def rng():
    return np.random.default_rng(123)


class TestTruncatedPowerLaw:
    def test_bounds_respected(self, rng):
        xs = truncated_power_law(rng, 10_000, alpha=2.0, x_min=1, x_max=500)
        assert xs.min() >= 1
        assert xs.max() <= 500

    def test_heavier_alpha_means_lighter_tail(self, rng):
        light = truncated_power_law(rng, 20_000, alpha=3.0, x_max=1e5)
        heavy = truncated_power_law(rng, 20_000, alpha=1.5, x_max=1e5)
        assert heavy.mean() > light.mean()

    def test_integer_output(self, rng):
        xs = truncated_power_law(rng, 100, alpha=2.0)
        assert xs.dtype == np.int64

    def test_zero_size(self, rng):
        assert truncated_power_law(rng, 0, alpha=2.0).size == 0

    def test_invalid_parameters(self, rng):
        with pytest.raises(ValueError):
            truncated_power_law(rng, 10, alpha=1.0)
        with pytest.raises(ValueError):
            truncated_power_law(rng, 10, alpha=2.0, x_min=5, x_max=2)
        with pytest.raises(ValueError):
            truncated_power_law(rng, -1, alpha=2.0)

    def test_deterministic_given_seed(self):
        a = truncated_power_law(np.random.default_rng(5), 100, 2.0)
        b = truncated_power_law(np.random.default_rng(5), 100, 2.0)
        assert np.array_equal(a, b)

    def test_tail_roughly_power_law(self):
        # CCDF slope of samples with alpha=2 should be near -1.
        from repro.analysis import ccdf

        xs = truncated_power_law(np.random.default_rng(0), 200_000, 2.0, 1, 1e6)
        slope = ccdf(xs).tail_exponent(x_min=10)
        assert -1.4 < slope < -0.7


class TestGlitchedFollowings:
    def test_spike_at_default(self, rng):
        xs = glitched_following_counts(rng, 50_000, default_spike_prob=0.2)
        frac_at_20 = (xs == 20).mean()
        assert frac_at_20 > 0.15  # the spike clearly visible

    def test_cap_pileup(self, rng):
        xs = glitched_following_counts(
            rng, 50_000, alpha=1.5, cap=2000, cap_overflow_prob=1.0,
            max_following=10_000,
        )
        assert (xs > 2000).sum() == 0
        assert (xs == 2000).sum() > 0

    def test_partial_cap_lets_some_past(self, rng):
        xs = glitched_following_counts(
            rng, 50_000, alpha=1.5, cap=2000, cap_overflow_prob=0.5,
            max_following=10_000,
        )
        assert (xs > 2000).sum() > 0
        assert (xs == 2000).sum() > (xs == 1999).sum()
