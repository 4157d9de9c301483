"""Tests for workload transforms and the ASCII log-log plotter."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import loglog_plot
from repro.core import Workload
from repro.workloads import (
    filter_topics_by_rate,
    merge_workloads,
    scale_rates,
    top_subscribers,
    zipf_workload,
)


class TestMergeWorkloads:
    def test_disjoint_union(self, tiny_workload):
        other = Workload([5.0], [[0]], message_size_bytes=1.0)
        tiny = Workload.from_csr(
            tiny_workload.event_rates,
            tiny_workload.interest_indptr,
            tiny_workload.interest_topics,
            message_size_bytes=1.0,
        )
        merged = merge_workloads(tiny, other)
        assert merged.num_topics == 3
        assert merged.num_subscribers == 4
        assert merged.num_pairs == 6
        # Second workload's topic shifted past the first's ids.
        assert merged.interest(3).tolist() == [2]
        assert merged.event_rate(2) == 5.0

    def test_message_size_mismatch_rejected(self, tiny_workload):
        other = Workload([5.0], [[0]], message_size_bytes=77.0)
        with pytest.raises(ValueError, match="message sizes"):
            merge_workloads(tiny_workload, other)

    def test_merge_preserves_totals(self):
        a = zipf_workload(10, 20, seed=1)
        b = zipf_workload(5, 10, seed=2)
        merged = merge_workloads(a, b)
        assert merged.event_rates.sum() == pytest.approx(
            a.event_rates.sum() + b.event_rates.sum()
        )
        assert merged.num_pairs == a.num_pairs + b.num_pairs


class TestFilterTopics:
    def test_band_filter(self, tiny_workload):
        # Keep only the rate-10 topic.
        filtered = filter_topics_by_rate(tiny_workload, min_rate=5, max_rate=15)
        assert filtered.num_topics == 1
        assert filtered.event_rate(0) == 10.0
        # v0's interest shrinks to the surviving topic (remapped to 0).
        assert filtered.interest(0).tolist() == [0]

    def test_subscriber_kept_with_empty_interest(self):
        w = Workload([100.0, 2.0], [[0], [0, 1]])
        filtered = filter_topics_by_rate(w, max_rate=50)
        # v0's only topic is filtered out; the subscriber remains with
        # an empty interest (trivially satisfied), like the paper's
        # inactive-topic preprocessing.
        assert filtered.num_subscribers == 2
        assert filtered.interest(0).size == 0

    def test_no_survivors_raises(self):
        w = Workload([100.0], [[0]])
        with pytest.raises(ValueError, match="survive"):
            filter_topics_by_rate(w, min_rate=200)

    def test_invalid_band(self, tiny_workload):
        with pytest.raises(ValueError):
            filter_topics_by_rate(tiny_workload, min_rate=10, max_rate=5)


class TestScaleAndSlice:
    def test_scale_rates(self, tiny_workload):
        doubled = scale_rates(tiny_workload, 2.0)
        assert doubled.event_rates.tolist() == [40.0, 20.0]
        assert doubled.num_pairs == tiny_workload.num_pairs

    def test_scale_invalid(self, tiny_workload):
        with pytest.raises(ValueError):
            scale_rates(tiny_workload, 0)

    @pytest.mark.parametrize(
        "factor", [float("nan"), float("inf"), 1e308], ids=["nan", "inf", "overflow"]
    )
    def test_scale_to_non_finite_rates_rejected(self, tiny_workload, factor):
        # A NaN factor passes the `<= 0` check, and 20 * 1e308 overflows.
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
            scale_rates(tiny_workload, factor)

    def test_top_subscribers(self, tiny_workload):
        top = top_subscribers(tiny_workload, 2)
        assert top.num_subscribers == 2
        # v0 and v1 (rate sums 30) beat v2 (10).
        sums = top.interest_rate_sums()
        assert sorted(sums.tolist()) == [30.0, 30.0]

    def test_top_more_than_population(self, tiny_workload):
        assert top_subscribers(tiny_workload, 99).num_subscribers == 3

    def test_top_invalid(self, tiny_workload):
        with pytest.raises(ValueError):
            top_subscribers(tiny_workload, 0)


class TestLogLogPlot:
    def test_basic_render(self):
        x = np.array([1, 10, 100])
        y = np.array([1.0, 0.1, 0.01])
        text = loglog_plot([("ccdf", x, y)], width=32, height=8, title="t")
        lines = text.splitlines()
        assert lines[0] == "t"
        assert "o ccdf" in text
        assert "o" in lines[1]  # highest point in the top row

    def test_two_series_distinct_glyphs(self):
        x = np.array([1, 10])
        text = loglog_plot(
            [("a", x, np.array([1, 2])), ("b", x, np.array([3, 4]))],
            width=20,
            height=6,
        )
        assert "o a" in text and "x b" in text

    def test_nonpositive_points_dropped(self):
        text = loglog_plot(
            [("s", np.array([0, 1, 10]), np.array([1, 1, 2]))], width=20, height=6
        )
        assert "s" in text

    def test_all_nonpositive_raises(self):
        with pytest.raises(ValueError, match="positive"):
            loglog_plot([("s", np.array([0.0]), np.array([0.0]))])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            loglog_plot([])

    def test_tiny_canvas_rejected(self):
        with pytest.raises(ValueError):
            loglog_plot([("s", np.array([1]), np.array([1]))], width=4, height=2)

    def test_degenerate_range(self):
        text = loglog_plot([("s", np.array([5.0]), np.array([7.0]))], width=20, height=6)
        assert "s" in text

    def test_trace_figure_plot(self):
        from repro.experiments import ExperimentScale, make_trace, run_trace_figure

        trace = make_trace("twitter", ExperimentScale(num_users=800, seed=1))
        figure = run_trace_figure("fig8", trace)
        text = figure.plot(width=40, height=10)
        assert "fig8" in text
        assert "#followers" in text
