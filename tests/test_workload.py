"""Unit tests for repro.core.workload."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import repro.core.workload as workload_module
from repro.core import PairSelection, Workload
from repro.core.workload import WorkloadError


class TestConstruction:
    def test_basic_sizes(self, tiny_workload):
        assert tiny_workload.num_topics == 2
        assert tiny_workload.num_subscribers == 3
        assert tiny_workload.num_pairs == 5

    def test_event_rates_preserved(self, tiny_workload):
        assert tiny_workload.event_rate(0) == 20.0
        assert tiny_workload.event_rate(1) == 10.0

    def test_rates_array_read_only(self, tiny_workload):
        with pytest.raises(ValueError):
            tiny_workload.event_rates[0] = 5.0

    def test_interest_read_only(self, tiny_workload):
        with pytest.raises(ValueError):
            tiny_workload.interest(0)[0] = 1

    def test_zero_rate_rejected(self):
        with pytest.raises(WorkloadError, match="positive"):
            Workload([0.0], [[0]])

    def test_negative_rate_rejected(self):
        with pytest.raises(WorkloadError, match="positive"):
            Workload([-1.0], [[0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("build", ["positional", "from_csr", "trusted_csr"])
    def test_non_finite_rate_rejected(self, bad, build):
        # NaN passes a `<= 0` test, and either value would reach the
        # solver's thresholds and byte sums.  Rates are checked even
        # when the caller vouches for the CSR arrays (validate=False).
        with pytest.raises(WorkloadError, match="finite"):
            if build == "positional":
                Workload([bad, 2.0], [[0, 1], [1]])
            else:
                Workload.from_csr(
                    [bad, 2.0], [0, 2, 3], [0, 1, 1], validate=build == "from_csr"
                )

    def test_bad_topic_reference_rejected(self):
        with pytest.raises(WorkloadError, match="outside"):
            Workload([1.0], [[1]])

    def test_negative_topic_reference_rejected(self):
        with pytest.raises(WorkloadError, match="outside"):
            Workload([1.0], [[-1]])

    def test_duplicate_interest_rejected(self):
        with pytest.raises(WorkloadError, match="duplicate"):
            Workload([1.0, 2.0], [[0, 0]])

    @pytest.mark.parametrize("size", [0.0, -1.0, float("nan")])
    def test_bad_message_size_rejected(self, size):
        with pytest.raises(WorkloadError, match="message_size"):
            Workload([1.0], [[0]], message_size_bytes=size)

    def test_empty_interest_allowed(self):
        w = Workload([1.0], [[], [0]])
        assert w.interest(0).size == 0
        assert w.num_pairs == 1

    def test_2d_rates_rejected(self):
        with pytest.raises(WorkloadError, match="one-dimensional"):
            Workload([[1.0, 2.0]], [[0]])

    def test_immutable(self, tiny_workload):
        with pytest.raises(AttributeError):
            tiny_workload.num_pairs = 7



class TestDerivedViews:
    def test_full_selection_lists_each_audience(self, tiny_workload):
        full = PairSelection.full(tiny_workload)
        assert full.topics == (0, 1)
        assert full.subscribers_of(0).tolist() == [0, 1]
        assert full.subscribers_of(1).tolist() == [0, 1, 2]

    def test_audience_sizes(self, tiny_workload):
        assert tiny_workload.audience_sizes().tolist() == [2, 3]

    def test_interest_rate_sums_vector(self, tiny_workload):
        assert tiny_workload.interest_rate_sums().tolist() == [30.0, 30.0, 10.0]

    @pytest.mark.parametrize("chunk", [1, 7, 64, 1 << 18])
    def test_interest_rate_sums_chunked_bit_identical(self, monkeypatch, chunk):
        # One bincount per chunk adds each subscriber's rates in the
        # same order as one bincount over every pair, so non-integer
        # sums agree to the last bit.
        monkeypatch.setattr(workload_module, "_RATE_SUM_CHUNK", chunk)
        rng = np.random.default_rng(11)
        sizes = rng.integers(0, 40, size=300)
        sizes[10] = 500  # wider than several chunks
        sizes[-5:] = 0  # trailing empty subscribers
        indptr = np.concatenate(([0], np.cumsum(sizes)))
        flat = np.concatenate(
            [np.sort(rng.choice(1000, size=k, replace=False)) for k in sizes]
        )
        rates = rng.random(1000) * 100 + 1e-3
        w = Workload.from_csr(rates, indptr, flat)
        single = np.bincount(w.pair_subscribers(), weights=rates[flat], minlength=300)
        got = w.interest_rate_sums()
        assert [float.hex(x) for x in got] == [float.hex(x) for x in single]

    def test_cold_interest_rate_sums_peak_is_chunk_sized(self):
        # A cold build holds chunk-sized temporaries: no pair-sized
        # subscriber ids, weights or copy of a read-only cache.
        n, k = 100_000, 40
        indptr = np.arange(0, n * k + 1, k, dtype=np.int64)
        flat = np.tile(np.arange(k, dtype=np.int64), n)
        w = Workload.from_csr(np.linspace(0.5, 3.0, k), indptr, flat, validate=False)
        tracemalloc.start()
        try:
            w.interest_rate_sums()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        pair_array_bytes = 8 * n * k
        assert peak < pair_array_bytes // 4

    def test_scan_order_subscribers_are_the_pair_subscriber_cache(self):
        # The scan order permutes pairs only inside each subscriber's
        # segment, so its subscriber column is pair_subscribers() itself.
        w = Workload([3.0, 1.0, 2.0], [[1, 0, 2], [2, 1], [], [0]])
        topics, subs, rates, cums = w.rate_descending_pairs()
        assert subs is w.pair_subscribers()
        assert subs.tolist() == [0, 0, 0, 1, 1, 3]
        assert topics.tolist() == [0, 2, 1, 2, 1, 0]
        assert rates.tolist() == [3.0, 2.0, 1.0, 2.0, 1.0, 3.0]
        assert cums.tolist() == np.cumsum(rates).tolist()

    def test_iter_pairs(self, tiny_workload):
        pairs = set(tiny_workload.iter_pairs())
        assert pairs == {(0, 0), (1, 0), (0, 1), (1, 1), (1, 2)}

    def test_stats(self, tiny_workload):
        stats = tiny_workload.stats()
        assert stats.num_pairs == 5
        assert stats.total_event_rate == 30.0
        assert stats.max_audience_size == 3
        assert stats.mean_interest_size == pytest.approx(5 / 3)

    def test_audience_of_unsubscribed_topic_empty(self):
        w = Workload([1.0, 2.0], [[0]])
        assert w.audience_sizes().tolist() == [1, 0]
        assert PairSelection.full(w).subscribers_of(1).size == 0


class TestTransforms:
    def test_restrict_subscribers(self, tiny_workload):
        sub = tiny_workload.restrict_subscribers([0, 2])
        assert sub.num_subscribers == 2
        assert sub.num_topics == 2  # topics preserved
        assert sub.interest(0).tolist() == [0, 1]
        assert sub.interest(1).tolist() == [1]

    def test_restrict_deduplicates_and_sorts(self, tiny_workload):
        sub = tiny_workload.restrict_subscribers([2, 0, 2])
        assert sub.num_subscribers == 2
        assert sub.interest(0).tolist() == [0, 1]

    def test_restrict_to_no_subscribers(self, tiny_workload):
        sub = tiny_workload.restrict_subscribers([])
        assert sub.num_subscribers == 0
        assert sub.num_pairs == 0
        assert sub.num_topics == 2  # topics preserved
        assert sub.interests == ()

    def test_restrict_and_range_keep_interest_rows(self):
        w = Workload([1.0, 2.0], [[0], [1], [0, 1]], message_size_bytes=50.0)
        picked = w.restrict_subscribers([2, 0])
        assert [picked.interest(v).tolist() for v in range(2)] == [[0], [0, 1]]
        shard = w.subscriber_range(1, 3)
        assert [shard.interest(v).tolist() for v in range(2)] == [[1], [0, 1]]
        assert picked.message_size_bytes == shard.message_size_bytes == 50.0

    @pytest.mark.parametrize(
        "lo, hi", [(-1, 2), (0, 4), (2, 1)], ids=["negative-lo", "past-end", "inverted"]
    )
    def test_subscriber_range_rejects_bad_bounds(self, tiny_workload, lo, hi):
        with pytest.raises(ValueError, match="invalid subscriber range"):
            tiny_workload.subscriber_range(lo, hi)


class TestFromCsr:
    @pytest.mark.parametrize(
        "indptr, topics, match",
        [
            ([[0, 1]], [0], "1-D"),
            ([], [], "1-D"),
            ([1, 2], [0], "start at 0"),
            ([0, 2, 1], [0, 1], "non-decreasing"),
            ([0, 1, 2], [0], "topics length"),
        ],
        ids=["2d", "empty", "nonzero-start", "decreasing", "topics-length"],
    )
    def test_rejects_malformed_csr(self, indptr, topics, match):
        with pytest.raises(WorkloadError, match=match):
            Workload.from_csr([1.0, 2.0], indptr, topics)

    def test_topicless_workload_has_empty_views(self):
        w = Workload.from_csr([], [0, 0, 0], [])
        assert w.num_subscribers == 2 and w.num_topics == 0
        assert w.pair_keys().size == 0
        assert w.interest(1).size == 0
