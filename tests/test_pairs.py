"""Unit tests for repro.core.pairs (PairSelection)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import PairSelection, Workload


class TestFromCsr:
    """The one array-construction entry point (both arms + validation)."""

    def test_csr_triple(self):
        sel = PairSelection.from_csr(
            np.array([3, 0], dtype=np.int64),
            np.array([0, 2, 3], dtype=np.int64),
            np.array([1, 4, 2], dtype=np.int64),
        )
        assert sel.num_pairs == 3
        assert list(sel.topics) == [3, 0]  # insertion order preserved
        assert sel.subscribers_of(3).tolist() == [1, 4]
        assert sel.subscribers_of(0).tolist() == [2]

    def test_trusted_adopts_without_copy(self):
        topics = np.array([1], dtype=np.int64)
        indptr = np.array([0, 2], dtype=np.int64)
        subs = np.array([5, 6], dtype=np.int64)
        sel = PairSelection.from_csr(topics, indptr, subs, trusted=True)
        t, i, s = sel.csr_arrays()
        assert t is topics and i is indptr and s is subs
        assert not s.flags.writeable  # frozen in place

    def test_flat_pair_arm_groups_by_topic(self):
        # indptr=None: parallel per-pair arrays, grouped by ascending
        # topic id, input order preserved within each group.
        sel = PairSelection.from_csr(
            np.array([4, 1, 4, 1], dtype=np.int64),
            None,
            np.array([7, 0, 2, 9], dtype=np.int64),
        )
        assert list(sel.topics) == [1, 4]
        assert sel.subscribers_of(1).tolist() == [0, 9]
        assert sel.subscribers_of(4).tolist() == [7, 2]

    @pytest.mark.parametrize(
        "low, high",
        [(0, 60), (32_700, 1 << 15), (32_730, 32_800), (1 << 40, (1 << 40) + 60)],
        ids=["small-ids", "ids-up-to-2^15-1", "ids-across-2^15", "ids-past-2^32"],
    )
    def test_flat_pair_arm_matches_lexsort_grouping(self, low, high):
        # The CSR a reference np.lexsort grouping gives: topics
        # ascending, each group's subscribers in input order -- on both
        # sides of the int16 radix sort's 2^15 key limit.
        rng = np.random.default_rng(low % 997)
        topics = rng.integers(low, high, size=400).astype(np.int64)
        subscribers = rng.permutation(400).astype(np.int64)
        order = np.lexsort((np.arange(topics.size), topics))
        grouped = topics[order]
        starts = np.flatnonzero(np.r_[True, grouped[1:] != grouped[:-1]])
        for trusted in (False, True):
            got = PairSelection.from_csr(topics, None, subscribers, trusted=trusted)
            t, indptr, subs = got.csr_arrays()
            np.testing.assert_array_equal(t, grouped[starts])
            np.testing.assert_array_equal(indptr, np.r_[starts, topics.size])
            np.testing.assert_array_equal(subs, subscribers[order])

    def test_flat_pair_arm_empty(self):
        sel = PairSelection.from_csr(
            np.empty(0, dtype=np.int64), None, np.empty(0, dtype=np.int64)
        )
        assert sel.num_pairs == 0

    def test_flat_pair_arm_length_mismatch(self):
        with pytest.raises(ValueError, match="parallel"):
            PairSelection.from_csr(
                np.array([1, 2], dtype=np.int64), None, np.array([0], dtype=np.int64)
            )

    def test_validation_rejects_bad_indptr(self):
        with pytest.raises(ValueError, match="indptr"):
            PairSelection.from_csr(
                np.array([0], dtype=np.int64),
                np.array([1, 2], dtype=np.int64),
                np.array([0], dtype=np.int64),
            )
        with pytest.raises(ValueError, match="strictly increasing"):
            PairSelection.from_csr(
                np.array([0, 1], dtype=np.int64),
                np.array([0, 1, 1], dtype=np.int64),
                np.array([0], dtype=np.int64),
            )

    def test_validation_rejects_nonzero_empty_indptr(self):
        empty = np.array([], dtype=np.int64)
        with pytest.raises(ValueError, match="empty selection must be"):
            PairSelection.from_csr(empty, np.array([1], dtype=np.int64), empty)
        assert PairSelection.from_csr(
            empty, np.array([0], dtype=np.int64), empty
        ).num_pairs == 0

    def test_validation_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="indptr\\[-1\\]"):
            PairSelection.from_csr(
                np.array([0], dtype=np.int64),
                np.array([0, 2], dtype=np.int64),
                np.array([0], dtype=np.int64),
            )

    def test_validation_rejects_duplicate_topics(self):
        with pytest.raises(ValueError, match="distinct"):
            PairSelection.from_csr(
                np.array([1, 1], dtype=np.int64),
                np.array([0, 1, 2], dtype=np.int64),
                np.array([0, 1], dtype=np.int64),
            )

    def test_validation_rejects_duplicate_subscribers(self):
        with pytest.raises(ValueError, match="duplicate"):
            PairSelection.from_csr(
                np.array([4], dtype=np.int64),
                np.array([0, 2], dtype=np.int64),
                np.array([3, 3], dtype=np.int64),
            )


class TestConstruction:
    def test_from_mapping(self):
        sel = PairSelection({0: [1, 2], 3: [0]})
        assert sel.num_pairs == 3
        assert sel.num_topics == 2
        assert sorted(sel.topics) == [0, 3]

    def test_empty_groups_dropped(self):
        sel = PairSelection({0: [], 1: [2]})
        assert sel.num_topics == 1
        assert (1, 2) in sel

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            PairSelection({0: [1, 1]})

    def test_from_pairs(self):
        sel = PairSelection.from_pairs([(0, 1), (0, 2), (5, 1)])
        assert sel.pair_count(0) == 2
        assert sel.pair_count(5) == 1

    def test_from_subscriber_topics(self):
        sel = PairSelection.from_subscriber_topics({1: [0, 5], 2: [0]})
        assert sel.subscribers_of(0).tolist() == [1, 2]
        assert sel.subscribers_of(5).tolist() == [1]

    def test_full(self, tiny_workload):
        sel = PairSelection.full(tiny_workload)
        assert sel.num_pairs == tiny_workload.num_pairs
        assert set(sel) == set(tiny_workload.iter_pairs())


class TestViews:
    def test_contains(self):
        sel = PairSelection({0: [1]})
        assert (0, 1) in sel
        assert (0, 2) not in sel
        assert (1, 1) not in sel

    def test_len_and_iter(self):
        sel = PairSelection({0: [1, 2], 1: [3]})
        assert len(sel) == 3
        assert set(sel) == {(0, 1), (0, 2), (1, 3)}

    def test_missing_topic_empty_array(self):
        sel = PairSelection({0: [1]})
        assert sel.subscribers_of(9).size == 0
        assert sel.pair_count(9) == 0

    def test_equality_ignores_order(self):
        a = PairSelection({0: [2, 1]})
        b = PairSelection({0: [1, 2]})
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality(self):
        assert PairSelection({0: [1]}) != PairSelection({0: [2]})
        assert PairSelection({0: [1]}) != PairSelection({1: [1]})

    def test_never_equal_to_other_types(self):
        sel = PairSelection({0: [1]})
        assert sel.__eq__({0: [1]}) is NotImplemented
        assert sel != {0: [1]}
        assert sel != [(0, 1)]

    def test_topic_index_built_on_first_lookup(self):
        sel = PairSelection.from_csr(
            np.asarray([4, 1]), np.asarray([0, 2, 3]), np.asarray([0, 2, 1])
        )
        assert sel._topic_pos is None
        assert sel.pair_count(4) == 2
        assert sel._topic_pos == {4: 0, 1: 1}
        assert sel.subscribers_of(1).tolist() == [1]

    def test_topics_by_subscriber_roundtrip(self):
        sel = PairSelection({0: [1, 2], 1: [1]})
        inverted = sel.topics_by_subscriber()
        assert inverted == {1: [0, 1], 2: [0]}
        assert PairSelection.from_subscriber_topics(inverted) == sel


class TestBandwidth:
    def test_outgoing_rate(self, tiny_workload):
        sel = PairSelection({0: [0, 1], 1: [2]})
        assert sel.outgoing_rate(tiny_workload) == 2 * 20 + 10

    def test_incoming_rate_counts_topics_once(self, tiny_workload):
        sel = PairSelection({0: [0, 1], 1: [2]})
        assert sel.incoming_rate(tiny_workload) == 30

    def test_single_vm_totals(self, tiny_workload):
        sel = PairSelection.full(tiny_workload)
        # outgoing 2*20 + 3*10 = 70, incoming 30 -> 100 events, 1 B each
        assert sel.single_vm_rate(tiny_workload) == 100
        assert sel.single_vm_bytes(tiny_workload) == 100

    def test_empty_selection_has_no_traffic(self, tiny_workload):
        sel = PairSelection({})
        assert sel.outgoing_rate(tiny_workload) == 0.0
        assert sel.incoming_rate(tiny_workload) == 0.0
        assert sel.single_vm_bytes(tiny_workload) == 0.0

    def test_message_size_scales_bytes(self, tiny_workload):
        sel = PairSelection.full(tiny_workload)
        w2 = Workload.from_csr(
            tiny_workload.event_rates,
            tiny_workload.interest_indptr,
            tiny_workload.interest_topics,
            message_size_bytes=200.0,
        )
        assert sel.single_vm_bytes(w2) == 100 * 200
