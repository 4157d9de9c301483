"""Unit tests for repro.core.placement (VirtualMachine, Placement)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    CapacityError,
    MCSSProblem,
    Placement,
    VirtualMachine,
    Workload,
    validate_placement,
    validate_placement_loop,
)
from repro.packing import diff_placements
from tests.conftest import make_unit_plan


class TestVirtualMachine:
    def test_initial_state(self):
        vm = VirtualMachine(100.0)
        assert vm.used_bytes == 0
        assert vm.free_bytes == 100.0
        assert vm.num_pairs == 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            VirtualMachine(0)

    def test_add_pairs_accounting(self):
        vm = VirtualMachine(100.0)
        vm.add_pairs(topic=7, topic_bytes=10.0, count=3)
        # 3 outgoing copies + 1 incoming copy = 40 bytes.
        assert vm.outgoing_bytes == 30.0
        assert vm.incoming_bytes == 10.0
        assert vm.used_bytes == 40.0
        assert vm.pair_count(7) == 3
        assert vm.hosts_topic(7)

    def test_second_batch_same_topic_no_extra_ingest(self):
        vm = VirtualMachine(100.0)
        vm.add_pairs(7, 10.0, 2)
        vm.add_pairs(7, 10.0, 1)
        assert vm.incoming_bytes == 10.0
        assert vm.outgoing_bytes == 30.0

    def test_different_topics_ingest_separately(self):
        vm = VirtualMachine(100.0)
        vm.add_pairs(1, 10.0, 1)
        vm.add_pairs(2, 5.0, 1)
        assert vm.incoming_bytes == 15.0
        assert sorted(vm.topics) == [1, 2]

    def test_capacity_enforced(self):
        vm = VirtualMachine(30.0)
        with pytest.raises(CapacityError):
            vm.add_pairs(0, 10.0, 3)  # needs 40

    def test_exact_fill_allowed(self):
        vm = VirtualMachine(40.0)
        vm.add_pairs(0, 10.0, 3)  # exactly 40
        assert vm.free_bytes == pytest.approx(0.0)

    def test_zero_count_rejected(self):
        vm = VirtualMachine(10.0)
        with pytest.raises(ValueError):
            vm.add_pairs(0, 1.0, 0)

    def test_fits_accounts_for_new_topic(self):
        vm = VirtualMachine(25.0)
        assert vm.fits(10.0, 1, new_topic=True)  # 20 <= 25
        assert not vm.fits(10.0, 2, new_topic=True)  # 30 > 25
        vm.add_pairs(0, 10.0, 1)
        assert not vm.fits(10.0, 1, new_topic=True)  # 20 > 5 free
        # Existing topic: only the outgoing copy is charged... still no.
        assert not vm.fits(10.0, 1, new_topic=False)

    def test_max_new_pairs_new_topic(self):
        vm = VirtualMachine(35.0)
        # Ingest eats 10, leaving 25 -> 2 pairs of 10.
        assert vm.max_new_pairs(10.0, already_hosted=False) == 2

    def test_max_new_pairs_hosted_topic(self):
        vm = VirtualMachine(35.0)
        vm.add_pairs(0, 10.0, 1)  # uses 20
        assert vm.max_new_pairs(10.0, already_hosted=True) == 1

    def test_max_new_pairs_zero_when_too_full(self):
        vm = VirtualMachine(15.0)
        assert vm.max_new_pairs(10.0, already_hosted=False) == 0

    def test_addition_cost(self):
        vm = VirtualMachine(100.0)
        assert vm.addition_cost_bytes(10.0, 2, new_topic=True) == 30.0
        assert vm.addition_cost_bytes(10.0, 2, new_topic=False) == 20.0


class TestPlacement:
    def test_new_vm_indexing(self, tiny_workload):
        p = Placement(tiny_workload, capacity_bytes=100.0)
        assert p.new_vm() == 0
        assert p.new_vm() == 1
        assert p.num_vms == 2

    def test_assign_and_members(self, tiny_workload):
        p = Placement(tiny_workload, 100.0)
        b = p.new_vm()
        p.assign(b, 0, [0, 1])
        assert p.members(b, 0) == [0, 1]
        assert p.vm_topics(b) == [0]
        assert p.num_pairs == 2

    def test_assign_empty_is_noop(self, tiny_workload):
        p = Placement(tiny_workload, 100.0)
        b = p.new_vm()
        p.assign(b, 0, [])
        assert p.num_pairs == 0

    def test_topic_bytes_uses_message_size(self):
        w = Workload([2.0], [[0]], message_size_bytes=100.0)
        p = Placement(w, 1e6)
        assert p.topic_bytes(0) == 200.0

    def test_totals(self, tiny_workload):
        p = Placement(tiny_workload, 100.0)
        a, b = p.new_vm(), p.new_vm()
        p.assign(a, 0, [0, 1])  # out 40, in 20
        p.assign(b, 1, [0, 1, 2])  # out 30, in 10
        assert sum(vm.outgoing_bytes for vm in p.vms) == 70.0
        assert p.total_incoming_bytes == 30.0
        assert p.total_bytes == 100.0

    def test_split_topic_duplicates_ingest(self, tiny_workload):
        p = Placement(tiny_workload, 100.0)
        a, b = p.new_vm(), p.new_vm()
        p.assign(a, 1, [0])
        p.assign(b, 1, [1, 2])
        # Ingest paid on both VMs: the Section II-A replication effect.
        assert p.total_incoming_bytes == 20.0
        assert p.topic_replicas(1) == 2

    def test_topics_by_subscriber_deduplicates(self, tiny_workload):
        p = Placement(tiny_workload, 100.0)
        a, b = p.new_vm(), p.new_vm()
        p.assign(a, 1, [0])
        p.assign(b, 1, [0])  # same pair on two VMs (legal per Eq. 3)
        assert p.topics_by_subscriber() == {0: [1]}

    def test_to_selection_collapses(self, tiny_workload):
        p = Placement(tiny_workload, 100.0)
        a, b = p.new_vm(), p.new_vm()
        p.assign(a, 0, [0])
        p.assign(b, 0, [0, 1])
        sel = p.to_selection()
        assert sel.num_pairs == 2  # (0,0) deduplicated
        assert sel.subscribers_of(0).tolist() == [0, 1]

    def test_iter_assignments(self, tiny_workload):
        p = Placement(tiny_workload, 100.0)
        a = p.new_vm()
        p.assign(a, 0, [0])
        p.assign(a, 1, [2])
        triples = sorted(p.iter_assignments())
        assert triples == [(0, 0, [0]), (0, 1, [2])]

    def test_capacity_propagates(self, tiny_workload):
        p = Placement(tiny_workload, 35.0)
        b = p.new_vm()
        with pytest.raises(CapacityError):
            p.assign(b, 0, [0, 1])  # 2*20 out + 20 in = 60 > 35

    def test_invalid_capacity(self, tiny_workload):
        with pytest.raises(ValueError):
            Placement(tiny_workload, 0)


class TestFromPairArrays:
    def test_matches_incremental_construction(self, tiny_workload):
        manual = Placement(tiny_workload, 200.0)
        a, b = manual.new_vm(), manual.new_vm()
        manual.assign(a, 0, [0, 1])
        manual.assign(a, 1, [0])
        manual.assign(b, 1, [1, 2])
        batch = Placement.from_pair_arrays(
            tiny_workload,
            200.0,
            np.asarray([0, 0, 0, 1, 1]),
            np.asarray([0, 0, 1, 1, 1]),
            np.asarray([0, 1, 0, 1, 2]),
        )
        assert batch.num_vms == manual.num_vms
        assert sorted(batch.iter_assignments()) == sorted(manual.iter_assignments())
        assert batch.total_bytes == pytest.approx(manual.total_bytes)

    def test_empty_and_trailing_vms(self, tiny_workload):
        empty = Placement.from_pair_arrays(
            tiny_workload, 100.0,
            np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.int64),
        )
        assert empty.num_vms == 0 and empty.num_pairs == 0
        padded = Placement.from_pair_arrays(
            tiny_workload, 100.0,
            np.asarray([0]), np.asarray([1]), np.asarray([2]), num_vms=3,
        )
        assert padded.num_vms == 3
        assert padded.vm(1).num_pairs == 0

    def test_mismatched_arrays_rejected(self, tiny_workload):
        with pytest.raises(ValueError):
            Placement.from_pair_arrays(
                tiny_workload, 100.0,
                np.asarray([0]), np.asarray([1, 1]), np.asarray([2]),
            )

    def test_out_of_range_vm_ids_rejected(self, tiny_workload):
        with pytest.raises(ValueError, match="vm_ids"):
            Placement.from_pair_arrays(
                tiny_workload, 100.0,
                np.asarray([0, 2]), np.asarray([0, 1]), np.asarray([0, 1]),
                num_vms=1,
            )

    def test_over_capacity_vm_raises(self, tiny_workload):
        # VM 1 would carry topic 0 (2*20 out + 20 in) and topic 1
        # (10 out + 10 in): 80 B against a 70 B capacity.
        args = (
            np.asarray([0, 1, 1, 1]),
            np.asarray([1, 0, 0, 1]),
            np.asarray([0, 0, 1, 2]),
        )
        with pytest.raises(CapacityError):
            Placement.from_pair_arrays(tiny_workload, 70.0, *args)
        exact = Placement.from_pair_arrays(tiny_workload, 80.0, *args)
        assert exact.used_bytes_array().tolist() == [20.0, 80.0]


class TestBatchAssignment:
    """new_vm / assign: the incremental core the per-pair packers drive."""

    def test_new_vm_returns_consecutive_indices(self, tiny_workload):
        p = Placement(tiny_workload, 100.0)
        assert [p.new_vm() for _ in range(6)] == list(range(6))
        assert p.num_vms == 6
        np.testing.assert_array_equal(p.used_bytes_array(), np.zeros(6))

    def test_growth_keeps_used_bytes(self, tiny_workload):
        # The per-VM used-bytes buffer starts at 8 slots; deploying past
        # it must carry the existing fleet's accounting over.
        p = Placement(tiny_workload, 100.0)
        a = p.new_vm()
        p.assign(a, 0, [0, 1])  # 2*20 out + 20 in
        assert [p.new_vm() for _ in range(20)] == list(range(1, 21))
        assert p.num_vms == 21
        used = p.used_bytes_array()
        assert used[0] == 60.0
        assert not used[1:].any()
        p.assign(20, 1, [2])  # 10 out + 10 in on the last VM
        assert p.used_bytes_array()[20] == 20.0
        assert p.vm(20).used_bytes == 20.0

    def test_assign_accounting(self, tiny_workload):
        p = Placement(tiny_workload, 200.0)
        a = p.new_vm()
        b = p.new_vm()
        p.assign(b, 1, np.asarray([0, 1]))  # 2*10 out + 10 in
        p.assign(a, 1, [2])  # 10 out + 10 in
        p.assign(b, 0, (0,))  # 20 out + 20 in
        p.assign(b, 0, [1])  # hosted already: 20 out
        assert p.used_bytes_array().tolist() == [20.0, 90.0]
        assert p.hosts_mask(0).tolist() == [False, True]
        assert p.hosts_mask(1).tolist() == [True, True]
        assert p.topic_replicas(1) == 2
        assert p.members(b, 0) == [0, 1]
        assert p.num_pairs == 5

    @pytest.mark.parametrize("writeable", [True, False])
    def test_assign_copies_its_input(self, tiny_workload, writeable):
        p = Placement(tiny_workload, 200.0)
        b = p.new_vm()
        buffer = np.asarray([0, 1], dtype=np.int64)
        subs = buffer.view()
        subs.setflags(write=writeable)
        p.assign(b, 0, subs)
        buffer[:] = 2
        assert p.members(b, 0) == [0, 1]

    def test_capacity_error_leaves_placement_unchanged(self, tiny_workload):
        p = Placement(tiny_workload, 50.0)
        b = p.new_vm()
        p.assign(b, 1, [0, 1])  # 30 of 50 B used
        groups = list(p.iter_assignments())
        with pytest.raises(CapacityError):
            p.assign(b, 0, [0])  # needs 40 B more
        assert p.num_pairs == 2
        assert p.used_bytes_array().tolist() == [30.0]
        assert list(p.iter_assignments()) == groups
        assert not p.hosts_mask(0).any()
        assert not p.vm(b).hosts_topic(0)

    def test_assignment_arrays_refresh_after_assign(self, tiny_workload):
        p = Placement(tiny_workload, 200.0)
        b = p.new_vm()
        p.assign(b, 1, [0, 1])
        cached = p.assignment_arrays()
        assert p.assignment_arrays() is cached  # until the next mutation
        p.assign(b, 0, [1])
        vm_ids, topics, sizes, subscribers = p.assignment_arrays()
        assert vm_ids.tolist() == [b, b]
        assert topics.tolist() == [1, 0]
        assert sizes.tolist() == [2, 1]
        assert subscribers.tolist() == [0, 1, 1]

    def test_used_view_read_only(self, tiny_workload):
        p = Placement(tiny_workload, 100.0)
        b = p.new_vm()
        p.assign(b, 1, [2])
        assert not p.used_bytes_array().flags.writeable
        assert p.used_bytes_array().tolist() == [20.0]
        assert p.vm(b).free_bytes == 80.0


def _views(p):
    """Every per-VM and per-topic view of a placement, as plain values."""
    topics = range(p.workload.num_topics)
    return {
        "num_vms": p.num_vms,
        "num_pairs": p.num_pairs,
        "vms": [
            (vm.outgoing_bytes, vm.incoming_bytes, vm.used_bytes, vm.num_pairs)
            for vm in p.vms
        ],
        "used": p.used_bytes_array().tolist(),
        "vm_topics": [p.vm_topics(b) for b in range(p.num_vms)],
        "members": {(b, t): p.members(b, t) for b in range(p.num_vms) for t in topics},
        "hosts_mask": [p.hosts_mask(t).tolist() for t in topics],
        "replicas": [p.topic_replicas(t) for t in topics],
        "groups": list(p.iter_assignments()),
        "arrays": [a.tolist() for a in p.assignment_arrays()],
        "totals": (p.total_bytes, p.total_incoming_bytes),
        "by_subscriber": p.topics_by_subscriber(),
    }


class TestFromGroups:
    """A batch-built placement behaves as its groups assigned one by one."""

    # (vm, topic, subscribers), not in VM order.
    GROUPS = [(1, 1, [0, 1]), (0, 0, [2]), (1, 0, [0, 1]), (0, 1, [2]), (2, 1, [3])]

    def _pair(self):
        workload = Workload([20.0, 10.0], [[0, 1], [0, 1], [0, 1], [1]], 1.0)
        manual = Placement(workload, 200.0)
        for _ in range(3):
            manual.new_vm()
        for b, t, subs in self.GROUPS:
            manual.assign(b, t, subs)
        batch = Placement.from_groups(
            workload,
            200.0,
            np.asarray([b for b, _, _ in self.GROUPS]),
            np.asarray([t for _, t, _ in self.GROUPS]),
            np.asarray([len(s) for _, _, s in self.GROUPS]),
            np.concatenate([s for _, _, s in self.GROUPS]),
            [vm.outgoing_bytes for vm in manual.vms],
            [vm.incoming_bytes for vm in manual.vms],
        )
        return batch, manual

    def test_views_match_incremental_construction(self):
        batch, manual = self._pair()
        assert _views(batch) == _views(manual)

    def test_views_match_after_the_same_mutations(self):
        batch, manual = self._pair()
        for p in (batch, manual):
            p.assign(p.new_vm(), 0, [0, 1])
            p.assign(2, 0, [3])
            p.assign(1, 1, [2])
        assert _views(batch) == _views(manual)

    def test_hosting_agrees_with_incremental_construction(self):
        # Which VMs ingest a topic is read off each VM's own record,
        # whether the fleet was adopted as groups or assigned.
        batch, manual = self._pair()
        for t in range(batch.workload.num_topics):
            assert batch.hosts_mask(t).tolist() == manual.hosts_mask(t).tolist()
            assert batch.topic_replicas(t) == manual.topic_replicas(t)
        assert [batch.topic_replicas(t) for t in (0, 1)] == [2, 3]
        assert batch.hosts_mask(0).tolist() == [True, True, False]
        assert batch.hosts_mask(1).tolist() == [True, True, True]

    def test_first_per_vm_call_builds_the_fleet(self):
        batch, manual = self._pair()
        batch.new_vm()
        manual.new_vm()
        assert _views(batch) == _views(manual)

    def test_malformed_groups_rejected(self):
        batch, _ = self._pair()
        vm_ids, topics, sizes, subs = batch.assignment_arrays()
        out = batch.used_bytes_array()
        with pytest.raises(ValueError, match="sum"):
            Placement.from_groups(
                batch.workload, 200.0, vm_ids, topics, sizes, subs[:-1], out, out
            )
        with pytest.raises(ValueError, match="out_bytes"):
            Placement.from_groups(
                batch.workload, 200.0, vm_ids, topics, sizes, subs, out[:-1], out[:-1]
            )

    def test_recorded_bytes_are_the_audited_bookkeeping(self):
        batch, manual = self._pair()
        vm_ids, topics, sizes, subs = batch.assignment_arrays()
        out = [vm.outgoing_bytes for vm in manual.vms]
        out[2] += 5.0  # the recorded accounting disagrees on VM 2
        skewed = Placement.from_groups(
            batch.workload, 200.0, vm_ids, topics, sizes, subs,
            out, [vm.incoming_bytes for vm in manual.vms],
        )
        problem = MCSSProblem(batch.workload, 30.0, make_unit_plan(200.0))
        assert validate_placement(problem, batch).accounting_ok
        for audit in (validate_placement, validate_placement_loop):
            report = audit(problem, skewed)
            assert not report.accounting_ok
            assert any("VM 2 bookkeeping" in m for m in report.messages)


class TestDiffPlacements:
    """``diff_placements`` -- the pin behind every packer and serving
    identity check -- names the first way two placements differ."""

    # (vm, topic, subscribers) groups on the Figure-1 workload; topic 1
    # is split over both VMs so a subscriber can move between groups.
    GROUPS = [(0, 0, [0, 1]), (0, 1, [0]), (1, 1, [1, 2])]

    @staticmethod
    def _placement(groups, num_vms=2, rates=(20.0, 10.0)):
        workload = Workload(
            list(rates), [[0, 1], [0, 1], [1]], message_size_bytes=1.0
        )
        placement = Placement(workload, 1000.0)
        for _ in range(num_vms):
            placement.new_vm()
        for vm, topic, subs in groups:
            placement.assign(vm, topic, subs)
        return placement

    @pytest.mark.parametrize(
        "fast, expected",
        [
            ({}, None),
            ({"num_vms": 3}, "fleet sizes differ"),
            (
                {"groups": [GROUPS[1], GROUPS[0], GROUPS[2]]},
                "assignment-group order differs",
            ),
            (
                {"groups": [(0, 0, [0, 1]), (0, 1, [0, 1]), (1, 1, [2])]},
                "per-VM subscriber assignments differ",
            ),
            ({"rates": (20.0, 11.0)}, "total bytes differ"),
        ],
        ids=["identical", "extra-vm", "swapped-order", "moved-subscriber", "rate"],
    )
    def test_reports_first_difference(self, fast, expected):
        loop = self._placement(self.GROUPS)
        got = diff_placements(
            self._placement(**{"groups": self.GROUPS, **fast}), loop
        )
        if expected is None:
            assert got is None
        else:
            assert got is not None and got.startswith(expected), got
