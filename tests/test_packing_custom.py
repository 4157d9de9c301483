"""Tests for CustomBinPacking (Algorithm 4) and CheaperToDistribute."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import MCSSProblem, PairSelection, Workload, validate_placement
from repro.packing import (
    CBPOptions,
    CustomBinPacking,
    FFBinPacking,
    PackingAlgorithm,
    cheaper_to_distribute,
    cheaper_to_distribute_loop,
    get_packer,
    register_packer,
)
from repro.selection import GreedySelectPairs
from tests.conftest import make_unit_plan, random_workload


class TestCBPOptions:
    def test_ladder_presets(self):
        assert CBPOptions.ladder("b") == CBPOptions(False, False, False)
        assert CBPOptions.ladder("c") == CBPOptions(True, False, False)
        assert CBPOptions.ladder("d") == CBPOptions(True, True, False)
        assert CBPOptions.ladder("e") == CBPOptions(True, True, True)

    def test_unknown_rung(self):
        with pytest.raises(ValueError, match="rung"):
            CBPOptions.ladder("z")

    def test_defaults_are_full_ladder(self):
        assert CBPOptions() == CBPOptions.ladder("e")


class TestPaperExample:
    """Figure 1 of the paper: grouping + ordering saves 30 KB/min.

    Two fresh VMs of capacity 50 (units: KB/min with 1 KB messages),
    topics t0 (rate 20, subscribers v0, v1) and t1 (rate 10,
    subscribers v0, v1, v2).  CBP packs each topic on one VM for a
    total of 50; FFBP interleaves and pays ingest twice for a topic.
    """

    @pytest.fixture
    def fig1_problem(self):
        w = Workload([20.0, 10.0], [[0, 1], [0, 1], [1]], message_size_bytes=1.0)
        return MCSSProblem(w, tau=30, plan=make_unit_plan(60.0))

    def test_cbp_concentrates_topics(self, fig1_problem):
        selection = PairSelection.full(fig1_problem.workload)
        placement = CustomBinPacking().pack(fig1_problem, selection)
        # One copy of each topic stream only: 60 + 40 = ... out 40+30,
        # in 20+10 -> exactly 100 if neither topic is split.
        assert placement.total_bytes == pytest.approx(100.0)
        assert placement.topic_replicas(0) == 1
        assert placement.topic_replicas(1) == 1

    def test_cbp_beats_ffbp_on_bandwidth(self, fig1_problem):
        selection = PairSelection.full(fig1_problem.workload)
        cbp = CustomBinPacking().pack(fig1_problem, selection)
        ffbp = FFBinPacking().pack(fig1_problem, selection)
        assert cbp.total_bytes <= ffbp.total_bytes


class TestCBPCorrectness:
    @pytest.mark.parametrize("rung", ["b", "c", "d", "e"])
    def test_all_rungs_feasible_and_complete(self, small_zipf, rung):
        problem = MCSSProblem(small_zipf, 50, make_unit_plan(5e7))
        selection = GreedySelectPairs().select(problem)
        packer = CustomBinPacking(CBPOptions.ladder(rung))
        placement = packer.pack(problem, selection)
        assert validate_placement(problem, placement).ok
        assert placement.to_selection() == selection

    def test_empty_selection(self, tiny_problem):
        placement = CustomBinPacking().pack(tiny_problem, PairSelection({}))
        assert placement.num_vms == 0

    def test_big_topic_spans_vms(self):
        # One topic whose group cannot fit a single VM must be split
        # over fresh VMs without violating capacity.
        w = Workload([10.0], [[0]] * 12, message_size_bytes=1.0)
        problem = MCSSProblem(w, 10, make_unit_plan(50.0))
        placement = CustomBinPacking().pack(problem, PairSelection.full(w))
        assert placement.num_vms == 3  # 4 pairs/VM (40 out + 10 in)
        assert validate_placement(problem, placement).ok

    def test_expensive_topic_first_order(self, small_zipf):
        problem = MCSSProblem(small_zipf, 100, make_unit_plan(8e7))
        selection = GreedySelectPairs().select(problem)
        placement = CustomBinPacking(CBPOptions.ladder("c")).pack(problem, selection)
        # The most expensive topic group must sit on VM 0 (it was
        # allocated first into the then-current VM).
        rates = small_zipf.event_rates
        top = max(
            selection.topics,
            key=lambda t: float(rates[t]) * selection.pair_count(t),
        )
        assert placement.vms[0].hosts_topic(top)

    @pytest.mark.parametrize("seed", range(8))
    def test_fuzz_feasibility_all_rungs(self, seed):
        rng = np.random.default_rng(seed)
        w = random_workload(rng, max_topics=10, max_subscribers=15)
        max_pair = 2.0 * float(w.event_rates.max())
        problem = MCSSProblem(w, 12, make_unit_plan(max_pair * 2.5))
        selection = GreedySelectPairs().select(problem)
        for rung in ("b", "c", "d", "e"):
            placement = CustomBinPacking(CBPOptions.ladder(rung)).pack(
                problem, selection
            )
            report = validate_placement(problem, placement)
            assert report.ok, f"rung {rung}: {report}"
            assert placement.to_selection() == selection


class TestCheaperToDistribute:
    def _problem(self, capacity):
        w = Workload([10.0, 1.0], [[0], [0], [0], [1]], message_size_bytes=1.0)
        return MCSSProblem(w, 10, make_unit_plan(capacity, vm_price=100.0))

    def test_distribute_when_vms_expensive(self):
        # VM price dominates: using free capacity on existing VMs wins.
        problem = self._problem(50.0)
        placement = problem.empty_placement()
        placement.new_vm()
        placement.assign(0, 1, [3])  # small load, lots of free room
        assert cheaper_to_distribute(placement, problem.plan, 0, 10.0, 3)

    def test_fresh_when_bandwidth_expensive(self):
        # Make bandwidth astronomically expensive and the fleet full
        # enough that distribution forces topic replication.
        w = Workload([10.0, 1.0], [[0], [0], [0], [1]], message_size_bytes=1.0)
        plan = make_unit_plan(31.0, vm_price=0.0, usd_per_gb=1e12)
        problem = MCSSProblem(w, 10, plan)
        placement = problem.empty_placement()
        a, b = placement.new_vm(), placement.new_vm()
        placement.assign(a, 1, [3])  # 2 bytes used, 29 free
        placement.assign(b, 1, [3])  # replica; 29 free
        # 3 pairs of topic 0 (10 B each): distributing splits across
        # both VMs -> 2 ingest copies; fresh VMs fit all 3 with 1
        # ingest... at zero VM price and huge byte price fresh wins.
        assert not cheaper_to_distribute(placement, problem.plan, 0, 10.0, 3)

    def test_invalid_count(self, tiny_problem):
        placement = tiny_problem.empty_placement()
        with pytest.raises(ValueError):
            cheaper_to_distribute(placement, tiny_problem.plan, 0, 10.0, 0)

    def test_loop_referee_rejects_invalid_count(self, tiny_problem):
        placement = tiny_problem.empty_placement()
        with pytest.raises(ValueError, match="count must be positive"):
            cheaper_to_distribute_loop(placement, tiny_problem.plan, 0, 10.0, 0)

    @pytest.mark.parametrize(
        "verdict",
        [cheaper_to_distribute, cheaper_to_distribute_loop],
        ids=["vectorized", "loop"],
    )
    def test_pair_larger_than_an_empty_vm_rejected(self, tiny_problem, verdict):
        # One pair plus its ingest copy (2 x 60 B) exceeds BC = 80 B.
        placement = tiny_problem.empty_placement()
        placement.new_vm()
        with pytest.raises(ValueError, match="does not fit in an empty VM"):
            verdict(placement, tiny_problem.plan, 0, 60.0, 1)

    def test_cost_decision_never_breaks_feasibility(self, small_zipf):
        problem = MCSSProblem(small_zipf, 50, make_unit_plan(5e7))
        selection = GreedySelectPairs().select(problem)
        for packer in (
            CustomBinPacking(CBPOptions(True, True, True)),
            CustomBinPacking(CBPOptions(True, True, False)),
        ):
            assert validate_placement(
                problem, packer.pack(problem, selection)
            ).ok

    def test_registry(self):
        assert isinstance(get_packer("cbp"), CustomBinPacking)

    def test_registry_rejects_duplicate_name(self):
        class Impostor(PackingAlgorithm):
            def pack(self, problem, selection):
                raise AssertionError("never registered")

        with pytest.raises(ValueError, match="'cbp' already registered"):
            register_packer("cbp")(Impostor)
        assert isinstance(get_packer("cbp"), CustomBinPacking)
