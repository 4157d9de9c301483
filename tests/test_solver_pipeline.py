"""Tests for the two-stage MCSSSolver pipeline."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import (
    MCSSProblem,
    PairSelection,
    Placement,
    VirtualMachine,
    validate_placement,
)
from repro.packing import (
    CustomBinPacking,
    FFBinPacking,
    PackingAlgorithm,
    diff_placements,
)
from repro.selection import GreedySelectPairs, RandomSelectPairs
from repro.selection.sharded import subscriber_shards
from repro.solver import MCSSSolver, pipeline
from tests.conftest import make_unit_plan


@pytest.fixture
def problem(small_zipf):
    return MCSSProblem(small_zipf, 100, make_unit_plan(5e7))


class TestPresets:
    def test_paper_preset(self):
        solver = MCSSSolver.paper()
        assert isinstance(solver.selector, GreedySelectPairs)
        assert isinstance(solver.packer, CustomBinPacking)
        opts = solver.packer.options
        assert opts.expensive_topic_first and opts.most_free_vm_first
        assert opts.cost_based_decision

    def test_naive_preset(self):
        solver = MCSSSolver.naive()
        assert isinstance(solver.selector, RandomSelectPairs)
        assert isinstance(solver.packer, FFBinPacking)

    def test_ladder_a_is_gsp_ffbp(self):
        solver = MCSSSolver.ladder("a")
        assert isinstance(solver.selector, GreedySelectPairs)
        assert isinstance(solver.packer, FFBinPacking)

    @pytest.mark.parametrize("rung", ["b", "c", "d", "e"])
    def test_ladder_rungs_use_cbp(self, rung):
        solver = MCSSSolver.ladder(rung)
        assert isinstance(solver.packer, CustomBinPacking)

    def test_from_names(self):
        solver = MCSSSolver.from_names("rsp", "cbp")
        assert isinstance(solver.selector, RandomSelectPairs)
        assert isinstance(solver.packer, CustomBinPacking)

    def test_from_names_unknown(self):
        with pytest.raises(KeyError):
            MCSSSolver.from_names("nope", "cbp")
        with pytest.raises(KeyError):
            MCSSSolver.from_names("gsp", "nope")


class TestSolve:
    def test_solution_fields(self, problem):
        solution = MCSSSolver.paper().solve(problem)
        assert solution.problem is problem
        assert solution.selector_name == "gsp"
        assert solution.packer_name == "cbp"
        assert solution.selection_seconds >= 0
        assert solution.packing_seconds >= 0
        assert solution.validation.ok

    def test_cost_matches_placement(self, problem):
        solution = MCSSSolver.paper().solve(problem)
        recomputed = problem.cost_of(solution.placement)
        assert solution.cost.total_usd == pytest.approx(recomputed.total_usd)

    def test_placement_covers_selection(self, problem):
        solution = MCSSSolver.paper().solve(problem)
        assert solution.placement.to_selection() == solution.selection

    def test_validation_enabled_by_default(self, problem):
        # Produced placements are audited; a healthy run passes.
        solution = MCSSSolver.paper().solve(problem)
        assert validate_placement(problem, solution.placement).ok

    def test_paper_beats_naive(self, problem):
        paper = MCSSSolver.paper().solve(problem)
        naive = MCSSSolver.naive().solve(problem)
        assert paper.cost.total_usd <= naive.cost.total_usd

    def test_summary_mentions_names(self, problem):
        text = MCSSSolver.paper().solve(problem).summary()
        assert "gsp" in text and "cbp" in text

    def test_stage_clocks_scripted(self, problem, monkeypatch):
        # solve reads the clock around select; solve_with_selection
        # around pack and around the audit.
        ticks = iter([0.0, 1.0, 1.0, 3.0, 6.0])
        monkeypatch.setattr(
            pipeline, "time", SimpleNamespace(perf_counter=lambda: next(ticks))
        )
        solution = MCSSSolver.paper().solve(problem)
        assert solution.selection_seconds == 1.0
        assert solution.packing_seconds == 2.0
        assert solution.validation_seconds == 3.0

    def test_solve_audit_and_cost_build_no_vm_objects(self, small_zipf, monkeypatch):
        # CBP decides over per-VM byte arrays and the audit and cost
        # read the flat group view: no VirtualMachine, and no topic
        # lookup into the selection, from select to cost.
        capacity = 2.5 * float(small_zipf.event_rates.max()) * small_zipf.message_size_bytes
        problem = MCSSProblem(small_zipf, 100, make_unit_plan(capacity))
        built = []
        init = VirtualMachine.__init__

        def counting_init(vm, capacity_bytes):
            built.append(capacity_bytes)
            init(vm, capacity_bytes)

        monkeypatch.setattr(VirtualMachine, "__init__", counting_init)
        solution = MCSSSolver.paper().solve(problem)
        assert validate_placement(problem, solution.placement).ok
        problem.cost_of(solution.placement)
        assert built == []
        assert solution.selection._topic_pos is None
        # The instance spills: some topic spans several VMs.
        _, topics, _, _ = solution.placement.assignment_arrays()
        assert np.unique(topics).size < topics.size
        assert solution.placement.num_vms > 1
        solution.placement.vms  # the per-VM API still works, built on demand
        assert len(built) == solution.placement.num_vms


class TestSolveWithSelection:
    """Stage-2-only entry point: reuse one Stage-1 selection across packers."""

    def test_matches_full_solve(self, problem):
        solver = MCSSSolver.paper()
        full = solver.solve(problem)
        shared = GreedySelectPairs().select(problem)
        reused = solver.solve_with_selection(problem, shared, selection_seconds=0.5)
        # GSP is deterministic, so packing the shared selection must
        # reproduce the full solve exactly.
        assert reused.selection == full.selection
        assert reused.cost.total_usd == pytest.approx(full.cost.total_usd)
        assert reused.cost.num_vms == full.cost.num_vms
        assert reused.selection_seconds == 0.5
        assert reused.validation.ok

    def test_shared_selection_across_rungs(self, problem):
        shared = GreedySelectPairs().select(problem)
        for rung in ("a", "b", "c", "d", "e"):
            solution = MCSSSolver.ladder(rung).solve_with_selection(problem, shared)
            assert solution.selection is shared
            assert solution.placement.num_pairs == shared.num_pairs
            assert solution.validation.ok

    def test_insufficient_selection_rejected(self, problem):
        with pytest.raises(ValueError):
            MCSSSolver.paper().solve_with_selection(problem, PairSelection({}))

    @pytest.mark.parametrize("rung", ["a", "b", "c", "d", "e"])
    def test_each_rung_reproduces_its_own_solve(self, problem, rung):
        # Every rung packs the shared selection cold: after all five
        # rungs have packed it, this rung's result is still exactly its
        # own end-to-end solve.
        shared = GreedySelectPairs().select(problem)
        for other in "abcde":
            MCSSSolver.ladder(other).solve_with_selection(problem, shared)
        solver = MCSSSolver.ladder(rung)
        reused = solver.solve_with_selection(problem, shared)
        own = solver.solve(problem)
        assert diff_placements(reused.placement, own.placement) is None
        assert reused.cost == own.cost


class _EmptyPacker(PackingAlgorithm):
    """Deploys nothing, so any problem with pairs fails the audit."""

    name = "empty"

    def pack(self, problem, selection):
        return Placement(problem.workload, problem.capacity_bytes)


class TestPackAndAudit:
    """solve_with_selection is the one Stage-2 + audit body, and its
    audit is validate_placement at every workload size; the out-of-core
    path (more than one ``MCSS_SHARD_SIZE`` subscriber range) is forced
    here through the ``MCSS_SHARD_SIZE`` / ``MCSS_SHARD_WORKERS`` knobs."""

    def test_validate_placement_looked_up_per_call(self, problem, monkeypatch):
        # The audit is resolved in the pipeline module at call time, so
        # a patched validate_placement (a tracing probe) sees every solve.
        from repro.solver import pipeline

        audited = []
        real = pipeline.validate_placement

        def counting(prob, placement):
            audited.append(placement)
            return real(prob, placement)

        monkeypatch.setattr(pipeline, "validate_placement", counting)
        solved = MCSSSolver.paper().solve(problem)
        reused = MCSSSolver.ladder("a").solve_with_selection(problem, solved.selection)
        assert len(audited) == 2
        assert audited[0] is solved.placement
        assert audited[1] is reused.placement

    def test_out_of_core_solve_audits_once(self, problem, monkeypatch, force_shards):
        # The sharded GSP fans out; the audit stays one in-process
        # validate_placement call on the finished placement.
        calls = []
        real = pipeline.validate_placement

        def recording(prob, placement):
            calls.append(placement)
            return real(prob, placement)

        monkeypatch.setattr(pipeline, "validate_placement", recording)
        force_shards(50, workers=2)
        assert len(subscriber_shards(problem.workload.num_subscribers)) > 1
        solution = MCSSSolver.paper().solve(problem)
        assert len(calls) == 1 and calls[0] is solution.placement
        assert solution.validation.ok

    @pytest.mark.parametrize("rung", ["a", "b", "c", "d", "e"])
    def test_sharded_path_packs_with_configured_packer(
        self, problem, rung, force_shards
    ):
        solver = MCSSSolver.ladder(rung)
        plain = solver.solve(problem)
        force_shards(50)
        sharded = solver.solve(problem)
        assert sharded.selector_name == "gsp"
        assert sharded.packer_name == solver.packer.name
        assert diff_placements(sharded.placement, plain.placement) is None
        assert sharded.cost == plain.cost

    def test_sharded_path_rejects_invalid_placement(self, problem, force_shards):
        solver = MCSSSolver(GreedySelectPairs(), _EmptyPacker())
        force_shards(50, workers=2)
        with pytest.raises(ValueError, match="invalid placement"):
            solver.solve(problem)
