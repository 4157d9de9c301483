"""Out-of-core solves == the in-RAM paths, exactly.

The out-of-core pipeline (subscriber-sharded GSP, threaded shard
sweeps, mmap-backed workloads, and the same whole-array audit) claims
*bit-exactness* with the in-RAM single-process solve -- not
statistical agreement.  These tests pin that claim on the edgy
randomized workloads of the equivalence suite, including merges over
adversarial shard boundaries (empty shards, single-subscriber shards)
and broken placements audited on memory-mapped storage.  The solver
picks the out-of-core path by workload size, so the tests force it
through the ``MCSS_SHARD_SIZE`` / ``MCSS_SHARD_WORKERS`` knobs.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

from repro.core import MCSSProblem, validate_placement, validate_placement_loop
from repro.core.backend import is_mapped
from repro.packing import FFBinPacking, diff_placements
from repro.resilience import TraceCorruptionError
from repro.selection import GreedySelectPairs, merge_shard_groups
from repro.selection.sharded import shard_bounds, subscriber_shards
from repro.solver import MCSSSolver
from repro.workloads import load_workload, save_workload, zipf_workload
from tests.conftest import make_unit_plan
from tests.test_vectorized_equivalence import edgy_workload, taus_for

NUM_RANDOM_WORKLOADS = 24


def assert_same_csr(a, b):
    """Selection identity down to group order and within-group order."""
    at, ai, asub = a.csr_arrays()
    bt, bi, bsub = b.csr_arrays()
    np.testing.assert_array_equal(at, bt)
    np.testing.assert_array_equal(ai, bi)
    np.testing.assert_array_equal(asub, bsub)


class TestShardMerge:
    @pytest.mark.parametrize("seed", range(NUM_RANDOM_WORKLOADS))
    def test_random_boundaries_match_unsharded(self, seed):
        # Property test: ANY contiguous partition of the subscriber
        # axis merges back to the whole-array selection, bit for bit.
        rng = np.random.default_rng(31_000 + seed)
        workload = edgy_workload(rng)
        n = workload.num_subscribers
        for tau in taus_for(workload, rng):
            problem = MCSSProblem(workload, tau, make_unit_plan(1e12))
            expected = GreedySelectPairs().select(problem)

            cuts = np.sort(rng.integers(0, n + 1, size=int(rng.integers(0, 4))))
            bounds = list(zip([0, *cuts.tolist()], [*cuts.tolist(), n]))
            gsp = GreedySelectPairs()
            groups = [
                g
                for g in (gsp._select_shard(problem, lo, hi) for lo, hi in bounds)
                if g is not None
            ]
            if not groups:
                assert expected.num_pairs == 0
                continue
            merged = GreedySelectPairs._finalize_groups(*merge_shard_groups(groups))
            assert_same_csr(merged, expected)

    @pytest.mark.parametrize("shard_size", (1, 3, 5, 100))
    def test_selector_matches_gsp(self, shard_size, small_zipf, force_shards):
        problem = MCSSProblem(small_zipf, 100.0, make_unit_plan(1e12))
        expected = GreedySelectPairs().select(problem)
        force_shards(shard_size)
        sharded = GreedySelectPairs().select(problem)
        assert_same_csr(sharded, expected)

    def test_select_shards_by_workload_size(
        self, small_zipf, force_shards, monkeypatch
    ):
        # One shard keeps the whole-array sweep; more run one sweep each
        # (in-process, so the spy sees them).
        problem = MCSSProblem(small_zipf, 100.0, make_unit_plan(1e12))
        seen = []
        real = GreedySelectPairs._select_shard

        def spy(self, problem, lo, hi):
            seen.append((lo, hi))
            return real(self, problem, lo, hi)

        monkeypatch.setattr(GreedySelectPairs, "_select_shard", spy)
        force_shards(small_zipf.num_subscribers, workers=1)
        GreedySelectPairs().select(problem)
        assert seen == []
        force_shards(50, workers=1)
        GreedySelectPairs().select(problem)
        assert seen == [(0, 50), (50, 100), (100, 150), (150, 200)]

    @pytest.mark.parametrize(
        "shard_size, workers",
        # 12 shards on 2 threads; 29 shards on 4 threads, more than a
        # 2-vCPU host has cores; 2 shards with 3 workers asked for.
        [(17, 2), (7, 4), (100, 3)],
    )
    def test_threaded_workers_match_serial(
        self, shard_size, workers, backed_small_zipf, force_shards
    ):
        problem = MCSSProblem(backed_small_zipf, 100.0, make_unit_plan(1e12))
        force_shards(shard_size, workers=1)
        serial = GreedySelectPairs().select(problem)
        force_shards(shard_size, workers=workers)
        # Switch threads every microsecond: the shards read the parent
        # workload and share nothing mutable, so no interleaving may
        # change the selection.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = GreedySelectPairs().select(problem)
        finally:
            sys.setswitchinterval(interval)
        assert_same_csr(threaded, serial)

    @pytest.mark.parametrize("seed", range(NUM_RANDOM_WORKLOADS))
    def test_threaded_select_matches_unsharded(self, seed, force_shards):
        # Random shard sizes down to one subscriber, over workloads with
        # empty interest rows, so some shards select nothing.
        rng = np.random.default_rng(33_000 + seed)
        workload = edgy_workload(rng)
        problems = [
            MCSSProblem(workload, tau, make_unit_plan(1e12))
            for tau in taus_for(workload, rng)
        ]
        expected = [GreedySelectPairs().select(problem) for problem in problems]
        n = workload.num_subscribers
        force_shards(int(rng.integers(1, max(n, 2))), workers=2)
        for problem, want in zip(problems, expected):
            assert_same_csr(GreedySelectPairs().select(problem), want)

    @pytest.mark.parametrize("workers", (1, 2))
    def test_shard_error_surfaces_unchanged(
        self, workers, small_zipf, force_shards, monkeypatch
    ):
        problem = MCSSProblem(small_zipf, 100.0, make_unit_plan(1e12))
        error = TraceCorruptionError("member 'interest_topics' failed its digest")
        real = GreedySelectPairs._select_shard

        def failing(self, problem, lo, hi):
            if lo == 100:
                raise error
            return real(self, problem, lo, hi)

        monkeypatch.setattr(GreedySelectPairs, "_select_shard", failing)
        force_shards(50, workers=workers)
        with pytest.raises(TraceCorruptionError) as raised:
            GreedySelectPairs().select(problem)
        assert raised.value is error

    def test_rejects_bad_shard_size(self, small_zipf, force_shards):
        problem = MCSSProblem(small_zipf, 100.0, make_unit_plan(1e12))
        force_shards(0)
        with pytest.raises(ValueError, match="MCSS_SHARD_SIZE"):
            GreedySelectPairs().select(problem)


class TestMmapAudit:
    """The out-of-core audit is ``validate_placement`` on mapped storage."""

    @pytest.mark.parametrize("seed", range(NUM_RANDOM_WORKLOADS))
    def test_solved_and_broken_placements(self, seed, tmp_path):
        rng = np.random.default_rng(32_000 + seed)
        workload = edgy_workload(rng)
        mapped = load_workload(save_workload(workload, tmp_path / "edgy"), mmap=True)
        assert is_mapped(mapped.interest_topics)
        max_rate = float(workload.event_rates.max())
        big = MCSSProblem(mapped, 8.0, make_unit_plan(1e9))
        placement = FFBinPacking().pack(big, GreedySelectPairs().select(big))
        # A feasible audit and a deliberately violated one (tight
        # capacity + higher tau): the mapped audit must match the loop
        # referee on the in-RAM workload field for field (dataclass ==).
        verdicts = []
        for tau, plan in ((8.0, big.plan), (50.0, make_unit_plan(2.0 * max_rate))):
            got = validate_placement(MCSSProblem(mapped, tau, plan), placement)
            want = validate_placement_loop(MCSSProblem(workload, tau, plan), placement)
            assert got == want, f"tau={tau}"
            verdicts.append(got.ok)
        assert verdicts == [True, False]


class TestSolveSharded:
    def test_matches_paper_solve(self, small_zipf, force_shards):
        capacity_bytes = (
            4.0 * float(small_zipf.event_rates.max()) * small_zipf.message_size_bytes
        )
        problem = MCSSProblem(small_zipf, 100.0, make_unit_plan(capacity_bytes))
        plain = MCSSSolver.paper().solve(problem)
        force_shards(33, workers=2)
        sharded = MCSSSolver.paper().solve(problem)
        assert_same_csr(sharded.selection, plain.selection)
        assert diff_placements(sharded.placement, plain.placement) is None
        assert sharded.cost.num_vms == plain.cost.num_vms
        assert sharded.cost.total_usd == pytest.approx(
            plain.cost.total_usd, rel=1e-12
        )
        assert sharded.validation.ok
        assert sharded.selector_name == "gsp"


class TestMmapLadder:
    def test_mmap_ladder_matches_ram(self, tmp_path):
        from repro.experiments import LADDER_VARIANTS, run_cost_ladder

        # ~195k pairs: the pair-sized caches pass MmapBackend's 1 MiB
        # spill floor, so every tau after the first reads them from disk.
        workload = zipf_workload(200, 30_000, mean_interest=8.0, seed=6)
        capacity_bytes = (
            4.0 * float(workload.event_rates.max()) * workload.message_size_bytes
        )
        plan = make_unit_plan(capacity_bytes)
        taus = [10.0, 100.0, 1000.0]
        # The CBP rungs and the bound; first-fit would dominate the time.
        variants = LADDER_VARIANTS[2:]
        expected = run_cost_ladder(workload, plan, taus, variants=variants)
        path = save_workload(workload, tmp_path / "ladder")
        # Twice over the same file: the second run re-spills its caches
        # over the first run's.
        for _ in range(2):
            mapped = load_workload(path, mmap=True)
            got = run_cost_ladder(mapped, plan, taus, variants=variants)
            assert got.cells == expected.cells
        assert os.listdir(f"{path}.cache")


class TestShardBounds:
    def test_shard_bounds(self):
        assert shard_bounds(10, 4) == [(0, 4), (4, 8), (8, 10)]
        assert shard_bounds(4, 4) == [(0, 4)]
        assert shard_bounds(0, 4) == []
        with pytest.raises(ValueError):
            shard_bounds(10, 0)

    def test_subscriber_shards_follow_the_knob(self, monkeypatch):
        monkeypatch.delenv("MCSS_SHARD_SIZE", raising=False)
        assert subscriber_shards(1_000_000) == [(0, 1_000_000)]
        assert len(subscriber_shards(1_000_001)) == 2
        monkeypatch.setenv("MCSS_SHARD_SIZE", "4")
        assert subscriber_shards(10) == [(0, 4), (4, 8), (8, 10)]
        assert subscriber_shards(0) == []
