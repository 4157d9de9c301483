"""Slow large-scale smoke: the vectorized paths at one million subscribers.

Deselected by default (``-m "not slow"`` is in ``addopts``); run with::

    PYTHONPATH=src python -m pytest -m slow -q tests/test_scale_smoke.py

Guards the two regressions the small randomized suites cannot see:

* silent int32 truncation in the whole-array select/pack/validate
  paths (index arithmetic over multi-million-pair arrays);
* memory blow-ups from accidentally materializing per-subscriber or
  per-pair Python objects (the peak-RSS bound fails fast if any hot
  path falls back to lists).
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core import MCSSProblem, validate_placement
from repro.core.backend import is_mapped
from repro.packing import CBPOptions, CustomBinPacking
from repro.selection import GreedySelectPairs
from repro.selection.sharded import subscriber_shards
from repro.solver import MCSSSolver
from repro.workloads import (
    TwitterConfig,
    TwitterWorkloadGenerator,
    load_workload,
    save_zipf_workload_chunked,
    zipf_workload,
)
from tests.conftest import make_unit_plan

NUM_SUBSCRIBERS = 1_000_000
NUM_TOPICS = 20_000

# The flat pair arrays are ~5M int64 entries (~40 MB each); a few
# dozen whole-array temporaries fit comfortably below this bound,
# while a per-subscriber fallback (Python ints/lists: >= 28 B per
# element times several structures) blows straight through it.
PEAK_BYTES_BOUND = 3 * 1024**3


@pytest.mark.slow
def test_million_subscriber_select_pack_validate():
    workload = zipf_workload(NUM_TOPICS, NUM_SUBSCRIBERS, mean_interest=5.0, seed=11)
    assert workload.num_subscribers == NUM_SUBSCRIBERS
    assert workload.num_pairs > NUM_SUBSCRIBERS  # multi-million pairs

    capacity = (
        max(
            2.5 * float(workload.event_rates.max()),
            float(workload.event_rates.sum()) / 16.0,
        )
        * workload.message_size_bytes
    )
    problem = MCSSProblem(workload, 100.0, make_unit_plan(float(capacity)))

    tracemalloc.start()
    try:
        selection = GreedySelectPairs().select(problem)
        placement = CustomBinPacking(CBPOptions.ladder("e")).pack(problem, selection)
        report = validate_placement(problem, placement)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    assert report.ok, f"invalid placement at scale: {report}"
    assert peak < PEAK_BYTES_BOUND, f"peak traced memory {peak / 1e9:.2f} GB"

    # No int32 truncation anywhere in the CSR plumbing: the flat arrays
    # stay int64 end to end and the offsets actually cover every pair.
    topics, indptr, subs = selection.csr_arrays()
    assert topics.dtype == np.int64
    assert indptr.dtype == np.int64
    assert subs.dtype == np.int64
    assert int(indptr[-1]) == selection.num_pairs == subs.size
    assert int(subs.max()) < NUM_SUBSCRIBERS
    assert int(topics.max()) < NUM_TOPICS

    # Every selected pair is placed exactly once by CBP.
    assert placement.num_pairs == selection.num_pairs
    vm_ids, _, sizes, all_subs = placement.assignment_arrays()
    assert all_subs.dtype == np.int64
    assert int(sizes.sum()) == selection.num_pairs
    assert placement.num_vms > 1
    assert vm_ids.size and int(vm_ids.max()) == placement.num_vms - 1


@pytest.mark.slow
def test_million_user_twitter_draw():
    """A 1M-user Twitter trace (tens of millions of follow edges).

    Exercises the vectorized CSR social-graph construction at the
    scale the paper's headline experiments run at (8M active users /
    683.5M pairs, here one order of magnitude down): the whole draw --
    weighted attachment, global dedup, deficit top-up, compaction --
    must stay whole-array.  A per-user fallback anywhere would blow
    the traced-memory bound (Python objects cost >= 28 B per element)
    and the wall-clock budget of the weekly slow job.
    """
    cfg = TwitterConfig(num_users=1_000_000)

    tracemalloc.start()
    try:
        trace = TwitterWorkloadGenerator(cfg).generate(seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    assert peak < PEAK_BYTES_BOUND, f"peak traced memory {peak / 1e9:.2f} GB"

    graph, workload = trace.graph, trace.workload
    assert graph.num_users == cfg.num_users
    assert graph.num_edges > 10_000_000  # tens of millions of edges
    assert workload.num_pairs > 10_000_000

    # The CSR plumbing stays int64 end to end and the offsets cover
    # every edge/pair exactly.
    assert graph.following_indptr.dtype == np.int64
    assert graph.following_targets.dtype == np.int64
    assert int(graph.following_indptr[-1]) == graph.following_targets.size
    assert int(graph.following_targets.max()) < cfg.num_users
    assert workload.interest_indptr.dtype == np.int64
    assert workload.interest_topics.dtype == np.int64
    assert int(workload.interest_indptr[-1]) == workload.num_pairs
    assert int(workload.interest_topics.max()) < workload.num_topics

    # Compaction invariants at scale: active topics only, every
    # subscriber kept a non-empty interest.
    assert workload.event_rates.min() >= 1
    assert int(workload.interest_sizes().min()) >= 1


@pytest.mark.slow
def test_ten_million_pair_ladder_rung():
    """A ~10M-pair ladder rung with one Stage-1 selection shared by rungs.

    The experiment ladder no longer re-selects per packing variant:
    selection depends only on (workload, tau), so one GSP selection
    feeds every CBP rung through ``solve_with_selection``.  The 2M
    subscribers span two default ``MCSS_SHARD_SIZE`` ranges, so that
    selection is sharded GSP: one vectorized sweep per 1M-subscriber
    shard, merged exactly (in process unless ``MCSS_SHARD_WORKERS >
    1``).  The audit inside ``solve_with_selection`` runs over topic
    shards likewise.  This smoke runs that reuse path one order of
    magnitude above the 1M-subscriber test (9.4M workload pairs / 6.3M
    selected pairs) and bounds the traced memory the same way -- a
    per-pair Python fallback in selection, packing, validation or the
    selection-reuse plumbing would blow straight through the bound.
    """
    workload = zipf_workload(40_000, 2_000_000, mean_interest=5.0, seed=13)
    assert workload.num_pairs > 9_000_000  # ~10M pairs

    capacity = (
        max(
            2.5 * float(workload.event_rates.max()),
            float(workload.event_rates.sum()) / 64.0,
        )
        * workload.message_size_bytes
    )
    problem = MCSSProblem(workload, 100.0, make_unit_plan(float(capacity)))

    tracemalloc.start()
    try:
        selection = GreedySelectPairs().select(problem)
        # Two CBP rungs share the one selection (validation included in
        # solve_with_selection; an invalid placement raises).
        rung_e = MCSSSolver.ladder("e").solve_with_selection(problem, selection)
        rung_b = MCSSSolver.ladder("b").solve_with_selection(problem, selection)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    assert peak < PEAK_BYTES_BOUND, f"peak traced memory {peak / 1e9:.2f} GB"

    assert selection.num_pairs > 5_000_000
    topics, indptr, subs = selection.csr_arrays()
    assert topics.dtype == indptr.dtype == subs.dtype == np.int64
    assert int(indptr[-1]) == selection.num_pairs == subs.size

    # Both rungs place every selected pair exactly once and validate.
    for solution in (rung_e, rung_b):
        assert solution.validation.ok
        assert solution.placement.num_pairs == selection.num_pairs
        assert solution.placement.num_vms > 1
        assert solution.selection is selection  # genuinely shared
    # The full cost decision only redistributes; both rungs price the
    # same selection, so their totals stay within a few percent.
    assert rung_e.cost.total_usd == pytest.approx(
        rung_b.cost.total_usd, rel=0.10
    )


@pytest.mark.slow
def test_out_of_core_hundred_million_pairs(tmp_path, force_shards):
    """The headline out-of-core rung: 10M subscribers / >= 100M pairs.

    The trace never exists in RAM as a whole: it is generated chunk by
    chunk straight to disk, re-opened memory-mapped, and solved with
    the sharded pipeline.  The flat CSR arrays alone are ~2 GB, so the
    traced-memory bound below is only reachable because every stage --
    chunked generation, mmap load, subscriber-sharded Stage 1, one
    sequential pack and the whole-array audit over the selection --
    keeps the workload's CSR on disk.  mmap pages are the kernel's,
    not the Python heap's, which is exactly what tracemalloc certifies
    here.
    """
    force_shards(1_000_000)
    tracemalloc.start()
    try:
        path = save_zipf_workload_chunked(
            tmp_path / "trace",
            200_000,
            10_000_000,
            mean_interest=12.0,
            seed=7,
        )
        workload = load_workload(path, mmap=True)
        assert is_mapped(workload.interest_topics)
        assert workload.num_subscribers == 10_000_000
        assert workload.num_pairs >= 100_000_000

        capacity = (
            max(
                2.5 * float(workload.event_rates.max()),
                float(workload.event_rates.sum()) / 8.0,
            )
            * workload.message_size_bytes
        )
        problem = MCSSProblem(workload, 100.0, make_unit_plan(float(capacity)))
        assert len(subscriber_shards(workload.num_subscribers)) == 10
        solution = MCSSSolver.paper().solve(problem)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    assert peak < PEAK_BYTES_BOUND, f"peak traced memory {peak / 1e9:.2f} GB"
    assert solution.validation.ok
    assert solution.selector_name == "gsp"
    assert solution.selection.num_pairs > 10_000_000
    assert solution.placement.num_pairs == solution.selection.num_pairs
    assert solution.placement.num_vms > 1

    topics, indptr, subs = solution.selection.csr_arrays()
    assert topics.dtype == indptr.dtype == subs.dtype == np.int64
    assert int(indptr[-1]) == solution.selection.num_pairs == subs.size
