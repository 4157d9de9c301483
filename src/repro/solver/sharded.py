"""Topic-sharded validation for the out-of-core pipeline.

Stage 2 (CBP) is inherently sequential -- every placement decision
conditions on the bins left by the previous one -- so the out-of-core
solve parallelizes *around* it: Stage 1 shards subscribers
(:mod:`repro.selection.sharded`), Stage 2 packs once, and the final
audit shards *topics* here.  :meth:`repro.solver.MCSSSolver.solve`
audits this way when the workload spans more than one
``MCSS_SHARD_SIZE`` subscriber range; with ``MCSS_SHARD_WORKERS=1``
that is one shard, in process.

:func:`sharded_validate` splits the placement's (vm, topic) assignment
groups into contiguous topic ranges, runs the same partial reduction
:func:`repro.core.validation.validate_placement` uses internally
(:func:`~repro.core.validation._reduce_assignments`) on each shard --
optionally across forked, supervised workers (see
:func:`repro.resilience.supervise.supervised_map`) -- and sums the
per-VM byte vectors
and per-subscriber delivered-rate vectors before handing them to the
shared verdict.  The partition is by *topic*, which is what makes the
partial reductions additive: capacity terms are per-group independent,
and the delivered-rate dedup only ever merges (t, v) pairs sharing a
topic, so no duplicate can straddle two shards.  Sums of the disjoint
partials equal the whole-array reduction exactly for integer-valued
event rates (every bundled generator) and to float tolerance
otherwise -- the same contract the vectorized validator already has
with the loop referee.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..core import MCSSProblem, Placement, ValidationReport
from ..core.validation import _reduce_assignments, _verdict
from ..resilience.supervise import default_workers, shard_bounds, supervised_map

__all__ = ["sharded_validate"]


def _reduce_shard(
    args: Tuple[MCSSProblem, Placement, np.ndarray]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, List[str]]:
    problem, placement, entries = args
    return _reduce_assignments(problem, placement, entries)


def sharded_validate(
    problem: MCSSProblem,
    placement: Placement,
    *,
    shards: Optional[int] = None,
    workers: Optional[int] = None,
) -> ValidationReport:
    """Audit a placement with the reduction fanned out over topic shards.

    ``shards`` defaults to ``workers`` (which defaults to
    ``MCSS_SHARD_WORKERS``); with one shard this is exactly
    :func:`~repro.core.validation.validate_placement`.  Verdict fields
    (``ok`` flags, overloaded VMs, unsatisfied subscribers) match the
    unsharded validator; duplicate-subscriber diagnostics may list in
    shard order rather than global group order.
    """
    workers = default_workers() if workers is None else int(workers)
    shards = max(1, workers) if shards is None else int(shards)
    if shards <= 1:
        return _verdict(problem, placement, *_reduce_assignments(problem, placement))

    _, topic_arr, _, _ = placement.assignment_arrays()
    num_topics = problem.workload.num_topics
    # ceil, and at least 1 so a topicless workload audits as no shards;
    # the partition never splits a topic.
    shard_size = max(1, -(-num_topics // shards))
    parts = supervised_map(
        _reduce_shard,
        [
            (problem, placement, np.flatnonzero((topic_arr >= lo) & (topic_arr < hi)))
            for lo, hi in shard_bounds(num_topics, shard_size)
        ],
        workers,
    )
    out_bytes = sum(p[0] for p in parts)
    in_bytes = sum(p[1] for p in parts)
    delivered = sum(p[2] for p in parts)
    duplicate_msgs = [m for p in parts for m in p[3]]
    return _verdict(
        problem, placement, out_bytes, in_bytes, delivered, duplicate_msgs
    )
