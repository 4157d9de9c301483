"""Sharded GSP: the shard rule and the exact merge behind out-of-core Stage 1.

When a workload spans more than one ``MCSS_SHARD_SIZE`` subscriber
range (:func:`subscriber_shards`),
:meth:`repro.selection.greedy.GreedySelectPairs.select` splits the
subscriber axis into contiguous shards, runs the vectorized sweep on
each shard's zero-copy sub-view
(:meth:`repro.core.Workload.subscriber_range`), and merges the
per-shard topic groups here into exactly the selection the whole-array
sweep emits.  With an mmap-backed workload no shard ever materializes
pair-sized arrays beyond its own slice, which is what makes 100M-pair
solves fit a small RAM budget.  With ``MCSS_SHARD_WORKERS > 1`` the
shard sweeps run on a thread pool: NumPy releases the interpreter
lock inside its kernels, the shards share no mutable state (each
sub-view keeps its derived caches in RAM, GSP keeps none), and the
pool hands the merge its groups in shard order whichever shard
finishes first -- so no locks are needed and the result is the
serial one.  Each running thread holds its shard's working set at
once, so two workers trade memory for time.

Why the merge is bit-exact
--------------------------
GSP is per-subscriber independent: subscriber ``v``'s picks depend only
on its own interest row, its threshold, and the global rate table --
all identical in the shard sub-view.  The only cross-subscriber state
is the *presentation order*: groups keyed by first appearance in the
global subscriber-major scan.  :meth:`GreedySelectPairs.select_grouped`
exposes precisely that order as per-group first-appearance ranks
(twice the global scan position; overshoot picks rank
``2*indptr[v+1] - 1``).  A shard covering ``[lo, hi)`` scans the slice
of the global order starting at ``indptr[lo]``, so rebasing its local
ranks by ``2*indptr[lo]`` (both rank forms shift identically) and its
subscriber ids by ``lo`` makes shard ranks globally comparable.  The
merge then takes, per distinct topic, the minimum rebased rank and
concatenates the shard chunks in shard order -- which *is* ascending
subscriber order, since shards partition the subscriber axis
contiguously.  No floats are compared across shards at any point, so
the equivalence holds exactly, not just to tolerance.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..core.segsearch import ranges
from ..resilience.knobs import env_int

__all__ = [
    "default_shard_size",
    "default_workers",
    "merge_shard_groups",
    "shard_bounds",
    "subscriber_shards",
]

_Groups = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def default_shard_size() -> int:
    """Subscribers per shard (``MCSS_SHARD_SIZE``, default 1,000,000)."""
    return env_int("MCSS_SHARD_SIZE", 1_000_000, minimum=1)


def default_workers() -> int:
    """Threads for the shard sweeps (``MCSS_SHARD_WORKERS``, default 1)."""
    return env_int("MCSS_SHARD_WORKERS", 1, minimum=0)


def shard_bounds(n: int, shard_size: int) -> List[Tuple[int, int]]:
    """Contiguous ``[lo, hi)`` ranges covering ``range(n)``.

    Every shard has ``shard_size`` items except possibly the last.
    ``n == 0`` yields no shards.
    """
    if shard_size <= 0:
        raise ValueError("shard_size must be positive")
    return [(lo, min(lo + shard_size, n)) for lo in range(0, n, shard_size)]


def subscriber_shards(num_subscribers: int) -> List[Tuple[int, int]]:
    """The ``MCSS_SHARD_SIZE`` subscriber ranges of a workload.

    More than one range means the workload is solved out of core:
    Stage 1 runs per shard (on ``MCSS_SHARD_WORKERS`` threads) and
    merges bit-exactly.
    """
    return shard_bounds(num_subscribers, default_shard_size())


def merge_shard_groups(groups: List[_Groups]) -> _Groups:
    """Merge rebased per-shard topic groups into global topic groups.

    Input tuples are ``(group_topics, sizes, first_seen, subscribers)``
    from :meth:`GreedySelectPairs._select_shard`, one per shard *in
    shard order*.  The output is the same shape over the union of
    topics: distinct topics ascending, per-topic sizes summed,
    per-topic minimum first-seen rank, and each topic's subscribers
    concatenated in shard order (= ascending subscriber, shards being
    contiguous ranges).  All integer bookkeeping -- exact by
    construction.
    """
    topics = np.concatenate([g[0] for g in groups])
    sizes = np.concatenate([g[1] for g in groups]).astype(np.int64)
    first_seen = np.concatenate([g[2] for g in groups])
    all_subs = np.concatenate([g[3] for g in groups])

    # Per distinct topic: summed size and minimum first-appearance rank.
    g_topics, dest = np.unique(topics, return_inverse=True)
    g_sizes = np.bincount(dest, weights=sizes, minlength=g_topics.size).astype(
        np.int64
    )
    g_first = np.full(g_topics.size, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(g_first, dest, first_seen)

    # Scatter the shard chunks into topic-grouped layout in O(P): sort
    # the *chunks* by destination topic (stable, so shard order -- i.e.
    # ascending subscribers -- survives within a topic); laying the
    # sorted chunks end to end is then exactly the grouped output, one
    # fancy gather of their concatenated ranges.
    src_starts = np.cumsum(sizes) - sizes
    corder = np.argsort(dest, kind="stable")
    return g_topics, g_sizes, g_first, all_subs[ranges(src_starts[corder], sizes[corder])]
