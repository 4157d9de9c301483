"""Continuous churn ingestion: fragments in, sealed epoch deltas out.

The serving layer receives churn as it happens -- unsubscribe and
subscribe operations trickling in -- rather than as the tidy
per-epoch :class:`~repro.dynamic.churn.WorkloadDelta` the batch
experiments consume.  :class:`ChurnIngestQueue` buffers those arrivals
as :class:`ChurnFragment` slices and seals them back into one exact
``WorkloadDelta`` per micro-epoch.

The reassembly is lossless by construction: an epoch's operation
stream is its unsubscribed pairs in draw order followed by its
subscribed pairs in draw order, fragments are contiguous slices of
that stream, and field-wise concatenation in arrival order restores
the original arrays bit-for-bit.  That is what lets the equivalence
suite pin the whole serving path against the ``reprovision-loop``
referee across *randomized* fragment splits: however the stream is
chopped, the sealed delta -- and hence the placement surgery -- is
identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..core.segsearch import sorted_unique
from ..dynamic.churn import WorkloadDelta, frozen_int64

__all__ = ["ChurnFragment", "ChurnIngestQueue", "split_delta"]

_EMPTY = np.empty(0, dtype=np.int64)
_EMPTY.setflags(write=False)


@dataclass(frozen=True)
class ChurnFragment:
    """A contiguous slice of one epoch's churn-operation stream."""

    unsubscribed_topics: np.ndarray
    unsubscribed_subscribers: np.ndarray
    subscribed_topics: np.ndarray
    subscribed_subscribers: np.ndarray

    def __post_init__(self) -> None:
        for name in (
            "unsubscribed_topics",
            "unsubscribed_subscribers",
            "subscribed_topics",
            "subscribed_subscribers",
        ):
            object.__setattr__(self, name, frozen_int64(getattr(self, name)))
        if self.unsubscribed_topics.size != self.unsubscribed_subscribers.size:
            raise ValueError("unsubscribed pair arrays must be parallel")
        if self.subscribed_topics.size != self.subscribed_subscribers.size:
            raise ValueError("subscribed pair arrays must be parallel")

    @property
    def num_ops(self) -> int:
        """Operations carried (unsubscribes + subscribes)."""
        return int(self.unsubscribed_topics.size + self.subscribed_topics.size)


def split_delta(
    delta: WorkloadDelta, cuts: Sequence[int] = ()
) -> List[ChurnFragment]:
    """Slice a delta's operation stream at ``cuts`` into fragments.

    The stream is the ``U`` unsubscribes (draw order) followed by the
    ``S`` subscribes (draw order); ``cuts`` are positions in
    ``[0, U + S]``, in any order, duplicates allowed (they yield empty
    fragments, which are legal).  Concatenating the returned fragments
    in order reproduces the delta's arrays exactly -- the round-trip
    :meth:`ChurnIngestQueue.seal_epoch` relies on.
    """
    num_unsub = int(delta.unsubscribed_topics.size)
    num_ops = num_unsub + int(delta.subscribed_topics.size)
    bounds = [0] + sorted(int(c) for c in cuts) + [num_ops]
    if bounds[1] < 0 or bounds[-2] > num_ops:
        raise ValueError(f"cuts must lie in [0, {num_ops}]")
    fragments: List[ChurnFragment] = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        u_lo, u_hi = min(lo, num_unsub), min(hi, num_unsub)
        s_lo, s_hi = max(lo, num_unsub) - num_unsub, max(hi, num_unsub) - num_unsub
        fragments.append(
            ChurnFragment(
                delta.unsubscribed_topics[u_lo:u_hi],
                delta.unsubscribed_subscribers[u_lo:u_hi],
                delta.subscribed_topics[s_lo:s_hi],
                delta.subscribed_subscribers[s_lo:s_hi],
            )
        )
    return fragments


class ChurnIngestQueue:
    """FIFO of churn fragments awaiting the next micro-epoch seal."""

    def __init__(self) -> None:
        self._fragments: List[ChurnFragment] = []
        self._depth = 0
        # Re-priced topics of an unsealed batch, owed to the next seal.
        self._changed = _EMPTY

    @property
    def depth(self) -> int:
        """Pending operations across all buffered fragments."""
        return self._depth

    def offer(self, fragment: ChurnFragment) -> None:
        """Enqueue one fragment."""
        if not isinstance(fragment, ChurnFragment):
            raise TypeError("offer() takes a ChurnFragment")
        self._fragments.append(fragment)
        self._depth += fragment.num_ops

    def seal_epoch(self, workload, changed_topics) -> WorkloadDelta:
        """Drain the queue into one exact :class:`WorkloadDelta`.

        ``workload`` is the epoch's resulting workload and
        ``changed_topics`` its re-priced topic ids (rate drift applies
        at the epoch boundary, not per fragment).  Field-wise
        concatenation in arrival order restores the original draw-order
        arrays because fragments are contiguous stream slices.  After
        an :meth:`unseal`, the delta also carries the handed-back
        batch: its operations lead, and its re-priced topics join
        ``changed_topics`` (sorted, distinct).
        """
        if self._changed.size:
            changed_topics = sorted_unique(
                np.concatenate((self._changed, np.asarray(changed_topics, np.int64)))
            )
            self._changed = _EMPTY
        fragments = self._fragments
        delta = WorkloadDelta(
            workload,
            np.concatenate([f.subscribed_topics for f in fragments])
            if fragments
            else _EMPTY,
            np.concatenate([f.subscribed_subscribers for f in fragments])
            if fragments
            else _EMPTY,
            np.concatenate([f.unsubscribed_topics for f in fragments])
            if fragments
            else _EMPTY,
            np.concatenate([f.unsubscribed_subscribers for f in fragments])
            if fragments
            else _EMPTY,
            changed_topics,
        )
        self._fragments = []
        self._depth = 0
        return delta

    def unseal(self, delta: WorkloadDelta) -> None:
        """Hand back a sealed delta whose step raised, to be sealed again.

        Its operations return to the head of the queue as one fragment,
        ahead of anything offered since, and its re-priced topics are
        owed to the next seal.  A step that raised changed nothing, so
        the next seal must carry this batch or its subscribers are
        never re-selected.
        """
        self._fragments.insert(
            0,
            ChurnFragment(
                delta.unsubscribed_topics,
                delta.unsubscribed_subscribers,
                delta.subscribed_topics,
                delta.subscribed_subscribers,
            ),
        )
        self._depth += self._fragments[0].num_ops
        self._changed = delta.changed_topics
