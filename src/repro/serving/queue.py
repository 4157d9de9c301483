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

The queue holds operations only.  A seal's re-priced topics are the
churn source's record; the reprovisioner re-prices from the rates it
holds, so a batch handed back after a raised step needs nothing but its
operations to be applied in full.  Ids follow one rule
(:func:`~repro.dynamic.churn.id_array`): integers in ``[0, count)``.  A
fragment knows no counts and checks only that they are non-negative;
the service checks a fragment against the run's counts before queueing
it (:func:`check_ids`), and :meth:`ChurnIngestQueue.restore` checks
the saved churn against the workload the run resumes at.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from ..dynamic.churn import WorkloadDelta, id_array

__all__ = ["ChurnFragment", "ChurnIngestQueue", "split_delta"]

_EMPTY = np.empty(0, dtype=np.int64)
_EMPTY.setflags(write=False)

# A fragment's arrays, in field order.
_FIELDS = (
    "unsubscribed_topics",
    "unsubscribed_subscribers",
    "subscribed_topics",
    "subscribed_subscribers",
)


@dataclass(frozen=True)
class ChurnFragment:
    """A contiguous slice of one epoch's churn-operation stream.

    Ids must be non-negative integers: a ``ValueError`` names the first
    field that holds another value.
    """

    unsubscribed_topics: np.ndarray
    unsubscribed_subscribers: np.ndarray
    subscribed_topics: np.ndarray
    subscribed_subscribers: np.ndarray

    def __post_init__(self) -> None:
        for name in _FIELDS:
            object.__setattr__(self, name, id_array(name, getattr(self, name)))
        if self.unsubscribed_topics.size != self.unsubscribed_subscribers.size:
            raise ValueError("unsubscribed pair arrays must be parallel")
        if self.subscribed_topics.size != self.subscribed_subscribers.size:
            raise ValueError("subscribed pair arrays must be parallel")

    @property
    def num_ops(self) -> int:
        """Operations carried (unsubscribes + subscribes)."""
        return int(self.unsubscribed_topics.size + self.subscribed_topics.size)


def check_ids(fragment: ChurnFragment, workload) -> None:
    """Check that ``fragment`` names only ``workload``'s subscribers and topics.

    A ``ValueError`` names the first field holding an id past
    ``workload``'s counts; an object other than a fragment raises
    ``TypeError``, as :meth:`ChurnIngestQueue.offer` does.
    """
    if not isinstance(fragment, ChurnFragment):
        raise TypeError("offer() takes a ChurnFragment")
    for name in _FIELDS:
        id_array(name, getattr(fragment, name), workload)


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

    def _pending(self) -> ChurnFragment:
        """The buffered fragments concatenated field-wise, in arrival order."""
        return ChurnFragment(
            *(
                np.concatenate([_EMPTY, *(getattr(f, name) for f in self._fragments)])
                for name in _FIELDS
            )
        )

    def seal_epoch(self, workload, changed_topics) -> WorkloadDelta:
        """Drain the queue into one exact :class:`WorkloadDelta`.

        ``workload`` is the epoch's resulting workload and
        ``changed_topics`` its re-priced topic ids as the churn source
        records them (rate drift applies at the epoch boundary, not per
        fragment).  After an :meth:`unseal`, the handed-back batch's
        operations lead.  The delta is built before the queue drains, so
        an id ``workload`` lacks raises ``ValueError`` (naming the
        field) and leaves the queue as it was.
        """
        pending = self._pending()
        delta = WorkloadDelta(
            workload,
            pending.subscribed_topics,
            pending.subscribed_subscribers,
            pending.unsubscribed_topics,
            pending.unsubscribed_subscribers,
            changed_topics,
        )
        self._fragments = []
        self._depth = 0
        return delta

    def unseal(self, delta: WorkloadDelta) -> None:
        """Hand back a sealed delta whose step raised, to be sealed again.

        Its operations return to the head of the queue as one fragment,
        ahead of anything offered since.  A step that raised changed
        nothing, so the next seal must carry this batch or its
        subscribers are never re-selected.  Its re-priced topics need no
        keeping: the reprovisioner still holds the rates from before the
        batch, and the next step re-prices every topic whose rate
        differs from them.
        """
        self._fragments.insert(
            0, ChurnFragment(*(getattr(delta, name) for name in _FIELDS))
        )
        self._depth += self._fragments[0].num_ops

    def snapshot(self) -> Dict[str, np.ndarray]:
        """The queue's members, as a checkpoint writes them.

        The buffered operations' four arrays in arrival order, each as
        ``pending_<field>``.
        """
        pending = self._pending()
        return {"pending_" + name: getattr(pending, name) for name in _FIELDS}

    @classmethod
    def restore(cls, members, workload) -> "ChurnIngestQueue":
        """A queue holding a :meth:`snapshot`'s churn.

        ``members`` maps the snapshot's names to arrays.  The churn is
        queued as one fragment, as :meth:`unseal` re-queues a batch, so
        the next seal drains exactly what the saved queue would have.
        Its ids must be those of ``workload``, the one the run resumes
        at: a ``ValueError`` names the first member holding another.
        """
        queue = cls()
        queue.offer(
            ChurnFragment(
                *(
                    id_array("pending_" + name, members["pending_" + name], workload)
                    for name in _FIELDS
                )
            )
        )
        return queue
