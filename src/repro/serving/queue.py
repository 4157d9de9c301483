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
from typing import Dict, List, Sequence

import numpy as np

from ..core.segsearch import sorted_unique
from ..dynamic.churn import WorkloadDelta, frozen_int64

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

    Ids must be non-negative: a ``ValueError`` names the first field
    that holds a negative one.
    """

    unsubscribed_topics: np.ndarray
    unsubscribed_subscribers: np.ndarray
    subscribed_topics: np.ndarray
    subscribed_subscribers: np.ndarray

    def __post_init__(self) -> None:
        for name in _FIELDS:
            ids = frozen_int64(getattr(self, name))
            if ids.size and ids.min() < 0:
                raise ValueError(f"{name} must hold non-negative ids")
            object.__setattr__(self, name, ids)
        if self.unsubscribed_topics.size != self.unsubscribed_subscribers.size:
            raise ValueError("unsubscribed pair arrays must be parallel")
        if self.subscribed_topics.size != self.subscribed_subscribers.size:
            raise ValueError("subscribed pair arrays must be parallel")

    @property
    def num_ops(self) -> int:
        """Operations carried (unsubscribes + subscribes)."""
        return int(self.unsubscribed_topics.size + self.subscribed_topics.size)


def topic_ids(name: str, ids, num_topics: int) -> np.ndarray:
    """``ids`` as int64, checked to be topic ids in ``[0, num_topics)``.

    A ``ValueError`` names ``name`` when one is not.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and not (0 <= ids.min() and ids.max() < num_topics):
        raise ValueError(f"{name} must be topic ids in [0, {num_topics})")
    return ids


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
        ``changed_topics`` its re-priced topic ids (rate drift applies
        at the epoch boundary, not per fragment).  After an
        :meth:`unseal`, the delta also carries the handed-back batch:
        its operations lead, and its re-priced topics join
        ``changed_topics`` (sorted, distinct).
        """
        if self._changed.size:
            changed_topics = sorted_unique(
                np.concatenate((self._changed, np.asarray(changed_topics, np.int64)))
            )
            self._changed = _EMPTY
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
        ahead of anything offered since, and its re-priced topics are
        owed to the next seal.  A step that raised changed nothing, so
        the next seal must carry this batch or its subscribers are
        never re-selected.
        """
        self._fragments.insert(
            0, ChurnFragment(*(getattr(delta, name) for name in _FIELDS))
        )
        self._depth += self._fragments[0].num_ops
        self._changed = delta.changed_topics

    def snapshot(self) -> Dict[str, np.ndarray]:
        """The queue's members, as a checkpoint writes them.

        The buffered operations' four arrays in arrival order, each as
        ``pending_<field>``, and the re-priced topics owed to the next
        seal, ``pending_changed_topics``.
        """
        pending = self._pending()
        members = {"pending_" + name: getattr(pending, name) for name in _FIELDS}
        members["pending_changed_topics"] = self._changed
        return members

    @classmethod
    def restore(cls, members, num_topics: int) -> "ChurnIngestQueue":
        """A queue holding a :meth:`snapshot`'s churn and owed topics.

        ``members`` maps the snapshot's names to arrays.  The churn is
        queued as one fragment, as :meth:`unseal` re-queues a batch, so
        the next seal drains exactly what the saved queue would have.
        The owed topics must be topic ids of the ``num_topics``-topic
        workload the run resumes at.
        """
        queue = cls()
        queue.offer(ChurnFragment(*(members["pending_" + name] for name in _FIELDS)))
        name = "pending_changed_topics"
        queue._changed = frozen_int64(topic_ids(name, members[name], num_topics))
        return queue
