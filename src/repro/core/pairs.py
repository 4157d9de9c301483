"""Selected topic-subscriber pair sets (the output of Stage 1).

Stage 1 of the MCSS heuristic chooses a subset ``S`` of topic-subscriber
pairs sufficient to satisfy every subscriber.  Stage 2 then packs ``S``
onto VMs.  :class:`PairSelection` is the interchange format between the
two stages.

The representation is natively **CSR, grouped by topic** (topic-major):
a ``topics`` array listing the distinct selected topics in insertion
order, an ``indptr`` offset array, and one flat ``subscribers`` array
holding every group's subscribers back to back, so that topic
``topics[i]``'s selected subscribers are
``subscribers[indptr[i]:indptr[i+1]]``.  Stage 2's main optimization --
"grouping of pairs by topics" (optimization (b) in Section IV-D) --
consumes exactly these flat slices, and the vectorized packers in
:mod:`repro.packing` never materialize a Python list per topic.

The classic ``topic -> subscriber array`` mapping API
(:meth:`subscribers_of`, :attr:`topics`, iteration) is served as lazy
zero-copy views into the flat arrays.

Array construction has one coherent surface:

* :meth:`PairSelection.from_csr` builds from the native
  ``(topics, indptr, subscribers)`` triple -- or, with ``indptr=None``,
  from flat parallel per-pair ``(topics, subscribers)`` arrays (one
  stable argsort groups them by ascending topic id; the export path of
  the dynamic reprovisioner's array state).  ``trusted=True`` adopts
  the arrays without checks or copies -- the fast path the vectorized
  GSP emits; the default re-validates the CSR contract with whole-array
  passes.
* :meth:`PairSelection.csr_arrays` / :meth:`PairSelection.pair_arrays`
  expose the grouped and the flat forms back.

The arrays may live on any storage backend (read-only RAM arrays or
``np.memmap`` views -- see :mod:`repro.core.backend`); the class only
ever slices them, so an mmap-backed selection is consumed lazily by
Stage 2 without materializing the pair data in RAM.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .segsearch import grouping_order, sorted_unique
from .workload import Pair, Workload

__all__ = ["PairSelection"]

_EMPTY = np.empty(0, dtype=np.int64)
_EMPTY.setflags(write=False)


class PairSelection:
    """An immutable set of selected ``(t, v)`` pairs, grouped by topic."""

    __slots__ = ("_topics", "_indptr", "_subs", "_topic_pos", "_pair_arrays")

    def __init__(self, by_topic: Mapping[int, Sequence[int]]) -> None:
        """Build from a ``topic -> subscribers`` mapping.

        Empty groups are dropped; a group listing a subscriber twice
        raises ``ValueError``.
        """
        topics: List[int] = []
        groups: List[np.ndarray] = []
        for t, subs in by_topic.items():
            arr = np.asarray(subs, dtype=np.int64)
            if arr.size == 0:
                continue
            if sorted_unique(arr).size != arr.size:
                raise ValueError(f"duplicate subscribers for topic {t}")
            topics.append(int(t))
            groups.append(arr)
        self._adopt_groups(topics, groups)

    def _adopt_groups(self, topics: List[int], groups: List[np.ndarray]) -> None:
        """Concatenate validated per-topic groups into the CSR core."""
        t_arr = np.asarray(topics, dtype=np.int64)
        indptr = np.zeros(len(groups) + 1, dtype=np.int64)
        if groups:
            np.cumsum(
                np.fromiter((g.size for g in groups), np.int64, count=len(groups)),
                out=indptr[1:],
            )
            flat = np.concatenate(groups)
        else:
            flat = _EMPTY
        self._adopt_csr(t_arr, indptr, flat)

    def _adopt_csr(
        self, topics: np.ndarray, indptr: np.ndarray, subscribers: np.ndarray
    ) -> None:
        for arr in (topics, indptr, subscribers):
            arr.setflags(write=False)
        self._topics = topics
        self._indptr = indptr
        self._subs = subscribers
        self._topic_pos: Optional[Dict[int, int]] = None
        self._pair_arrays = None

    def _positions(self) -> Dict[int, int]:
        """``topic -> CSR group``, built on first use.

        Select, pack and audit never look a topic up, so a selection
        that only flows through them never builds it.
        """
        if self._topic_pos is None:
            self._topic_pos = {int(t): i for i, t in enumerate(self._topics.tolist())}
        return self._topic_pos

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_csr(
        cls,
        topics: np.ndarray,
        indptr: Optional[np.ndarray],
        subscribers: np.ndarray,
        *,
        trusted: bool = False,
    ) -> "PairSelection":
        """Build from arrays -- the one array-construction entry point.

        With ``indptr`` given, the arguments are the native CSR triple:
        ``topics`` holds distinct non-negative topic ids, ``indptr`` is
        a strictly increasing int64 offset array of length
        ``len(topics) + 1`` starting at 0 (no empty groups), and
        ``subscribers[indptr[i]:indptr[i+1]]`` holds topic ``i``'s
        selected subscribers with **no duplicates**.

        With ``indptr=None``, ``topics`` and ``subscribers`` are flat
        parallel per-pair arrays (the inverse of :meth:`pair_arrays`):
        one stable small-key argsort groups them by ascending topic id,
        preserving the input order of subscribers inside each group --
        the export path of array-state holders such as the dynamic
        reprovisioner.

        ``trusted=True`` adopts the arrays as-is (marked read-only, not
        copied; no checks) -- the caller vouches for the contract above,
        as the vectorized GSP can by construction.  The default
        re-validates it with whole-array passes and raises
        ``ValueError`` on violations.
        """
        if indptr is None:
            return cls._from_pair_arrays(topics, subscribers, trusted=trusted)
        t = np.asarray(topics, dtype=np.int64)
        ip = np.asarray(indptr, dtype=np.int64)
        v = np.asarray(subscribers, dtype=np.int64)
        if not trusted:
            cls._validate_csr(t, ip, v)
        self = cls.__new__(cls)
        self._adopt_csr(t, ip, v)
        return self

    @staticmethod
    def _validate_csr(t: np.ndarray, ip: np.ndarray, v: np.ndarray) -> None:
        """Whole-array checks of the :meth:`from_csr` contract."""
        if ip.ndim != 1 or ip.size != t.size + 1 or (t.size and ip[0] != 0):
            raise ValueError("indptr must have length len(topics) + 1, start at 0")
        if ip.size == 1 and ip[0] != 0:
            raise ValueError("indptr of an empty selection must be [0]")
        if (np.diff(ip) <= 0).any():
            raise ValueError("indptr must be strictly increasing (no empty groups)")
        if v.size != int(ip[-1]):
            raise ValueError("subscribers length must equal indptr[-1]")
        if t.size and ((t < 0).any() or sorted_unique(t).size != t.size):
            raise ValueError("topics must be distinct non-negative ids")
        if v.size:
            group_idx = np.repeat(np.arange(t.size, dtype=np.int64), np.diff(ip))
            order = np.lexsort((v, group_idx))
            sv, sg = v[order], group_idx[order]
            dup = (sv[1:] == sv[:-1]) & (sg[1:] == sg[:-1])
            if dup.any():
                g = int(sg[int(np.flatnonzero(dup)[0])])
                raise ValueError(f"duplicate subscribers for topic {int(t[g])}")

    @classmethod
    def _from_pair_arrays(
        cls, topics: np.ndarray, subscribers: np.ndarray, *, trusted: bool
    ) -> "PairSelection":
        """The ``indptr=None`` arm of :meth:`from_csr`."""
        t = np.asarray(topics, dtype=np.int64)
        v = np.asarray(subscribers, dtype=np.int64)
        if t.size != v.size:
            raise ValueError("topics and subscribers must be parallel arrays")
        if t.size == 0:
            return cls({})
        order = grouping_order(t)
        s_t = t[order]
        starts = np.flatnonzero(np.concatenate(([True], s_t[1:] != s_t[:-1])))
        indptr = np.append(starts, s_t.size).astype(np.int64)
        return cls.from_csr(s_t[starts], indptr, v[order], trusted=trusted)

    @classmethod
    def from_pairs(cls, pairs: Iterable[Pair]) -> "PairSelection":
        """Build from an iterable of ``(t, v)`` tuples."""
        buckets: Dict[int, List[int]] = {}
        for t, v in pairs:
            buckets.setdefault(int(t), []).append(int(v))
        return cls(buckets)

    @classmethod
    def from_subscriber_topics(
        cls, topics_by_subscriber: Mapping[int, Iterable[int]]
    ) -> "PairSelection":
        """Build from a ``subscriber -> topics`` mapping."""
        buckets: Dict[int, List[int]] = {}
        for v, topics in topics_by_subscriber.items():
            for t in topics:
                buckets.setdefault(int(t), []).append(int(v))
        return cls(buckets)

    @classmethod
    def full(cls, workload: Workload) -> "PairSelection":
        """The selection containing *every* pair of the workload.

        Groups in ascending topic order, subscribers ascending in each.
        """
        return cls.from_csr(
            workload.interest_topics, None, workload.pair_subscribers(), trusted=True
        )

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def num_pairs(self) -> int:
        """Total number of selected pairs ``|S|``."""
        return int(self._indptr[-1])

    @property
    def num_topics(self) -> int:
        """Number of distinct topics that appear in the selection."""
        return int(self._topics.size)

    @property
    def topics(self) -> Tuple[int, ...]:
        """The distinct topics of the selection, in insertion order."""
        return tuple(self._topics.tolist())

    def csr_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The native ``(topics, indptr, subscribers)`` CSR triple.

        ``subscribers[indptr[i]:indptr[i+1]]`` are the selected
        subscribers of ``topics[i]``; groups follow topic insertion
        order.  All arrays are read-only; this is the zero-copy form
        the vectorized Stage-2 packers consume.
        """
        return self._topics, self._indptr, self._subs

    def subscribers_of(self, topic: int) -> np.ndarray:
        """Selected subscribers of a topic (empty array if none).

        A zero-copy read-only slice of the flat CSR subscriber array.
        """
        i = self._positions().get(int(topic))
        if i is None:
            return _EMPTY
        return self._subs[self._indptr[i]:self._indptr[i + 1]]

    def pair_count(self, topic: int) -> int:
        """Number of selected pairs for a topic."""
        i = self._positions().get(int(topic))
        if i is None:
            return 0
        return int(self._indptr[i + 1] - self._indptr[i])

    def pair_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """The selection as flat parallel ``(topics, subscribers)`` arrays.

        Topic-major (one run per topic, in insertion order), built once
        and cached.  This is the input format of the vectorized
        satisfaction reductions in :mod:`repro.core.satisfaction`.
        """
        cached = self._pair_arrays
        if cached is None:
            topics = np.repeat(self._topics, np.diff(self._indptr))
            topics.setflags(write=False)
            cached = (topics, self._subs)
            self._pair_arrays = cached
        return cached

    def __contains__(self, pair: Pair) -> bool:
        t, v = pair
        return bool(np.isin(v, self.subscribers_of(t)).item())

    def __iter__(self) -> Iterator[Pair]:
        for i, t in enumerate(self._topics.tolist()):
            for v in self._subs[self._indptr[i]:self._indptr[i + 1]].tolist():
                yield (t, v)

    def __len__(self) -> int:
        return self.num_pairs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PairSelection):
            return NotImplemented
        if self._positions().keys() != other._positions().keys():
            return False
        return all(
            np.array_equal(
                np.sort(self.subscribers_of(t)), np.sort(other.subscribers_of(t))
            )
            for t in self._topic_pos
        )

    def __hash__(self) -> int:  # pragma: no cover - rarely used
        return hash(
            tuple(
                sorted(
                    (t, tuple(sorted(self.subscribers_of(t).tolist())))
                    for t in self._positions()
                )
            )
        )

    def topics_by_subscriber(self) -> Dict[int, List[int]]:
        """Invert the selection into ``subscriber -> topics``."""
        out: Dict[int, List[int]] = {}
        for i, t in enumerate(self._topics.tolist()):
            for v in self._subs[self._indptr[i]:self._indptr[i + 1]].tolist():
                out.setdefault(v, []).append(t)
        return out

    # ------------------------------------------------------------------
    # Bandwidth accounting (single hypothetical VM, Stage-1 objective)
    # ------------------------------------------------------------------
    def outgoing_rate(self, workload: Workload) -> float:
        """Sum of ``ev_t`` over all selected pairs (events per unit)."""
        if self._topics.size == 0:
            return 0.0
        rates = workload.event_rates
        return float((rates[self._topics] * np.diff(self._indptr)).sum())

    def incoming_rate(self, workload: Workload) -> float:
        """Sum of ``ev_t`` over the distinct selected topics."""
        if self._topics.size == 0:
            return 0.0
        return float(workload.event_rates[self._topics].sum())

    def single_vm_rate(self, workload: Workload) -> float:
        """Total event rate if the whole selection sat on one huge VM.

        This is the quantity Stage 1 minimizes: each pair costs its
        outgoing rate, and each distinct topic additionally costs one
        incoming copy (Section III-A prices a pair at ``2 * ev_t``
        because in the single-VM view every pair's topic is ingested
        exactly once; with topic sharing the true single-VM total is
        ``outgoing + incoming``).
        """
        return self.outgoing_rate(workload) + self.incoming_rate(workload)

    def single_vm_bytes(self, workload: Workload) -> float:
        """:meth:`single_vm_rate` converted to bytes per time unit."""
        return self.single_vm_rate(workload) * workload.message_size_bytes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PairSelection(pairs={self.num_pairs}, topics={self.num_topics})"
