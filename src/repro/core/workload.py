"""Pub/sub workload model.

This module implements the notation of Section II-B of the paper:

* ``T`` -- a collection of *l* topics.  Topics are identified by the
  integers ``0 .. l-1``.
* ``V`` -- a collection of *n* subscribers, identified by ``0 .. n-1``.
* ``Tv`` -- the *interest* of subscriber ``v``: the topics ``v``
  subscribes to.
* ``ev_t`` -- the event rate of topic ``t`` (events per time unit).
* ``Vt`` -- the subscribers of topic ``t`` (derived from the interests).

A :class:`Workload` is immutable once constructed.  All derived
quantities (sorted pair keys, per-subscriber rate sums, the GSP scan
order) are computed lazily and cached, because the experiment harness
frequently builds large workloads and only touches some of the derived
views.

CSR interest representation
---------------------------
Internally the interests are stored once, in CSR (compressed sparse
row) form: a flat ``interest_topics`` array holding every subscriber's
topics back to back, and an ``interest_indptr`` offset array of length
``n + 1`` such that subscriber ``v``'s interest is
``interest_topics[indptr[v]:indptr[v+1]]``.  This is the zero-copy
"one big array" view the vectorized hot paths (Stage-1 GSP in
:mod:`repro.selection.greedy`, the satisfaction reductions in
:mod:`repro.core.satisfaction`, and :func:`repro.core.validation.
validate_placement`) operate on: they replace per-subscriber Python
loops with whole-array ``np.lexsort`` / ``np.bincount`` /
``np.searchsorted`` passes over the flat pair arrays.  The classic
tuple-of-arrays view (:meth:`interest` / :attr:`interests`) is
materialized lazily as read-only slices of the same flat array.

Construction validation (finite positive rates, id range,
per-subscriber duplicates) is also performed as whole-array passes, so
building a million-subscriber workload does not loop over subscribers
for anything but the initial per-subscriber ``np.asarray`` conversion.
:meth:`Workload.from_csr` skips even that when the caller already has
flat arrays -- it is the entry point of every bulk generator (the
synthetic Zipf/uniform draws and, since generator version 3, the
social-graph compaction in :mod:`repro.workloads.social`).

Units
-----
Event rates are "events per time unit"; the time unit itself is opaque
to the core model.  Bandwidth-related quantities are obtained by
multiplying event rates with :attr:`Workload.message_size_bytes`, which
yields "bytes per time unit".  The pricing layer
(:mod:`repro.pricing`) is the only place that attaches wall-clock
meaning (e.g. a 10-day trace period) to the time unit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from .backend import AdoptBackend, ArrayBackend, RamBackend
from .segsearch import ranges, sorted_unique

__all__ = ["Pair", "Workload", "WorkloadStats"]

_RAM_BACKEND = RamBackend()
_ADOPT_BACKEND = AdoptBackend()

#: Pairs per ``np.bincount`` of :meth:`Workload.interest_rate_sums`.
_RATE_SUM_CHUNK = 1 << 18


Pair = Tuple[int, int]
"""A topic-subscriber pair ``(t, v)`` -- the allocation granularity of MCSS."""


class WorkloadError(ValueError):
    """Raised when a workload is malformed (bad ids, negative rates...)."""


@dataclass(frozen=True)
class WorkloadStats:
    """Aggregate statistics of a workload, as reported in Section IV-B."""

    num_topics: int
    num_subscribers: int
    num_pairs: int
    total_event_rate: float
    mean_interest_size: float
    max_interest_size: int
    mean_audience_size: float
    max_audience_size: int
    message_size_bytes: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WorkloadStats(topics={self.num_topics}, "
            f"subscribers={self.num_subscribers}, pairs={self.num_pairs}, "
            f"total_rate={self.total_event_rate:.1f}, "
            f"mean_interest={self.mean_interest_size:.2f}, "
            f"mean_audience={self.mean_audience_size:.2f})"
        )


class Workload:
    """An immutable pub/sub workload ``(T, V, ev, Int)``.

    Parameters
    ----------
    event_rates:
        Array of length ``l`` with the finite event rate ``ev_t > 0`` of
        every topic (events per time unit).
    interests:
        One integer array per subscriber listing the topics the
        subscriber follows (``Tv``).  Subscribers with empty interests
        are permitted: they are trivially satisfied (``tau_v == 0``).
    message_size_bytes:
        Mean size of one event message.  The paper uses 200 bytes for
        both the Twitter and the Spotify experiments (Section IV-A).
    """

    __slots__ = (
        "_event_rates",
        "_indptr",
        "_flat_topics",
        "_interests",
        "_message_size_bytes",
        "_interest_rate_sums",
        "_pair_subscribers",
        "_pair_keys",
        "_rate_desc_pairs",
        "_backend",
    )

    def __init__(
        self,
        event_rates: Sequence[float],
        interests: Sequence[Sequence[int]],
        message_size_bytes: float = 200.0,
    ) -> None:
        arrays = [np.asarray(topics, dtype=np.int64) for topics in interests]
        counts = np.fromiter(
            (a.size for a in arrays), dtype=np.int64, count=len(arrays)
        )
        indptr = np.zeros(len(arrays) + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        if arrays:
            flat = np.concatenate(arrays) if indptr[-1] else np.empty(0, np.int64)
        else:
            flat = np.empty(0, dtype=np.int64)
        self._init_common(event_rates, indptr, flat, message_size_bytes, validate=True)

    @classmethod
    def from_csr(
        cls,
        event_rates: Sequence[float],
        indptr: Sequence[int],
        topics: Sequence[int],
        message_size_bytes: float = 200.0,
        validate: bool = True,
        backend: Optional[ArrayBackend] = None,
    ) -> "Workload":
        """Build directly from CSR arrays (the fast bulk entry point).

        ``indptr`` has length ``n + 1`` with ``indptr[0] == 0`` and
        monotonically non-decreasing offsets; ``topics`` holds the
        concatenated interests.  With ``validate=False`` the caller
        vouches that every topic id is in range and no subscriber lists
        a topic twice -- the same contract the positional constructor
        enforces.

        ``backend`` picks the storage policy for the arrays (see
        :mod:`repro.core.backend`): the default
        :class:`~repro.core.backend.RamBackend` keeps the historical
        copy-if-not-owned semantics; a
        :class:`~repro.core.backend.MmapBackend` adopts memory-mapped
        inputs without densifying them and spills pair-sized derived
        caches to sidecar files.
        """
        self = cls.__new__(cls)
        ip = np.ascontiguousarray(indptr, dtype=np.int64)
        if ip.ndim != 1 or ip.size == 0 or ip[0] != 0:
            raise WorkloadError("indptr must be 1-D, non-empty and start at 0")
        if ip.size > 1 and (np.diff(ip) < 0).any():
            raise WorkloadError("indptr must be non-decreasing")
        flat = np.ascontiguousarray(topics, dtype=np.int64)
        if flat.ndim != 1 or flat.size != int(ip[-1]):
            raise WorkloadError("topics length must equal indptr[-1]")
        self._init_common(
            event_rates, ip, flat, message_size_bytes, validate=validate, backend=backend
        )
        return self

    def _init_common(
        self,
        event_rates: Sequence[float],
        indptr: np.ndarray,
        flat: np.ndarray,
        message_size_bytes: float,
        validate: bool,
        backend: Optional[ArrayBackend] = None,
    ) -> None:
        backend = backend if backend is not None else _RAM_BACKEND
        rates = np.asarray(event_rates, dtype=np.float64)
        if rates.ndim != 1:
            raise WorkloadError("event_rates must be one-dimensional")
        if not (np.isfinite(rates) & (rates > 0)).all():
            raise WorkloadError(
                "event rates must be finite and strictly positive "
                "(paper assumes ev_t > 0)"
            )
        if not message_size_bytes > 0:  # NaN fails too
            raise WorkloadError("message_size_bytes must be positive")
        if validate and flat.size:
            self._validate_csr(rates.size, indptr, flat)

        rates = backend.adopt(rates, "event_rates")
        flat = backend.adopt(flat, "interest_topics")
        indptr = backend.adopt(indptr, "interest_indptr")

        object.__setattr__(self, "_backend", backend)
        object.__setattr__(self, "_event_rates", rates)
        object.__setattr__(self, "_indptr", indptr)
        object.__setattr__(self, "_flat_topics", flat)
        object.__setattr__(self, "_message_size_bytes", float(message_size_bytes))
        # Lazy caches.
        object.__setattr__(self, "_interests", None)
        object.__setattr__(self, "_interest_rate_sums", None)
        object.__setattr__(self, "_pair_subscribers", None)
        object.__setattr__(self, "_pair_keys", None)
        object.__setattr__(self, "_rate_desc_pairs", None)

    @staticmethod
    def _validate_csr(num_topics: int, indptr: np.ndarray, flat: np.ndarray) -> None:
        """Whole-array range and per-subscriber duplicate checks."""
        bad = (flat < 0) | (flat >= num_topics)
        if bad.any():
            pos = int(np.flatnonzero(bad)[0])
            v = int(np.searchsorted(indptr, pos, side="right")) - 1
            raise WorkloadError(
                f"subscriber {v} references a topic id outside "
                f"[0, {num_topics})"
            )
        # Duplicates: sort pairs by (subscriber, topic) and look for an
        # equal neighbour within the same subscriber segment.
        subs = np.repeat(
            np.arange(indptr.size - 1, dtype=np.int64), np.diff(indptr)
        )
        order = np.lexsort((flat, subs))
        st, ss = flat[order], subs[order]
        dup = (st[1:] == st[:-1]) & (ss[1:] == ss[:-1])
        if dup.any():
            v = int(ss[int(np.flatnonzero(dup)[0]) + 1])
            raise WorkloadError(
                f"subscriber {v} has duplicate topics in its interest"
            )

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Workload is immutable")

    @property
    def num_topics(self) -> int:
        """``l`` -- the number of topics."""
        return int(self._event_rates.size)

    @property
    def num_subscribers(self) -> int:
        """``n`` -- the number of subscribers."""
        return int(self._indptr.size - 1)

    @property
    def backend(self) -> ArrayBackend:
        """The storage backend holding this workload's arrays."""
        return self._backend

    @property
    def event_rates(self) -> np.ndarray:
        """Read-only array of per-topic event rates ``ev_t``."""
        return self._event_rates

    @property
    def message_size_bytes(self) -> float:
        """Mean size of a single event message in bytes."""
        return self._message_size_bytes

    def event_rate(self, topic: int) -> float:
        """Return ``ev_t`` for a single topic."""
        return float(self._event_rates[topic])

    def interest(self, subscriber: int) -> np.ndarray:
        """Return ``Tv``: the topics subscribed to by ``subscriber``."""
        return self.interests[subscriber]

    @property
    def interests(self) -> Tuple[np.ndarray, ...]:
        """All interests (``Int`` in the paper's notation).

        Materialized lazily as read-only views into the flat CSR topic
        array (no copies).
        """
        cached = self._interests
        if cached is None:
            if self.num_subscribers == 0:
                cached = ()
            else:
                cached = tuple(
                    np.split(self._flat_topics, self._indptr[1:-1].tolist())
                )
            object.__setattr__(self, "_interests", cached)
        return cached

    # ------------------------------------------------------------------
    # CSR views (the representation the vectorized hot paths consume)
    # ------------------------------------------------------------------
    @property
    def interest_indptr(self) -> np.ndarray:
        """CSR offsets: subscriber ``v`` owns ``topics[indptr[v]:indptr[v+1]]``."""
        return self._indptr

    @property
    def interest_topics(self) -> np.ndarray:
        """Flat topic ids of every ``(t, v)`` pair, subscriber-major."""
        return self._flat_topics

    def pair_subscribers(self) -> np.ndarray:
        """Subscriber id of every flat pair (``np.repeat`` of ``arange``).

        Together with :attr:`interest_topics` this materializes the
        workload's pair list as two parallel arrays; cached because
        every vectorized hot path starts from it.
        """
        cached = self._pair_subscribers
        if cached is None:
            cached = np.repeat(
                np.arange(self.num_subscribers, dtype=np.int64),
                np.diff(self._indptr),
            )
            cached = self._backend.cache("pair_subscribers", cached)
            object.__setattr__(self, "_pair_subscribers", cached)
        return cached

    def pair_keys(self) -> np.ndarray:
        """Sorted packed keys ``v * num_topics + t`` of every pair (cached).

        The sorted-key form turns "is ``(t, v)`` one of the workload's
        pairs?" into one ``np.searchsorted``: the churn model's
        already-subscribed test and the satisfaction audit's sort-merge
        membership join (:mod:`repro.core.satisfaction`) both read it.
        Built in place, and the sort is skipped when every subscriber's
        interests are already ascending (true for every bundled
        generator), leaving one multiply-add; an
        :class:`~repro.core.backend.MmapBackend` spills it to disk.
        Empty when the workload has no topics.
        """
        cached = self._pair_keys
        if cached is None:
            if self.num_topics:
                keys = self.pair_subscribers() * np.int64(self.num_topics)
                keys += self._flat_topics
                if not self._flat_is_subscriber_sorted():
                    keys.sort()
            else:
                keys = np.empty(0, dtype=np.int64)
            cached = self._backend.cache("pair_keys", keys)
            object.__setattr__(self, "_pair_keys", cached)
        return cached

    def _flat_is_subscriber_sorted(self) -> bool:
        """Whether ``interest_topics`` is already ascending per subscriber.

        One whole-array neighbor comparison: every descent position
        must be a segment boundary (topics are distinct within a
        subscriber, so in-segment order must be strictly ascending).
        """
        flat = self._flat_topics
        if flat.size < 2:
            return True
        breaks = np.flatnonzero(flat[1:] <= flat[:-1]) + 1
        if breaks.size == 0:
            return True
        pos = np.searchsorted(self._indptr, breaks)
        return bool(np.all(self._indptr[np.minimum(pos, self._indptr.size - 1)] == breaks))

    def rate_descending_pairs(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Pairs sorted subscriber-major with rates descending (cached).

        Returns ``(topics, subscribers, rates, cumsum)``: every pair,
        ordered per subscriber by descending event rate with topic ids
        ascending inside equal rates -- the exact scan order of the GSP
        sweep -- plus the global running sum of the sorted rates.  The
        rates are positive, so the sum never decreases (neighbours can
        be equal where a tiny rate is absorbed by a huge sum), and a
        per-segment run end is one plain ``np.searchsorted`` clamped
        into the segment.  tau-independent, hence cached on the
        workload: the cost ladder re-selects for several taus and pays
        the sort once.  The sort permutes pairs only inside each
        subscriber's segment, so the subscriber column is the
        :meth:`pair_subscribers` cache itself, not a second copy.

        Implemented as a single ``np.argsort`` over the packed key
        ``v * l + rank(t)`` where ``rank`` orders topics by
        ``(-ev_t, t)`` -- one int64 sort instead of a three-key
        lexsort.
        """
        cached = self._rate_desc_pairs
        if cached is None:
            num_topics = self.num_topics
            rates = self._event_rates
            rank = np.empty(num_topics, dtype=np.int64)
            rank[np.lexsort((np.arange(num_topics), -rates))] = np.arange(num_topics)
            key = self.pair_subscribers() * np.int64(max(num_topics, 1))
            key = key + rank[self._flat_topics]
            order = np.argsort(key)  # keys are unique: stability not needed
            s_topics = self._flat_topics[order]
            s_rates = rates[s_topics]
            cums = np.cumsum(s_rates)
            cache = self._backend.cache
            cached = (
                cache("rate_desc_topics", s_topics),
                self.pair_subscribers(),
                cache("rate_desc_rates", s_rates),
                cache("rate_desc_cumsum", cums),
            )
            object.__setattr__(self, "_rate_desc_pairs", cached)
        return cached

    def interest_sizes(self) -> np.ndarray:
        """``|Tv|`` for every subscriber (one ``np.diff`` over indptr)."""
        return np.diff(self._indptr)

    # ------------------------------------------------------------------
    # Derived (cached) views
    # ------------------------------------------------------------------
    def audience_sizes(self) -> np.ndarray:
        """Number of subscribers per topic (``|Vt|`` for every topic)."""
        return np.bincount(self._flat_topics, minlength=self.num_topics)

    def interest_rate_sums(self) -> np.ndarray:
        """Vector of ``sum(ev_t for t in Tv)`` for all subscribers (cached).

        Each sum is the most a subscriber could ever receive, and caps
        its satisfaction threshold ``tau_v``.
        """
        cached = self._interest_rate_sums
        if cached is None:
            # One bincount per chunk of whole subscribers, ~_RATE_SUM_CHUNK
            # pairs each, so the subscriber ids and rate weights are only
            # ever chunk-sized.  Bincount adds in index order, so every
            # sum is bit-identical to a single pass over all pairs.
            indptr = self._indptr
            n = self.num_subscribers
            sums = np.zeros(n)
            cuts = np.searchsorted(
                indptr, np.arange(_RATE_SUM_CHUNK, self.num_pairs, _RATE_SUM_CHUNK)
            )
            edges = sorted_unique(np.concatenate(([0], cuts, [n]))).tolist()
            for a, b in zip(edges[:-1], edges[1:]):
                sums[a:b] = np.bincount(
                    np.repeat(np.arange(b - a), np.diff(indptr[a : b + 1])),
                    weights=self._event_rates[self._flat_topics[indptr[a] : indptr[b]]],
                    minlength=b - a,
                )
            sums.setflags(write=False)
            cached = sums
            object.__setattr__(self, "_interest_rate_sums", cached)
        return cached

    @property
    def num_pairs(self) -> int:
        """Total number of topic-subscriber pairs in the workload."""
        return int(self._indptr[-1])

    def iter_pairs(self) -> Iterator[Pair]:
        """Iterate over every ``(t, v)`` pair of the workload."""
        flat = self._flat_topics.tolist()
        subs = self.pair_subscribers().tolist()
        for t, v in zip(flat, subs):
            yield (t, v)

    def stats(self) -> WorkloadStats:
        """Compute aggregate statistics for reporting."""
        interest_sizes = self.interest_sizes()
        audience = self.audience_sizes()
        return WorkloadStats(
            num_topics=self.num_topics,
            num_subscribers=self.num_subscribers,
            num_pairs=self.num_pairs,
            total_event_rate=float(self._event_rates.sum()),
            mean_interest_size=float(interest_sizes.mean()) if interest_sizes.size else 0.0,
            max_interest_size=int(interest_sizes.max()) if interest_sizes.size else 0,
            mean_audience_size=float(audience.mean()) if audience.size else 0.0,
            max_audience_size=int(audience.max()) if audience.size else 0,
            message_size_bytes=self._message_size_bytes,
        )

    # ------------------------------------------------------------------
    # Convenience transforms
    # ------------------------------------------------------------------
    def restrict_subscribers(self, subscribers: Iterable[int]) -> "Workload":
        """Return a sub-workload containing only the given subscribers.

        Topic ids are preserved; topics that lose their entire audience
        simply keep a zero audience.  Useful for sampling experiments.
        """
        # Sort + dedup in one whole-array pass; the hot caller
        # (incremental reselection) passes a large index array every
        # epoch, so avoid the per-element Python set round trip.
        keep = sorted_unique(np.asarray(
            subscribers if isinstance(subscribers, np.ndarray) else list(subscribers),
            dtype=np.int64,
        ))
        # Subset-sized segment lengths (a full np.diff would allocate a
        # parent-subscriber-sized temporary -- noticeable when slicing a
        # few rows out of an mmap-backed multi-million-row workload).
        counts = (
            self._indptr[keep + 1] - self._indptr[keep]
            if keep.size
            else np.empty(0, np.int64)
        )
        indptr = np.zeros(keep.size + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        if keep.size and int(indptr[-1]):
            # Gather every kept subscriber's flat range in one pass.
            flat = self._flat_topics[ranges(self._indptr[keep], counts)]
        else:
            flat = np.empty(0, dtype=np.int64)
        return Workload.from_csr(
            self._event_rates,
            indptr,
            flat,
            message_size_bytes=self._message_size_bytes,
            validate=False,
        )

    def subscriber_range(self, lo: int, hi: int) -> "Workload":
        """Zero-copy sub-workload over the contiguous subscribers ``[lo, hi)``.

        The shard's subscriber ``v`` is this workload's ``lo + v``;
        topic ids and event rates are shared unchanged.  The flat
        interest array is a read-only *view* into this workload's
        (possibly mmap-backed) array -- taking a shard allocates only
        the rebased ``hi - lo + 1`` offsets, never the pair data, which
        is what makes the sharded GSP pipeline
        (:mod:`repro.selection.sharded`) out-of-core safe.
        """
        lo, hi = int(lo), int(hi)
        if not 0 <= lo <= hi <= self.num_subscribers:
            raise ValueError(
                f"invalid subscriber range [{lo}, {hi}) for n={self.num_subscribers}"
            )
        offsets = self._indptr[lo : hi + 1]
        indptr = offsets - offsets[0]
        flat = self._flat_topics[int(self._indptr[lo]) : int(self._indptr[hi])]
        return Workload.from_csr(
            self._event_rates,
            indptr,
            flat,
            message_size_bytes=self._message_size_bytes,
            validate=False,
            backend=_ADOPT_BACKEND,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Workload(topics={self.num_topics}, "
            f"subscribers={self.num_subscribers}, pairs={self.num_pairs})"
        )
