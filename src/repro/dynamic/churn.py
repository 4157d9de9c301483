"""Workload churn model for dynamic reprovisioning experiments.

Section IV-F motivates re-running the allocator periodically "to adapt
to the changes in the event rates, new subscriptions, unsubscriptions,
etc.", and Section VI leaves an online algorithm as future work.  This
module supplies the *change process*: given a workload, draw the next
epoch's workload by

* unsubscribing a fraction of existing pairs,
* subscribing new pairs (popularity-biased, like the generators),
* drifting every topic's event rate lognormally.

The deltas are reported explicitly so an incremental reprovisioner can
react to exactly what changed instead of re-reading the world.

Vectorized epoch surgery
------------------------
:class:`ChurnModel` (the default) performs the whole epoch as CSR
surgery on the workload's flat interest arrays: the unsubscribe draw is
resolved against the canonical pair enumeration (subscriber-major,
topics ascending -- exactly :meth:`Workload.pair_keys` order), deleted
pairs are mask-compressed out of the sorted key array, the subscribe
batch is deduplicated and membership-tested with one ``searchsorted``
against the surviving keys, and the next epoch's workload is rebuilt
through :meth:`Workload.from_csr` without ever materializing a Python
set per subscriber.  The resulting :class:`WorkloadDelta` carries flat
NumPy arrays, checked to be ids of its workload.

:class:`LoopChurnModel` (``churn-loop``) is the retained per-subscriber
referee: dict-of-sets surgery, one Python set per subscriber and a list
of every pair per epoch.  Its only change from the pre-vectorization
code is that pairs are enumerated in the canonical sorted order instead
of Python-set iteration order, which makes the random draws (and hence
the whole epoch stream) well-defined; with that, the vectorized model
is **bit-identical** to the referee on shared seeds -- the contract
``tests/test_vectorized_equivalence.py`` pins, epoch after epoch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core import Pair, Workload
from ..core.segsearch import sorted_member, sorted_unique

__all__ = ["ChurnConfig", "WorkloadDelta", "ChurnModel", "LoopChurnModel"]


@dataclass(frozen=True)
class ChurnConfig:
    """Per-epoch churn intensities."""

    unsubscribe_fraction: float = 0.02
    subscribe_fraction: float = 0.02
    rate_drift_sigma: float = 0.05

    def __post_init__(self) -> None:
        if not 0 <= self.unsubscribe_fraction < 1:
            raise ValueError("unsubscribe_fraction must be in [0, 1)")
        if self.subscribe_fraction < 0:
            raise ValueError("subscribe_fraction must be non-negative")
        if self.rate_drift_sigma < 0:
            raise ValueError("rate_drift_sigma must be non-negative")


def _as_pair_array(pairs: Sequence[Pair]) -> Tuple[np.ndarray, np.ndarray]:
    topics = np.fromiter((t for t, _v in pairs), dtype=np.int64, count=len(pairs))
    subs = np.fromiter((v for _t, v in pairs), dtype=np.int64, count=len(pairs))
    return topics, subs


def id_array(name: str, ids, workload: Optional[Workload] = None) -> np.ndarray:
    """``ids`` as a read-only int64 array of ``workload``'s ids.

    The one id rule of the churn path: ids are integers in ``[0,
    bound)``, where ``bound`` is ``workload``'s topic count for a field
    ``name`` ending in ``_topics`` and its subscriber count otherwise.
    Without a workload the ids need only be non-negative.  A
    fractional, negative or out-of-range id raises ``ValueError`` naming
    ``name``; an empty list is legal.  A writable caller array is copied
    rather than frozen.
    """
    bound = None
    if workload is not None:
        topics = name.endswith("_topics")
        bound = workload.num_topics if topics else workload.num_subscribers
    a = np.asarray(ids)
    if a.size and (
        a.dtype.kind not in "iu"
        or a.min() < 0
        or (bound is not None and a.max() >= bound)
    ):
        if bound is None:
            raise ValueError(f"{name} must hold non-negative integer ids")
        raise ValueError(f"{name} must hold integer ids in [0, {bound})")
    frozen = a.astype(np.int64, copy=False)
    if frozen is ids and frozen.flags.writeable:
        frozen = frozen.copy()
    frozen.setflags(write=False)
    return frozen


class WorkloadDelta:
    """What changed between two epochs, carried as flat arrays.

    Four parallel int64 arrays (subscribed and unsubscribed pairs, in
    draw order) plus the changed-topic id array -- the form the
    vectorized reprovisioner consumes directly.  Every id must be one of
    ``workload``'s: a ``ValueError`` names the first field that holds
    another.
    """

    __slots__ = (
        "workload",
        "subscribed_topics",
        "subscribed_subscribers",
        "unsubscribed_topics",
        "unsubscribed_subscribers",
        "changed_topics",
        "_touched",
    )

    def __init__(
        self,
        workload: Workload,
        subscribed_topics: np.ndarray,
        subscribed_subscribers: np.ndarray,
        unsubscribed_topics: np.ndarray,
        unsubscribed_subscribers: np.ndarray,
        changed_topics: np.ndarray,
    ) -> None:
        self.workload = workload
        for name, ids in (
            ("subscribed_topics", subscribed_topics),
            ("subscribed_subscribers", subscribed_subscribers),
            ("unsubscribed_topics", unsubscribed_topics),
            ("unsubscribed_subscribers", unsubscribed_subscribers),
            ("changed_topics", changed_topics),
        ):
            setattr(self, name, id_array(name, ids, workload))
        if self.subscribed_topics.size != self.subscribed_subscribers.size:
            raise ValueError("subscribed pair arrays must be parallel")
        if self.unsubscribed_topics.size != self.unsubscribed_subscribers.size:
            raise ValueError("unsubscribed pair arrays must be parallel")
        self._touched: Optional[np.ndarray] = None

    @classmethod
    def from_pairs(
        cls,
        workload: Workload,
        subscribed: Sequence[Pair],
        unsubscribed: Sequence[Pair],
        changed_topics: Sequence[int],
    ) -> "WorkloadDelta":
        """Build from pair tuples (the loop referee's native output)."""
        st, sv = _as_pair_array(subscribed)
        ut, uv = _as_pair_array(unsubscribed)
        return cls(workload, st, sv, ut, uv, changed_topics)

    @property
    def rate_changed_topics(self) -> Tuple[int, ...]:
        """Topics whose event rate moved this epoch (tuple view)."""
        return tuple(self.changed_topics.tolist())

    @property
    def touched_subscribers(self) -> Set[int]:
        """Subscribers whose interest changed (set view)."""
        return set(self.touched_array().tolist())

    def touched_array(self) -> np.ndarray:
        """Sorted unique subscribers whose interest changed (cached)."""
        if self._touched is None:
            self._touched = sorted_unique(
                np.concatenate(
                    [self.subscribed_subscribers, self.unsubscribed_subscribers]
                )
            )
        return self._touched


class ChurnModel:
    """Evolve a workload epoch by epoch; deterministic given a seed.

    Whole-array implementation: one epoch is two ``rng`` draws resolved
    against the canonical sorted pair enumeration, a mask-compress, a
    sorted merge and a ``Workload.from_csr`` -- no per-subscriber Python
    objects.  Bit-identical to :class:`LoopChurnModel` on shared seeds.
    """

    def __init__(
        self,
        workload: Workload,
        config: ChurnConfig = ChurnConfig(),
        seed: Optional[int] = 0,
    ) -> None:
        self.config = config
        self._rng = np.random.default_rng(seed)
        self._workload = workload

    @property
    def workload(self) -> Workload:
        """The current epoch's workload."""
        return self._workload

    def rng_state(self) -> dict:
        """The bit-generator state, as a JSON-able dict.

        Together with :meth:`set_rng_state` this is the
        checkpoint/resume seam: restoring the state makes the next
        :meth:`step` draw exactly what an uninterrupted run would have
        drawn (see :mod:`repro.serving.checkpoint`).
        """
        return self._rng.bit_generator.state

    def set_rng_state(self, state: dict) -> None:
        """Rewind/advance the stream to a :meth:`rng_state` capture."""
        self._rng.bit_generator.state = state

    def step(self) -> WorkloadDelta:
        """Advance one epoch and return the delta."""
        cfg = self.config
        rng = self._rng
        workload = self._workload
        num_topics = workload.num_topics
        num_subscribers = workload.num_subscribers
        num_pairs = workload.num_pairs

        # Canonical pair enumeration: subscriber-major, topics ascending
        # == the sorted packed keys v * l + t.
        keys = workload.pair_keys()
        degrees = workload.interest_sizes()
        big_l = np.int64(max(num_topics, 1))

        # Unsubscriptions: drop a uniform fraction of existing pairs,
        # but never a subscriber's last topic (subscribers do not
        # vanish mid-experiment; they lose interest in topics).  The
        # draw-order semantics of the referee -- the j-th pick of a
        # subscriber succeeds only while more than one topic remains --
        # collapse to: the first ``degree - 1`` picks of each
        # subscriber (in draw order) succeed.
        unsub_t = np.empty(0, dtype=np.int64)
        unsub_v = np.empty(0, dtype=np.int64)
        unsub_pos = np.empty(0, dtype=np.int64)
        if num_pairs and cfg.unsubscribe_fraction > 0:
            k = int(num_pairs * cfg.unsubscribe_fraction)
            picks = rng.choice(num_pairs, size=k, replace=False).astype(np.int64)
            if picks.size:
                v_of = keys[picks] // big_l
                # Rank of each pick within its subscriber, in draw order.
                order = np.argsort(v_of, kind="stable")
                sv = v_of[order]
                new_grp = np.empty(sv.size, dtype=bool)
                new_grp[0] = True
                np.not_equal(sv[1:], sv[:-1], out=new_grp[1:])
                grp_starts = np.flatnonzero(new_grp)
                grp_id = np.cumsum(new_grp) - 1
                rank_sorted = np.arange(sv.size, dtype=np.int64) - grp_starts[grp_id]
                rank = np.empty_like(rank_sorted)
                rank[order] = rank_sorted
                ok = rank < degrees[v_of] - 1
                unsub_pos = picks[ok]
                unsub_v = v_of[ok]
                unsub_t = keys[unsub_pos] % big_l

        keep = np.ones(num_pairs, dtype=bool)
        keep[unsub_pos] = False
        current_keys = keys[keep]

        # Subscriptions: popularity-biased new pairs (rate-weighted, a
        # proxy for follower counts).  Sequential accept semantics --
        # "not already subscribed at processing time" -- reduce to:
        # not in the post-unsubscribe pair set, and the first
        # occurrence within the batch.
        sub_t = np.empty(0, dtype=np.int64)
        sub_v = np.empty(0, dtype=np.int64)
        if cfg.subscribe_fraction > 0 and num_topics > 0:
            k = int(num_pairs * cfg.subscribe_fraction)
            weights = workload.event_rates / workload.event_rates.sum()
            topics = rng.choice(num_topics, size=k, p=weights).astype(np.int64)
            subscribers = rng.integers(0, num_subscribers, size=k).astype(np.int64)
            if topics.size:
                cand = subscribers * big_l + topics
                present = sorted_member(current_keys, cand)
                first = np.zeros(cand.size, dtype=bool)
                first[np.unique(cand, return_index=True)[1]] = True
                accept = first & ~present
                sub_t = topics[accept]
                sub_v = subscribers[accept]

        # Rate drift: multiplicative lognormal, floored at one event.
        rates = workload.event_rates.copy()
        changed = np.empty(0, dtype=np.int64)
        if cfg.rate_drift_sigma > 0:
            factors = np.exp(
                rng.normal(0.0, cfg.rate_drift_sigma, size=num_topics)
            )
            new_rates = np.maximum(1.0, np.round(rates * factors))
            changed = np.flatnonzero(new_rates != rates)
            rates = new_rates

        if sub_t.size:
            new_keys = np.sort(
                np.concatenate([current_keys, sub_v * big_l + sub_t])
            )
        else:
            new_keys = current_keys
        flat = new_keys % big_l
        counts = np.bincount(new_keys // big_l, minlength=num_subscribers)
        indptr = np.zeros(num_subscribers + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        self._workload = Workload.from_csr(
            rates,
            indptr,
            flat,
            message_size_bytes=workload.message_size_bytes,
            validate=False,
        )
        return WorkloadDelta(
            self._workload, sub_t, sub_v, unsub_t, unsub_v, changed
        )


class LoopChurnModel:
    """The retained dict-of-sets churn referee (``churn-loop``).

    One Python set per subscriber, a list of every ``(t, v)`` pair per
    epoch -- the pre-vectorization implementation, kept as an
    executable specification.  Only change: pairs are enumerated in the
    canonical sorted order (subscriber-major, topics ascending) rather
    than Python-set iteration order, so the random draws resolve to a
    well-defined pair stream that the vectorized model reproduces
    bit-exactly on shared seeds.
    """

    def __init__(
        self,
        workload: Workload,
        config: ChurnConfig = ChurnConfig(),
        seed: Optional[int] = 0,
    ) -> None:
        self.config = config
        self._rng = np.random.default_rng(seed)
        self._workload = workload

    @property
    def workload(self) -> Workload:
        """The current epoch's workload."""
        return self._workload

    def step(self) -> WorkloadDelta:
        """Advance one epoch and return the delta."""
        cfg = self.config
        rng = self._rng
        workload = self._workload
        num_topics = workload.num_topics

        interests: List[Set[int]] = [
            set(workload.interest(v).tolist())
            for v in range(workload.num_subscribers)
        ]
        all_pairs: List[Pair] = [
            (t, v) for v, topics in enumerate(interests) for t in sorted(topics)
        ]

        # Unsubscriptions: drop a uniform fraction of existing pairs,
        # but never a subscriber's last topic (subscribers do not
        # vanish mid-experiment; they lose interest in topics).
        unsubscribed: List[Pair] = []
        if all_pairs and cfg.unsubscribe_fraction > 0:
            k = int(len(all_pairs) * cfg.unsubscribe_fraction)
            for idx in rng.choice(len(all_pairs), size=k, replace=False):
                t, v = all_pairs[int(idx)]
                if len(interests[v]) > 1 and t in interests[v]:
                    interests[v].discard(t)
                    unsubscribed.append((t, v))

        # Subscriptions: popularity-biased new pairs (rate-weighted, a
        # proxy for follower counts).
        subscribed: List[Pair] = []
        if cfg.subscribe_fraction > 0 and num_topics > 0:
            k = int(len(all_pairs) * cfg.subscribe_fraction)
            weights = workload.event_rates / workload.event_rates.sum()
            topics = rng.choice(num_topics, size=k, p=weights)
            subscribers = rng.integers(0, workload.num_subscribers, size=k)
            for t, v in zip(topics.tolist(), subscribers.tolist()):
                if t not in interests[v]:
                    interests[v].add(t)
                    subscribed.append((t, v))

        # Rate drift: multiplicative lognormal, floored at one event.
        rates = workload.event_rates.copy()
        changed_topics: Tuple[int, ...] = ()
        if cfg.rate_drift_sigma > 0:
            factors = np.exp(
                rng.normal(0.0, cfg.rate_drift_sigma, size=num_topics)
            )
            new_rates = np.maximum(1.0, np.round(rates * factors))
            changed_topics = tuple(
                int(t) for t in np.flatnonzero(new_rates != rates)
            )
            rates = new_rates

        self._workload = Workload(
            rates,
            [sorted(s) for s in interests],
            message_size_bytes=workload.message_size_bytes,
        )
        return WorkloadDelta.from_pairs(
            self._workload, subscribed, unsubscribed, changed_topics
        )
