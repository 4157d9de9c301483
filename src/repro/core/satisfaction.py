"""Subscriber satisfaction thresholds and checks (Section II-B).

The paper's satisfaction model: a subscriber ``v`` is *satisfied* when
the cumulative event rate of the topics delivered to it reaches the
subscriber-specific threshold

    tau_v = min(tau, sum(ev_t for t in Tv))

where ``tau`` is the system-wide satisfaction threshold.  Delivering
more than ``tau_v`` brings no extra benefit (the subscriber is a human
reader), which is exactly the slack the MCSS optimization exploits.
:func:`subscriber_thresholds` is the one implementation of that rule:
the placement audit, GSP's sweep and the Algorithm-5 lower bound all
call it.

Vectorized engine
-----------------
The whole-population checks (:func:`delivered_rates`,
:func:`satisfied_mask`) are whole-array NumPy reductions over flat
``(topic, subscriber)`` pair arrays rather than per-subscriber Python
loops -- a sort-merge membership join (Blasgen & Eswaran, 1977)
against the workload's own pairs:

1. each delivered pair ``(t, v)`` becomes the packed key
   ``v * num_topics + t``, and the keys are sorted in place;
2. duplicates (a topic delivered from several VMs counts once) are
   equal neighbours of the sorted keys, dropped by one neighbour mask;
3. interest membership is one monotone ``np.searchsorted`` of the
   sorted keys into :meth:`repro.core.workload.Workload.pair_keys`,
   the workload's cached sorted pair keys: pairs outside the
   subscriber's interest find no equal key and are dropped
   (Equation (3) only sums over ``t in Tv``);
4. per-subscriber delivered rates are a single ``np.bincount`` with
   the topic rates as weights, adding each subscriber's topics in
   ascending topic order.

:func:`delivered_rates_from_arrays` is the raw entry point; the
mapping-based functions convert their ``subscriber -> topics`` mapping
to flat arrays first.

Equivalence contract: the vectorized reductions compute the same
delivered-rate sums as the per-subscriber :func:`delivered_rate`
referee, with summation order differences bounded by float rounding --
bit-identical whenever the partial sums are exactly representable
(e.g. integer-valued event rates, which is what every generator in
:mod:`repro.workloads` produces).  Whatever the rates, each
subscriber's sum is a left-to-right sum over its distinct delivered
interest topics in ascending order.  The randomized suite in
``tests/test_vectorized_equivalence.py`` pins both.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Set, Tuple

import numpy as np

from .workload import Workload

__all__ = [
    "subscriber_thresholds",
    "delivered_rate",
    "delivered_rates",
    "delivered_rates_from_arrays",
    "satisfied_mask",
    "all_satisfied",
]


def subscriber_thresholds(workload: Workload, tau: float) -> np.ndarray:
    """Vector of ``tau_v = min(tau, sum(ev_t for t in Tv))`` for every subscriber.

    ``tau`` must be a non-negative number.  NaN is rejected: every
    comparison with a NaN threshold is False, so GSP would select
    nothing for it and the audit would flag no one.
    """
    if not tau >= 0:
        raise ValueError("tau must be non-negative")
    return np.minimum(float(tau), workload.interest_rate_sums())


def delivered_rate(
    workload: Workload, subscriber: int, delivered_topics: Iterable[int]
) -> float:
    """Total event rate a subscriber receives from ``delivered_topics``.

    Topics outside the subscriber's interest are ignored: a broker may
    host extra topics, but only topics in ``Tv`` count towards the
    satisfaction of ``v`` (Equation (3) only sums over ``t in Tv``).

    This is the scalar referee the vectorized reductions are tested
    against; use :func:`delivered_rates_from_arrays` for whole
    populations.
    """
    interest = set(workload.interest(subscriber).tolist())
    rates = workload.event_rates
    seen: Set[int] = set()
    total = 0.0
    for t in delivered_topics:
        if t in interest and t not in seen:
            seen.add(t)
            total += float(rates[t])
    return total


def delivered_rates_from_arrays(
    workload: Workload,
    pair_topics: np.ndarray,
    pair_subscribers: np.ndarray,
) -> np.ndarray:
    """Vector of delivered rates from flat parallel pair arrays.

    ``pair_topics[i]`` was delivered to ``pair_subscribers[i]``.
    Duplicate pairs count once; pairs whose topic is not in the
    subscriber's interest -- or that reference unknown ids -- are
    ignored, matching :func:`delivered_rate`.
    """
    n = workload.num_subscribers
    num_topics = workload.num_topics
    topics = np.asarray(pair_topics, dtype=np.int64)
    subs = np.asarray(pair_subscribers, dtype=np.int64)
    if num_topics == 0 or topics.size == 0 or workload.num_pairs == 0:
        return np.zeros(n, dtype=np.float64)

    valid = (topics >= 0) & (topics < num_topics) & (subs >= 0) & (subs < n)
    if not valid.all():
        topics, subs = topics[valid], subs[valid]
    keys = subs * np.int64(num_topics)
    keys += topics
    return _delivered_rates_of_keys(workload, keys)


def _delivered_rates_of_keys(workload: Workload, keys: np.ndarray) -> np.ndarray:
    """Delivered rates from packed pair keys ``v * num_topics + t``.

    Steps 1-4 of the module docstring.  ``keys`` must be int64 with
    every id in range, and it is consumed: sorted, then overwritten.
    """
    n = workload.num_subscribers
    pair_keys = workload.pair_keys()
    if keys.size == 0 or pair_keys.size == 0:
        return np.zeros(n, dtype=np.float64)
    big_l = np.int64(workload.num_topics)
    keys.sort()
    # A key counts when it is the first of its run of equal keys (the
    # dedup) and one of the workload's pairs (the membership test).
    keep = np.empty(keys.size, dtype=bool)
    keep[0] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    # One lane-sized scratch array holds, in turn, each key's insertion
    # point, the pair key found there, its topic and its subscriber.
    # ``take`` with ``mode="clip"`` gathers elementwise into its own
    # index array without a buffer copy (``"raise"`` would copy).
    found = np.searchsorted(pair_keys, keys)
    np.take(pair_keys, found, out=found, mode="clip")
    keep &= found == keys
    np.remainder(keys, big_l, out=found)
    weights = workload.event_rates[found]
    # A dropped key weighs 0.0 and adds nothing to its subscriber's sum,
    # so each subscriber sums its kept topics in ascending order.
    weights[~keep] = 0.0
    np.floor_divide(keys, big_l, out=found)
    return np.bincount(found, weights=weights, minlength=n)


def _mapping_to_pair_arrays(
    topics_by_subscriber: Mapping[int, Iterable[int]],
) -> Tuple[np.ndarray, np.ndarray]:
    """Flatten a ``subscriber -> topics`` mapping into parallel arrays."""
    if not topics_by_subscriber:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    chunks: List[np.ndarray] = []
    owners: List[int] = []
    sizes: List[int] = []
    for v, topics in topics_by_subscriber.items():
        if isinstance(topics, np.ndarray):
            arr = topics.astype(np.int64, copy=False)
        else:
            arr = np.fromiter((int(t) for t in topics), dtype=np.int64)
        chunks.append(arr)
        owners.append(int(v))
        sizes.append(arr.size)
    flat_topics = np.concatenate(chunks)
    flat_subs = np.repeat(
        np.asarray(owners, dtype=np.int64), np.asarray(sizes, dtype=np.int64)
    )
    return flat_topics, flat_subs


def delivered_rates(
    workload: Workload, pairs_by_subscriber: Mapping[int, Iterable[int]]
) -> np.ndarray:
    """Vector of delivered rates given a per-subscriber topic mapping."""
    topics, subs = _mapping_to_pair_arrays(pairs_by_subscriber)
    return delivered_rates_from_arrays(workload, topics, subs)


def satisfied_mask(
    workload: Workload,
    topics_by_subscriber: Mapping[int, Iterable[int]],
    tau: float,
    *,
    rel_tol: float = 1e-9,
) -> np.ndarray:
    """Boolean vector ``f_v`` over all subscribers (Equation (3)).

    A small relative tolerance absorbs floating-point accumulation
    error; the threshold comparison in the paper is exact because the
    original implementation used integer event counts.
    """
    thresholds = subscriber_thresholds(workload, tau)
    got = delivered_rates(workload, topics_by_subscriber)
    return got >= thresholds * (1.0 - rel_tol)


def all_satisfied(
    workload: Workload,
    topics_by_subscriber: Mapping[int, Iterable[int]],
    tau: float,
    *,
    rel_tol: float = 1e-9,
) -> bool:
    """Check the constraint ``sum(f_v) == |V|`` from Equation (2)."""
    return bool(
        satisfied_mask(workload, topics_by_subscriber, tau, rel_tol=rel_tol).all()
    )
