"""Lane-parallel segmented binary search and the sorts around it.

Several hot paths bisect *per-subscriber windows* of one big flat
array simultaneously -- the GSP sweep and its overshoot recovery over
rate-descending segments, the reprovisioner's order merge.  They all
reduce to the same branchless lane-parallel bisection, differing only
in the comparison that decides "answer is at or left of mid"; this
module is its single implementation.

It also holds the small index primitives those paths share: membership
in a sorted array, the sorted distinct values of an id array, the
stable grouping sort of non-negative integer keys, and the
concatenated index ranges that gather whole segments in one pass.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = [
    "grouping_order",
    "ranges",
    "segmented_left_search",
    "sorted_member",
    "sorted_unique",
]


def sorted_member(haystack: np.ndarray, needles: np.ndarray) -> np.ndarray:
    """Boolean membership of ``needles`` in a *sorted* ``haystack``.

    One ``np.searchsorted`` plus a gather -- O(m log n) for m needles.
    The shared primitive behind the dynamic epoch pipeline's set
    algebra (old/new selection differences in the reprovisioner, the
    already-subscribed test in the churn model).
    """
    if haystack.size == 0 or needles.size == 0:
        return np.zeros(needles.size, dtype=bool)
    pos = np.searchsorted(haystack, needles)
    pos_clip = np.minimum(pos, haystack.size - 1)
    return (pos < haystack.size) & (haystack[pos_clip] == needles)


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct values of an integer array, as ``np.unique`` gives them.

    One sort and one neighbour mask.  A plain ``np.unique`` takes a
    hash path on NumPy >= 2.3, over ten times slower on the ~10^4 ids
    an epoch touches.
    """
    keys = np.sort(keys)
    if keys.size < 2:
        return keys
    keep = np.empty(keys.size, dtype=bool)
    keep[0] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def grouping_order(keys: np.ndarray) -> np.ndarray:
    """Stable argsort of non-negative integer keys, without a stable sort.

    Equal to ``np.argsort(keys, kind="stable")``.  Keys below ``2**15``
    take NumPy's radix sort on an int16 copy: its stable sort is a radix
    sort for 1- and 2-byte integers only, ~7x faster than the merge sort
    it uses for int64.  Wider keys (topic ids of a ~10^5-topic trace)
    are made unique as ``key * n + index`` and sorted in place by the
    plain, unstable ``np.sort`` -- several times faster than a stable
    int64 argsort -- and ``% n`` then recovers the indices, ties in
    index order.  Only keys so wide that ``(max + 1) * n`` would
    overflow int64 fall back to the stable argsort.
    """
    n = keys.size
    top = int(keys.max()) if n else 0
    if top < (1 << 15):
        return np.argsort(keys.astype(np.int16), kind="stable")
    if top * n + (n - 1) > np.iinfo(np.int64).max:
        return np.argsort(keys, kind="stable")
    packed = keys.astype(np.int64)
    packed *= n
    packed += np.arange(n, dtype=np.int64)
    packed.sort()
    packed %= n
    return packed


def ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(s, s + c)`` over ``zip(starts, counts)``.

    The flat positions of whole segments laid end to end: gathering an
    array at them copies each ``[s, s + c)`` slice in order, in one
    fancy index (one ``np.repeat`` plus one ``np.arange``).
    """
    offsets = np.cumsum(counts) - counts
    return np.repeat(starts - offsets, counts) + np.arange(int(counts.sum()))


def segmented_left_search(
    values: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    target: np.ndarray,
    go_left_when: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> np.ndarray:
    """Per-lane leftmost index ``i`` in ``[lo, hi)`` satisfying the predicate.

    ``go_left_when(values[mid], target)`` must be monotone inside every
    window: False ... False True ... True along the window (e.g.
    ``np.greater_equal`` over ascending values, ``np.less_equal`` over
    descending ones).  Returns ``hi`` for lanes where no index
    satisfies it.

    Branchless lane-parallel bisection: every lane advances one step
    per iteration, so the body runs ``ceil(log2(max_window + 1))``
    times however many lanes there are.
    """
    if lo.size == 0:
        return lo.copy()
    lo = lo.copy()
    hi = hi.copy()
    size = values.size
    span = int((hi - lo).max())
    for _ in range(max(span, 0).bit_length()):
        mid = (lo + hi) >> 1
        # Converged lanes (lo == hi) are forced left so they stay put.
        go_left = go_left_when(values[np.minimum(mid, size - 1)], target) | (lo >= hi)
        hi = np.where(go_left, mid, hi)
        lo = np.where(go_left, lo, mid + 1)
    return lo
