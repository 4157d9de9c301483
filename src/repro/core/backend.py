"""Array storage backends: where a workload's CSR arrays live.

The core model (:class:`~repro.core.workload.Workload`,
:class:`~repro.core.pairs.PairSelection`) operates on flat int64/float64
NumPy arrays.  At paper scale (Section IV runs 8M users / 683.5M pairs)
those arrays no longer fit comfortably in one process's RAM, so the
*storage* of the arrays is factored behind a small seam:

* :class:`RamBackend` -- the default.  Arrays are owned in RAM with the
  historical defensive-copy semantics: any array the workload does not
  own outright is copied once at construction, then frozen.
* :class:`AdoptBackend` -- trusted zero-copy adoption: arrays are kept
  exactly as passed, derived caches stay in RAM.  Used internally for
  subscriber shards (:meth:`~repro.core.workload.Workload.subscriber_range`),
  whose arrays are already frozen slices of a live workload.
* :class:`MmapBackend` -- adopts the same way (the arrays are typically
  ``np.memmap`` views into an uncompressed ``.npz`` written by
  :func:`repro.workloads.io.save_workload`), but spills *derived*
  pair-sized caches (the rate-descending scan order, sorted pair keys,
  ...) to ``.npy`` sidecar files and re-opens them as read-only maps,
  so the OS page cache -- not the Python heap -- holds the bulk data.
  ``tracemalloc`` (the slow-suite memory referee) only counts
  Python-allocator memory, which is exactly the accounting we want for
  out-of-core solves.

Backends never change *values*, only residency: every solver path is
bit-exact across backends (pinned by the backend-parametrized cases in
``tests/test_vectorized_equivalence.py``).
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from typing import Optional, Union

import numpy as np

__all__ = ["ArrayBackend", "RamBackend", "MmapBackend", "AdoptBackend"]


def _frozen(arr: np.ndarray) -> np.ndarray:
    """Mark an array read-only in place and return it."""
    arr.setflags(write=False)
    return arr


def is_mapped(arr: np.ndarray) -> bool:
    """True when ``arr`` is (a view into) a memory-mapped file."""
    base: Optional[np.ndarray] = arr
    while base is not None:
        if isinstance(base, np.memmap):
            return True
        base = getattr(base, "base", None)
        if base is not None and not isinstance(base, np.ndarray):
            # e.g. an mmap.mmap object backing a raw np.frombuffer view
            return True
    return False


class ArrayBackend(ABC):
    """Residency policy for a workload's base and derived arrays."""

    @abstractmethod
    def adopt(self, arr: np.ndarray, tag: str) -> np.ndarray:
        """Take ownership of a base CSR array at construction time.

        Returns a read-only array with the same values; whether it is
        the same object, a copy, or an on-disk map is the backend's
        business.  ``tag`` names the array for sidecar files.
        """

    @abstractmethod
    def cache(self, tag: str, arr: np.ndarray) -> np.ndarray:
        """Store a derived (typically pair-sized) cache array.

        Called once per tag per workload; returns the array to keep a
        reference to (read-only).
        """


class RamBackend(ArrayBackend):
    """In-RAM arrays with defensive-copy-on-adopt (the historical default)."""

    def adopt(self, arr: np.ndarray, tag: str) -> np.ndarray:
        return _frozen(arr.copy() if not arr.flags.owndata else arr)

    def cache(self, tag: str, arr: np.ndarray) -> np.ndarray:
        return _frozen(arr)


class AdoptBackend(ArrayBackend):
    """Trusted zero-copy adoption: arrays are kept exactly as passed.

    For the subscriber shards of :meth:`Workload.subscriber_range`,
    whose inputs are already immutable slices of a live workload --
    copying them would densify an mmap-backed parent.  Derived caches
    stay in RAM (they are sized to the shard, not to the parent).
    """

    def adopt(self, arr: np.ndarray, tag: str) -> np.ndarray:
        # A map (or a view into one) stays on disk: copying here is
        # exactly the densification zero-copy adoption exists to avoid.
        return _frozen(arr)

    def cache(self, tag: str, arr: np.ndarray) -> np.ndarray:
        return _frozen(arr)


class MmapBackend(AdoptBackend):
    """Disk-resident arrays: adopt maps as-is, spill derived caches.

    Parameters
    ----------
    cache_dir:
        Directory for spilled derived caches (created on first use).
    """

    def __init__(self, cache_dir: Union[str, os.PathLike]) -> None:
        self.cache_dir = os.fspath(cache_dir)

    def cache(self, tag: str, arr: np.ndarray) -> np.ndarray:
        if arr.nbytes < (1 << 20):
            # Small caches (indptr-sized, topic-sized) are cheaper in
            # RAM than as one file each.
            return _frozen(arr)
        os.makedirs(self.cache_dir, exist_ok=True)
        path = os.path.join(self.cache_dir, f"{tag}.npy")
        np.save(path, arr)
        return np.load(path, mmap_mode="r")
