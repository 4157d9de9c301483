"""Common interface for Stage-2 VM-allocation algorithms.

Stage 2 (Section III-B) packs the selected topic-subscriber pairs onto
VMs of capacity ``BC``, trading off the number of VMs against the
incoming-bandwidth duplication caused by splitting one topic's pairs
over several machines.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, List, Type

from ..core import MCSSProblem, PairSelection, Placement

__all__ = [
    "PackingAlgorithm",
    "register_packer",
    "get_packer",
    "available_packers",
]


class PackingAlgorithm(ABC):
    """A Stage-2 algorithm: allocate selected pairs to a VM fleet."""

    #: Short name used in experiment tables and the CLI.
    name: str = "abstract"

    @abstractmethod
    def pack(self, problem: MCSSProblem, selection: PairSelection) -> Placement:
        """Return a capacity-feasible placement covering every pair."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


_REGISTRY: Dict[str, Callable[[], PackingAlgorithm]] = {}


def register_packer(name: str) -> Callable[[Type[PackingAlgorithm]], Type[PackingAlgorithm]]:
    """Class decorator registering a packer under ``name``."""

    def decorate(cls: Type[PackingAlgorithm]) -> Type[PackingAlgorithm]:
        if name in _REGISTRY:
            raise ValueError(f"packer {name!r} already registered")
        cls.name = name
        _REGISTRY[name] = cls
        return cls

    return decorate


def get_packer(name: str, **kwargs) -> PackingAlgorithm:
    """Instantiate a registered packer by name."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown packer {name!r}; known: {known}") from None
    return factory(**kwargs)


def diff_placements(fast, loop) -> "str | None":
    """Explain how two placements differ, or ``None`` if identical.

    Identity is the pinning contract between a vectorized packer and
    its loop referee: same VM count, same assignment-group insertion
    order, same per-(vm, topic) subscriber lists, same total byte
    rate.  Shared by the equivalence test suite and the profiling
    script so the two gates cannot drift apart.
    """
    if fast.num_vms != loop.num_vms:
        return f"fleet sizes differ: {fast.num_vms} != {loop.num_vms}"
    fast_groups = {(b, t): subs for b, t, subs in fast.iter_assignments()}
    loop_groups = {(b, t): subs for b, t, subs in loop.iter_assignments()}
    if list(fast_groups) != list(loop_groups):
        return "assignment-group order differs"
    if fast_groups != loop_groups:
        return "per-VM subscriber assignments differ"
    scale = max(1.0, abs(loop.total_bytes))
    if abs(fast.total_bytes - loop.total_bytes) > 1e-9 * scale:
        return (
            f"total bytes differ: {fast.total_bytes!r} != {loop.total_bytes!r}"
        )
    return None


def available_packers() -> List[str]:
    """Names of all registered Stage-2 algorithms."""
    return sorted(_REGISTRY)
