"""FFBinPacking (FFBP) -- Algorithm 3, the Stage-2 baseline.

Each topic-subscriber pair is considered individually, in the order the
pairs naturally arrive (subscriber-major: all of ``v0``'s pairs, then
``v1``'s, ...).  A pair goes to the *first* already-deployed VM with
enough free capacity; if none fits, a new VM is deployed.  Because
consecutive pairs usually belong to different topics, FFBP scatters
each topic over many VMs and pays one incoming copy of the topic's
event stream per VM touched -- the bandwidth overhead
CustomBinPacking's grouping optimization removes.

Deviation from the pseudocode: Algorithm 3 checks ``ev_t <= BC - bw_b``
when placing a pair, which under-counts by the extra *incoming* copy
needed when the VM does not host the topic yet and could overflow the
VM by up to ``ev_t``.  We check the true delta ``ev_t * (1 + [t new on
b])`` so every placement this library produces is capacity-feasible.

Complexity: O(|S| * |B|) -- each pair may scan the whole fleet.  This
is the quadratic behaviour Figures 6-7 of the paper show; we keep it
(only bounded by the honest capacity check) rather than index the
fleet, because FFBP *is* the paper's slow baseline.  What *was*
modernized is everything around the scan: pair arrival order is
derived from the selection's flat CSR arrays with one ``np.lexsort``
(no per-subscriber dict inversion), and each placed pair goes through
the placement's batch assign path.  The pre-vectorization edition is
retained verbatim as :class:`LoopFFBinPacking` (``"ffbp-loop"``), and
the randomized equivalence suite pins both to identical placements.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Tuple

import numpy as np

from ..core import MCSSProblem, PairSelection, Placement
from .base import PackingAlgorithm, register_packer

__all__ = ["FFBinPacking", "LoopFFBinPacking", "iter_pairs_subscriber_major"]


def pairs_subscriber_major(selection: PairSelection) -> Tuple[np.ndarray, np.ndarray]:
    """The selection's pairs as flat arrays in "arrival" order.

    Subscriber-major, with each subscriber's topics ordered by the
    topic's first appearance in the selection (the insertion order a
    pub/sub front-end registering the grouped selection would see);
    this deliberately interleaves topics -- the adversarial case for
    first-fit.  One ``np.lexsort`` over the CSR pair arrays.
    """
    topics, indptr, subs = selection.csr_arrays()
    flat_topics, flat_subs = selection.pair_arrays()
    if flat_topics.size == 0:
        return flat_topics, flat_subs
    group_rank = np.repeat(np.arange(topics.size, dtype=np.int64), np.diff(indptr))
    order = np.lexsort((group_rank, flat_subs))
    return flat_topics[order], flat_subs[order]


def iter_pairs_subscriber_major(selection: PairSelection) -> Iterator[Tuple[int, int]]:
    """Yield pairs in subscriber-major order (the "arrival" order)."""
    topics, subs = pairs_subscriber_major(selection)
    yield from zip(topics.tolist(), subs.tolist())


def first_fit(problem: MCSSProblem, pairs: Iterable[Tuple[int, int]]) -> Placement:
    """Algorithm 3's scan: each ``(t, v)``, in order, on the first VM with room.

    The one first-fit scan: FFBP feeds it the arrival order, FFD the
    rate-sorted pairs.
    """
    placement = problem.empty_placement()
    topic_bytes_all = problem.topic_bytes_array()

    # repolint: allow(VL01): FFBP is the paper's quadratic baseline by design (module docstring)
    for t, v in pairs:
        topic_bytes = float(topic_bytes_all[t])
        # Lines 3-6: first already-deployed VM with room.
        # repolint: allow(VL01): per-pair first-fit fleet scan -- the baseline's defining behaviour
        for b in range(placement.num_vms):
            vm = placement.vm(b)
            if vm.fits(topic_bytes, 1, not vm.hosts_topic(t)):
                break
        else:
            # Lines 8-11: deploy a new VM.  Problem feasibility
            # guarantees a single pair always fits in an empty VM.
            b = placement.new_vm()
        placement.assign(b, t, [v])

    return placement


@register_packer("ffbp")
class FFBinPacking(PackingAlgorithm):
    """First-fit bin packing over individual pairs (Algorithm 3)."""

    def pack(self, problem: MCSSProblem, selection: PairSelection) -> Placement:
        return first_fit(problem, iter_pairs_subscriber_major(selection))


@register_packer("ffbp-loop")
class LoopFFBinPacking(PackingAlgorithm):
    """The retained pre-vectorization FFBP (the ``"ffbp-loop"`` referee).

    Identical algorithm, but pair arrival order is rebuilt through the
    original per-subscriber dict inversion and the fleet is scanned
    through the tuple-materializing ``placement.vms`` view -- kept
    verbatim as the executable specification the equivalence suite
    compares :class:`FFBinPacking` against.
    """

    def pack(self, problem: MCSSProblem, selection: PairSelection) -> Placement:
        placement = problem.empty_placement()
        workload = problem.workload
        msg_bytes = workload.message_size_bytes
        rates = workload.event_rates

        by_subscriber: Dict[int, List[int]] = selection.topics_by_subscriber()
        for v in sorted(by_subscriber):
            for t in by_subscriber[v]:
                topic_bytes = float(rates[t]) * msg_bytes
                placed = False
                for b, vm in enumerate(placement.vms):
                    if vm.fits(topic_bytes, 1, not vm.hosts_topic(t)):
                        placement.assign(b, t, [v])
                        placed = True
                        break
                if not placed:
                    b = placement.new_vm()
                    placement.assign(b, t, [v])

        return placement
