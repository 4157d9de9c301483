"""CustomBinPacking (CBP) -- Algorithm 4 with the optimization ladder.

CBP processes the selection *one topic at a time* (optimization (b),
"grouping of pairs by topics"), which both speeds packing up -- the
unit of work drops from a pair to a topic -- and concentrates each
topic on few VMs, saving the duplicated incoming copies FFBP pays.

Three further optimizations from Section III-B/IV-D are independent
switches on :class:`CBPOptions`:

* ``expensive_topic_first`` (optimization (c)): allocate topics in
  non-increasing order of their aggregate selected rate
  ``ev_t * |pairs of t|`` (Algorithm 4, line 3) -- the topics that cost
  the most when split go first, while VMs are still empty;
* ``most_free_vm_first`` (optimization (d)): when spilling a topic onto
  already-deployed VMs, fill the VM with the most free capacity first
  (lines 9 and 14) instead of first-fit order;
* ``cost_based_decision`` (optimization (e)): before spilling onto
  existing VMs, ask :func:`cheaper_to_distribute` (Algorithm 7) whether
  fresh VMs would be cheaper under the pricing plan, and follow its
  verdict.

The ladder presets used by Figures 2-3 are exposed as
:meth:`CBPOptions.ladder`.

Vectorized hot path
-------------------
This implementation is whole-array over the selection's CSR triple
(:meth:`repro.core.pairs.PairSelection.csr_arrays`): the per-topic
subscriber groups stay flat NumPy slices end to end, handed to
:meth:`repro.core.placement.Placement.assign_range` without ever
materializing a Python list.  Per spilled topic, the most-free-first
scan is one stable ``argsort`` over the placement's free-bytes array
plus a ``cumsum``/``searchsorted`` to find how many VMs the group
needs; the cost-based decision (Algorithm 7) is the same sort +
cumsum instead of a per-VM Python loop; and the fresh-VM tail deploys
``ceil(count / per_fresh)`` VMs up front and assigns them as
consecutive slices.  Fleets below :data:`_SMALL_FLEET` VMs use scalar
kernels with identical semantics (NumPy's per-call overhead loses to
a Python scan over a few dozen VMs).  The retained pre-vectorization
implementation
(:class:`repro.packing.custom_loop.LoopCustomBinPacking`,
``"cbp-loop"``) is the executable referee: both produce bit-identical
placements, pinned by ``tests/test_vectorized_equivalence.py``.

Fidelity notes
--------------
Algorithm 4's pseudocode has two well-known transcription glitches: the
inner ``while ev_t <= BC - bw_b`` loops never test ``P`` for emptiness,
and capacity checks ignore the one-off incoming copy a VM pays when it
starts hosting a topic.  We implement the evident intent (fill a VM
with as many pairs as *actually* fit, move on while pairs remain) with
honest capacity accounting, so every produced placement passes
:func:`repro.core.validate_placement`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core import MCSSProblem, PairSelection, Placement
from ..pricing import PricingPlan
from .base import PackingAlgorithm, register_packer

__all__ = ["CBPOptions", "CustomBinPacking", "cheaper_to_distribute"]


@dataclass(frozen=True)
class CBPOptions:
    """Switches for CBP's optimization ladder ((c), (d), (e))."""

    expensive_topic_first: bool = True
    most_free_vm_first: bool = True
    cost_based_decision: bool = True

    @classmethod
    def ladder(cls, rung: str) -> "CBPOptions":
        """Preset for a rung of Figures 2-3.

        ``"b"`` = grouping only, ``"c"`` = + expensive-topic-first,
        ``"d"`` = + most-free-VM-first, ``"e"`` = + cost-based decision
        (the full CBP).  Rung "a" is plain FFBP and therefore not a
        CBP option set.
        """
        presets = {
            "b": cls(False, False, False),
            "c": cls(True, False, False),
            "d": cls(True, True, False),
            "e": cls(True, True, True),
        }
        try:
            return presets[rung]
        except KeyError:
            raise ValueError(
                f"unknown ladder rung {rung!r}; expected one of b, c, d, e"
            ) from None


def _pairs_per_fresh_vm(capacity_bytes: float, topic_bytes: float) -> int:
    """How many pairs of one topic fit on a fresh VM (incl. its ingest)."""
    fit = int((capacity_bytes + 1e-9 - topic_bytes) // topic_bytes)
    return max(fit, 0)


#: Fleet size below which the per-VM scans run as scalar Python loops
#: instead of whole-array passes.  NumPy's fixed per-call overhead
#: (~2-3 us per kernel launch) dominates sorts/cumsums over a few
#: dozen VMs, so tiny fleets -- the regime of the CI 2k-user smoke --
#: are faster scalar; both branches implement identical semantics and
#: the equivalence suite exercises each (see
#: ``tests/test_vectorized_equivalence.py``).
_SMALL_FLEET = 64


def _fleet_fits(
    placement: Placement, topic: int, topic_bytes: float
) -> "tuple[np.ndarray, np.ndarray]":
    """Per-VM pair budgets for one topic, as whole-array arithmetic.

    Returns ``(fit, hosts)``: how many further pairs of ``topic`` each
    deployed VM can accept (charging the one-off incoming copy to VMs
    not yet hosting it), and the hosts-topic mask.  Mirrors
    :meth:`VirtualMachine.max_new_pairs` element for element.
    """
    free = placement.free_bytes_array()
    hosts = placement.hosts_mask(topic)
    budget = free + 1e-9 - np.where(hosts, 0.0, topic_bytes)
    with np.errstate(invalid="ignore"):
        fit = np.floor_divide(budget, topic_bytes).astype(np.int64)
    fit[budget < topic_bytes] = 0
    return fit, hosts


def cheaper_to_distribute(
    placement: Placement,
    plan: PricingPlan,
    topic: int,
    topic_bytes: float,
    count: int,
) -> bool:
    """Algorithm 7: is spilling ``count`` pairs of ``topic`` onto the
    existing fleet cheaper than deploying fresh VMs for them?

    Both options are *simulated* against the current placement (nothing
    is mutated) and priced with the plan's ``C1``/``C2``:

    * **fresh**: pack all pairs onto new VMs only -- pays VM rent but
      the minimum possible ingest duplication;
    * **distribute**: greedily fill existing VMs most-free-first, then
      overflow to new VMs -- saves rent but pays one extra incoming
      copy per additional VM that starts hosting the topic.

    The sorted free-capacity scan is vectorized: one stable descending
    ``argsort`` over the free-bytes array, a ``cumsum`` of the per-VM
    pair budgets, and one ``searchsorted`` to find how many VMs the
    group consumes -- no per-VM Python loop.  The loop referee is
    :func:`repro.packing.custom_loop.cheaper_to_distribute_loop`.

    Deviation: Algorithm 7 sizes fresh VMs as ``ceil(|P| ev_t / BC)``,
    ignoring that each fresh VM also ingests the topic; we use the
    honest per-VM pair capacity so the simulated fleets are feasible.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    capacity = placement.capacity_bytes
    per_fresh = _pairs_per_fresh_vm(capacity, topic_bytes)
    if per_fresh == 0:
        # A single pair does not fit even in an empty VM; the problem
        # constructor rejects such instances, so this is defensive.
        raise ValueError("topic does not fit in an empty VM")

    cur_bytes = placement.total_bytes
    cur_vms = placement.num_vms

    # Option "fresh": new VMs only.
    fresh_vms = math.ceil(count / per_fresh)
    fresh_bytes = cur_bytes + (count + fresh_vms) * topic_bytes
    fresh_cost = plan.c1(cur_vms + fresh_vms) + plan.c2(fresh_bytes)

    # Option "distribute": existing fleet most-free-first, then new VMs.
    left = count
    dist_bytes = cur_bytes
    if cur_vms <= _SMALL_FLEET:
        # Scalar kernel: a handful of VMs is cheaper to scan in Python
        # than to launch a half-dozen NumPy kernels over.
        room = []
        # repolint: allow(VL01): scalar Algorithm-7 kernel, fleet <= _SMALL_FLEET VMs
        for i in range(cur_vms):
            vm = placement.vm(i)
            room.append((vm.free_bytes, vm.hosts_topic(topic)))
        room.sort(key=lambda fh: fh[0], reverse=True)
        # repolint: allow(VL01): scalar Algorithm-7 kernel, fleet <= _SMALL_FLEET VMs
        for free, hosts in room:
            if left == 0:
                break
            budget = free + 1e-9 - (0.0 if hosts else topic_bytes)
            fit = int(budget // topic_bytes) if budget >= topic_bytes else 0
            if fit <= 0:
                continue
            take = min(left, fit)
            dist_bytes += (take + (0 if hosts else 1)) * topic_bytes
            left -= take
    else:
        # Whole-array kernel: one stable descending argsort over the
        # free-bytes array, a cumsum of per-VM budgets, and one
        # searchsorted for the covering prefix.
        fit, hosts = _fleet_fits(placement, topic, topic_bytes)
        order = np.argsort(-placement.free_bytes_array(), kind="stable")
        fit_sorted = fit[order]
        takers = fit_sorted > 0
        fits = fit_sorted[takers]
        new_host = ~hosts[order][takers]
        cum = np.cumsum(fits)
        if cum.size and int(cum[-1]) >= count:
            used = int(np.searchsorted(cum, count)) + 1
            placed = count
            new_ingests = int(np.count_nonzero(new_host[:used]))
            left = 0
        else:
            placed = int(cum[-1]) if cum.size else 0
            new_ingests = int(np.count_nonzero(new_host))
            left = count - placed
        dist_bytes += (placed + new_ingests) * topic_bytes
    extra_vms = math.ceil(left / per_fresh) if left else 0
    if left:
        dist_bytes += (left + extra_vms) * topic_bytes
    dist_cost = plan.c1(cur_vms + extra_vms) + plan.c2(dist_bytes)

    return dist_cost < fresh_cost


@register_packer("cbp")
class CustomBinPacking(PackingAlgorithm):
    """Topic-grouped bin packing with the paper's optimizations."""

    def __init__(self, options: CBPOptions = CBPOptions()) -> None:
        self.options = options

    def pack(self, problem: MCSSProblem, selection: PairSelection) -> Placement:
        placement = problem.empty_placement()
        topic_bytes_all = problem.topic_bytes_array()

        topics, indptr, flat_subs = selection.csr_arrays()
        if topics.size == 0:
            return placement
        order = self._topic_order(problem, topics, indptr)

        current = placement.new_vm()
        # repolint: allow(VL01): per-topic CBP main loop -- inherent current-VM dependence (ROADMAP item 1)
        for g in order.tolist():
            t = int(topics[g])
            subs = flat_subs[indptr[g]:indptr[g + 1]]
            current = self._allocate_topic(
                problem, placement, current, t, float(topic_bytes_all[t]), subs
            )
        return placement

    def _topic_order(
        self, problem: MCSSProblem, topics: np.ndarray, indptr: np.ndarray
    ) -> np.ndarray:
        """Positions -> selection CSR groups, in this rung's pack order."""
        if not self.options.expensive_topic_first:
            return np.arange(topics.size)
        # Line 3: non-increasing aggregate selected rate; break ties
        # by per-event rate, then id, for determinism.  lexsort keys
        # are listed least-significant first.
        counts = np.diff(indptr)
        sel_rates = problem.workload.event_rates[topics]
        return np.lexsort((topics, -sel_rates, -sel_rates * counts))

    def _allocate_topic(
        self,
        problem: MCSSProblem,
        placement: Placement,
        current: int,
        topic: int,
        topic_bytes: float,
        subscribers: np.ndarray,
    ) -> int:
        """Place all pairs of one topic; returns the new "current" VM."""
        opts = self.options

        # Fast path: the whole group fits on the current VM.
        cur_vm = placement.vm(current)
        if cur_vm.fits(topic_bytes, int(subscribers.size), not cur_vm.hosts_topic(topic)):
            placement.assign_range(current, topic, subscribers)
            return current

        distribute = True
        if opts.cost_based_decision:
            distribute = cheaper_to_distribute(
                placement, problem.plan, topic, topic_bytes, int(subscribers.size)
            )

        remaining = subscribers
        if distribute:
            remaining = self._spill_to_existing(
                placement, current, topic, topic_bytes, remaining
            )
        if remaining.size:
            current = self._deploy_fresh(placement, topic, topic_bytes, remaining)
        return current

    def _spill_to_existing(
        self,
        placement: Placement,
        current: int,
        topic: int,
        topic_bytes: float,
        subscribers: np.ndarray,
    ) -> np.ndarray:
        """Fill existing VMs (current first); return unplaced subscribers.

        One whole-array pass: per-VM budgets from the free-bytes array,
        visiting order by stable descending argsort (optimization (d))
        or deployment order, then a ``cumsum``/``searchsorted`` to
        find the covering prefix -- one ``assign_range`` slice per VM
        actually used, zero per-subscriber work.
        """
        remaining = self._fill_vm(placement, current, topic, topic_bytes, subscribers)
        num_vms = placement.num_vms
        if remaining.size == 0 or num_vms <= 1:
            return remaining

        if num_vms <= _SMALL_FLEET:
            # Scalar kernel for tiny fleets (see _SMALL_FLEET): same
            # visiting order and stop conditions, per-VM Python scan.
            if self.options.most_free_vm_first:
                order_small = sorted(
                    (i for i in range(num_vms) if i != current),
                    key=lambda i: -placement.vm(i).free_bytes,
                )
                # repolint: allow(VL01): scalar kernel, fleet <= _SMALL_FLEET VMs
                for vm_index in order_small:
                    before = remaining.size
                    remaining = self._fill_vm(
                        placement, vm_index, topic, topic_bytes, remaining
                    )
                    if remaining.size in (0, before):
                        # Done -- or the most-free VM cannot take even
                        # one pair, in which case no VM can.
                        break
            else:
                # repolint: allow(VL01): scalar kernel, fleet <= _SMALL_FLEET VMs
                for vm_index in range(num_vms):
                    if vm_index == current:
                        continue
                    remaining = self._fill_vm(
                        placement, vm_index, topic, topic_bytes, remaining
                    )
                    if remaining.size == 0:
                        break
            return remaining

        fit, _ = _fleet_fits(placement, topic, topic_bytes)
        if self.options.most_free_vm_first:
            # Lines 9/14: most-free first, ties by VM index -- the exact
            # pop order of the referee's lazy max-heap.  The scan stops
            # at the first VM that cannot take a single pair: if the
            # most-free VM is full for this topic, so is every one after.
            order = np.argsort(-placement.free_bytes_array(), kind="stable")
            order = order[order != current]
            fit_sorted = fit[order]
            blocked = np.flatnonzero(fit_sorted <= 0)
            if blocked.size:
                order = order[: blocked[0]]
                fit_sorted = fit_sorted[: blocked[0]]
        else:
            # First-fit deployment order, skipping only non-takers.
            order = np.arange(placement.num_vms, dtype=np.int64)
            order = order[(order != current) & (fit > 0)]
            fit_sorted = fit[order]

        if order.size == 0:
            return remaining
        cum = np.cumsum(fit_sorted)
        cover = int(np.searchsorted(cum, remaining.size))
        used = min(cover + 1, int(order.size))
        takes = fit_sorted[:used].copy()
        if cover < order.size:
            takes[cover] = remaining.size - (int(cum[cover - 1]) if cover else 0)
            placed = int(remaining.size)
        else:
            placed = int(cum[-1])
        start = 0
        # repolint: allow(VL01): one batch assign_range per receiving VM -- O(VMs touched), not O(pairs)
        for vm_index, take in zip(order[:used].tolist(), takes.tolist()):
            placement.assign_range(vm_index, topic, remaining[start:start + take])
            start += take
        return remaining[placed:]

    @staticmethod
    def _fill_vm(
        placement: Placement,
        vm_index: int,
        topic: int,
        topic_bytes: float,
        subscribers: np.ndarray,
    ) -> np.ndarray:
        """Assign as many pairs as fit on one VM; return the leftovers."""
        vm = placement.vm(vm_index)
        fit = vm.max_new_pairs(topic_bytes, vm.hosts_topic(topic))
        if fit <= 0:
            return subscribers
        take = min(fit, int(subscribers.size))
        placement.assign_range(vm_index, topic, subscribers[:take])
        return subscribers[take:]

    @staticmethod
    def _deploy_fresh(
        placement: Placement,
        topic: int,
        topic_bytes: float,
        subscribers: np.ndarray,
    ) -> int:
        """Lines 15-20: deploy all needed fresh VMs in one batch.

        Every fresh VM takes the same ``per_fresh`` pairs (honest
        capacity, including its own ingest copy), so the VM count is
        ``ceil(count / per_fresh)`` up front and the group is assigned
        as consecutive slices -- no while-loop over leftovers.
        """
        per_fresh = _pairs_per_fresh_vm(placement.capacity_bytes, topic_bytes)
        if per_fresh <= 0:  # pragma: no cover - excluded by problem checks
            raise ValueError("topic does not fit in an empty VM")
        count = int(subscribers.size)
        num_new = -(-count // per_fresh)
        first = placement.new_vms(num_new)
        # repolint: allow(VL01): one batch assign_range per fresh VM -- O(new VMs), not O(pairs)
        for i in range(num_new):
            placement.assign_range(
                first + i, topic, subscribers[i * per_fresh:(i + 1) * per_fresh]
            )
        return first + num_new - 1
