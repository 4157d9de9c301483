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
(:meth:`repro.core.pairs.PairSelection.csr_arrays`).  Its only
decision state is two per-VM float arrays (outgoing and incoming
bytes), and its output is an append-only log of the (vm, topic)
groups it forms: one (vm, pair count) row per group, each topic's
rows covering its CSR slice in order.
:meth:`repro.core.placement.Placement.from_groups` adopts the log
once at the end, together with the packer's per-VM bytes; no Python
runs per group.

* **Runs of whole topics.**  Most topics fit whole on the current VM.
  The length of such a run is found by one fit test over a window of
  upcoming topics, doubled while the whole window fits (the galloping
  search of Bentley & Yao, "An almost optimal algorithm for unbounded
  searching", IPL 1976).  The test is exact: ``np.cumsum`` accumulates
  sequentially, so it reproduces the ``+=`` chain of per-topic
  updates bit for bit.  And no VM hosts a topic before that topic's
  own turn, so every topic in a run pays its one incoming copy.
* **Spills** (optimization (d)): the VMs with room for a pair, sorted
  most free first, plus a ``cumsum``/``searchsorted`` to find how many
  of them the group needs.
* **Algorithm 7** (optimization (e)): the same sort + cumsum, on the
  arrays, instead of a per-VM Python loop; it shares one snapshot of
  the per-VM bytes with the spill.
* **Fresh VMs**: ``ceil(count / per_fresh)`` VMs deployed up front,
  taking consecutive slices.

One code path serves every fleet size.

The retained pre-vectorization implementation
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
from ..core.segsearch import ranges
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


#: Topics in the first fit test of a run of whole topics; each window
#: that fits whole doubles the next one.
_RUN_WINDOW = 64


def _pair_budgets(
    free: np.ndarray, topic_bytes: float, hosts: "np.ndarray | None" = None
) -> np.ndarray:
    """How many further pairs of one topic each VM can accept.

    ``free`` is the per-VM free bytes.  A VM outside ``hosts`` (every
    VM when ``hosts`` is ``None``) also pays the topic's one-off
    incoming copy.  Mirrors :meth:`VirtualMachine.max_new_pairs`
    element for element; the float ``floor_divide`` runs only on the
    VMs with room for a pair, usually a small part of a packed fleet.
    """
    ingest = topic_bytes if hosts is None else np.where(hosts, 0.0, topic_bytes)
    budget = free + 1e-9 - ingest
    fit = np.zeros(budget.size, dtype=np.int64)
    room = (budget >= topic_bytes).nonzero()[0]
    fit[room] = np.floor_divide(budget[room], topic_bytes)
    return fit


def _takers_most_free_first(
    used: np.ndarray, capacity: float, fit: np.ndarray
) -> np.ndarray:
    """The VMs with room for a pair (``fit > 0``), most free first.

    Ties go by VM index (a stable sort of ascending indices): the
    order of these VMs in a stable descending sort of the whole fleet's
    free bytes.  ``used - BC`` is ``-(BC - used)`` bit for bit, since
    rounding is symmetric in sign.
    """
    room = fit.nonzero()[0]
    return room[(used[room] - capacity).argsort(kind="stable")]


def _distribute_is_cheaper(
    plan: PricingPlan,
    capacity: float,
    used: np.ndarray,
    fit: np.ndarray,
    order: np.ndarray,
    new_host: "np.ndarray | None",
    topic_bytes: float,
    count: int,
) -> bool:
    """Algorithm 7 over per-VM arrays; see :func:`cheaper_to_distribute`.

    ``used`` is the per-VM used bytes, ``fit`` the per-VM pair budgets
    (:func:`_pair_budgets`) and ``order`` the VMs with room, most free
    first (:func:`_takers_most_free_first`).  ``new_host`` marks the
    VMs that would start ingesting the topic; ``None`` means all of
    them.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    per_fresh = _pairs_per_fresh_vm(capacity, topic_bytes)
    if per_fresh == 0:
        # A single pair does not fit even in an empty VM; the problem
        # constructor rejects such instances, so this is defensive.
        raise ValueError("topic does not fit in an empty VM")

    cur_bytes = float(np.add.reduce(used))
    cur_vms = int(used.size)

    # Option "fresh": new VMs only.
    fresh_vms = math.ceil(count / per_fresh)
    fresh_bytes = cur_bytes + (count + fresh_vms) * topic_bytes
    fresh_cost = plan.c1(cur_vms + fresh_vms) + plan.c2(fresh_bytes)

    # Option "distribute": existing fleet most-free-first, then new VMs.
    placed = new_ingests = 0
    if order.size:
        cum = fit[order].cumsum()
        placed = min(count, int(cum[-1]))
        new_ingests = int(cum.searchsorted(placed)) + 1
        if new_host is not None:
            new_ingests = int(np.count_nonzero(new_host[order][:new_ingests]))
    left = count - placed
    dist_bytes = cur_bytes + (placed + new_ingests) * topic_bytes
    extra_vms = math.ceil(left / per_fresh) if left else 0
    if left:
        dist_bytes += (left + extra_vms) * topic_bytes
    dist_cost = plan.c1(cur_vms + extra_vms) + plan.c2(dist_bytes)

    return dist_cost < fresh_cost


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
    ``argsort`` over the free bytes, a ``cumsum`` of the per-VM pair
    budgets, and one ``searchsorted`` to find how many VMs the group
    consumes -- no per-VM Python loop.  CBP runs the same kernel on its
    own per-VM byte arrays.  The loop referee is
    :func:`repro.packing.custom_loop.cheaper_to_distribute_loop`.

    Deviation: Algorithm 7 sizes fresh VMs as ``ceil(|P| ev_t / BC)``,
    ignoring that each fresh VM also ingests the topic; we use the
    honest per-VM pair capacity so the simulated fleets are feasible.
    """
    capacity = placement.capacity_bytes
    used = placement.used_bytes_array()
    hosts = placement.hosts_mask(topic)
    fit = _pair_budgets(capacity - used, topic_bytes, hosts)
    return _distribute_is_cheaper(
        plan,
        capacity,
        used,
        fit,
        _takers_most_free_first(used, capacity, fit),
        ~hosts,
        topic_bytes,
        count,
    )


class _Bins:
    """CBP's decision state and output log.

    ``out`` / ``inc`` hold each VM's outgoing and incoming bytes
    (buffers grown geometrically; the first ``n`` entries are live).
    Topics are addressed by their position in the pack order.  The log
    is ``vm_log`` / ``size_log``: one (vm, pair count) row per group in
    the order the groups form, with ``groups[pos]`` rows for the topic
    at ``pos``, whose members are consecutive ranges of its CSR slice.
    Every group is a topic's first on its VM (no VM hosts a topic
    before that topic's turn), so each pays one incoming copy.
    """

    def __init__(
        self, capacity: float, topic_bytes: np.ndarray, counts: np.ndarray
    ) -> None:
        self.capacity = capacity
        self.topic_bytes = topic_bytes
        self.counts = counts
        # A whole topic on one VM: its outgoing bytes, and those plus
        # the incoming copy it pays there.
        self.whole_out = topic_bytes * counts
        self.whole_cost = topic_bytes * (counts + 1)
        self.out = np.zeros(64)
        self.inc = np.zeros(64)
        self.n = 0
        self.groups = np.ones(counts.size, dtype=np.int64)
        self.vm_log: "list[np.ndarray | list[int]]" = []
        self.size_log: "list[np.ndarray | list[int]]" = []
        self.logged = 0  # rows in the log

    def deploy(self, count: int) -> int:
        """Deploy ``count`` empty VMs; returns the first index."""
        first = self.n
        self.n += count
        if self.n > self.out.size:
            size = max(2 * self.out.size, self.n)
            self.out = np.concatenate((self.out, np.zeros(size - self.out.size)))
            self.inc = np.concatenate((self.inc, np.zeros(size - self.inc.size)))
        return first

    def used(self) -> np.ndarray:
        """Per-VM used bytes, ``out + in`` as :class:`VirtualMachine` sums them."""
        return self.out[: self.n] + self.inc[: self.n]

    def fits_whole(self, vm: int, pos: int) -> bool:
        """Whether the topic at ``pos`` fits whole on ``vm``."""
        free = self.capacity - (float(self.out[vm]) + float(self.inc[vm]))
        return float(self.whole_cost[pos]) <= free + 1e-9

    def run(self, vm: int, pos: int) -> int:
        """Place the run of whole topics from ``pos`` on that fit on ``vm``.

        Returns the position after the run.  Each window of upcoming
        topics is tested at once, and a window that fits whole doubles
        the next.  A topic fits iff its pairs plus its incoming copy fit
        in what the topics before it left free.  The cumulative sums
        are the exact ``+=`` chain, so the verdicts and the final bytes
        equal one-topic-at-a-time accounting.
        """
        start, window, end = pos, _RUN_WINDOW, self.counts.size
        # repolint: allow(VL01): one fit test per doubling window -- O(log run) passes
        while pos < end:
            stop = min(pos + window, end)
            out = np.concatenate(([self.out[vm]], self.whole_out[pos:stop])).cumsum()
            inc = np.concatenate(([self.inc[vm]], self.topic_bytes[pos:stop])).cumsum()
            miss = self.whole_cost[pos:stop] > self.capacity - (out[:-1] + inc[:-1]) + 1e-9
            run = int(miss.argmax()) if miss.any() else stop - pos
            self.out[vm] = out[run]
            self.inc[vm] = inc[run]
            pos += run
            if pos < stop:
                break
            window *= 2
        self.log(np.full(pos - start, vm, dtype=np.int64), self.counts[start:pos])
        return pos

    def place(self, vms: np.ndarray, topic_bytes: float, takes: np.ndarray) -> None:
        """Charge and log groups of one topic on distinct VMs."""
        self.out[vms] += topic_bytes * takes
        self.inc[vms] += topic_bytes
        self.log(vms, takes)

    def log(self, vms: "np.ndarray | list[int]", takes: "np.ndarray | list[int]") -> None:
        """Append (vm, pair count) rows to the log."""
        self.vm_log.append(vms)
        self.size_log.append(takes)
        self.logged += len(vms)


@register_packer("cbp")
class CustomBinPacking(PackingAlgorithm):
    """Topic-grouped bin packing with the paper's optimizations."""

    def __init__(self, options: CBPOptions = CBPOptions()) -> None:
        self.options = options

    def pack(self, problem: MCSSProblem, selection: PairSelection) -> Placement:
        topics, indptr, flat_subs = selection.csr_arrays()
        if topics.size == 0:
            return problem.empty_placement()
        order = self._topic_order(problem, topics, indptr)
        counts = np.diff(indptr)[order]
        pack_topics = topics[order]
        bins = _Bins(
            problem.capacity_bytes, problem.topic_bytes_array()[pack_topics], counts
        )

        current = bins.deploy(1)
        pos = 0
        # repolint: allow(VL01): one step per run or spilled topic -- a sequential chain
        while pos < order.size:
            if bins.fits_whole(current, pos):
                pos = bins.run(current, pos)
            else:
                current = self._allocate_topic(problem.plan, bins, current, pos)
                pos += 1

        members = flat_subs
        if self.options.expensive_topic_first:
            # Each topic's CSR slice, laid end to end in pack order.
            members = flat_subs[ranges(indptr[:-1][order], counts)]
        return Placement.from_groups(
            problem.workload,
            problem.capacity_bytes,
            np.concatenate(bins.vm_log),
            np.repeat(pack_topics, bins.groups),
            np.concatenate(bins.size_log),
            members,
            bins.out[: bins.n],
            bins.inc[: bins.n],
        )

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
        self, plan: PricingPlan, bins: _Bins, current: int, pos: int
    ) -> int:
        """Place a topic that does not fit whole on the current VM.

        Returns the new "current" VM.  One snapshot of the per-VM bytes
        serves Algorithm 7 and the spill: filling the current VM first
        changes neither the budgets nor the relative order of the others.
        """
        topic_bytes = float(bins.topic_bytes[pos])
        count = int(bins.counts[pos])
        logged = bins.logged
        used = bins.used()
        fit = _pair_budgets(bins.capacity - used, topic_bytes)
        order = _takers_most_free_first(used, bins.capacity, fit)
        left = count
        if not self.options.cost_based_decision or _distribute_is_cheaper(
            plan, bins.capacity, used, fit, order, None, topic_bytes, count
        ):
            left = self._spill_to_existing(bins, current, fit, order, topic_bytes, count)
        if left:
            current = self._deploy_fresh(bins, topic_bytes, left)
        bins.groups[pos] = bins.logged - logged
        return current

    def _spill_to_existing(
        self,
        bins: _Bins,
        current: int,
        fit: np.ndarray,
        order: np.ndarray,
        topic_bytes: float,
        count: int,
    ) -> int:
        """Fill existing VMs (current first); return how many pairs are left.

        One whole-array pass over the per-VM budgets ``fit``: the VMs
        with room, most free first (optimization (d), ``order``) or by
        deployment, then a ``cumsum``/``searchsorted`` to find the
        covering prefix.
        """
        take = min(int(fit[current]), count)
        if take > 0:
            bins.out[current] += topic_bytes * take
            bins.inc[current] += topic_bytes
            bins.log([current], [take])
        left = count - take
        if left == 0 or bins.n <= 1:
            return left

        if self.options.most_free_vm_first:
            # Lines 9/14: most-free first, ties by VM index -- the exact
            # pop order of the referee's lazy max-heap.  Budgets only
            # grow with the free bytes, so the VMs that can take a pair
            # come first, and the referee's scan stops where they end.
            order = order[order != current]
        else:
            # First-fit deployment order, skipping only non-takers.
            order = fit.nonzero()[0]
            order = order[order != current]
        fit_sorted = fit[order]

        if order.size == 0:
            return left
        cum = fit_sorted.cumsum()
        cover = int(cum.searchsorted(left))
        used_vms = min(cover + 1, int(order.size))
        takes = fit_sorted[:used_vms].copy()
        if cover < order.size:
            takes[cover] = left - (int(cum[cover - 1]) if cover else 0)
        bins.place(order[:used_vms], topic_bytes, takes)
        return left - min(left, int(cum[-1]))

    @staticmethod
    def _deploy_fresh(bins: _Bins, topic_bytes: float, count: int) -> int:
        """Lines 15-20: deploy all needed fresh VMs in one batch.

        Every fresh VM takes the same ``per_fresh`` pairs (honest
        capacity, including its own ingest copy), so the VM count is
        ``ceil(count / per_fresh)`` up front and the group is assigned
        as consecutive slices -- no while-loop over leftovers.  The new
        VMs are the empty tail of the byte arrays, so their bytes are
        written, not added.
        """
        per_fresh = _pairs_per_fresh_vm(bins.capacity, topic_bytes)
        if per_fresh <= 0:  # pragma: no cover - excluded by problem checks
            raise ValueError("topic does not fit in an empty VM")
        num_new = -(-count // per_fresh)
        first = bins.deploy(num_new)
        takes = np.full(num_new, per_fresh, dtype=np.int64)
        takes[-1] = count - per_fresh * (num_new - 1)
        bins.out[first:bins.n] = topic_bytes * takes
        bins.inc[first:bins.n] = topic_bytes
        bins.log(np.arange(first, bins.n), takes)
        return bins.n - 1
