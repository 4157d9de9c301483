"""Incremental reprovisioning across workload epochs.

The paper's answer to workload dynamics is "re-run the whole solver
periodically" (Section IV-F); a true online algorithm is left as future
work (Section VI).  This module implements that future-work extension
in the most natural form compatible with the two-stage structure:

* per epoch, Stage 1 is re-run **only for subscribers whose interest
  or threshold changed** (selection is per-subscriber independent, so
  the untouched selections remain optimal w.r.t. the greedy);
* removed pairs are plucked out of their VMs; new pairs are placed
  preferring VMs that already host the topic (no extra ingest), then
  the most-free VM, then a fresh VM;
* rate drift re-prices every VM; overloaded VMs evict their
  smallest-rate topic groups, which re-enter through the same placer;
* empty VMs are terminated;
* when the incremental fleet drifts more than ``rebuild_threshold``
  above a fresh two-stage solve, the reprovisioner rebuilds from
  scratch (the paper's periodic full re-run, used as a safety net
  rather than the steady state).

Churn-proportional epoch state
------------------------------
:class:`IncrementalReprovisioner` (the default) keeps its state on two
levels, so that an epoch costs what its churn costs rather than what
the fleet holds:

* the **pair table** -- one ``(subscriber, topic, vm)`` row per placed
  pair, sorted subscriber-major, with each subscriber's first row.  An
  epoch reads only its touched subscribers' rows, one contiguous run
  each; :func:`advance_orders` rewrites the table with one compress and
  one insert per column, and the row offsets move by the epoch's
  per-subscriber counts (one subscriber-sized ``cumsum``).  The only
  other pass over the table runs on epochs that evict, to collect the
  evicted groups' members;
* the **group table** -- one row per ``(vm, topic)`` with its member
  count, sorted by ``(vm, topic)``: about 25x fewer rows than pairs on
  the serving workloads.  Removals, evictions and placements update it
  in place; re-pricing is one group-sized ``np.bincount``, eviction
  reads a VM's slice of it and placement reads each topic's hosts
  from it.

The touched subscribers are re-selected **in one batch** through the
vectorized GSP on a :meth:`Workload.restrict_subscribers` view, and the
added and removed pairs fall out of two sorted-key set differences.
Added pairs are placed grouped by topic, each in O(log VMs) with two
lazily updated ``heapq`` heaps -- the topic's hosts by score
(``free + capacity``) and the whole fleet by free bytes.  The placement
is materialized on demand via :meth:`Placement.from_pair_arrays`.

The **fresh solve** the referee pays every epoch just to measure drift
is gated by the Algorithm-5 lower bound, kept as a running vector of
per-subscriber terms (:func:`~repro.bounds.subscriber_bound_terms`):
each epoch refreshes the touched subscribers' terms from the
re-selection's own view and prices the vector, which equals
``lower_bound(problem)`` bit for bit.  A fresh solve runs only every
``fresh_solve_every`` epochs (the paper's periodic re-run as a safety
net) or when the calibrated estimate suggests the incremental fleet may
have drifted past ``rebuild_threshold``.  See :class:`EpochReport` for
how drift is reported on estimate-only epochs.

That fresh solve does not re-run Stage 1.  GSP decides each subscriber
from its own interests and their rates, and a step re-selects every
subscriber whose interests or topic rates changed (and drops those who
left), so the held pair set already is GSP's selection of the current
workload.  The fresh solve is therefore a cold Stage-2 pack of that
selection (:meth:`MCSSSolver.solve_with_selection`), and it equals a
from-scratch solve bit for bit: full CBP packs topics in the total
order ``(-rate * count, -rate, topic)`` whatever the order of the
selection's groups, and the subscriber-major table lists each topic's
subscribers ascending, as GSP does.  The pack's audit
(:func:`~repro.core.validate_placement`) therefore checks the held
selection itself: a subscriber it leaves unserved fails the step with
a ``ValueError`` naming it.  The fresh solve runs on the epoch's local
tables before the step commits them, so that failure leaves the
reprovisioner at the previous epoch, as does
:class:`InfeasibleEpochError`, raised when a step's workload holds a
pair no VM can fit.

:class:`LoopIncrementalReprovisioner` (``reprovision-loop``) is the
retained dict-of-sets referee.  Its only changes from the
pre-vectorization code make its decisions well-defined so they can be
pinned: added pairs are placed in canonical ``(topic, subscriber)``
order (previously Python-set iteration order) and eviction breaks
rate ties by topic id (previously dict order).  With integer-valued
event rates (all bundled generators) every byte total is exactly
representable, and the vectorized reprovisioner produces **identical
epoch placements, costs and move counts** -- the contract enforced by
``tests/test_vectorized_equivalence.py`` on shared-seed churn streams
(with ``fresh_solve_every=1``, matching the referee's every-epoch
fresh solve).
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..bounds import lower_bound, subscriber_bound_terms, terms_lower_bound
from ..core import MCSSProblem, Pair, PairSelection, Placement, SolutionCost
from ..core.segsearch import ranges, segmented_left_search, sorted_unique
from ..core.segsearch import sorted_member as _sorted_member
from ..selection import GreedySelectPairs
from ..solver import MCSSSolver

__all__ = [
    "EpochReport",
    "IncrementalReprovisioner",
    "InfeasibleEpochError",
    "LoopIncrementalReprovisioner",
    "advance_orders",
]

_EPS = 1e-12


class InfeasibleEpochError(ValueError):
    """A step's workload holds a pair that no VM can fit.

    Raised by :meth:`IncrementalReprovisioner.step` before it changes
    any state: the reprovisioner stays at epoch ``epoch - 1``, and a
    feasible next workload steps from there.  A delta's churn is not
    applied either: the next delta must carry it too, as
    :meth:`~repro.serving.MicroEpochService.run_micro_epoch` does.
    """

    def __init__(
        self, epoch: int, topic: int, needed_bytes: float, capacity_bytes: float
    ) -> None:
        super().__init__(
            f"epoch {epoch} is infeasible: one pair of topic {topic} needs "
            f"{needed_bytes:.0f} B but BC is {capacity_bytes:.0f} B"
        )
        self.epoch = epoch
        self.topic = topic
        self.needed_bytes = needed_bytes
        self.capacity_bytes = capacity_bytes


@dataclass(frozen=True)
class EpochReport:
    """What one epoch of reprovisioning did.

    ``fresh_cost`` is the cost of a fresh solve when one ran this epoch
    and ``None`` otherwise.  The loop referee runs a from-scratch solve
    every epoch.  The vectorized reprovisioner, on gated epochs, packs
    its held selection afresh: a cold Stage-2 pack of the pair set it
    maintains as GSP's selection, which costs what a from-scratch
    solve costs.
    ``fresh_estimate_usd`` is the calibrated Algorithm-5 estimate of
    the fresh cost that gated the decision.  :attr:`drift` falls back
    to the estimate on estimate-only epochs; the skip condition
    guarantees it stays within the rebuild threshold either way.
    """

    epoch: int
    cost: SolutionCost
    fresh_cost: Optional[SolutionCost]
    pairs_added: int
    pairs_removed: int
    pairs_moved: int
    vms_opened: int
    vms_closed: int
    rebuilt: bool
    seconds: float
    fresh_solved: bool = True
    fresh_estimate_usd: float = 0.0

    @property
    def drift(self) -> float:
        """Incremental cost relative to a fresh solve (1.0 = equal).

        On epochs where the fresh solve was skipped, relative to the
        calibrated lower-bound estimate of the fresh cost instead.
        """
        reference = (
            self.fresh_cost.total_usd
            if self.fresh_cost is not None
            else self.fresh_estimate_usd
        )
        if reference == 0:
            return 1.0
        return self.cost.total_usd / reference


def advance_orders(
    p_v: np.ndarray,
    p_t: np.ndarray,
    p_vm: np.ndarray,
    dropped: np.ndarray,
    add_v: np.ndarray,
    add_t: np.ndarray,
    add_vm: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The canonical pair table after an epoch drops rows and adds pairs.

    ``p_v, p_t, p_vm`` is the table in ``(subscriber, topic)`` order,
    ``dropped`` the ascending indices of the rows that leave it, and
    ``add_*`` the pairs that join it, in any order.  An added
    ``(subscriber, topic)`` may equal a dropped row's (a moved pair)
    but no kept row's.  Returns the kept and added rows in the order
    ``np.lexsort((t, v))`` gives them.

    Each added pair's rank among the kept rows comes from its own
    subscriber's run -- ``searchsorted`` over the subscriber ids, a
    lane-parallel bisection over the run's topics, minus the dropped
    rows before it -- so the only whole-table work is one compress and
    one insert per column.  No composite key is formed, so no id range
    can overflow.
    """
    order = np.lexsort((add_t, add_v))
    add_v, add_t, add_vm = add_v[order], add_t[order], add_vm[order]
    lo = np.searchsorted(p_v, add_v)
    hi = np.searchsorted(p_v, add_v, side="right")
    before = segmented_left_search(p_t, lo, hi, add_t, np.greater_equal)
    before -= np.searchsorted(dropped, before)
    keep = np.ones(p_v.size, dtype=bool)
    keep[dropped] = False
    return (
        np.insert(p_v[keep], before, add_v),
        np.insert(p_t[keep], before, add_t),
        np.insert(p_vm[keep], before, add_vm),
    )


def _check_settings(rebuild_threshold: float, fresh_solve_every: int) -> None:
    """The solve parameters' rules, for a new and a restored reprovisioner."""
    if not rebuild_threshold >= 1.0:
        raise ValueError("rebuild_threshold must be >= 1.0")
    if fresh_solve_every < 1:
        raise ValueError("fresh_solve_every must be >= 1")


def _id_span(p_v: np.ndarray, num_subscribers: int) -> int:
    """Subscriber ids the row offsets cover: the workload's and the table's."""
    return max(num_subscribers, int(p_v[-1]) + 1 if p_v.size else 0)


def _offsets(counts: np.ndarray) -> np.ndarray:
    """Row offsets of a subscriber-major table from per-subscriber counts."""
    first = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=first[1:])
    return first


def _evict_overloaded(
    used: np.ndarray,
    capacity: float,
    g_vm: np.ndarray,
    g_t: np.ndarray,
    g_cnt: np.ndarray,
    rates: np.ndarray,
    msg: float,
) -> np.ndarray:
    """The groups the referee evicts, charging them to ``used`` in place.

    The referee empties an overloaded VM of its smallest ``rate *
    count`` group first, ties to the lower topic, until the VM fits.
    One stable sort puts every overloaded VM's groups in that order
    (topics ascend within a VM's slice of the group table); then each
    round takes the next group off every VM still over capacity, so a
    VM's used bytes see the referee's subtractions in the referee's
    order.  Returns group indices VM by VM, in eviction order.
    """
    over = np.flatnonzero(used > capacity + 1e-6)
    if not over.size:
        return over
    lo = np.searchsorted(g_vm, over)
    size = np.searchsorted(g_vm, over, side="right") - lo
    groups = ranges(lo, size)
    owner = np.repeat(np.arange(over.size), size)
    groups = groups[np.lexsort((rates[g_t[groups]] * g_cnt[groups], owner))]
    freed = rates[g_t[groups]] * (g_cnt[groups] + 1) * msg
    first = np.cumsum(size) - size
    taken = np.zeros(over.size, dtype=np.int64)
    left = used[over]
    active = np.flatnonzero(size)
    # repolint: allow(VL01): one round per eviction rank -- each still-overloaded VM drops its next group
    while active.size:
        left[active] -= freed[first[active] + taken[active]]
        taken[active] += 1
        active = active[
            (left[active] > capacity + 1e-6) & (taken[active] < size[active])
        ]
    used[over] = left
    return groups[ranges(first, taken)]


def _evicted_rows(
    p_vm: np.ndarray,
    p_t: np.ndarray,
    g_vm: np.ndarray,
    g_t: np.ndarray,
    gkey: np.ndarray,
    ev: np.ndarray,
    big_l: np.int64,
) -> np.ndarray:
    """Table rows of the evicted groups ``ev``, group by group.

    ``gkey`` holds the group table's sorted ``vm * big_l + topic`` keys
    and ``ev`` the evicted group indices in eviction order.  One pass
    over the pair table keeps the rows whose VM and topic both evicted
    something; each such row's own group, found by a key search of the
    group table, says whether it went.  Rows come out in eviction order
    and, within a group, by ascending subscriber (table order).
    """
    vm_hit = np.zeros(int(g_vm[-1]) + 1, dtype=bool)
    vm_hit[g_vm[ev]] = True
    t_hit = np.zeros(int(big_l), dtype=bool)
    t_hit[g_t[ev]] = True
    cand = np.flatnonzero(vm_hit[p_vm] & t_hit[p_t])
    rank = np.full(gkey.size, -1, dtype=np.int64)
    rank[ev] = np.arange(ev.size)
    rank = rank[np.searchsorted(gkey, p_vm[cand] * big_l + p_t[cand])]
    hit = rank >= 0
    # One sort of unique (rank, row) keys groups the rows by eviction
    # rank, ascending within a group.
    rows = p_vm.size
    return np.sort(rank[hit] * rows + cand[hit]) % rows


class IncrementalReprovisioner:
    """Maintain a near-optimal placement under workload churn.

    Parameters
    ----------
    problem:
        The epoch-0 MCSS instance (solved once at construction).
    rebuild_threshold:
        Rebuild from scratch when the incremental cost exceeds a fresh
        solve by this factor (>= 1.0).
    fresh_solve_every:
        Cadence of the guaranteed fresh solve (>= 1): a cold full-CBP
        pack of the held selection, audited.  In between, the fresh
        solve runs only when the calibrated Algorithm-5 estimate says
        the fleet may have drifted past the rebuild threshold; ``1``
        reproduces the referee's fresh-solve-every-epoch behavior
        exactly.

    The initial solve is the paper configuration, ``MCSSSolver.paper()``
    (GSP + full CBP), and the incremental re-selection is GSP, so the
    placed pair set is GSP's selection at every epoch.  A fresh solve
    therefore re-packs that set with the same solver's Stage 2 instead
    of selecting again (see the module docstring).
    """

    def __init__(
        self,
        problem: MCSSProblem,
        rebuild_threshold: float = 1.15,
        fresh_solve_every: int = 8,
    ) -> None:
        _check_settings(rebuild_threshold, fresh_solve_every)
        self._solver = MCSSSolver.paper()
        self._selector = GreedySelectPairs()
        self._rebuild_threshold = rebuild_threshold
        self._fresh_every = int(fresh_solve_every)
        self._tau = problem.tau
        self._plan = problem.plan
        self._epoch = 0
        self._since_fresh = 0

        solution = self._solver.solve(problem)
        self._workload = problem.workload
        self._adopt(solution.placement)
        self._terms = subscriber_bound_terms(problem.workload, self._tau)
        lb = lower_bound(problem).total_usd
        self._lb_ratio = solution.cost.total_usd / lb if lb > 0 else 1.0

    # ------------------------------------------------------------------
    # Public surface
    # ------------------------------------------------------------------
    @property
    def problem(self) -> MCSSProblem:
        """The current epoch's MCSS instance."""
        return MCSSProblem(self._workload, self._tau, self._plan)

    def placement(self) -> Placement:
        """Materialize the current assignment as a Placement."""
        return Placement.from_pair_arrays(
            self._workload,
            self._plan.capacity_bytes,
            self._p_vm,
            self._p_t,
            self._p_v,
            num_vms=self._num_vms,
        )

    def selection(self) -> PairSelection:
        """The current Stage-1 state (== the placed pair set)."""
        return PairSelection.from_csr(self._p_t, None, self._p_v, trusted=True)

    @property
    def epoch(self) -> int:
        """Epochs stepped so far (0 before the first :meth:`step`)."""
        return self._epoch

    @property
    def num_vms(self) -> int:
        """Current fleet size (without materializing the placement)."""
        return self._num_vms

    def snapshot(self) -> dict:
        """The complete mutable state as a dict of arrays and scalars.

        Everything :meth:`restore` needs to continue the run bit-exactly
        without re-solving: the sorted pair arrays, fleet size, epoch
        counters, the calibration ratio, the solve parameters, and the
        current workload (carried by reference -- persist its CSR arrays
        through the backend seam; see
        :mod:`repro.resilience.checkpoint`).  ``used_bytes`` is derived
        state included as an integrity cross-check.
        """
        return {
            "pair_subscribers": self._p_v.copy(),
            "pair_topics": self._p_t.copy(),
            "pair_vms": self._p_vm.copy(),
            "used_bytes": self._used_bytes(),
            "num_vms": int(self._num_vms),
            "epoch": int(self._epoch),
            "since_fresh": int(self._since_fresh),
            "lb_ratio": float(self._lb_ratio),
            "tau": float(self._tau),
            "rebuild_threshold": float(self._rebuild_threshold),
            "fresh_solve_every": int(self._fresh_every),
            "workload": self._workload,
        }

    @classmethod
    def restore(cls, snapshot: dict, plan) -> "IncrementalReprovisioner":
        """Rebuild from a :meth:`snapshot` without re-solving epoch 0.

        ``plan`` is configuration, not run state, so the caller passes
        the same :class:`ProvisioningPlan` the original run used.  The
        scalars must pass :meth:`__init__`'s rules and lie in the ranges
        :meth:`step` maintains; a violation raises ``ValueError`` naming
        the field.  The pair table must name only subscribers, topics
        and VMs that exist, and be strictly ascending by
        (subscriber, topic), the order :meth:`snapshot` writes; one
        permuted in all three arrays at once would pass the byte
        cross-check.  The stored ``used_bytes`` is recomputed from the
        pair arrays and cross-checked, catching a snapshot whose members
        were swapped or tampered with after the per-member digests were
        stripped.
        """
        rebuild_threshold = float(snapshot["rebuild_threshold"])
        fresh_every = int(snapshot["fresh_solve_every"])
        _check_settings(rebuild_threshold, fresh_every)
        tau = float(snapshot["tau"])
        epoch = int(snapshot["epoch"])
        since_fresh = int(snapshot["since_fresh"])
        lb_ratio = float(snapshot["lb_ratio"])
        num_vms = int(snapshot["num_vms"])
        if not tau >= 0:
            raise ValueError("snapshot tau must be non-negative")
        if epoch < 0:
            raise ValueError("snapshot epoch must be >= 0")
        if not 0 <= since_fresh < fresh_every:
            raise ValueError(
                "snapshot since_fresh must be in [0, fresh_solve_every)"
            )
        if not (math.isfinite(lb_ratio) and lb_ratio > 0):
            raise ValueError("snapshot lb_ratio must be finite and positive")
        if num_vms < 0:
            raise ValueError("snapshot num_vms must be >= 0")

        inst = cls.__new__(cls)
        inst._solver = MCSSSolver.paper()
        inst._selector = GreedySelectPairs()
        inst._rebuild_threshold = rebuild_threshold
        inst._fresh_every = fresh_every
        inst._tau = tau
        inst._plan = plan
        inst._epoch = epoch
        inst._since_fresh = since_fresh
        inst._lb_ratio = lb_ratio
        inst._workload = snapshot["workload"]
        p_v = np.asarray(snapshot["pair_subscribers"], dtype=np.int64)
        p_t = np.asarray(snapshot["pair_topics"], dtype=np.int64)
        p_vm = np.asarray(snapshot["pair_vms"], dtype=np.int64)
        if not (p_v.shape == p_t.shape == p_vm.shape):
            raise ValueError("snapshot pair arrays disagree in length")
        if p_t.size and not (
            0 <= p_v.min() and p_v.max() < inst._workload.num_subscribers
            and 0 <= p_t.min() and p_t.max() < inst._workload.num_topics
            and 0 <= p_vm.min() and p_vm.max() < num_vms
        ):
            raise ValueError(
                "snapshot pairs name subscribers, topics or VMs that do not exist"
            )
        # _set_table derives each subscriber's rows from counts, which
        # holds only for a table sorted by (subscriber, topic).
        v_lo, v_hi, t_lo, t_hi = p_v[:-1], p_v[1:], p_t[:-1], p_t[1:]
        if not ((v_hi > v_lo) | ((v_hi == v_lo) & (t_hi > t_lo))).all():
            raise ValueError(
                "snapshot pair_subscribers/pair_topics are not strictly "
                "ascending by (subscriber, topic)"
            )
        # Derived state -- the group table and the bound terms -- is
        # rebuilt rather than persisted, keeping the checkpoint format.
        inst._set_table(p_v, p_t, p_vm, num_vms)
        inst._terms = subscriber_bound_terms(inst._workload, inst._tau)
        recomputed = inst._used_bytes()
        stored = np.asarray(snapshot["used_bytes"], dtype=np.float64)
        if stored.shape != recomputed.shape or not np.allclose(
            stored, recomputed, rtol=1e-9, atol=0.0
        ):
            raise ValueError(
                "snapshot used_bytes does not match its pair arrays "
                "(inconsistent or tampered snapshot)"
            )
        return inst

    def _used_bytes(self, workload=None) -> np.ndarray:
        """Per-VM used bytes of the group table, priced at ``workload``'s rates.

        Each ``(vm, topic)`` group pays its members plus one ingest
        copy, summed in ``(vm, topic)`` order: one group-sized
        ``np.bincount``.  Defaults to the current workload.
        """
        workload = workload if workload is not None else self._workload
        return (
            np.bincount(
                self._g_vm,
                weights=workload.event_rates[self._g_t] * (self._g_cnt + 1),
                minlength=self._num_vms,
            ).astype(np.float64)
            * workload.message_size_bytes
        )

    def step(self, new_workload) -> EpochReport:
        """Adapt to a new epoch's workload; returns the epoch report.

        Accepts either a :class:`~repro.dynamic.churn.WorkloadDelta`
        (preferred: only touched subscribers are re-selected) or a bare
        :class:`~repro.core.workload.Workload` (every subscriber is
        re-checked, and the pairs of subscribers past its end leave).
        Raises :class:`InfeasibleEpochError`, with every member
        unchanged, when a pair of the new workload fits no VM.  A fresh
        solve whose audit finds the held selection leaves a subscriber
        unserved raises ``ValueError`` naming it, with every member
        unchanged too: the fresh solve packs the epoch's local tables
        before the step commits them.
        """
        t0 = time.perf_counter()
        from .churn import WorkloadDelta  # local import avoids a cycle

        delta = new_workload if isinstance(new_workload, WorkloadDelta) else None
        workload = delta.workload if delta is not None else new_workload
        epoch = self._epoch + 1
        rates = workload.event_rates
        msg = workload.message_size_bytes
        capacity = self._plan.capacity_bytes
        # MCSSProblem's rule, checked before any member changes.
        if rates.size:
            hottest = int(np.argmax(rates))
            needed = 2.0 * float(rates[hottest]) * msg
            if needed > capacity:
                raise InfeasibleEpochError(epoch, hottest, needed, capacity)
        problem = MCSSProblem(workload, self._tau, self._plan)
        n = workload.num_subscribers
        p_v, p_t, p_vm = self._p_v, self._p_t, self._p_vm
        g_vm, g_t, g_cnt = self._g_vm, self._g_t, self._g_cnt
        big_l = np.int64(
            max(workload.num_topics, int(g_t.max()) + 1 if g_t.size else 0, 1)
        )

        # ---- touched subscribers (vectorized rate-changed scan) ------
        if delta is None:
            touched_idx = np.arange(n, dtype=np.int64)
            # Subscribers past the new workload's end have left it.
            vanished = np.arange(n, self._first.size - 1, dtype=np.int64)
        else:
            ta = delta.touched_array()
            vanished = ta[ta >= n]
            touched_idx = ta[ta < n]
            changed = delta.changed_topics
            if changed.size:
                # Rate changes move thresholds, so every subscriber of
                # a re-priced topic must be re-checked: one boolean
                # gather over the CSR interest arrays replaces the old
                # per-subscriber set intersection.
                lut = np.zeros(workload.num_topics, dtype=bool)
                lut[changed] = True
                touched = np.zeros(n, dtype=bool)
                touched[touched_idx] = True
                touched[workload.pair_subscribers()[lut[workload.interest_topics]]] = True
                touched_idx = np.flatnonzero(touched)

        # ---- Stage 1: batched incremental re-selection ---------------
        # Old selection == placed pairs: the touched subscribers' rows,
        # one contiguous run each.
        first = self._first
        leaving = np.concatenate([touched_idx, vanished])
        leaving = leaving[leaving < first.size - 1]
        rows = ranges(first[leaving], first[leaving + 1] - first[leaving])
        old_keys = p_v[rows] * big_l + p_t[rows]
        if touched_idx.size and workload.num_pairs:
            sub_workload = workload.restrict_subscribers(touched_idx)
            sub_problem = MCSSProblem(sub_workload, self._tau, self._plan)
            sub_selection = self._selector.select(sub_problem)
            sel_t, sel_v_local = sub_selection.pair_arrays()
            new_keys = np.sort(touched_idx[sel_v_local] * big_l + sel_t)
        else:
            sub_workload = None
            new_keys = np.empty(0, dtype=np.int64)

        gone = ~_sorted_member(new_keys, old_keys)
        removed_rows = rows[gone]
        removed_keys = old_keys[gone]
        added_keys = new_keys[~_sorted_member(old_keys, new_keys)]

        # ---- re-price from the group table ---------------------------
        used = self._used_bytes(workload)
        gkey = g_vm * big_l + g_t
        alive = np.ones(g_vm.size, dtype=bool)

        # ---- eviction of overloaded VMs ------------------------------
        ev = _evict_overloaded(used, capacity, g_vm, g_t, g_cnt, rates, msg)
        if ev.size:
            alive[ev] = False
            evicted_rows = _evicted_rows(p_vm, p_t, g_vm, g_t, gkey, ev, big_l)
            mt, mv = p_t[evicted_rows], p_v[evicted_rows]
            # Stale pairs (no longer selected) are dropped, not re-placed.
            valid = ~_sorted_member(removed_keys, mv * big_l + mt)
            mt, mv = mt[valid], mv[valid]
            dropped = sorted_unique(np.concatenate((removed_rows, evicted_rows)))
        else:
            mt = mv = np.empty(0, dtype=np.int64)
            dropped = removed_rows

        # ---- apply removals ------------------------------------------
        if removed_rows.size:
            gi = np.searchsorted(gkey, p_vm[removed_rows] * big_l + p_t[removed_rows])
            # Rows of evicted groups are gone already.
            gi, uc = np.unique(gi[alive[gi]], return_counts=True)
            left = g_cnt[gi] - uc
            # Per-group removal counts -> used-bytes decrement, with
            # the extra ingest copy back when a group empties.
            dec = rates[g_t[gi]] * (uc + (left == 0)) * msg
            used -= np.bincount(g_vm[gi], weights=dec, minlength=used.size)
            g_cnt = g_cnt.copy()
            g_cnt[gi] = left
            alive[gi[left == 0]] = False
        g_vm, g_t, g_cnt = g_vm[alive], g_t[alive], g_cnt[alive]

        # ---- place added pairs (grouped by topic) + evicted moves ----
        if added_keys.size:
            at = added_keys % big_l
            av = added_keys // big_l
            order_tv = np.lexsort((av, at))  # canonical (topic, sub) order
            at, av = at[order_tv], av[order_tv]
        else:
            at = av = np.empty(0, dtype=np.int64)
        place_t = np.concatenate([at, mt])
        place_v = np.concatenate([av, mv])
        placed_vm, used, num_vms = self._place_stream(
            place_t, used, capacity, rates, msg, g_vm, g_t
        )

        # ---- fold the placements into the group table ----------------
        if place_t.size:
            pkey, pcnt = np.unique(placed_vm * big_l + place_t, return_counts=True)
            gkey = g_vm * big_l + g_t
            at_group = np.searchsorted(gkey, pkey)
            hosted = _sorted_member(gkey, pkey)
            g_cnt[at_group[hosted]] += pcnt[hosted]
            fresh = ~hosted
            g_vm = np.insert(g_vm, at_group[fresh], pkey[fresh] // big_l)
            g_t = np.insert(g_t, at_group[fresh], pkey[fresh] % big_l)
            g_cnt = np.insert(g_cnt, at_group[fresh], pcnt[fresh])

        # ---- close empty VMs + advance the pair table ----------------
        live = np.bincount(g_vm, minlength=num_vms) > 0
        closed = int(num_vms - int(live.sum()))
        # Per-subscriber row counts move by the added and dropped rows.
        ids = max(first.size - 1, n)
        counts = np.bincount(place_v, minlength=ids) - np.bincount(
            p_v[dropped], minlength=ids
        )
        counts[: first.size - 1] += np.diff(first)
        p_v, p_t, p_vm = advance_orders(
            p_v, p_t, p_vm, dropped, place_v, place_t, placed_vm
        )
        first = _offsets(counts[: _id_span(p_v, n)])
        if closed:
            # Monotone remap: both tables keep their sort orders.
            remap = np.cumsum(live) - 1
            g_vm = remap[g_vm]
            p_vm = remap[p_vm]
        used = used[live]

        # ---- Algorithm-5 bound + gated fresh solve --------------------
        # Both read the epoch's local tables, so a failing audit raises
        # before any member changes.
        num_live = int(live.sum())
        terms = np.zeros(n, dtype=np.float64)
        terms[: min(n, self._terms.size)] = self._terms[:n]
        # The touched subscribers' terms, from the view the re-selection
        # read: the running bound is lower_bound(problem).
        terms[touched_idx] = (
            subscriber_bound_terms(sub_workload, self._tau)
            if sub_workload is not None
            else 0.0
        )
        cost = problem.cost_components(num_live, float(used.sum()))
        since_fresh = self._since_fresh + 1
        lb = terms_lower_bound(problem, terms).total_usd
        estimate = lb * self._lb_ratio
        fresh = None
        if (
            since_fresh >= self._fresh_every
            or cost.total_usd > estimate * self._rebuild_threshold
        ):
            # The held pairs are GSP's selection of this workload, so a
            # fresh pack of them is the fresh solve, and its audit
            # checks that every subscriber is served.
            fresh = self._solver.solve_with_selection(
                problem, PairSelection.from_csr(p_t, None, p_v, trusted=True)
            )
            since_fresh = 0

        # ---- commit ---------------------------------------------------
        opened_before = self._num_vms
        self._epoch = epoch
        self._workload = workload
        self._p_v, self._p_t, self._p_vm = p_v, p_t, p_vm
        self._first = first
        self._g_vm, self._g_t, self._g_cnt = g_vm, g_t, g_cnt
        self._num_vms = num_live
        self._terms = terms
        self._since_fresh = since_fresh
        rebuilt = False
        if fresh is not None:
            self._lb_ratio = fresh.cost.total_usd / lb if lb > 0 else 1.0
            if cost.total_usd > fresh.cost.total_usd * self._rebuild_threshold:
                self._adopt(fresh.placement)
                cost = problem.cost_components(
                    fresh.placement.num_vms, fresh.placement.total_bytes
                )
                rebuilt = True

        return EpochReport(
            epoch=self._epoch,
            cost=cost,
            fresh_cost=fresh.cost if fresh is not None else None,
            pairs_added=int(added_keys.size),
            pairs_removed=int(removed_keys.size),
            pairs_moved=int(mt.size),
            # Mirror the referee's formula at report time (after any
            # rebuild adopt): fleet size now minus fleet size before
            # placement.  On non-rebuild epochs this equals the gross
            # append count, because opens and closes are mutually
            # exclusive (an empty VM always fits any feasible pair, so
            # nothing is appended while one exists).
            vms_opened=max(0, self._num_vms - opened_before),
            vms_closed=closed,
            rebuilt=rebuilt,
            seconds=time.perf_counter() - t0,
            fresh_solved=fresh is not None,
            fresh_estimate_usd=estimate,
        )

    # ------------------------------------------------------------------
    # Placement surgery
    # ------------------------------------------------------------------
    def _place_stream(
        self,
        place_t: np.ndarray,
        used: np.ndarray,
        capacity: float,
        rates: np.ndarray,
        msg: float,
        g_vm: np.ndarray,
        g_t: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """Assign a pair stream to VMs, replicating the referee's scan.

        Per pair, the referee scores every VM as ``free + capacity *
        hosts(t)`` among those with room (``topic_bytes`` if hosting,
        twice that otherwise) and takes the first maximum.  Within one
        call used bytes only grow, so two ``heapq`` heaps give that
        choice in O(log VMs) per pair (the max-structure placement of
        Johnson, "Fast algorithms for bin packing", JCSS 1974):

        * the **host heap**, rebuilt at each run of equal topics, holds
          ``(-(free + capacity), misfit, vm)`` over the topic's hosts,
          where ``misfit`` says the host has no room for
          ``topic_bytes``.  Only the VM a pair lands on changes within
          a run, and it is re-pushed, so the heap stays exact.  Rates
          are positive, so a fitting host outranks every non-host, and
          the top entry is the referee's choice if it fits; if it does
          not, no host fits (ordering fits before misfits on equal
          scores covers hosts whose extra free bytes the rounding of
          ``free + capacity`` hides);
        * the **fleet heap** holds one ``(-free, vm)`` entry per VM.
          An entry goes stale when its VM fills and is refreshed only
          when it reaches the top, so the valid top is the most-free
          VM.  When no host fits, a host there cannot fit either, so
          the top is taken if it has room for ``2 * topic_bytes`` and a
          fresh VM opens otherwise.

        The keys are the float scores the referee compares and tuple
        order breaks ties by the lowest VM index, as ``argmax`` does, so
        every choice is identical.  ``g_vm, g_t`` are the hosted
        ``(vm, topic)`` groups.  Returns ``(vm per pair, per-VM used
        bytes, fleet size)``, the fleet including freshly opened VMs.
        """
        if place_t.size == 0:
            return np.empty(0, dtype=np.int64), used, self._num_vms
        # Hosts per streamed topic, from one sort of the hosted groups
        # (their order within a topic is the heap's business).  The
        # lists outlive their run: an evicted move later in the stream
        # must see the VMs an earlier run of its topic filled.
        by_topic = np.argsort(g_t)
        h_t, h_vm = g_t[by_topic], g_vm[by_topic]
        topics = sorted_unique(place_t)
        lo = np.searchsorted(h_t, topics)
        hi = np.searchsorted(h_t, topics, side="right")
        hosts_of = {
            t: h_vm[a:b].tolist()
            for t, a, b in zip(topics.tolist(), lo.tolist(), hi.tolist())
        }

        used_l = used.tolist()
        fleet = [(-(capacity - u), b) for b, u in enumerate(used_l)]
        heapq.heapify(fleet)

        def host_entry(b: int, tb: float):
            free = capacity - used_l[b]
            return (-(free + capacity), tb > free + 1e-9, b)

        num_vms = self._num_vms
        placed: List[int] = []
        run_topic = -1
        # repolint: allow(VL01): one heap step per placed pair -- sequential, each choice changes the next
        for t in place_t.tolist():
            if t != run_topic:
                run_topic = t
                tb = float(rates[t]) * msg
                hosts = hosts_of[t]
                heap = [host_entry(b, tb) for b in hosts]
                heapq.heapify(heap)
            if heap and not heap[0][1]:
                b = heap[0][2]
                used_l[b] += tb
                heapq.heapreplace(heap, host_entry(b, tb))
            else:
                # No host fits: the most-free VM if it has room for a
                # second copy of the topic, else a fresh VM.
                top = -1
                # repolint: allow(VL01): lazy refresh -- each pass retires one entry an earlier placement made stale
                while fleet:
                    key, vm = fleet[0]
                    if key == -(capacity - used_l[vm]):
                        top = vm
                        break
                    heapq.heapreplace(fleet, (-(capacity - used_l[vm]), vm))
                if top >= 0 and 2.0 * tb <= (capacity - used_l[top]) + 1e-9:
                    b = top
                    used_l[b] += 2.0 * tb
                else:
                    b = num_vms
                    num_vms += 1
                    used_l.append(2.0 * tb)
                    heapq.heappush(fleet, (-(capacity - used_l[b]), b))
                hosts.append(b)
                heapq.heappush(heap, host_entry(b, tb))
            placed.append(b)
        return (
            np.array(placed, dtype=np.int64),
            np.array(used_l, dtype=np.float64),
            num_vms,
        )

    def _set_table(
        self, p_v: np.ndarray, p_t: np.ndarray, p_vm: np.ndarray, num_vms: int
    ) -> None:
        """Adopt a canonical pair table and derive its indexes.

        ``_first[v]`` is subscriber ``v``'s first row (its rows end at
        ``_first[v + 1]``), and the group table counts the members of
        every ``(vm, topic)``.
        """
        self._p_v, self._p_t, self._p_vm = p_v, p_t, p_vm
        self._first = _offsets(
            np.bincount(p_v, minlength=_id_span(p_v, self._workload.num_subscribers))
        )
        self._num_vms = num_vms
        big_l = np.int64(int(p_t.max()) + 1 if p_t.size else 1)
        gkey, self._g_cnt = np.unique(p_vm * big_l + p_t, return_counts=True)
        self._g_vm, self._g_t = gkey // big_l, gkey % big_l

    def _adopt(self, placement: Placement) -> None:
        """Replace internal state with a fresh solve's placement."""
        vm_ids, topics, sizes, subscribers = placement.assignment_arrays()
        p_vm = np.repeat(vm_ids, sizes)
        p_t = np.repeat(topics, sizes)
        p_v = np.asarray(subscribers, dtype=np.int64)
        order = np.lexsort((p_t, p_v))
        self._set_table(p_v[order], p_t[order], p_vm[order], placement.num_vms)


class LoopIncrementalReprovisioner:
    """The retained dict-of-sets referee (``reprovision-loop``).

    One Python set per (vm, topic) group and per-pair placement scans
    that re-sum every VM's table -- the pre-vectorization
    implementation, kept as an executable specification for the
    equivalence suite.  Two canonicalizations make its decisions
    well-defined (and hence pinnable): added pairs are placed in sorted
    ``(topic, subscriber)`` order instead of Python-set iteration
    order, and eviction breaks equal ``rate * count`` ties by topic id
    instead of dict insertion order.  It still pays a full fresh solve
    every epoch, exactly as before.
    """

    def __init__(
        self,
        problem: MCSSProblem,
        rebuild_threshold: float = 1.15,
        solver: Optional[MCSSSolver] = None,
    ) -> None:
        if rebuild_threshold < 1.0:
            raise ValueError("rebuild_threshold must be >= 1.0")
        self._solver = solver or MCSSSolver.paper()
        self._rebuild_threshold = rebuild_threshold
        self._tau = problem.tau
        self._plan = problem.plan
        self._epoch = 0

        solution = self._solver.solve(problem)
        self._workload = problem.workload
        # Mutable mirror of the placement: vm -> topic -> set(subs).
        self._vms: List[Dict[int, Set[int]]] = []
        for b in range(solution.placement.num_vms):
            table: Dict[int, Set[int]] = {}
            for t in solution.placement.vm_topics(b):
                table[t] = set(solution.placement.members(b, t))
            self._vms.append(table)
        # subscriber -> set of selected topics (the Stage-1 state).
        self._selected: Dict[int, Set[int]] = {}
        for t, v in solution.selection:
            self._selected.setdefault(v, set()).add(t)

    # ------------------------------------------------------------------
    # Public surface
    # ------------------------------------------------------------------
    @property
    def problem(self) -> MCSSProblem:
        """The current epoch's MCSS instance."""
        return MCSSProblem(self._workload, self._tau, self._plan)

    def placement(self) -> Placement:
        """Materialize the current assignment as a Placement."""
        problem = self.problem
        placement = problem.empty_placement()
        for table in self._vms:
            if not table:
                continue
            b = placement.new_vm()
            for t, subs in sorted(table.items()):
                placement.assign(b, t, sorted(subs))
        return placement

    def selection(self) -> PairSelection:
        """The current Stage-1 state as a selection."""
        return PairSelection.from_subscriber_topics(
            {v: sorted(topics) for v, topics in sorted(self._selected.items())}
        )

    def step(self, new_workload) -> EpochReport:
        """Adapt to a new epoch's workload; returns the epoch report."""
        t0 = time.perf_counter()
        self._epoch += 1
        from .churn import WorkloadDelta  # local import avoids a cycle

        if isinstance(new_workload, WorkloadDelta):
            delta = new_workload
            workload = delta.workload
            touched = set(delta.touched_subscribers)
            # Rate changes move thresholds, so every subscriber of a
            # re-priced topic must be re-checked.
            if delta.rate_changed_topics:
                changed = set(delta.rate_changed_topics)
                for v in range(workload.num_subscribers):
                    if changed.intersection(workload.interest(v).tolist()):
                        touched.add(v)
        else:
            workload = new_workload
            touched = set(range(workload.num_subscribers))

        old_workload = self._workload
        self._workload = workload

        added, removed = self._reselect(touched, old_workload)
        moves = self._evict_overloaded()
        opened_before = len(self._vms)
        for t, v in removed:
            self._remove_pair(t, v)
        placed = sorted(added) + moves
        for t, v in placed:
            self._place_pair(t, v)
        closed = self._close_empty_vms()

        # Compare against a fresh solve; rebuild when drifted too far.
        problem = self.problem
        fresh = self._solver.solve(problem)
        placement = self.placement()
        cost = problem.cost_components(
            placement.num_vms, placement.total_bytes
        )
        rebuilt = False
        if cost.total_usd > fresh.cost.total_usd * self._rebuild_threshold:
            self._adopt(fresh.placement, fresh.selection)
            placement = self.placement()
            cost = problem.cost_components(placement.num_vms, placement.total_bytes)
            rebuilt = True

        return EpochReport(
            epoch=self._epoch,
            cost=cost,
            fresh_cost=fresh.cost,
            pairs_added=len(added),
            pairs_removed=len(removed),
            pairs_moved=len(moves),
            vms_opened=max(0, len(self._vms) - opened_before),
            vms_closed=closed,
            rebuilt=rebuilt,
            seconds=time.perf_counter() - t0,
        )

    # ------------------------------------------------------------------
    # Stage-1 incremental re-selection
    # ------------------------------------------------------------------
    def _reselect(
        self, touched: Set[int], old_workload
    ) -> Tuple[List[Pair], List[Pair]]:
        """Re-run greedy selection for touched subscribers only."""
        workload = self._workload
        rates = workload.event_rates
        tau = float(self._tau)
        added: List[Pair] = []
        removed: List[Pair] = []

        for v in touched:
            old_topics = self._selected.get(v, set())
            if v >= workload.num_subscribers:
                # Subscriber disappeared entirely.
                removed.extend((t, v) for t in old_topics)
                self._selected.pop(v, None)
                continue
            interest = workload.interest(v)
            new_topics = self._greedy_for(interest, rates, tau)
            for t in old_topics - new_topics:
                removed.append((t, v))
            for t in new_topics - old_topics:
                added.append((t, v))
            if new_topics:
                self._selected[v] = new_topics
            else:
                self._selected.pop(v, None)
        return added, removed

    @staticmethod
    def _greedy_for(interest, rates, tau: float) -> Set[int]:
        """Single-subscriber GSP (same schedule as GreedySelectPairs)."""
        if interest.size == 0:
            return set()
        topic_rates = rates[interest]
        tau_v = min(tau, float(topic_rates.sum()))
        if tau_v <= 0:
            return set()
        order = np.lexsort((interest, -topic_rates))
        chosen: Set[int] = set()
        remaining = tau_v
        best_skip, best_rate = -1, float("inf")
        for i in order.tolist():
            if remaining <= _EPS:
                break
            rate = float(topic_rates[i])
            if rate <= remaining + _EPS:
                chosen.add(int(interest[i]))
                remaining -= rate
            elif rate < best_rate:
                best_rate = rate
                best_skip = int(interest[i])
        if remaining > _EPS:
            chosen.add(best_skip)
        return chosen

    # ------------------------------------------------------------------
    # Placement surgery
    # ------------------------------------------------------------------
    def _vm_used_bytes(self, table: Dict[int, Set[int]]) -> float:
        rates = self._workload.event_rates
        msg = self._workload.message_size_bytes
        return sum(
            float(rates[t]) * (len(subs) + 1) for t, subs in table.items()
        ) * msg

    def _remove_pair(self, t: int, v: int) -> None:
        for table in self._vms:
            subs = table.get(t)
            if subs is not None and v in subs:
                subs.discard(v)
                if not subs:
                    del table[t]
                return

    def _place_pair(self, t: int, v: int) -> None:
        """Host-topic VM first, then most-free, then a fresh VM."""
        rates = self._workload.event_rates
        msg = self._workload.message_size_bytes
        capacity = self._plan.capacity_bytes
        topic_bytes = float(rates[t]) * msg

        best_idx = -1
        best_free = -1.0
        for idx, table in enumerate(self._vms):
            used = self._vm_used_bytes(table)
            free = capacity - used
            need = topic_bytes if t in table else 2.0 * topic_bytes
            if need <= free + 1e-9:
                # Prefer any VM already hosting the topic; among the
                # rest, the most free one.
                score = free + (capacity if t in table else 0.0)
                if score > best_free:
                    best_free = score
                    best_idx = idx
        if best_idx < 0:
            self._vms.append({})
            best_idx = len(self._vms) - 1
        self._vms[best_idx].setdefault(t, set()).add(v)

    def _evict_overloaded(self) -> List[Pair]:
        """Evict smallest-rate topic groups until every VM fits."""
        rates = self._workload.event_rates
        capacity = self._plan.capacity_bytes
        evicted: List[Pair] = []
        for table in self._vms:
            while table and self._vm_used_bytes(table) > capacity + 1e-6:
                t = min(
                    table,
                    key=lambda t_: (float(rates[t_]) * len(table[t_]), t_),
                )
                for v in sorted(table.pop(t)):
                    evicted.append((t, v))
        # Stale pairs (topics that vanished from interests) are dropped
        # rather than re-placed.
        valid: List[Pair] = []
        for t, v in evicted:
            if t in self._selected.get(v, set()):
                valid.append((t, v))
        return valid

    def _close_empty_vms(self) -> int:
        before = len(self._vms)
        self._vms = [table for table in self._vms if table]
        return before - len(self._vms)

    def _adopt(self, placement: Placement, selection: PairSelection) -> None:
        """Replace internal state with a fresh solve's output."""
        self._vms = []
        for b in range(placement.num_vms):
            table: Dict[int, Set[int]] = {}
            for t in placement.vm_topics(b):
                table[t] = set(placement.members(b, t))
            self._vms.append(table)
        self._selected = {}
        for t, v in selection:
            self._selected.setdefault(v, set()).add(t)
