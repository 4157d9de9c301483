"""GreedySelectPairs (GSP) -- Algorithms 1 and 2 of the paper.

For every subscriber ``v`` the algorithm repeatedly picks the pair
``(t, v)`` with the best *benefit-cost ratio*

    h(t, v) = min(1, ev_t / rem_v) / (2 * ev_t)

where ``rem_v`` is the event rate still missing towards ``tau_v``
(Algorithm 1).  The ``2 * ev_t`` denominator is the bandwidth price of
the pair: one incoming plus one outgoing copy per event.

Three implementations are provided:

* :class:`GreedySelectPairs` (``"gsp"``) -- the default: a fully
  vectorized whole-array rewrite over the workload's CSR interest
  representation (see below).  No Python loop over subscribers.  A
  workload wider than one ``MCSS_SHARD_SIZE`` runs the same sweep per
  subscriber shard and merges the groups exactly
  (:mod:`repro.selection.sharded`).
* :class:`LoopGreedySelectPairs` (``"gsp-loop"``) -- the
  O(k log k)-per-subscriber loop rewrite (the previous default),
  retained as an intermediate referee.
* :class:`ReferenceGreedySelectPairs` (``"gsp-reference"``) -- a
  literal transcription of Algorithm 2 (recomputing the ratio array
  after every pick, O(k^2)).  It exists as an executable
  specification: the test suite asserts both other versions select
  exactly the same pairs.

Why the loop rewrite is equivalent
----------------------------------
While ``rem_v > 0``, every candidate topic with ``ev_t <= rem_v`` has
ratio ``(ev_t / rem_v) / (2 ev_t) = 1 / (2 rem_v)`` -- the *same* value
-- and every topic with ``ev_t > rem_v`` has the strictly smaller ratio
``1 / (2 ev_t)``.  Hence the greedy picks (a) any not-yet-exceeding
topic while one exists, and only then (b) the *smallest-rate* exceeding
topic.  Breaking ties in (a) towards the largest rate fills the
threshold fastest and leaves the least overshoot, so both
implementations use that tie-break; the whole schedule then collapses
into one descending sweep over the subscriber's topics.

How the vectorized version works
--------------------------------
One global sort, cached on the workload
(:meth:`~repro.core.Workload.rate_descending_pairs`), orders all
(subscriber, topic, rate) triples subscriber-major with rates
descending (ids ascending inside equal rates) -- exactly the order the
per-subscriber sweep scans.  The sweep itself is replaced by rounds of
whole-array *run extraction* over the still-active subscribers:

1. a vectorized segmented binary search finds, per subscriber, the
   next scan position whose rate fits the remaining need (the items
   jumped over are precisely the ones the loop would skip);
2. the global running sum of the sorted rates never decreases (rates
   are positive), so one ``np.searchsorted`` over it, clamped into the
   subscriber's window, yields the *longest chosen run* from that
   position -- the maximal stretch of consecutive items the sweep
   would take back to back;
3. subscribers whose remaining need drops to zero retire; the rest
   re-enter the next round at the position after their run.

The number of rounds equals the maximum number of chosen *runs* of any
subscriber (not the number of chosen items), which is tiny in practice
-- subscribers whose threshold is met by a prefix finish in round one.
Subscribers that exhaust their scan still unsatisfied receive their
smallest-rate skipped topic (smallest id on ties) -- identical to the
loop's running ``best_skip`` tracking.  The sweep carries each
subscriber's last skipped scan position, which holds that rate; the
topic is the first skipped position of its equal-rate range, found by
two bisections over the dry subscribers alone (and none where the
position's left neighbour has a larger rate, the common case).

The chosen pairs are then grouped by topic with one stable sort, and
the groups reordered by first appearance with one gather of their
concatenated ranges.

Equivalence contract: selections are identical to
:class:`ReferenceGreedySelectPairs` -- pair for pair, including the
grouped-by-topic insertion order -- whenever partial sums of event
rates are exactly representable (e.g. integer-valued rates, which all
bundled workload generators produce); otherwise float associativity
may flip ``_EPS``-sized boundary cases, the same caveat the loop
rewrite always had.  ``tests/test_vectorized_equivalence.py`` enforces
this on randomized workloads.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from itertools import repeat
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core import MCSSProblem, PairSelection, subscriber_thresholds
from ..core.segsearch import grouping_order, ranges, segmented_left_search
from .base import SelectionAlgorithm, register_selector
from .sharded import default_workers, merge_shard_groups, subscriber_shards

__all__ = [
    "GreedySelectPairs",
    "LoopGreedySelectPairs",
    "ReferenceGreedySelectPairs",
    "benefit_cost_ratio",
]

_EPS = 1e-12


def benefit_cost_ratio(event_rate: float, remaining: float) -> float:
    """Algorithm 1: heuristic value of a pair given the remaining need.

    Returns 0 when the subscriber is already satisfied (``remaining <=
    0``); otherwise ``min(1, ev_t/rem) / (2 ev_t)``.

    Computed in the algebraically simplified piecewise form -- ``1 /
    (2 rem)`` when the topic fits, ``1 / (2 ev_t)`` when it exceeds --
    because the naive ``min(1, ev/rem) / (2 ev)`` expression evaluates
    mathematically *equal* ratios to different floats (e.g. ``0.6/12``
    vs ``0.7/14``), which would let rounding noise, not the documented
    tie-break, decide the argmax in Algorithm 2.
    """
    if event_rate <= 0:
        raise ValueError("event rate must be positive")
    if remaining <= 0:
        return 0.0
    if event_rate <= remaining:
        return 1.0 / (2.0 * remaining)
    return 1.0 / (2.0 * event_rate)


def _run_ends(
    cums: np.ndarray, lo: np.ndarray, hi: np.ndarray, target: np.ndarray
) -> np.ndarray:
    """Per-lane leftmost index ``i`` in ``[lo, hi)`` with ``cums[i] > target``.

    Returns ``hi`` for lanes with no such index; ``lo <= hi`` in every
    lane.  ``cums`` is the running sum of positive rates, so it never
    decreases along the whole array (neighbours may be equal once a
    tiny rate is absorbed by a huge sum): one global ``np.searchsorted``
    finds each lane's first position past ``target``, and clamping it
    into ``[lo, hi]`` gives exactly the segmented bisection's answer
    on any float input.
    """
    end = np.searchsorted(cums, target, side="right")
    return np.clip(end, lo, hi, out=end)


@register_selector("gsp")
class GreedySelectPairs(SelectionAlgorithm):
    """Vectorized GSP: whole-array passes over the CSR interests."""

    def select(self, problem: MCSSProblem) -> PairSelection:
        """The whole-array sweep, or -- for a workload spanning more than
        one :func:`~repro.selection.sharded.subscriber_shards` range --
        one sweep per shard, merged exactly (:mod:`repro.selection.sharded`).

        The shard sweeps run on ``min(MCSS_SHARD_WORKERS, shards)``
        threads, or in a plain loop when that is 1.  Results come back
        in shard order either way, so the selection is identical, and
        an exception a shard raises propagates from here unchanged.
        """
        shards = subscriber_shards(problem.workload.num_subscribers)
        if len(shards) <= 1:
            grouped = self.select_grouped(problem)
        else:
            workers = min(default_workers(), len(shards))
            los, his = zip(*shards)
            if workers <= 1:
                pieces = list(map(self._select_shard, repeat(problem), los, his))
            else:
                with ThreadPoolExecutor(max_workers=workers) as pool:
                    pieces = list(
                        pool.map(self._select_shard, repeat(problem), los, his)
                    )
            groups = [g for g in pieces if g is not None]
            grouped = merge_shard_groups(groups) if groups else None
        if grouped is None:
            return PairSelection({})
        return self._finalize_groups(*grouped)

    def _select_shard(
        self, problem: MCSSProblem, lo: int, hi: int
    ) -> "Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]":
        """Grouped GSP on subscribers ``[lo, hi)``, rebased to global ids."""
        workload = problem.workload
        grouped = self.select_grouped(
            MCSSProblem(workload.subscriber_range(lo, hi), problem.tau, problem.plan)
        )
        if grouped is None:
            return None
        topics, sizes, first_seen, subscribers = grouped
        rank_offset = 2 * int(workload.interest_indptr[lo])
        return topics, sizes, first_seen + rank_offset, subscribers + lo

    def select_grouped(
        self, problem: MCSSProblem
    ) -> "Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]":
        """Run the sweep and return the topic groups in ascending-topic order.

        Returns ``None`` for an empty selection, otherwise the 4-tuple
        ``(group_topics, sizes, first_seen, subscribers)``: the distinct
        chosen topics ascending, each group's size, the pick-order rank
        of each group's first appearance, and the flat subscriber array
        (groups concatenated in ascending-topic order, subscribers
        ascending inside each group).

        This is the shard-mergeable half of :meth:`select`.  Ranks are
        (twice) positions in the workload's global scan order, so a
        subscriber shard's ranks rebase by twice its scan offset and
        its subscribers by its id offset; rebased shard groups merge
        exactly (:mod:`repro.selection.sharded`) before
        :meth:`_finalize_groups` rebuilds the first-appearance group
        order the loop referees pin down.
        """
        workload = problem.workload
        rates = workload.event_rates
        tau = float(problem.tau)

        indptr = workload.interest_indptr
        num_pairs = workload.num_pairs
        if num_pairs == 0 or tau <= 0:
            return None

        # Global scan order: subscriber-major, rates descending, topic
        # ids ascending inside equal rates (the documented tie-break),
        # with the non-decreasing global running sum -- all cached on
        # the workload (tau-independent).
        s_topics, s_subs, s_rates, cums = workload.rate_descending_pairs()

        tau_v = subscriber_thresholds(workload, tau)
        active = np.flatnonzero(tau_v > 0)
        pos = indptr[:-1][active].astype(np.int64)
        lim = indptr[1:][active].astype(np.int64)
        rem = tau_v[active]
        # Last skipped scan position per lane (-1: none yet).  Rates
        # descend, so it holds the lane's smallest skipped rate.
        skip = np.full(pos.size, -1, dtype=np.int64)

        # Round-1 fast path (most subscribers finish in one run): with
        # rem == tau_v the first fitting index is known in closed form
        # -- sum-capped subscribers (tau_v == interest sum) start at
        # their segment head since no single rate exceeds the sum, and
        # tau-capped ones skip exactly the rates above tau, counted by
        # one bincount over all pairs.
        over_mask = s_rates > tau + _EPS
        if over_mask.any():
            over_cnt = np.bincount(s_subs[over_mask], minlength=tau_v.size)
            i_first = np.where(rem >= tau, pos + over_cnt[active], pos)
        else:
            i_first = pos

        run_starts: List[np.ndarray] = []
        run_ends: List[np.ndarray] = []
        dry_skips: List[np.ndarray] = []

        first_round = True
        # repolint: allow(VL01): segmented sweep -- each round is whole-array over all active subscribers
        while pos.size:
            # (1) Next chosen item: first scan position that fits the
            # remaining need.  Everything jumped over is a loop "skip".
            if first_round:
                i = i_first
                first_round = False
            else:
                i = segmented_left_search(s_rates, pos, lim, rem + _EPS, np.less_equal)
            skip = np.where(i > pos, i - 1, skip)
            exhausted = i >= lim
            if exhausted.any():
                # Scan ran dry while unsatisfied: overshoot needed.
                dry_skips.append(skip[exhausted])
                keep = np.flatnonzero(~exhausted)
                i, rem, lim, skip = i[keep], rem[keep], lim[keep], skip[keep]
            if i.size == 0:
                break
            # (2) Longest chosen run from i: consecutive items are taken
            # while the running sum stays within the remaining need
            # (item i itself fits, so the search starts at i + 1).
            base = np.where(i > 0, cums[i - 1], 0.0)
            end = _run_ends(cums, i + 1, lim, rem + base + _EPS)
            run_starts.append(i)
            run_ends.append(end)
            # (3) Update lanes; those satisfied retire, the rest rescan.
            rem = rem - (cums[end - 1] - base)
            pos = end
            unsat = rem > _EPS
            dry = unsat & (pos >= lim)
            if dry.any():
                dry_skips.append(skip[dry])
            cont = np.flatnonzero(unsat & (pos < lim))
            pos, lim, rem, skip = pos[cont], lim[cont], rem[cont], skip[cont]

        chosen = self._chosen_mask(num_pairs, run_starts, run_ends)
        overshoot_idx = self._overshoot_indices(
            chosen, s_rates, dry_skips, indptr, s_subs
        )
        if overshoot_idx.size:
            chosen[overshoot_idx] = True

        return self._group_chosen(chosen, overshoot_idx, s_topics, s_subs, indptr)

    @staticmethod
    def _chosen_mask(
        num_pairs: int, run_starts: List[np.ndarray], run_ends: List[np.ndarray]
    ) -> np.ndarray:
        """Materialize the disjoint chosen runs as a boolean pair mask."""
        marks = np.zeros(num_pairs + 1, dtype=np.int8)
        if run_starts:
            starts = np.concatenate(run_starts)
            ends = np.concatenate(run_ends)
            # Runs are pairwise disjoint and non-empty, so all start
            # indices are distinct and all end indices are distinct:
            # plain fancy updates apply every increment (no need for
            # the much slower np.add.at), and the running sum stays in
            # {0, 1}: it accumulates in int8 and reads as a bool mask.
            marks[starts] += 1
            marks[ends] -= 1
        return np.cumsum(marks[:-1], dtype=np.int8).view(bool)

    @staticmethod
    def _overshoot_indices(
        chosen: np.ndarray,
        s_rates: np.ndarray,
        dry_skips: List[np.ndarray],
        indptr: np.ndarray,
        s_subs: np.ndarray,
    ) -> np.ndarray:
        """Smallest-rate (then smallest-id) skipped topic per dry subscriber.

        Replays the loop's ``best_skip`` tracking post hoc.  The sweep
        hands over each dry lane's last skipped position ``q``; rates
        descend, so ``q`` holds the minimum skipped rate.  The id
        tie-break selects the first skipped position of the equal-rate
        range containing ``q``, and chosen items precede skipped ones
        inside such a range (the need only shrinks).  Where ``q``'s
        left neighbour in its segment has a larger rate, ``q`` is that
        position; for the other dry lanes two bisections find it: the
        range's start, then its first unchosen position.
        """
        q = np.concatenate(dry_skips) if dry_skips else np.empty(0, dtype=np.int64)
        # A lane that skipped nothing is a float-noise case (everything
        # chosen yet still nominally unsatisfied): nothing left to add.
        q = q[q >= 0]
        if q.size == 0:
            return q
        seg_lo = indptr[:-1][s_subs[q]]
        rho = s_rates[q]
        tied = np.flatnonzero((q > seg_lo) & (s_rates[q - 1] <= rho))
        if tied.size:
            qt = q[tied]
            # First position of the equal-rate range containing q ...
            j0 = segmented_left_search(
                s_rates, seg_lo[tied], qt + 1, rho[tied], np.less_equal
            )
            # ... and its first skipped position (q itself is skipped).
            q[tied] = segmented_left_search(chosen, j0, qt + 1, np.False_, np.equal)
        return q

    @staticmethod
    def _group_chosen(
        chosen: np.ndarray,
        overshoot_idx: np.ndarray,
        s_topics: np.ndarray,
        s_subs: np.ndarray,
        indptr: np.ndarray,
    ) -> "Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]":
        """Group chosen pairs by topic, recording each group's first rank.

        The loop referees append each subscriber's picks in sweep order
        with the overshoot pick last, keying the by-topic dict by first
        appearance.  The rank computed here encodes that sweep order
        exactly; :meth:`_finalize_groups` turns it back into the dict
        insertion order, keeping downstream packers (whose iteration
        order follows the group order) bit-compatible.  One stable
        grouping sort, no per-topic dictionary of arrays.
        """
        chosen_idx = np.flatnonzero(chosen)
        if chosen_idx.size == 0:
            return None
        t_sel = s_topics[chosen_idx]
        v_sel = s_subs[chosen_idx]

        # Group by topic: a stable sort keeps ascending subscribers
        # inside each group (chosen_idx is subscriber-major).
        group_order = grouping_order(t_sel)
        t_grouped = t_sel[group_order]
        starts = np.concatenate(
            ([0], np.flatnonzero(t_grouped[1:] != t_grouped[:-1]) + 1)
        )
        group_topics = t_grouped[starts]
        sizes = np.diff(np.append(starts, t_grouped.size))

        # Pick-order rank: regular picks keep (twice) their scan
        # position; an overshoot pick ranks after every regular pick of
        # its subscriber but before the next subscriber's.  Ranks
        # increase with the subscriber, so a group's first member --
        # its smallest subscriber -- holds the group's first appearance.
        first_idx = chosen_idx[group_order[starts]]
        first_seen = first_idx * 2
        if overshoot_idx.size:
            is_over = np.zeros(chosen.size, dtype=bool)
            is_over[overshoot_idx] = True
            ov = is_over[first_idx]
            first_seen[ov] = 2 * indptr[s_subs[first_idx[ov]] + 1] - 1
        return group_topics, sizes, first_seen, v_sel[group_order]

    @staticmethod
    def _finalize_groups(
        group_topics: np.ndarray,
        sizes: np.ndarray,
        first_seen: np.ndarray,
        subscribers: np.ndarray,
    ) -> PairSelection:
        """Order the topic groups by first appearance and emit the CSR.

        Reorders whole groups by their first-appearance rank with one
        gather of their concatenated ranges (order inside each group
        is preserved).
        """
        perm = grouping_order(first_seen)
        sizes_p = sizes[perm]
        group_starts = np.cumsum(sizes) - sizes
        csr_indptr = np.zeros(perm.size + 1, dtype=np.int64)
        np.cumsum(sizes_p, out=csr_indptr[1:])
        return PairSelection.from_csr(
            group_topics[perm],
            csr_indptr,
            subscribers[ranges(group_starts[perm], sizes_p)],
            trusted=True,
        )


@register_selector("gsp-loop")
class LoopGreedySelectPairs(SelectionAlgorithm):
    """Loop GSP: one descending sweep per subscriber (see module doc).

    The previous default implementation, kept as a referee between the
    O(k^2) reference and the vectorized version.
    """

    def select(self, problem: MCSSProblem) -> PairSelection:
        workload = problem.workload
        rates = workload.event_rates
        tau = float(problem.tau)
        by_topic: Dict[int, List[int]] = {}

        for v in range(workload.num_subscribers):
            interest = workload.interest(v)
            if interest.size == 0:
                continue
            topic_rates = rates[interest]
            tau_v = min(tau, float(topic_rates.sum()))
            if tau_v <= 0:
                continue
            # Descending by rate; ties by topic id for determinism.
            order = np.lexsort((interest, -topic_rates))
            sorted_topics = interest[order].tolist()
            sorted_rates = topic_rates[order].tolist()

            remaining = tau_v
            chosen: List[int] = []
            best_skip_topic = -1  # smallest-rate (then smallest-id) skip
            best_skip_rate = float("inf")
            for i, rate in enumerate(sorted_rates):
                if remaining <= _EPS:
                    break
                if rate <= remaining + _EPS:
                    chosen.append(sorted_topics[i])
                    remaining -= rate
                elif rate < best_skip_rate:
                    # The sweep is rate-descending with ascending ids
                    # inside equal-rate runs, so a strict "<" keeps the
                    # smallest id of the smallest skipped rate.
                    best_skip_rate = rate
                    best_skip_topic = sorted_topics[i]
            if remaining > _EPS:
                # Every leftover topic exceeds the need; Algorithm 1
                # penalizes overshoot by 1/(2 ev_t), so take the
                # smallest-rate skipped topic.
                chosen.append(best_skip_topic)

            for t in chosen:
                by_topic.setdefault(t, []).append(v)

        return PairSelection(by_topic)


@register_selector("gsp-reference")
class ReferenceGreedySelectPairs(SelectionAlgorithm):
    """Literal Algorithm 2: argmax over a ratio array, re-scored each pick.

    O(k^2) per subscriber -- use only on small workloads (its role is to
    pin down the semantics the fast version must match).
    """

    def select(self, problem: MCSSProblem) -> PairSelection:
        workload = problem.workload
        rates = workload.event_rates
        tau = float(problem.tau)
        by_topic: Dict[int, List[int]] = {}

        for v in range(workload.num_subscribers):
            interest = workload.interest(v).tolist()
            if not interest:
                continue
            topic_rates = {t: float(rates[t]) for t in interest}
            tau_v = min(tau, sum(topic_rates.values()))
            if tau_v <= 0:
                continue

            selected: List[int] = []
            selected_rate = 0.0
            candidates = set(interest)
            # Lines 5-11 of Algorithm 2: keep picking the argmax ratio
            # until the threshold is met.
            while selected_rate < tau_v - _EPS:
                remaining = tau_v - selected_rate
                best_t = -1
                best_key = (-1.0, -1.0, 0.0)
                for t in candidates:
                    ratio = benefit_cost_ratio(topic_rates[t], remaining)
                    # Tie-break: larger rate first, then smaller id --
                    # must match GreedySelectPairs exactly.
                    key = (ratio, topic_rates[t], -t)
                    if key > best_key:
                        best_key = key
                        best_t = t
                selected.append(best_t)
                selected_rate += topic_rates[best_t]
                candidates.discard(best_t)

            for t in selected:
                by_topic.setdefault(t, []).append(v)

        return PairSelection(by_topic)
