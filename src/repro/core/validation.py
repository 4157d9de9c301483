"""Independent validation of candidate MCSS solutions.

Every solver in this library is audited by the same referee: given a
:class:`~repro.core.problem.MCSSProblem` and a
:class:`~repro.core.placement.Placement`, :func:`validate_placement`
re-derives from first principles that

1. no VM exceeds its bandwidth capacity ``BC`` (Equation (2)), and
2. every subscriber is satisfied (Equation (3)), and
3. the placement's incremental bandwidth bookkeeping matches a from-
   scratch recomputation (guards against accounting bugs in solvers).

Two implementations are provided:

* :func:`validate_placement` -- the default: per-VM bandwidth via
  ``np.bincount`` over the flat assignment arrays, and the
  satisfaction half as the sort-merge of :mod:`repro.core.satisfaction`
  (each delivered lane's pair key ``v * num_topics + t`` sorted in
  place, duplicates dropped by a neighbour mask, interest membership
  by one monotone ``np.searchsorted`` into the workload's sorted
  :meth:`~repro.core.workload.Workload.pair_keys`, delivered rates
  by ``np.bincount``).  O(P log P) whole-array work instead of a
  Python loop over subscribers -- this is what makes ``solve()``
  viable at 100k+ subscribers, where the loop referee dominated the
  runtime.
* :func:`validate_placement_loop` -- the original direct-style loop,
  deliberately sharing no code with the solvers *or* with the
  vectorized validator, kept as the slow referee.  The randomized
  equivalence suite asserts both produce identical verdicts, so a bug
  in the vectorized fast path cannot hide.

Equivalence contract: both validators compute the same verdict fields
(``capacity_ok``, ``satisfaction_ok``, ``accounting_ok``,
``overloaded_vms``, ``unsatisfied_subscribers``); summation-order
float differences are bounded by the ``_REL_TOL``/``_ABS_TOL``
comparisons and vanish for integer-valued event rates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

import numpy as np

from .placement import Placement
from .problem import MCSSProblem
from .satisfaction import (
    _delivered_rates_of_keys,
    delivered_rates_from_arrays,
    subscriber_thresholds,
)
from .segsearch import sorted_unique

__all__ = ["ValidationReport", "validate_placement", "validate_placement_loop"]

_REL_TOL = 1e-9
_ABS_TOL = 1e-6


@dataclass
class ValidationReport:
    """Outcome of auditing a placement against an MCSS instance."""

    capacity_ok: bool
    satisfaction_ok: bool
    accounting_ok: bool
    overloaded_vms: List[int] = field(default_factory=list)
    unsatisfied_subscribers: List[int] = field(default_factory=list)
    messages: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether the placement is a feasible MCSS solution."""
        return self.capacity_ok and self.satisfaction_ok and self.accounting_ok

    def raise_if_invalid(self) -> None:
        """Raise ``ValueError`` with a readable summary if not ok."""
        if not self.ok:
            raise ValueError("invalid placement: " + "; ".join(self.messages))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.ok:
            return "ValidationReport(ok)"
        return "ValidationReport(FAILED: " + "; ".join(self.messages) + ")"


def validate_placement(problem: MCSSProblem, placement: Placement) -> ValidationReport:
    """Audit a placement; see the module docstring for the checks.

    Vectorized fast path over the placement's flat (vm, topic) group
    arrays; :func:`validate_placement_loop` is the independent slow
    referee with identical verdict semantics.
    """
    workload = problem.workload
    msg_bytes = workload.message_size_bytes
    rates = workload.event_rates
    capacity = problem.capacity_bytes
    num_vms = placement.num_vms

    # Flat assignment view, cached on the placement: one entry per
    # (vm, topic) group -- orders of magnitude fewer than pairs.
    vm_arr, topic_arr, size_arr, all_subs = placement.assignment_arrays()
    topic_bytes = rates[topic_arr] * msg_bytes if topic_arr.size else np.empty(0)

    # The satisfaction half reads the workload's sorted pair keys and
    # interest rate sums: build them before any lane-sized array below
    # is live, since out of core a cold build is a pair-sized transient.
    thresholds = subscriber_thresholds(workload, problem.tau)
    workload.pair_keys()

    # Duplicate subscribers inside one (vm, topic) group: one global
    # sorted pass over (group, subscriber) keys instead of a np.unique
    # per assignment.
    messages: List[str] = []
    low = high = 0
    if all_subs.size:
        low, high = int(all_subs.min()), int(all_subs.max())
        span = np.int64(high - low + 1)
        gkeys = np.repeat(np.arange(vm_arr.size, dtype=np.int64) * span - low, size_arr)
        gkeys += all_subs
        gkeys.sort()
        dup_pos = np.flatnonzero(gkeys[1:] == gkeys[:-1])
        if dup_pos.size:
            # repolint: allow(VL01): message formatting over duplicate-bearing groups (broken placements only)
            for g in sorted_unique(gkeys[dup_pos] // span).tolist():
                messages.append(
                    f"VM {vm_arr[g]} lists duplicate subscribers for "
                    f"topic {topic_arr[g]}"
                )
        del gkeys  # lane-sized: freed before the satisfaction keys
    accounting_ok = not messages

    # Capacity: Equation (2), per-VM out/in byte rates by bincount.
    out_bytes = np.bincount(vm_arr, weights=topic_bytes * size_arr, minlength=num_vms)
    in_bytes = np.bincount(vm_arr, weights=topic_bytes, minlength=num_vms)
    used = out_bytes + in_bytes
    recorded = placement.used_bytes_array()

    over_mask = used > capacity * (1.0 + _REL_TOL) + _ABS_TOL
    overloaded = [int(b) for b in np.flatnonzero(over_mask)]
    mismatch = np.abs(recorded - used) > np.maximum(
        _ABS_TOL, _REL_TOL * np.maximum(recorded, used)
    )
    # Interleave the messages per VM, as the loop referee emits them.
    # repolint: allow(VL01): verdict-message formatting, O(VMs) -- referee-identical interleave
    for b in range(num_vms):
        if over_mask[b]:
            messages.append(
                f"VM {b} uses {used[b]:.1f} B of {capacity:.1f} B capacity"
            )
        if mismatch[b]:
            accounting_ok = False
            messages.append(
                f"VM {b} bookkeeping says {recorded[b]:.3f} B but recomputation "
                f"says {used[b]:.3f} B"
            )

    # Satisfaction: Equation (3), a pair counts if assigned to >= 1 VM.
    # Each delivered lane becomes its pair key ``v * num_topics + t``
    # (VM identity dropped); dedup, interest membership and the
    # per-subscriber sums are the sort-merge of those keys against the
    # workload's pair keys.
    if (
        all_subs.size
        and 0 <= low and high < workload.num_subscribers
        and 0 <= int(topic_arr.min()) and int(topic_arr.max()) < workload.num_topics
    ):
        keys = np.repeat(topic_arr, size_arr)
        keys += all_subs * np.int64(workload.num_topics)
        delivered = _delivered_rates_of_keys(workload, keys)
    else:
        # Empty, or naming unknown ids: the array entry point drops
        # those lanes.
        delivered = delivered_rates_from_arrays(
            workload, np.repeat(topic_arr, size_arr), all_subs
        )
    unsat_mask = delivered < thresholds * (1.0 - _REL_TOL)
    unsatisfied = [int(v) for v in np.flatnonzero(unsat_mask)]
    if unsatisfied:
        shown = ", ".join(str(v) for v in unsatisfied[:10])
        more = "" if len(unsatisfied) <= 10 else f" (+{len(unsatisfied) - 10} more)"
        messages.append(f"unsatisfied subscribers: {shown}{more}")

    return ValidationReport(
        capacity_ok=not overloaded,
        satisfaction_ok=not unsatisfied,
        accounting_ok=accounting_ok,
        overloaded_vms=overloaded,
        unsatisfied_subscribers=unsatisfied,
        messages=messages,
    )


def validate_placement_loop(
    problem: MCSSProblem, placement: Placement
) -> ValidationReport:
    """The original per-subscriber loop referee (slow, zero shared code).

    Deliberately written in the most direct style possible -- no shared
    code with the solvers or the vectorized validator -- so that a bug
    in either cannot hide inside the referee.  Use only on small
    instances; it is linear in ``|V|`` with Python-loop constants.
    """
    workload = problem.workload
    msg_bytes = workload.message_size_bytes
    rates = workload.event_rates
    capacity = problem.capacity_bytes

    # Recompute per-VM bandwidth from the raw assignment lists.
    pair_counts: Dict[int, Dict[int, int]] = {}
    delivered: Dict[int, Set[int]] = {}
    duplicate_msgs: List[str] = []
    for b, t, subs in placement.iter_assignments():
        per_vm = pair_counts.setdefault(b, {})
        per_vm[t] = per_vm.get(t, 0) + len(subs)
        if len(set(subs)) != len(subs):
            duplicate_msgs.append(f"VM {b} lists duplicate subscribers for topic {t}")
        for v in subs:
            delivered.setdefault(v, set()).add(t)

    overloaded: List[int] = []
    accounting_ok = not duplicate_msgs
    messages: List[str] = list(duplicate_msgs)
    for b in range(placement.num_vms):
        per_vm = pair_counts.get(b, {})
        out_bytes = sum(rates[t] * c for t, c in per_vm.items()) * msg_bytes
        in_bytes = sum(rates[t] for t in per_vm) * msg_bytes
        used = out_bytes + in_bytes
        if used > capacity * (1.0 + _REL_TOL) + _ABS_TOL:
            overloaded.append(b)
            messages.append(
                f"VM {b} uses {used:.1f} B of {capacity:.1f} B capacity"
            )
        recorded = placement.vms[b].used_bytes
        if abs(recorded - used) > max(_ABS_TOL, _REL_TOL * max(recorded, used)):
            accounting_ok = False
            messages.append(
                f"VM {b} bookkeeping says {recorded:.3f} B but recomputation "
                f"says {used:.3f} B"
            )

    # Satisfaction: Equation (3), a pair counts if assigned to >= 1 VM.
    unsatisfied: List[int] = []
    for v in range(workload.num_subscribers):
        interest = workload.interest(v)
        if interest.size == 0:
            continue  # tau_v == 0: trivially satisfied
        tau_v = min(problem.tau, float(rates[interest].sum()))
        got_topics = delivered.get(v, set())
        # Hoisted: the interest set is built once per subscriber, not
        # once per delivered topic.
        interest_set = set(interest.tolist())
        got = sum(float(rates[t]) for t in got_topics if t in interest_set)
        if got < tau_v * (1.0 - _REL_TOL):
            unsatisfied.append(v)
    if unsatisfied:
        shown = ", ".join(str(v) for v in unsatisfied[:10])
        more = "" if len(unsatisfied) <= 10 else f" (+{len(unsatisfied) - 10} more)"
        messages.append(f"unsatisfied subscribers: {shown}{more}")

    return ValidationReport(
        capacity_ok=not overloaded,
        satisfaction_ok=not unsatisfied,
        accounting_ok=accounting_ok,
        overloaded_vms=overloaded,
        unsatisfied_subscribers=unsatisfied,
        messages=messages,
    )
