"""Per-instance lower bound on the MCSS objective (Alg. 5 / Thm. A.1).

The argument (Appendix C): satisfying subscriber ``v`` requires
delivering topics with total rate at least ``tau_v`` -- and when every
topic in ``Tv`` individually exceeds ``tau_v``, at least the cheapest
single topic, ``min_{t in Tv} ev_t``.  Hence any solution spends at
least ``max(tau_v, min_{t in Tv} ev_t)`` of *outgoing* bandwidth on
``v``.  Summing over subscribers lower-bounds the bandwidth; dividing
by ``BC`` (and rounding up) lower-bounds the VM count; pricing both
with ``C1``/``C2`` lower-bounds the objective.

The bound is not tight -- it ignores incoming bandwidth entirely and
lets every subscriber be satisfied by fractional topics -- but
Figures 2-3 use it as the "how much headroom is left" yardstick, with
the paper's heuristic landing within ~15% of it in many cases.

:func:`lower_bound` implements the paper's bound exactly;
``include_forced_ingest=True`` adds a sound strengthening (see the
function docstring) used in the ablation benches.  The per-subscriber
term has one implementation, :func:`subscriber_bound_terms`; the
dynamic reprovisioner keeps that vector across epochs and prices it
with :func:`terms_lower_bound`.
"""

from __future__ import annotations

import numpy as np

from ..core import MCSSProblem, SolutionCost, Workload, subscriber_thresholds
from ..core.segsearch import sorted_unique

__all__ = [
    "lower_bound",
    "lower_bound_bytes",
    "subscriber_bound_terms",
    "terms_lower_bound",
]


def subscriber_bound_terms(workload: Workload, tau: float) -> np.ndarray:
    """Lines 2-3 of Algorithm 5: each subscriber's ``max(tau_v, min ev_t)``.

    One float per subscriber, 0 where nothing must be delivered (no
    interest, or ``tau_v <= 0``).  A term reads only the subscriber's
    own interest row and those topics' rates, so a caller that keeps
    the vector can refresh the subscribers whose row or rates changed
    from a :meth:`Workload.restrict_subscribers` view of them: the view
    holds each row in the same CSR order, so its terms are bitwise the
    terms of the full workload.

    Whole-array passes over the CSR interests (one
    ``np.minimum.reduceat`` for the per-subscriber minimum rates).
    """
    rates = workload.event_rates
    indptr, flat = workload.interest_indptr, workload.interest_topics
    terms = np.zeros(workload.num_subscribers, dtype=np.float64)
    if flat.size == 0:
        return terms
    nonempty = np.diff(indptr) > 0
    tau_v = subscriber_thresholds(workload, tau)[nonempty]
    mins = np.minimum.reduceat(rates[flat], indptr[:-1][nonempty])
    # With tau_v <= 0 the subscriber is satisfied by receiving nothing;
    # the min-rate clause of Theorem A.1 only applies when something
    # must be delivered (an empty solution is feasible and costs 0, so
    # charging min ev_t there would be unsound).
    terms[nonempty] = np.where(tau_v > 0, np.maximum(tau_v, mins), 0.0)
    return terms


def _terms_rate(terms: np.ndarray) -> float:
    # A positive term is at least tau_v > 0, so this keeps exactly the
    # subscribers that must receive something, in subscriber order.
    return float(terms[terms > 0].sum())


def lower_bound_bytes(problem: MCSSProblem, include_forced_ingest: bool = False) -> float:
    """Lower bound on total bandwidth (bytes per period).

    With ``include_forced_ingest`` the bound additionally charges one
    incoming copy for every *forced* topic: if a subscriber's whole
    interest is needed to reach ``tau_v`` (``sum(ev_t for t in Tv) <=
    tau``), then each of its topics must be selected by every feasible
    solution and therefore ingested by at least one VM.  This is sound
    (it never exceeds the true optimum) and strictly tightens the bound
    on sparse workloads; the paper's bound omits it.
    """
    workload = problem.workload
    tau = float(problem.tau)
    total_rate = _terms_rate(subscriber_bound_terms(workload, tau))

    indptr, flat = workload.interest_indptr, workload.interest_topics
    if include_forced_ingest and flat.size:
        sums = workload.interest_rate_sums()
        nonempty = np.diff(indptr) > 0
        forced_subs = nonempty & (sums <= tau) & (subscriber_thresholds(workload, tau) > 0)
        if forced_subs.any():
            forced_pairs = forced_subs[workload.pair_subscribers()]
            forced_topics = sorted_unique(flat[forced_pairs])
            total_rate += float(workload.event_rates[forced_topics].sum())

    return total_rate * workload.message_size_bytes


def _priced(problem: MCSSProblem, bw_bytes: float) -> SolutionCost:
    capacity = problem.capacity_bytes
    num_vms = int(np.ceil(bw_bytes / capacity - 1e-12)) if bw_bytes > 0 else 0
    return problem.cost_components(num_vms, bw_bytes)


def lower_bound(problem: MCSSProblem, include_forced_ingest: bool = False) -> SolutionCost:
    """Algorithm 5: lower bound on the full MCSS objective.

    Returns a :class:`~repro.core.problem.SolutionCost` whose
    ``total_usd`` no feasible solution can beat.
    """
    return _priced(problem, lower_bound_bytes(problem, include_forced_ingest))


def terms_lower_bound(problem: MCSSProblem, terms: np.ndarray) -> SolutionCost:
    """:func:`lower_bound` from a kept :func:`subscriber_bound_terms` vector.

    Equal to ``lower_bound(problem)`` bit for bit whenever ``terms`` is
    the current workload's term vector: the sum runs over the same
    values in the same order.  This is how the dynamic reprovisioner
    prices each epoch without re-reading every subscriber's interests.
    """
    return _priced(problem, _terms_rate(terms) * problem.workload.message_size_bytes)
