"""Extra Stage-2 baselines beyond the paper's FFBP.

These are the classic bin-packing heuristics the scheduling literature
the paper cites ([11], [12]) would reach for.  They are not part of the
paper's evaluation but round out the ablation story: they show that
*generic* packing -- however good at minimizing VM count -- cannot
recover the incoming-bandwidth savings of topic grouping, because they
are "oblivious to internal semantics of the application" (Section V).
"""

from __future__ import annotations

from typing import List, Tuple

from ..core import MCSSProblem, PairSelection, Placement
from .base import PackingAlgorithm, register_packer
from .first_fit import first_fit, iter_pairs_subscriber_major

__all__ = ["BestFitBinPacking", "FirstFitDecreasingBinPacking"]


@register_packer("bfbp")
class BestFitBinPacking(PackingAlgorithm):
    """Best-fit over individual pairs: tightest feasible VM wins.

    Classic best-fit minimizes leftover slack per placement, which
    tends to minimize VM count, but interleaves topics just like FFBP
    and pays the same ingest duplication.
    """

    def pack(self, problem: MCSSProblem, selection: PairSelection) -> Placement:
        placement = problem.empty_placement()
        workload = problem.workload
        msg_bytes = workload.message_size_bytes
        rates = workload.event_rates

        for t, v in iter_pairs_subscriber_major(selection):
            topic_bytes = float(rates[t]) * msg_bytes
            best_idx = -1
            best_slack = float("inf")
            for b, vm in enumerate(placement.vms):
                delta = vm.addition_cost_bytes(topic_bytes, 1, not vm.hosts_topic(t))
                slack = vm.free_bytes - delta
                if slack >= -1e-9 and slack < best_slack:
                    best_slack = slack
                    best_idx = b
            if best_idx < 0:
                best_idx = placement.new_vm()
            placement.assign(best_idx, t, [v])

        return placement


@register_packer("ffdbp")
class FirstFitDecreasingBinPacking(PackingAlgorithm):
    """First-fit-decreasing over individual pairs.

    Pairs are sorted by event rate (descending) before first-fit.  FFD
    is the textbook improvement over FF for bin packing (11/9 OPT + 1);
    it narrows the VM-count gap to CBP but still splits topics.
    """

    def pack(self, problem: MCSSProblem, selection: PairSelection) -> Placement:
        rates = problem.workload.event_rates
        pairs: List[Tuple[int, int]] = list(iter_pairs_subscriber_major(selection))
        pairs.sort(key=lambda tv: (-float(rates[tv[0]]), tv[0], tv[1]))
        return first_fit(problem, pairs)
