"""Stage 1 of the MCSS heuristic: topic-subscriber pair selection.

Algorithms (Section III-A / Appendix A of the paper):

* :class:`GreedySelectPairs` (``"gsp"``) -- the paper's benefit-cost
  greedy, fully vectorized over the workload's CSR interests; past one
  ``MCSS_SHARD_SIZE`` of subscribers it runs per shard and merges
  bit-exactly (:func:`merge_shard_groups`);
* :class:`LoopGreedySelectPairs` (``"gsp-loop"``) -- the equivalent
  O(k log k)-per-subscriber loop form, kept as a referee;
* :class:`ReferenceGreedySelectPairs` (``"gsp-reference"``) -- literal
  Algorithm 2, used as the executable specification in tests;
* :class:`RandomSelectPairs` (``"rsp"``) -- the naive baseline;
* :class:`KnapsackSelectPairs` (``"knapsack"``) -- per-subscriber
  optimal DP (the "optimal but too costly" option the paper mentions).
"""

from .base import (
    SelectionAlgorithm,
    available_selectors,
    get_selector,
    register_selector,
)
from .greedy import (
    GreedySelectPairs,
    LoopGreedySelectPairs,
    ReferenceGreedySelectPairs,
    benefit_cost_ratio,
)
from .knapsack import KnapsackSelectPairs, min_cover_subset
from .random_ import RandomSelectPairs
from .sharded import merge_shard_groups

__all__ = [
    "SelectionAlgorithm",
    "available_selectors",
    "get_selector",
    "register_selector",
    "GreedySelectPairs",
    "LoopGreedySelectPairs",
    "ReferenceGreedySelectPairs",
    "benefit_cost_ratio",
    "KnapsackSelectPairs",
    "min_cover_subset",
    "RandomSelectPairs",
    "merge_shard_groups",
]
