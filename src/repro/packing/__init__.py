"""Stage 2 of the MCSS heuristic: pair-to-VM allocation.

Algorithms (Section III-B / Appendix B of the paper):

* :class:`FFBinPacking` (``"ffbp"``) -- Algorithm 3, the baseline;
* :class:`CustomBinPacking` (``"cbp"``) -- Algorithm 4 with the
  optimization ladder controlled by :class:`CBPOptions`, vectorized
  over the selection's CSR arrays;
* :class:`LoopCustomBinPacking` (``"cbp-loop"``) and
  :class:`LoopFFBinPacking` (``"ffbp-loop"``) -- the retained
  pre-vectorization implementations, kept as executable referees;
* :class:`BestFitBinPacking` (``"bfbp"``) and
  :class:`FirstFitDecreasingBinPacking` (``"ffdbp"``) -- extra generic
  baselines for the ablation study.
"""

from .base import (
    PackingAlgorithm,
    available_packers,
    diff_placements,
    get_packer,
    register_packer,
)
from .baselines import BestFitBinPacking, FirstFitDecreasingBinPacking
from .custom import CBPOptions, CustomBinPacking, cheaper_to_distribute
from .custom_loop import LoopCustomBinPacking, cheaper_to_distribute_loop
from .first_fit import FFBinPacking, LoopFFBinPacking, iter_pairs_subscriber_major

__all__ = [
    "PackingAlgorithm",
    "available_packers",
    "get_packer",
    "diff_placements",
    "register_packer",
    "BestFitBinPacking",
    "FirstFitDecreasingBinPacking",
    "CBPOptions",
    "CustomBinPacking",
    "cheaper_to_distribute",
    "LoopCustomBinPacking",
    "cheaper_to_distribute_loop",
    "FFBinPacking",
    "LoopFFBinPacking",
    "iter_pairs_subscriber_major",
]
