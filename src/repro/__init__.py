"""repro -- a reproduction of *Cost-Effective Resource Allocation for
Deploying Pub/Sub on Cloud* (Setty, Vitenberg, Kreitz, Urdaneta,
van Steen; ICDCS 2014).

The library implements the MCSS (Minimum Cost Subscriber Satisfaction)
problem and everything around it: the two-stage heuristic (greedy pair
selection + customized bin packing), the naive baselines, the
per-instance lower bound, an exact MILP reference, the executable
NP-hardness reduction, synthetic Spotify/Twitter-like trace generators,
an EC2 pricing substrate, and the experiment harness that regenerates
every figure of the paper.

Quickstart::

    from repro import MCSSProblem, MCSSSolver, paper_plan
    from repro.workloads import SpotifyWorkloadGenerator

    trace = SpotifyWorkloadGenerator().generate(seed=7)
    problem = MCSSProblem(trace.workload, tau=100, plan=paper_plan("c3.large"))
    solution = MCSSSolver.paper().solve(problem)
    print(solution.summary())

See README.md for install/quickstart and docs/ARCHITECTURE.md for the
full system inventory and the referee policy.
"""

from .bounds import best_lower_bound, lower_bound, lower_bound_bytes, lp_lower_bound
from .core import (
    MCSSProblem,
    Pair,
    PairSelection,
    Placement,
    SolutionCost,
    ValidationReport,
    VirtualMachine,
    Workload,
    WorkloadStats,
    validate_placement,
)
from .packing import (
    BestFitBinPacking,
    CBPOptions,
    CustomBinPacking,
    FFBinPacking,
    FirstFitDecreasingBinPacking,
    available_packers,
    get_packer,
)
from .pricing import (
    EC2_CATALOG,
    InstanceType,
    LinearBandwidthCost,
    LinearVMCost,
    PricingPlan,
    TieredBandwidthCost,
    get_instance,
    paper_plan,
)
from .selection import (
    GreedySelectPairs,
    KnapsackSelectPairs,
    RandomSelectPairs,
    ReferenceGreedySelectPairs,
    available_selectors,
    get_selector,
)
from .solver import MCSSSolution, MCSSSolver

__version__ = "0.21.0"

__all__ = [
    "best_lower_bound",
    "lower_bound",
    "lp_lower_bound",
    "lower_bound_bytes",
    "MCSSProblem",
    "Pair",
    "PairSelection",
    "Placement",
    "SolutionCost",
    "ValidationReport",
    "VirtualMachine",
    "Workload",
    "WorkloadStats",
    "validate_placement",
    "BestFitBinPacking",
    "CBPOptions",
    "CustomBinPacking",
    "FFBinPacking",
    "FirstFitDecreasingBinPacking",
    "available_packers",
    "get_packer",
    "EC2_CATALOG",
    "InstanceType",
    "LinearBandwidthCost",
    "LinearVMCost",
    "PricingPlan",
    "TieredBandwidthCost",
    "get_instance",
    "paper_plan",
    "GreedySelectPairs",
    "KnapsackSelectPairs",
    "RandomSelectPairs",
    "ReferenceGreedySelectPairs",
    "available_selectors",
    "get_selector",
    "MCSSSolution",
    "MCSSSolver",
    "__version__",
]
