"""Core MCSS model: workload, satisfaction, pairs, placement, problem.

This package is the paper's Section II in executable form.  Everything
else in the library (selection, packing, bounds, exact solver,
dynamic reprovisioning) is written against these types.
"""

from .backend import AdoptBackend, ArrayBackend, MmapBackend, RamBackend
from .pairs import PairSelection
from .placement import CapacityError, Placement, VirtualMachine
from .problem import MCSSProblem, SolutionCost
from .satisfaction import (
    all_satisfied,
    delivered_rate,
    delivered_rates,
    delivered_rates_from_arrays,
    satisfied_mask,
    subscriber_thresholds,
)
from .validation import ValidationReport, validate_placement, validate_placement_loop
from .workload import Pair, Workload, WorkloadStats

__all__ = [
    "AdoptBackend",
    "ArrayBackend",
    "MmapBackend",
    "RamBackend",
    "PairSelection",
    "CapacityError",
    "Placement",
    "VirtualMachine",
    "MCSSProblem",
    "SolutionCost",
    "all_satisfied",
    "delivered_rate",
    "delivered_rates",
    "delivered_rates_from_arrays",
    "satisfied_mask",
    "subscriber_thresholds",
    "ValidationReport",
    "validate_placement",
    "validate_placement_loop",
    "Pair",
    "Workload",
    "WorkloadStats",
]
