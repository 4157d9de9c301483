"""Dynamic/online reprovisioning (the paper's future work, Section VI)."""

from .churn import ChurnConfig, ChurnModel, LoopChurnModel, WorkloadDelta
from .reprovision import (
    EpochReport,
    IncrementalReprovisioner,
    InfeasibleEpochError,
    LoopIncrementalReprovisioner,
)

__all__ = [
    "ChurnConfig",
    "ChurnModel",
    "LoopChurnModel",
    "WorkloadDelta",
    "EpochReport",
    "IncrementalReprovisioner",
    "InfeasibleEpochError",
    "LoopIncrementalReprovisioner",
]
