"""The two-stage MCSS solver pipeline (Section III)."""

from .pipeline import MCSSSolution, MCSSSolver

__all__ = ["MCSSSolution", "MCSSSolver"]
