"""Trace-analysis experiments (Figures 8-12, Appendix D).

Each runner returns the data series behind one figure, plus a
``render()`` that prints a log-log summary table (selected decades
rather than every point -- terminals are not gnuplot).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..analysis import (
    BinnedMeans,
    CCDF,
    event_rate_ccdf,
    follower_ccdf,
    following_ccdf,
    mean_rate_by_followers,
    mean_sc_by_followings,
    subscription_cardinality_ccdf,
)
from ..core.segsearch import sorted_unique
from ..workloads import GeneratedTrace
from .tables import format_table

__all__ = ["TraceFigure", "run_trace_figure", "TRACE_FIGURES"]

TRACE_FIGURES = ("fig8", "fig9", "fig10", "fig11", "fig12")


@dataclass
class TraceFigure:
    """One Appendix-D figure: named series of (x, y) arrays."""

    figure_id: str
    title: str
    series: List[tuple]  # (name, x array, y array)

    def plot(self, width: int = 64, height: int = 20) -> str:
        """Render the figure as a terminal log-log scatter plot."""
        from ..analysis import loglog_plot

        return loglog_plot(
            self.series, width=width, height=height,
            title=f"{self.figure_id}: {self.title}",
        )

    def render(self, points: int = 12) -> str:
        """Tabulate each series at log-spaced sample points."""
        blocks = []
        for name, x, y in self.series:
            x = np.asarray(x, dtype=np.float64)
            y = np.asarray(y, dtype=np.float64)
            if x.size > points:
                idx = sorted_unique(
                    np.geomspace(1, x.size, points).astype(int) - 1
                )
            else:
                idx = np.arange(x.size)
            rows = [[f"{x[i]:g}", f"{y[i]:.3e}"] for i in idx]
            blocks.append(
                format_table(f"{self.figure_id} {self.title}: {name}", ["x", "y"], rows)
            )
        return "\n\n".join(blocks)


def run_trace_figure(figure_id: str, trace: GeneratedTrace) -> TraceFigure:
    """Compute the data series behind one of Figures 8-12."""
    graph = trace.graph
    workload = trace.workload

    if figure_id == "fig8":
        fers = follower_ccdf(graph)
        fing = following_ccdf(graph)
        return TraceFigure(
            figure_id,
            "CCDF of #followers and #followings",
            [
                ("#followers", fers.values, fers.probabilities),
                ("#followings", fing.values, fing.probabilities),
            ],
        )
    if figure_id == "fig9":
        rates = event_rate_ccdf(graph)
        return TraceFigure(
            figure_id,
            "CCDF of event rate (10-day period)",
            [("event rate", rates.values, rates.probabilities)],
        )
    if figure_id == "fig10":
        binned = mean_rate_by_followers(graph)
        return TraceFigure(
            figure_id,
            "mean event rate vs #followers",
            [("mean event rate", binned.bin_centers, binned.means)],
        )
    if figure_id == "fig11":
        sc = subscription_cardinality_ccdf(workload)
        return TraceFigure(
            figure_id,
            "CCDF of subscription cardinality (%)",
            [("SC", sc.values, sc.probabilities)],
        )
    if figure_id == "fig12":
        binned = mean_sc_by_followings(graph, workload)
        return TraceFigure(
            figure_id,
            "mean SC vs #followings",
            [("mean SC", binned.bin_centers, binned.means)],
        )
    raise KeyError(
        f"unknown trace figure {figure_id!r}; known: {', '.join(TRACE_FIGURES)}"
    )
