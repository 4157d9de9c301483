"""Experiment harness: one runner per figure of the paper's evaluation."""

from .config import (
    PAPER_INSTANCES,
    PAPER_TAUS,
    ExperimentScale,
    calibrate_fraction,
    make_plan,
    make_trace,
)
from .figures import FIGURES, describe_figures, run_figure
from .serve import ServeRunResult, run_serving_experiment
from .ladder import LADDER_VARIANTS, LadderCell, LadderResult, run_cost_ladder
from .runtime import (
    Stage1RuntimeResult,
    Stage2RuntimeResult,
    run_stage1_runtime,
    run_stage2_runtime,
)
from .summary import SummaryResult, run_summary
from .tables import format_table
from .traces import TRACE_FIGURES, TraceFigure, run_trace_figure

__all__ = [
    "PAPER_INSTANCES",
    "PAPER_TAUS",
    "ExperimentScale",
    "calibrate_fraction",
    "make_plan",
    "make_trace",
    "ServeRunResult",
    "run_serving_experiment",
    "FIGURES",
    "describe_figures",
    "run_figure",
    "LADDER_VARIANTS",
    "LadderCell",
    "LadderResult",
    "run_cost_ladder",
    "Stage1RuntimeResult",
    "Stage2RuntimeResult",
    "run_stage1_runtime",
    "run_stage2_runtime",
    "SummaryResult",
    "run_summary",
    "format_table",
    "TRACE_FIGURES",
    "TraceFigure",
    "run_trace_figure",
]
