"""The cost-optimization ladder experiment (Figures 2 and 3).

For one trace and one VM type, runs every variant of the paper's bar
charts over ``tau in {10, 100, 1000}``:

* ``rsp+ffbp`` -- the naive baseline (RandomSelectPairs + first-fit);
* ``(a) gsp+ffbp`` -- greedy selection, naive packing;
* ``(b) +grouping`` -- CustomBinPacking with topic grouping only;
* ``(c) +expensive-first`` -- plus expensive-topic-first ordering;
* ``(d) +free-vm-first`` -- plus most-free-VM-first spilling;
* ``(e) +cost-decision`` -- plus the Algorithm-7 cost decision (full CBP);
* ``lower-bound`` -- Algorithm 5.

Each cell records the three metrics of the figures: total cost ($),
number of VMs, and total bandwidth (GB).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..bounds import lower_bound
from ..core import MCSSProblem, Workload
from ..pricing import PricingPlan
from ..selection import GreedySelectPairs
from ..solver import MCSSSolver
from .tables import format_table

__all__ = ["LadderCell", "LadderResult", "LADDER_VARIANTS", "run_cost_ladder"]

LADDER_VARIANTS: Tuple[str, ...] = (
    "rsp+ffbp",
    "(a) gsp+ffbp",
    "(b) +grouping",
    "(c) +expensive-first",
    "(d) +free-vm-first",
    "(e) +cost-decision",
    "lower-bound",
)


@dataclass(frozen=True)
class LadderCell:
    """One (variant, tau) measurement."""

    cost_usd: float
    num_vms: int
    bandwidth_gb: float


@dataclass
class LadderResult:
    """All cells of one Figure-2/3 style panel."""

    trace_name: str
    instance_name: str
    taus: Sequence[float]
    cells: Dict[str, Dict[float, LadderCell]] = field(default_factory=dict)

    def cell(self, variant: str, tau: float) -> LadderCell:
        """Look up one measurement."""
        return self.cells[variant][tau]

    def savings(self, tau: float, variant: str = "(e) +cost-decision") -> float:
        """Relative cost saving of a variant vs the naive baseline."""
        naive = self.cell("rsp+ffbp", tau).cost_usd
        ours = self.cell(variant, tau).cost_usd
        if naive == 0:
            return 0.0
        return 1.0 - ours / naive

    def gap_to_lower_bound(self, tau: float) -> float:
        """Full solution's cost over the lower bound, minus one."""
        lb = self.cell("lower-bound", tau).cost_usd
        ours = self.cell("(e) +cost-decision", tau).cost_usd
        if lb == 0:
            return 0.0
        return ours / lb - 1.0

    def render(self) -> str:
        """The three metric tables, like one panel of Figs. 2-3."""
        blocks: List[str] = []
        metrics = (
            ("Total Cost ($)", lambda c: c.cost_usd),
            ("Number of VMs", lambda c: float(c.num_vms)),
            ("Total Bandwidth (GB)", lambda c: c.bandwidth_gb),
        )
        for metric_title, getter in metrics:
            header = ["variant"] + [f"tau={tau:g}" for tau in self.taus]
            rows = []
            for variant in self.cells:
                rows.append(
                    [variant] + [getter(self.cells[variant][tau]) for tau in self.taus]
                )
            blocks.append(
                format_table(
                    f"{self.trace_name} / {self.instance_name}: {metric_title}",
                    header,
                    rows,
                )
            )
        return "\n\n".join(blocks)


def _solvers() -> Dict[str, MCSSSolver]:
    return {
        "rsp+ffbp": MCSSSolver.naive(),
        "(a) gsp+ffbp": MCSSSolver.ladder("a"),
        "(b) +grouping": MCSSSolver.ladder("b"),
        "(c) +expensive-first": MCSSSolver.ladder("c"),
        "(d) +free-vm-first": MCSSSolver.ladder("d"),
        "(e) +cost-decision": MCSSSolver.ladder("e"),
    }


def _ladder_tau_cells(
    workload: Workload, plan: PricingPlan, tau: float, wanted: frozenset
) -> Dict[str, LadderCell]:
    """All wanted variants' cells for one tau, sharing one GSP selection."""
    solvers = {
        name: solver for name, solver in _solvers().items() if name in wanted
    }
    gsp = GreedySelectPairs()
    gsp_variants = [
        name
        for name in LADDER_VARIANTS
        if name in wanted and name not in ("rsp+ffbp", "lower-bound")
    ]

    problem = MCSSProblem(workload, tau, plan)
    shared_selection = None
    selection_seconds = 0.0
    if gsp_variants:
        t0 = time.perf_counter()
        shared_selection = gsp.select(problem)
        selection_seconds = time.perf_counter() - t0
    cells: Dict[str, LadderCell] = {}
    for name in LADDER_VARIANTS:
        if name not in wanted:
            continue
        if name == "lower-bound":
            cost = lower_bound(problem)
        elif name == "rsp+ffbp":
            cost = solvers[name].solve(problem).cost
        else:
            cost = solvers[name].solve_with_selection(
                problem, shared_selection, selection_seconds
            ).cost
        cells[name] = LadderCell(
            cost_usd=cost.total_usd,
            num_vms=cost.num_vms,
            bandwidth_gb=cost.total_gb,
        )
    return cells


def run_cost_ladder(
    workload: Workload,
    plan: PricingPlan,
    taus: Sequence[float],
    trace_name: str = "trace",
    variants: Optional[Sequence[str]] = None,
) -> LadderResult:
    """Run the ladder; ``variants`` may restrict to a subset (tests).

    Stage-1 selection depends only on ``(workload, tau)``, never on the
    packer, so the GSP selection is computed **once per tau** and shared
    across variants (a)-(e) via
    :meth:`~repro.solver.MCSSSolver.solve_with_selection` -- the ladder
    re-packs six ways but never re-selects.  Only the naive baseline
    keeps its own (random) Stage 1.  Taus run in order in this process,
    so the workload's lazy caches (spilled to disk when it is
    mmap-backed) are built once and shared by every later tau.
    """
    wanted = frozenset(variants) if variants is not None else frozenset(LADDER_VARIANTS)
    unknown = wanted - set(LADDER_VARIANTS)
    if unknown:
        raise ValueError(f"unknown variants: {sorted(unknown)}")

    result = LadderResult(
        trace_name=trace_name,
        instance_name=plan.instance.name,
        taus=list(taus),
    )
    # Insertion order drives the rendered tables: variant-major, in
    # ladder order, exactly as before the per-tau restructuring.
    for name in LADDER_VARIANTS:
        if name in wanted:
            result.cells[name] = {}

    for tau in taus:
        for name, cell in _ladder_tau_cells(workload, plan, tau, wanted).items():
            result.cells[name][tau] = cell
    return result
