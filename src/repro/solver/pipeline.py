"""The two-stage MCSS solver (Section III).

:class:`MCSSSolver` composes a Stage-1 selection algorithm with a
Stage-2 packing algorithm, times both stages separately (Figures 4-7
report them separately), times the audit and raises on an invalid
placement, and returns a :class:`MCSSSolution` carrying everything the
experiment harness needs.  Every solve is audited: an infeasible
placement is a solver bug, never a result.

The paper's named configurations are available as presets:

>>> solution = MCSSSolver.paper().solve(problem)       # GSP + full CBP
>>> baseline = MCSSSolver.naive().solve(problem)       # RSP + FFBP
>>> rung_c = MCSSSolver.ladder("c").solve(problem)     # GSP + CBP(b,c)
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from ..core import (
    MCSSProblem,
    PairSelection,
    Placement,
    SolutionCost,
    ValidationReport,
    validate_placement,
)
from ..packing import (
    CBPOptions,
    CustomBinPacking,
    FFBinPacking,
    PackingAlgorithm,
    get_packer,
)
from ..selection import GreedySelectPairs, RandomSelectPairs, SelectionAlgorithm, get_selector

__all__ = ["MCSSSolution", "MCSSSolver"]


@dataclass(frozen=True)
class MCSSSolution:
    """Everything one solver run produced."""

    problem: MCSSProblem
    selection: PairSelection
    placement: Placement
    cost: SolutionCost
    selection_seconds: float
    packing_seconds: float
    #: Wall time of the placement audit (``validate_placement``).
    validation_seconds: float
    selector_name: str
    packer_name: str
    validation: ValidationReport

    def summary(self) -> str:
        """One-line result for logs and the CLI."""
        return (
            f"{self.selector_name}+{self.packer_name}: {self.cost} "
            f"[stage1 {self.selection_seconds:.2f}s, "
            f"stage2 {self.packing_seconds:.2f}s]"
        )


class MCSSSolver:
    """A (selection, packing) pipeline for MCSS."""

    def __init__(self, selector: SelectionAlgorithm, packer: PackingAlgorithm) -> None:
        self.selector = selector
        self.packer = packer

    # ------------------------------------------------------------------
    # Presets
    # ------------------------------------------------------------------
    @classmethod
    def paper(cls) -> "MCSSSolver":
        """The paper's full solution: GSP + CBP with all optimizations."""
        return cls(GreedySelectPairs(), CustomBinPacking(CBPOptions.ladder("e")))

    @classmethod
    def naive(cls, seed: Optional[int] = None) -> "MCSSSolver":
        """The paper's naive baseline: RSP + FFBP."""
        return cls(RandomSelectPairs(seed=seed), FFBinPacking())

    @classmethod
    def ladder(cls, rung: str) -> "MCSSSolver":
        """One rung of Figures 2-3's optimization ladder.

        ``"a"`` = GSP + FFBP; ``"b"``..``"e"`` = GSP + CBP with the
        matching :meth:`CBPOptions.ladder` preset.
        """
        if rung == "a":
            return cls(GreedySelectPairs(), FFBinPacking())
        return cls(GreedySelectPairs(), CustomBinPacking(CBPOptions.ladder(rung)))

    @classmethod
    def from_names(cls, selector: str, packer: str) -> "MCSSSolver":
        """Build from registry names (CLI entry point)."""
        return cls(get_selector(selector), get_packer(packer))

    # ------------------------------------------------------------------
    def solve(self, problem: MCSSProblem) -> MCSSSolution:
        """Run both stages and audit the result.

        Raises ``ValueError`` if the produced placement violates
        capacity or satisfaction -- a solver bug, by construction, so it
        must never pass silently.

        A workload wider than one ``MCSS_SHARD_SIZE`` of subscribers is
        solved out of core with the same result: GSP selects shard by
        shard and merges bit-exactly (:mod:`repro.selection.sharded`).
        Stage 2 stays one sequential pack -- CBP's bin state is a chain
        of dependent decisions -- but it only touches selection-sized
        arrays, which is what lets a 100M-pair problem pack in a small
        RAM budget when the workload itself is mmap-backed.  The audit
        is the whole-array :func:`validate_placement` at every size.
        """
        t0 = time.perf_counter()
        selection = self.selector.select(problem)
        t1 = time.perf_counter()
        return self.solve_with_selection(
            problem, selection, selection_seconds=t1 - t0
        )

    def solve_with_selection(
        self,
        problem: MCSSProblem,
        selection: PairSelection,
        selection_seconds: float = 0.0,
    ) -> MCSSSolution:
        """Run Stage 2 (and validation) on a precomputed Stage-1 selection.

        Stage-1 selections depend only on the workload and ``tau`` --
        never on the packer -- so sweeps over packing variants (the
        cost-optimization ladder of Figures 2-3, ablation benches) can
        select once per ``tau`` and pack many times.  The caller is
        responsible for passing a selection produced for *this* problem
        (validation will reject an insufficient one).
        ``selection_seconds`` is recorded in the returned solution so
        shared-selection sweeps still report a Stage-1 time.

        The audit is :func:`validate_placement`, looked up in this
        module on every call so a patched one sees every solve, in or
        out of core.
        """
        t1 = time.perf_counter()
        placement = self.packer.pack(problem, selection)
        t2 = time.perf_counter()

        report = validate_placement(problem, placement)
        t3 = time.perf_counter()
        report.raise_if_invalid()

        return MCSSSolution(
            problem=problem,
            selection=selection,
            placement=placement,
            cost=problem.cost_of(placement),
            selection_seconds=selection_seconds,
            packing_seconds=t2 - t1,
            validation_seconds=t3 - t2,
            selector_name=self.selector.name,
            packer_name=self.packer.name,
            validation=report,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MCSSSolver({self.selector.name} + {self.packer.name})"
