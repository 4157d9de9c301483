"""Per-layer spans, recorded from outside the program.

The traced run wraps the public entry point of each ``repro`` layer
(:data:`PROBES`) for its duration only: :func:`instrument` swaps the
attribute on its module or class for a recording wrapper and puts the
original back on exit, even when the run raises.  Every call becomes a
:class:`Span` -- name, start, end and the index of the span that was
open when it began.  Spans stay in memory; :func:`write_spans` saves
them when the run ends.

A span's self time is its duration minus the part of its interval that
its direct children cover, so the self times of a span and all its
descendants add up to the span's duration.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union


@dataclass
class Span:
    """One call of a wrapped entry point."""

    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for none


class Tracer:
    """Collects spans and counts on an injectable clock."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._open: List[int] = []

    @property
    def current(self) -> Optional[str]:
        """Name of the innermost open span, if any."""
        return self.spans[self._open[-1]].name if self._open else None

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, self.clock(), math.nan, parent))
        self._open.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._open.pop()
            self.spans[index].end = self.clock()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: List[List[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(i)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for c in sorted(children[i], key=lambda c: spans[c].start):
            lo = max(spans[c].start, cursor)
            hi = min(spans[c].end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((span.end - span.start) - covered)
    return out


def subtree_self_sum(spans: Sequence[Span], selfs: Sequence[float], root: int) -> float:
    """Sum of the self times of ``root`` and all its descendants."""
    inside = {root}
    total = selfs[root]
    for i in range(root + 1, len(spans)):  # descendants start after their root
        if spans[i].parent in inside:
            inside.add(i)
            total += selfs[i]
    return total


# ---- what the traced run wraps ------------------------------------------

Namer = Union[str, Callable[[Optional[str]], str]]


@dataclass(frozen=True)
class Probe:
    """One wrapped entry point: ``"module:attr"`` or ``"module:Class.method"``.

    ``name`` is the span name, or a function of the enclosing span's
    name.  ``observe(tracer, args, result)`` records counts at the call.
    """

    target: str
    name: Namer
    observe: Optional[Callable] = None


def _selection_name(parent: Optional[str]) -> str:
    return {
        "dynamic.step": "selection.reselect",
        "solver.solve": "selection.select",
    }.get(parent, "selection.other")


def _observe_step(tracer: Tracer, args, report) -> None:
    for field in ("pairs_added", "pairs_removed", "pairs_moved", "vms_opened", "vms_closed"):
        tracer.count(f"dynamic.{field}", getattr(report, field))
    tracer.count("dynamic.fresh_solves", int(report.fresh_solved))
    tracer.count("dynamic.rebuilds", int(report.rebuilt))


def _observe_restrict(tracer: Tracer, args, result) -> None:
    tracer.count("core.restrict_subscribers.rows", len(args[1]))


def _observe_checkpoint(tracer: Tracer, args, path) -> None:
    tracer.count("resilience.checkpoint.bytes", os.path.getsize(path))


PROBES: Tuple[Probe, ...] = (
    Probe("repro.serving.service:MicroEpochService.run_micro_epoch", "serving.run_micro_epoch"),
    Probe("repro.serving.service:MicroEpochService.ingest_delta", "serving.ingest"),
    Probe("repro.serving.queue:ChurnIngestQueue.seal_epoch", "serving.seal"),
    Probe("repro.dynamic.reprovision:IncrementalReprovisioner.step", "dynamic.step", _observe_step),
    Probe("repro.dynamic.reprovision:advance_orders", "dynamic.advance_orders"),
    Probe("repro.dynamic.reprovision:lower_bound", "bounds.lower_bound"),
    Probe("repro.selection.greedy:GreedySelectPairs.select", _selection_name),
    Probe(
        "repro.core.workload:Workload.restrict_subscribers",
        "core.restrict_subscribers",
        _observe_restrict,
    ),
    Probe("repro.solver.pipeline:validate_placement", "core.validate"),
    Probe("repro.packing.custom:CustomBinPacking.pack", "packing.pack"),
    Probe("repro.solver.pipeline:MCSSSolver.solve", "solver.solve"),
    Probe("repro.serving.service:save_checkpoint", "resilience.checkpoint", _observe_checkpoint),
    Probe("repro.dynamic.churn:ChurnModel.step", "gen.churn"),
)

SPAN_METRICS = (
    "serving.run_micro_epoch",
    "serving.ingest",
    "serving.seal",
    "dynamic.step",
    "dynamic.advance_orders",
    "selection.reselect",
    "selection.select",
    "core.restrict_subscribers",
    "core.validate",
    "packing.pack",
    "solver.solve",
    "bounds.lower_bound",
    "resilience.checkpoint",
    "gen.churn",
)
SELF_METRICS = ("dynamic.step",)
COUNT_METRICS = (
    "dynamic.pairs_added",
    "dynamic.pairs_removed",
    "dynamic.pairs_moved",
    "dynamic.vms_opened",
    "dynamic.vms_closed",
    "dynamic.fresh_solves",
    "dynamic.rebuilds",
    "core.restrict_subscribers.rows",
    "resilience.checkpoint.bytes",
)
COUNT_UNITS = {"resilience.checkpoint.bytes": "B"}


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


_ABSENT = object()


@contextmanager
def instrument(tracer: Tracer, probes: Sequence[Probe] = PROBES) -> Iterator[Tracer]:
    """Wrap every probe's target while the block runs, then restore it."""
    saved = []
    try:
        for probe in probes:
            owner, attr = _resolve(probe.target)
            saved.append((owner, attr, vars(owner).get(attr, _ABSENT)))
            setattr(owner, attr, _wrap(tracer, probe, getattr(owner, attr)))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


def _wrap(tracer: Tracer, probe: Probe, original):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        name = probe.name if isinstance(probe.name, str) else probe.name(tracer.current)
        result = tracer.call(name, original, *args, **kwargs)
        if probe.observe is not None:
            probe.observe(tracer, args, result)
        return result

    return wrapper


# ---- per-layer metrics ----------------------------------------------------


def epoch_self_times_add_up(tracer: Tracer, root_name: str = "serving.run_micro_epoch") -> bool:
    """Whether each ``root_name`` span's subtree self times sum to its duration."""
    spans = tracer.spans
    selfs = self_times(spans)
    return all(
        abs(subtree_self_sum(spans, selfs, i) - (span.end - span.start)) <= 1e-9
        for i, span in enumerate(spans)
        if span.name == root_name
    )


def layer_metrics(tracer: Tracer) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``."""
    busy: Dict[str, float] = defaultdict(float)
    own: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for span, self_s in zip(tracer.spans, self_times(tracer.spans)):
        busy[span.name] += span.end - span.start
        own[span.name] += self_s
        calls[span.name] += 1
    out: Dict[str, Tuple[float, str]] = {}
    for name in SPAN_METRICS:
        out[f"{name}.busy_s"] = (busy[name], "s")
        out[f"{name}.calls"] = (calls[name], "count")
    for name in SELF_METRICS:
        out[f"{name}.self_s"] = (own[name], "s")
    for name in COUNT_METRICS:
        out[name] = (tracer.counts[name], COUNT_UNITS.get(name, "count"))
    fresh = tracer.counts["dynamic.fresh_solves"]
    out["dynamic.rebuilds_per_fresh_solve"] = (
        tracer.counts["dynamic.rebuilds"] / fresh if fresh else 0.0,
        "ratio",
    )
    return out


def write_spans(tracer: Tracer, path: str) -> None:
    """Save the spans as JSON lines (name, start, end, parent, self_s)."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        for span, self_s in zip(tracer.spans, self_times(tracer.spans)):
            f.write(
                json.dumps(
                    {
                        "name": span.name,
                        "start": span.start,
                        "end": span.end,
                        "parent": span.parent,
                        "self_s": self_s,
                    }
                )
                + "\n"
            )
