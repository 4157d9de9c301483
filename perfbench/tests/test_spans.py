"""Span bookkeeping on a scripted clock, and restoration of wrapped entry points."""

import sys
import types

import pytest

from perfbench import spans
from perfbench.spans import Probe, Span, Tracer, instrument, self_times, subtree_self_sum


class ScriptedClock:
    """Returns the given readings in order, one per call."""

    def __init__(self, readings):
        self._readings = iter(readings)

    def __call__(self):
        return next(self._readings)


def _epoch_tracer():
    # epoch [0, 10] holds seal [1, 2] and step [3, 9]; step holds reselect [4, 6].
    tracer = Tracer(ScriptedClock([0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 9.0, 10.0]))

    def step():
        tracer.call("selection.reselect", lambda: None)

    def epoch():
        tracer.call("serving.seal", lambda: None)
        tracer.call("dynamic.step", step)

    tracer.call("serving.run_micro_epoch", epoch)
    return tracer


def test_self_times_subtract_direct_children_and_sum_to_the_epoch():
    tracer = _epoch_tracer()
    assert [s.name for s in tracer.spans] == [
        "serving.run_micro_epoch",
        "serving.seal",
        "dynamic.step",
        "selection.reselect",
    ]
    assert [s.parent for s in tracer.spans] == [-1, 0, 0, 2]
    selfs = self_times(tracer.spans)
    assert selfs == [3.0, 1.0, 4.0, 2.0]
    assert subtree_self_sum(tracer.spans, selfs, 0) == 10.0
    assert spans.epoch_self_times_add_up(tracer)


def test_layer_metrics_from_scripted_spans():
    metrics = spans.layer_metrics(_epoch_tracer())
    assert metrics["dynamic.step.busy_s"] == (6.0, "s")
    assert metrics["dynamic.step.self_s"] == (4.0, "s")
    assert metrics["selection.reselect.calls"] == (1, "count")
    assert metrics["packing.pack.busy_s"] == (0.0, "s")
    assert metrics["dynamic.rebuilds_per_fresh_solve"] == (0.0, "ratio")


def test_overlapping_or_escaping_children_are_covered_once():
    trace = [Span("p", 0.0, 10.0, -1), Span("a", 1.0, 5.0, 0), Span("b", 4.0, 12.0, 0)]
    assert self_times(trace)[0] == pytest.approx(1.0)  # children cover [1, 10]


@pytest.fixture
def fake_layer(monkeypatch):
    module = types.ModuleType("fake_layer")

    class Base:
        def inherited(self):
            return "base"

    class Child(Base):
        def own(self, x):
            return sys.modules["fake_layer"].free(x) + 1

    def free(x):
        return x * 2

    module.Child, module.free = Child, free
    monkeypatch.setitem(sys.modules, "fake_layer", module)
    return module


PROBES = (
    Probe("fake_layer:Child.own", "dynamic.step"),
    Probe("fake_layer:Child.inherited", "inherited"),
    Probe("fake_layer:free", spans._selection_name),
)


def test_instrument_records_calls_and_restores_every_entry_point(fake_layer):
    own, free = vars(fake_layer.Child)["own"], fake_layer.free
    tracer = Tracer(ScriptedClock(range(100)))
    with instrument(tracer, PROBES):
        assert fake_layer.Child().own(3) == 7
        assert fake_layer.free(1) == 2
        assert fake_layer.Child().inherited() == "base"
    assert [s.name for s in tracer.spans] == [
        "dynamic.step",
        "selection.reselect",  # named by its parent
        "selection.other",
        "inherited",
    ]
    assert vars(fake_layer.Child)["own"] is own
    assert fake_layer.free is free
    assert "inherited" not in vars(fake_layer.Child)  # inherited again, not copied


def test_instrument_restores_after_the_run_raises(fake_layer):
    own, free = vars(fake_layer.Child)["own"], fake_layer.free
    with pytest.raises(RuntimeError):
        with instrument(Tracer(ScriptedClock(range(100))), PROBES):
            fake_layer.Child().own(1)
            raise RuntimeError("run failed")
    assert vars(fake_layer.Child)["own"] is own
    assert fake_layer.free is free
    assert "inherited" not in vars(fake_layer.Child)


def test_the_real_probes_leave_the_program_as_they_found_it():
    def attributes():
        out = []
        for probe in spans.PROBES:
            owner, attr = spans._resolve(probe.target)
            out.append(vars(owner)[attr])
        return out

    before = attributes()
    with instrument(Tracer()):
        during = attributes()
    assert all(a is not b for a, b in zip(before, during))
    assert all(a is b for a, b in zip(before, attributes()))


def test_observers_count_rows_and_epoch_report_fields():
    from repro.dynamic.reprovision import EpochReport

    tracer = Tracer(ScriptedClock([]))
    spans._observe_restrict(tracer, (None, [4, 5, 6]), None)
    report = EpochReport(
        epoch=1, cost=None, fresh_cost=None, pairs_added=5, pairs_removed=2,
        pairs_moved=7, vms_opened=1, vms_closed=0, rebuilt=True, seconds=0.0,
        fresh_solved=True,
    )
    spans._observe_step(tracer, (), report)
    metrics = spans.layer_metrics(tracer)
    assert metrics["core.restrict_subscribers.rows"] == (3, "count")
    assert metrics["dynamic.pairs_moved"] == (7, "count")
    assert metrics["dynamic.rebuilds_per_fresh_solve"] == (1.0, "ratio")
