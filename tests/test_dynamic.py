"""Tests for churn and incremental reprovisioning."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.bounds import subscriber_bound_terms
from repro.core import MCSSProblem, Placement, Workload, validate_placement
from repro.dynamic import (
    ChurnConfig,
    ChurnModel,
    IncrementalReprovisioner,
    InfeasibleEpochError,
    LoopChurnModel,
    LoopIncrementalReprovisioner,
    WorkloadDelta,
)
from repro.pricing import paper_plan
from repro.workloads import zipf_workload
from tests.conftest import make_unit_plan


@pytest.fixture
def workload():
    return zipf_workload(40, 120, mean_interest=5.0, seed=9)


@pytest.fixture
def problem(workload):
    return MCSSProblem(workload, 50, make_unit_plan(4.5e7))


class TestChurnModel:
    def test_delta_reports_changes(self, workload):
        model = ChurnModel(workload, ChurnConfig(0.05, 0.05, 0.1), seed=1)
        delta = model.step()
        assert delta.subscribed or delta.unsubscribed
        assert delta.rate_changed_topics
        assert delta.workload is model.workload

    def test_subscribers_never_emptied(self, workload):
        model = ChurnModel(
            workload, ChurnConfig(unsubscribe_fraction=0.9, subscribe_fraction=0.0,
                                  rate_drift_sigma=0.0), seed=2
        )
        for _ in range(3):
            delta = model.step()
            w = delta.workload
            assert all(w.interest(v).size >= 1 for v in range(w.num_subscribers))

    def test_rates_stay_positive(self, workload):
        model = ChurnModel(
            workload, ChurnConfig(0.0, 0.0, rate_drift_sigma=1.0), seed=3
        )
        for _ in range(3):
            assert model.step().workload.event_rates.min() >= 1

    def test_no_churn_is_identity(self, workload):
        model = ChurnModel(workload, ChurnConfig(0.0, 0.0, 0.0), seed=4)
        delta = model.step()
        assert not delta.subscribed
        assert not delta.unsubscribed
        assert not delta.rate_changed_topics
        assert delta.workload.num_pairs == workload.num_pairs

    def test_deterministic(self, workload):
        a = ChurnModel(workload, seed=7).step()
        b = ChurnModel(workload, seed=7).step()
        assert a.subscribed == b.subscribed
        assert a.unsubscribed == b.unsubscribed

    def test_touched_subscribers(self, workload):
        model = ChurnModel(workload, ChurnConfig(0.05, 0.05, 0.0), seed=5)
        delta = model.step()
        touched = delta.touched_subscribers
        for _t, v in delta.subscribed:
            assert v in touched

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            ChurnConfig(unsubscribe_fraction=1.0)
        with pytest.raises(ValueError):
            ChurnConfig(subscribe_fraction=-0.1)
        with pytest.raises(ValueError):
            ChurnConfig(rate_drift_sigma=-1)


class TestIncrementalReprovisioner:
    def test_initial_state_feasible(self, problem):
        reprov = IncrementalReprovisioner(problem)
        report = validate_placement(reprov.problem, reprov.placement())
        assert report.ok

    def test_epochs_stay_feasible(self, problem):
        reprov = IncrementalReprovisioner(problem)
        model = ChurnModel(problem.workload, ChurnConfig(0.03, 0.03, 0.05), seed=6)
        for _ in range(4):
            delta = model.step()
            epoch = reprov.step(delta)
            current = reprov.problem
            audit = validate_placement(current, reprov.placement())
            assert audit.ok, str(audit)
            assert epoch.cost.total_usd > 0

    def test_drift_bounded_by_rebuild(self, problem):
        reprov = IncrementalReprovisioner(problem, rebuild_threshold=1.10)
        model = ChurnModel(problem.workload, ChurnConfig(0.05, 0.05, 0.1), seed=8)
        for _ in range(5):
            epoch = reprov.step(model.step())
            assert epoch.drift <= 1.10 + 1e-6

    def test_plain_workload_accepted(self, problem):
        reprov = IncrementalReprovisioner(problem)
        model = ChurnModel(problem.workload, seed=10)
        new_workload = model.step().workload
        epoch = reprov.step(new_workload)
        assert validate_placement(reprov.problem, reprov.placement()).ok
        assert epoch.epoch == 1

    def test_incremental_moves_fewer_pairs_than_rebuild(self, problem):
        # The point of incrementality: per-epoch movement is a small
        # fraction of the workload.
        reprov = IncrementalReprovisioner(problem, rebuild_threshold=10.0)
        model = ChurnModel(problem.workload, ChurnConfig(0.02, 0.02, 0.0), seed=11)
        delta = model.step()
        epoch = reprov.step(delta)
        assert not epoch.rebuilt
        touched = epoch.pairs_added + epoch.pairs_removed + epoch.pairs_moved
        assert touched < problem.workload.num_pairs * 0.2

    def test_invalid_threshold(self, problem):
        with pytest.raises(ValueError):
            IncrementalReprovisioner(problem, rebuild_threshold=0.9)

    def test_invalid_cadence(self, problem):
        with pytest.raises(ValueError):
            IncrementalReprovisioner(problem, fresh_solve_every=0)

    def test_selection_matches_placement(self, problem):
        reprov = IncrementalReprovisioner(problem)
        model = ChurnModel(problem.workload, seed=12)
        reprov.step(model.step())
        assert reprov.selection() == reprov.placement().to_selection()


class TestInfeasibleEpoch:
    """A step whose workload no VM can hold raises and changes nothing."""

    @staticmethod
    def _assert_same_snapshot(got, want):
        assert got.keys() == want.keys()
        for key, value in want.items():
            if isinstance(value, np.ndarray):
                np.testing.assert_array_equal(got[key], value, err_msg=key)
            elif key == "workload":
                assert got[key] is value
            else:
                assert got[key] == value, key

    def test_rate_spike_past_half_a_vm(self):
        # Capacity 2.5x the hottest topic's bytes and sigma = 0.3 drift:
        # at epoch 11 a topic's single pair (its stream in and out)
        # outgrows a whole VM.
        workload = zipf_workload(400, 20000, seed=11)
        msg = workload.message_size_bytes
        capacity = 2.5 * float(workload.event_rates.max()) * msg
        plan = replace(paper_plan(), capacity_bytes_override=capacity)
        reprov = IncrementalReprovisioner(MCSSProblem(workload, 100.0, plan))
        model = ChurnModel(workload, ChurnConfig(rate_drift_sigma=0.3), seed=11)
        for _ in range(10):
            reprov.step(model.step())
        before = reprov.snapshot()
        twin = IncrementalReprovisioner.restore(before, plan)

        delta = model.step()
        rates = delta.workload.event_rates
        hottest = int(np.argmax(rates))
        with pytest.raises(InfeasibleEpochError) as caught:
            reprov.step(delta)
        err = caught.value
        assert isinstance(err, ValueError)
        assert (err.epoch, err.topic) == (11, hottest)
        assert err.needed_bytes == 2.0 * rates[hottest] * msg > capacity
        assert err.capacity_bytes == capacity
        assert "epoch 11" in str(err) and f"topic {hottest}" in str(err)
        self._assert_same_snapshot(reprov.snapshot(), before)

        # A feasible next workload steps from epoch 10, exactly as a
        # reprovisioner that never saw the failed epoch does.
        fits = np.minimum(rates, np.floor(capacity / (2.0 * msg)))
        feasible = Workload.from_csr(
            fits,
            delta.workload.interest_indptr,
            delta.workload.interest_topics,
            message_size_bytes=msg,
        )
        report = reprov.step(feasible)
        assert report.epoch == 11 and report == replace(
            twin.step(feasible), seconds=report.seconds
        )
        self._assert_same_snapshot(reprov.snapshot(), twin.snapshot())
        assert validate_placement(reprov.problem, reprov.placement()).ok

    def test_infeasible_first_epoch(self, problem):
        reprov = IncrementalReprovisioner(problem)
        before = reprov.snapshot()
        workload = problem.workload
        rates = workload.event_rates.copy()
        # One pair of topic 3 needs two VMs' worth of bytes.
        rates[3] = problem.capacity_bytes / workload.message_size_bytes
        spiked = Workload.from_csr(
            rates,
            workload.interest_indptr,
            workload.interest_topics,
            message_size_bytes=workload.message_size_bytes,
        )
        with pytest.raises(InfeasibleEpochError, match="epoch 1 .* topic 3"):
            reprov.step(spiked)
        self._assert_same_snapshot(reprov.snapshot(), before)
        assert reprov.step(workload).epoch == 1


class TestWorkloadDelta:
    def test_array_and_tuple_views_agree(self, workload):
        delta = ChurnModel(workload, ChurnConfig(0.1, 0.1, 0.1), seed=21).step()
        assert delta.subscribed == tuple(
            zip(delta.subscribed_topics.tolist(), delta.subscribed_subscribers.tolist())
        )
        assert delta.unsubscribed == tuple(
            zip(
                delta.unsubscribed_topics.tolist(),
                delta.unsubscribed_subscribers.tolist(),
            )
        )
        assert set(delta.rate_changed_topics) == set(delta.changed_topics.tolist())
        touched = delta.touched_array()
        assert np.array_equal(touched, np.unique(touched))
        assert delta.touched_subscribers == set(touched.tolist())

    def test_from_pairs_roundtrip(self, workload):
        delta = WorkloadDelta.from_pairs(
            workload, [(1, 2), (0, 3)], [(2, 4)], [0, 5]
        )
        assert delta.subscribed == ((1, 2), (0, 3))
        assert delta.unsubscribed == ((2, 4),)
        assert delta.rate_changed_topics == (0, 5)
        assert delta.touched_subscribers == {2, 3, 4}

    def test_caller_arrays_not_frozen(self, workload):
        # The delta freezes its own views; caller-owned buffers must
        # stay writable (no setflags side effects through asarray).
        topics = np.array([1], dtype=np.int64)
        subs = np.array([2], dtype=np.int64)
        empty = np.array([], dtype=np.int64)
        delta = WorkloadDelta(workload, topics, subs, empty.copy(), empty.copy(), empty.copy())
        assert not delta.subscribed_topics.flags.writeable
        topics[0] = 7  # must not raise
        assert delta.subscribed == ((1, 2),)

    def test_mismatched_arrays_rejected(self, workload):
        with pytest.raises(ValueError):
            WorkloadDelta(
                workload,
                np.array([1]), np.array([1, 2]),
                np.array([], dtype=np.int64), np.array([], dtype=np.int64),
                np.array([], dtype=np.int64),
            )

    def test_mismatched_unsubscribed_arrays_rejected(self, workload):
        empty = np.array([], dtype=np.int64)
        with pytest.raises(ValueError, match="unsubscribed pair arrays"):
            WorkloadDelta(
                workload, empty, empty, np.array([3]), np.array([3, 4]), empty
            )


class TestFreshSolveGating:
    """The per-epoch fresh solve is cadence/estimate gated by default."""

    def test_fresh_solve_skipped_in_steady_state(self, problem):
        reprov = IncrementalReprovisioner(problem, fresh_solve_every=8)
        model = ChurnModel(
            problem.workload, ChurnConfig(0.02, 0.02, 0.02), seed=31
        )
        reports = [reprov.step(model.step()) for _ in range(6)]
        skipped = [r for r in reports if not r.fresh_solved]
        assert skipped, "estimate gate never skipped a fresh solve"
        for r in skipped:
            assert r.fresh_cost is None
            assert r.fresh_estimate_usd > 0
            assert not r.rebuilt
        # Drift stays within the threshold whether measured or estimated.
        for r in reports:
            assert r.drift <= 1.15 + 1e-9

    def test_cadence_forces_fresh_solve(self, problem):
        reprov = IncrementalReprovisioner(problem, fresh_solve_every=2)
        model = ChurnModel(
            problem.workload, ChurnConfig(0.01, 0.01, 0.0), seed=32
        )
        reports = [reprov.step(model.step()) for _ in range(4)]
        # Every second epoch must carry a real fresh solve.
        assert reports[1].fresh_solved and reports[3].fresh_solved
        assert reports[1].fresh_cost is not None

    def test_cadence_one_solves_every_epoch(self, problem):
        reprov = IncrementalReprovisioner(problem, fresh_solve_every=1)
        model = ChurnModel(problem.workload, seed=33)
        for _ in range(3):
            report = reprov.step(model.step())
            assert report.fresh_solved and report.fresh_cost is not None


class TestCadenceAudit:
    """The fresh solve re-packs the held selection and audits it."""

    def test_unserved_subscriber_fails_the_fresh_solve(self, problem):
        # A snapshot that lost one subscriber's pairs, its used bytes
        # recomputed so that restore accepts it.  A step that does not
        # touch the subscriber keeps its loss; the fresh solve's audit
        # of the held selection must name it.
        snap = IncrementalReprovisioner(
            problem, rebuild_threshold=10.0, fresh_solve_every=1
        ).snapshot()
        p_v = snap["pair_subscribers"]
        victim = int(p_v[p_v.size // 2])
        keep = p_v != victim
        for key in ("pair_subscribers", "pair_topics", "pair_vms"):
            snap[key] = snap[key][keep]
        snap["used_bytes"] = Placement.from_pair_arrays(
            problem.workload,
            problem.capacity_bytes,
            snap["pair_vms"],
            snap["pair_topics"],
            snap["pair_subscribers"],
            num_vms=snap["num_vms"],
        ).used_bytes_array()
        restored = IncrementalReprovisioner.restore(snap, problem.plan)
        # The step subscribes another subscriber to a topic cheaper than
        # its interests, which moves that subscriber's Algorithm-5 term.
        w = problem.workload
        rates = w.event_rates
        u = next(
            v for v in range(w.num_subscribers)
            if v != victim and (rates < rates[w.interest(v)].min()).any()
        )
        t = int(np.flatnonzero(rates < rates[w.interest(u)].min())[0])
        grown = Workload(
            rates,
            [list(w.interest(v)) + ([t] if v == u else []) for v in range(w.num_subscribers)],
            message_size_bytes=w.message_size_bytes,
        )
        assert subscriber_bound_terms(grown, problem.tau)[u] != restored._terms[u]
        before = restored.snapshot()
        terms = restored._terms.copy()
        with pytest.raises(ValueError, match=rf"unsatisfied subscribers: {victim}$"):
            restored.step(WorkloadDelta.from_pairs(grown, [(t, u)], [], []))
        # The audit runs before the commit: the failed step changed no
        # member, so the reprovisioner is still at the restored epoch.
        assert restored.epoch == snap["epoch"]
        np.testing.assert_array_equal(restored._terms, terms)
        after = restored.snapshot()
        assert after.keys() == before.keys()
        for key, value in before.items():
            if isinstance(value, np.ndarray):
                np.testing.assert_array_equal(after[key], value, err_msg=key)
            else:
                assert after[key] == value, key

    def test_bare_workload_drops_departed_subscribers(self):
        # A bare workload that ends before the table's last subscriber:
        # their pairs leave, so the held selection stays GSP's and the
        # fresh re-pack costs what a from-scratch solve does.
        from repro.solver import MCSSSolver

        workload = zipf_workload(40, 120, mean_interest=6.0, seed=9)
        problem = MCSSProblem(workload, 50, make_unit_plan(4.5e7))
        reprov = IncrementalReprovisioner(
            problem, rebuild_threshold=10.0, fresh_solve_every=1
        )
        held = reprov.selection().num_pairs
        shrunk = workload.restrict_subscribers(range(100))
        report = reprov.step(shrunk)
        assert max(v for _t, v in reprov.selection()) < 100
        assert report.pairs_removed == held - reprov.selection().num_pairs
        assert report.fresh_cost == MCSSSolver.paper().solve(reprov.problem).cost
        assert validate_placement(reprov.problem, reprov.placement()).ok


class TestLoopReferees:
    """The churn-loop / reprovision-loop referees stay executable specs."""

    def test_loop_churn_smoke(self, workload):
        model = LoopChurnModel(workload, ChurnConfig(0.05, 0.05, 0.1), seed=41)
        delta = model.step()
        assert delta.subscribed or delta.unsubscribed
        assert delta.workload is model.workload

    def test_loop_reprovisioner_rejects_threshold_below_one(self, problem):
        with pytest.raises(ValueError, match="rebuild_threshold"):
            LoopIncrementalReprovisioner(problem, rebuild_threshold=0.9)

    def test_loop_reprovisioner_smoke(self, problem):
        reprov = LoopIncrementalReprovisioner(problem)
        model = ChurnModel(problem.workload, seed=42)
        report = reprov.step(model.step())
        assert report.fresh_solved and report.fresh_cost is not None
        assert validate_placement(reprov.problem, reprov.placement()).ok
        assert report.drift <= 1.15 + 1e-6
