"""The serving layer: queue reassembly, epoch state, SLO metrics, resume.

Five contracts, none of them timing-dependent (no timing-flaky
assertions):

* **Lossless ingestion** -- however an epoch's operation stream is
  fragmented, the sealed :class:`WorkloadDelta` is bit-identical to the
  original, and the queue's depth accounting tracks exactly.
* **Maintained epoch state** -- :func:`advance_orders` gives the
  ``np.lexsort`` order of the kept and added pairs on random inputs,
  and after every step of random churn the reprovisioner's group table,
  used bytes and running Algorithm-5 bound equal a recomputation from
  its snapshot.
* **Exact SLO metrics** -- a scripted fake clock drives the service's
  epoch seconds; p50/p95/p99 are exact nearest-rank quantiles, and
  every key and value of the metrics snapshot is pinned.
* **Kill-mid-serve resume** -- a checkpointed-and-killed serving run
  continues bit-exactly (placements, costs, report fields, serving
  counters, queued churn), mirroring ``TestCheckpointResumeEquivalence``.
* **The serving API as a state machine** -- ``ServingMachine`` mixes
  fragment offers, refused out-of-range fragments, plain, empty,
  raising and unnamed-re-pricing micro-epochs and checkpoint/resume,
  against its own model of the queue and the ``reprovision-loop``
  referee.

The end-to-end referee pin (randomized splits vs ``reprovision-loop``)
lives in ``tests/test_vectorized_equivalence.py``.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.bounds import lower_bound, subscriber_bound_terms, terms_lower_bound
from repro.core import MCSSProblem, Workload, validate_placement
from repro.dynamic import (
    ChurnConfig,
    ChurnModel,
    IncrementalReprovisioner,
    InfeasibleEpochError,
    LoopIncrementalReprovisioner,
    WorkloadDelta,
)
from repro.dynamic.reprovision import advance_orders
from repro.packing import diff_placements
from repro.pricing import paper_plan
from repro.selection import GreedySelectPairs
from repro.serving import (
    ChurnFragment,
    ChurnIngestQueue,
    MicroEpochService,
    ServingConfig,
    ServingMetrics,
    split_delta,
)
from repro.serving.checkpoint import save_checkpoint
from repro.serving.slo import COUNTERS, quantile
from repro.workloads import zipf_workload
from tests.test_vectorized_equivalence import (
    churn_problem,
    edgy_workload,
    stress_problem,
)

CHURN = ChurnConfig(
    unsubscribe_fraction=0.2, subscribe_fraction=0.2, rate_drift_sigma=0.1
)


class FakeClock:
    """A scripted monotonic clock: each call returns the next value."""

    def __init__(self, *values):
        self._values = list(values)
        self._last = 0.0

    def extend(self, *values):
        self._values.extend(values)

    def __call__(self):
        if self._values:
            self._last = self._values.pop(0)
        return self._last


def random_delta(seed):
    rng = np.random.default_rng(seed)
    workload = edgy_workload(rng)
    model = ChurnModel(workload, CHURN, seed=seed)
    return model.step(), rng


class TestQueueReassembly:
    """Fragment -> seal round-trips are lossless; depth accounting exact."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_splits_roundtrip(self, seed):
        delta, rng = random_delta(100 + seed)
        num_ops = int(
            delta.subscribed_topics.size + delta.unsubscribed_topics.size
        )
        cuts = rng.integers(0, num_ops + 1, size=int(rng.integers(0, 6)))
        fragments = split_delta(delta, cuts.tolist())
        assert len(fragments) == cuts.size + 1
        assert sum(f.num_ops for f in fragments) == num_ops

        queue = ChurnIngestQueue()
        depth = 0
        for fragment in fragments:
            queue.offer(fragment)
            depth += fragment.num_ops
            assert queue.depth == depth

        sealed = queue.seal_epoch(delta.workload, delta.changed_topics)
        for name in (
            "subscribed_topics",
            "subscribed_subscribers",
            "unsubscribed_topics",
            "unsubscribed_subscribers",
            "changed_topics",
        ):
            np.testing.assert_array_equal(
                getattr(sealed, name), getattr(delta, name), err_msg=name
            )
        assert sealed.workload is delta.workload
        assert queue.depth == 0

    def test_empty_seal_is_a_quiet_epoch(self, tiny_workload):
        queue = ChurnIngestQueue()
        sealed = queue.seal_epoch(tiny_workload, np.empty(0, dtype=np.int64))
        assert sealed.subscribed_topics.size == 0
        assert sealed.unsubscribed_topics.size == 0

    def test_unsealed_batch_leads_the_next_seal(self):
        # Two epochs of one churn model, so both batches' ids are ids of
        # the second workload.
        rng = np.random.default_rng(5)
        model = ChurnModel(edgy_workload(rng), CHURN, seed=5)
        first, second = model.step(), model.step()
        queue = ChurnIngestQueue()
        for fragment in split_delta(first, [3]):
            queue.offer(fragment)
        sealed = queue.seal_epoch(first.workload, first.changed_topics)
        queue.offer(split_delta(second)[0])
        queue.unseal(sealed)
        assert queue.depth == (
            sum(f.num_ops for f in split_delta(first))
            + sum(f.num_ops for f in split_delta(second))
        )
        merged = queue.seal_epoch(second.workload, second.changed_topics)
        for name in (
            "subscribed_topics",
            "subscribed_subscribers",
            "unsubscribed_topics",
            "unsubscribed_subscribers",
        ):
            np.testing.assert_array_equal(
                getattr(merged, name),
                np.concatenate((getattr(first, name), getattr(second, name))),
                err_msg=name,
            )
        assert merged.workload is second.workload
        assert queue.depth == 0

    def test_out_of_range_cuts_rejected(self):
        delta, _rng = random_delta(7)
        num_ops = int(
            delta.subscribed_topics.size + delta.unsubscribed_topics.size
        )
        with pytest.raises(ValueError, match="cuts"):
            split_delta(delta, [num_ops + 1])
        with pytest.raises(ValueError, match="cuts"):
            split_delta(delta, [-1])

    def test_fragment_validates_parallel_arrays(self):
        with pytest.raises(ValueError, match="parallel"):
            ChurnFragment(
                np.array([1]), np.array([1, 2]), np.array([]), np.array([])
            )
        with pytest.raises(TypeError):
            ChurnIngestQueue().offer("not a fragment")

    def test_fragment_validates_subscribed_arrays(self):
        with pytest.raises(ValueError, match="subscribed pair arrays"):
            ChurnFragment(
                np.array([]), np.array([]), np.array([4, 5]), np.array([1])
            )

    @pytest.mark.parametrize("field", [f.name for f in fields(ChurnFragment)])
    def test_fragment_rejects_negative_ids(self, field):
        arrays = {f.name: np.array([2]) for f in fields(ChurnFragment)}
        arrays[field] = np.array([-1])
        with pytest.raises(ValueError, match=f"^{field} must hold non-negative"):
            ChurnFragment(**arrays)


class TestEpochStateMaintenance:
    """The pair table, group table and bound a step maintains in place."""

    @staticmethod
    def _random_tables(rng, big=False):
        scale = 2**21 if big else 40
        n_old = int(rng.integers(0, 30))
        old_v = rng.integers(0, scale, size=n_old)
        old_t = rng.integers(0, scale, size=n_old)
        old_vm = rng.integers(0, scale, size=n_old)
        # Unique (v, t) keys in canonical order, like the live table.
        keys = old_v * (4 * scale) + old_t
        _, idx = np.unique(keys, return_index=True)
        old_v, old_t, old_vm = old_v[idx], old_t[idx], old_vm[idx]
        order = np.lexsort((old_t, old_v))
        old_v, old_t, old_vm = old_v[order], old_t[order], old_vm[order]
        keys = old_v * (4 * scale) + old_t  # now sorted and unique

        keep = rng.random(old_v.size) < 0.7
        n_add = int(rng.integers(0, 20))
        add_v = rng.integers(0, scale, size=n_add)
        add_t = rng.integers(0, scale, size=n_add)
        add_vm = rng.integers(0, scale, size=n_add)
        # Added keys must not collide with kept keys (or each other);
        # a dropped row's key may come back, as a moved pair does.
        moved = np.flatnonzero(~keep)[: n_add // 3]
        add_v[: moved.size] = old_v[moved]
        add_t[: moved.size] = old_t[moved]
        add_keys = add_v * (4 * scale) + add_t
        _, first = np.unique(add_keys, return_index=True)
        fresh = np.zeros(add_keys.size, dtype=bool)
        fresh[first] = True
        fresh &= ~np.isin(add_keys, keys[keep])
        add_v, add_t, add_vm = add_v[fresh], add_t[fresh], add_vm[fresh]
        return (old_v, old_t, old_vm), keep, (add_v, add_t, add_vm)

    @pytest.mark.parametrize("seed", range(24))
    @pytest.mark.parametrize("big", [False, True])
    def test_advance_orders_matches_lexsort(self, seed, big):
        rng = np.random.default_rng(300 + seed)
        (old_v, old_t, old_vm), keep, (add_v, add_t, add_vm) = (
            self._random_tables(rng, big=big)
        )
        p_v, p_t, p_vm = advance_orders(
            old_v, old_t, old_vm, np.flatnonzero(~keep), add_v, add_t, add_vm
        )
        ref_v = np.concatenate([old_v[keep], add_v])
        ref_t = np.concatenate([old_t[keep], add_t])
        ref_vm = np.concatenate([old_vm[keep], add_vm])
        ref_order = np.lexsort((ref_t, ref_v))
        np.testing.assert_array_equal(p_v, ref_v[ref_order])
        np.testing.assert_array_equal(p_t, ref_t[ref_order])
        np.testing.assert_array_equal(p_vm, ref_vm[ref_order])

    def test_ids_past_any_composite_key(self):
        # (v * topics + t) keys would overflow int64 at these ids; the
        # merge searches each column on its own, so nothing overflows.
        huge = np.array([2**62], dtype=np.int64)
        none = np.empty(0, dtype=np.int64)
        p_v, p_t, p_vm = advance_orders(
            huge + 1, huge, huge, none, huge, huge + 1, huge
        )
        assert p_v.tolist() == [2**62, 2**62 + 1]
        assert p_t.tolist() == [2**62 + 1, 2**62]

    def test_empty_everything(self):
        e = np.empty(0, dtype=np.int64)
        p_v, p_t, p_vm = advance_orders(e, e, e, e, e, e, e)
        assert p_v.size == p_t.size == p_vm.size == 0

    @staticmethod
    def _assert_matches_snapshot(reprov, report=None):
        """Indexes, used bytes and bound == a recomputation from the snapshot."""
        snap = reprov.snapshot()
        workload = reprov.problem.workload
        p_v = snap["pair_subscribers"]
        p_t = snap["pair_topics"]
        p_vm = snap["pair_vms"]
        num_vms = snap["num_vms"]
        np.testing.assert_array_equal(np.lexsort((p_t, p_v)), np.arange(p_v.size))
        # Each subscriber's rows start at its offset.
        np.testing.assert_array_equal(
            reprov._first,
            np.searchsorted(p_v, np.arange(workload.num_subscribers + 1)),
        )
        # Every VM holds a pair: emptied VMs were closed and renumbered.
        assert np.array_equal(np.unique(p_vm), np.arange(num_vms))

        big_l = workload.num_topics
        gkey, counts = np.unique(p_vm * big_l + p_t, return_counts=True)
        np.testing.assert_array_equal(reprov._g_vm, gkey // big_l)
        np.testing.assert_array_equal(reprov._g_t, gkey % big_l)
        np.testing.assert_array_equal(reprov._g_cnt, counts)
        used = np.bincount(
            gkey // big_l,
            weights=workload.event_rates[gkey % big_l] * (counts + 1),
            minlength=num_vms,
        ) * workload.message_size_bytes
        np.testing.assert_array_equal(snap["used_bytes"], used)
        assert (used <= reprov.problem.capacity_bytes + 1e-6).all()
        if report is not None:
            # The epoch's cost came from the bytes the step kept up.
            assert report.cost.total_bytes == float(used.sum())

        problem = reprov.problem
        np.testing.assert_array_equal(
            reprov._terms, subscriber_bound_terms(workload, problem.tau)
        )
        running = terms_lower_bound(problem, reprov._terms).total_usd
        assert running == lower_bound(problem).total_usd

    @staticmethod
    def _emptied_delta(reprov, leaving):
        """The subscribers ``leaving`` drop all their interests."""
        workload = reprov.problem.workload
        indptr = workload.interest_indptr
        gone = np.zeros(workload.num_subscribers, dtype=bool)
        gone[leaving] = True
        kept = ~gone[workload.pair_subscribers()]
        sizes = np.where(gone, 0, np.diff(indptr))
        evolved = Workload.from_csr(
            workload.event_rates,
            np.concatenate([[0], np.cumsum(sizes)]),
            workload.interest_topics[kept],
            message_size_bytes=workload.message_size_bytes,
        )
        return WorkloadDelta(
            evolved,
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            workload.interest_topics[~kept],
            workload.pair_subscribers()[~kept],
            np.empty(0, dtype=np.int64),
        )

    @pytest.mark.parametrize("sigma", [0.0, 0.2])
    @pytest.mark.parametrize("fresh_every", [1, 3])
    @pytest.mark.parametrize("seed", range(3))
    def test_live_state_matches_recomputation(self, seed, fresh_every, sigma):
        # Random churn plus an epoch that empties a VM and one where the
        # last subscribers leave (their interest rows emptied), at both
        # fresh-solve cadences; the state is checked after every step.
        problem = stress_problem(300)
        reprov = IncrementalReprovisioner(
            problem, rebuild_threshold=1.05, fresh_solve_every=fresh_every
        )
        self._assert_matches_snapshot(reprov)
        rng = np.random.default_rng(500 + seed)
        moved = closed = 0
        for epoch in range(1, 8):
            if epoch == 3:
                snap = reprov.snapshot()
                on_vm0 = snap["pair_subscribers"][snap["pair_vms"] == 0]
                delta = self._emptied_delta(reprov, on_vm0)
            elif epoch == 5:
                n = reprov.problem.workload.num_subscribers
                count = int(rng.integers(1, 20))
                delta = self._emptied_delta(reprov, np.arange(n - count, n))
            else:
                model = ChurnModel(
                    reprov.problem.workload,
                    ChurnConfig(0.05, 0.05, sigma),
                    seed=int(rng.integers(2**31)),
                )
                delta = model.step()
            report = reprov.step(delta)
            assert report.epoch == epoch
            self._assert_matches_snapshot(reprov, report)
            assert validate_placement(reprov.problem, reprov.placement()).ok
            moved += report.pairs_moved
            closed += report.vms_closed
        assert closed > 0
        assert moved > 0 if sigma else moved == 0


def epoch_report(epoch, *, rebuilt=False):
    """A hand-made :class:`EpochReport` for feeding :class:`ServingMetrics`."""
    from repro.core import SolutionCost
    from repro.dynamic import EpochReport

    cost = SolutionCost(num_vms=3, total_bytes=1e6, vm_usd=30.0, bandwidth_usd=3.0)
    return EpochReport(
        epoch=epoch,
        cost=cost,
        fresh_cost=cost,
        pairs_added=5,
        pairs_removed=2,
        pairs_moved=1,
        vms_opened=0,
        vms_closed=0,
        rebuilt=rebuilt,
        seconds=0.0,
    )


def record(metrics, seconds):
    """Record one micro-epoch per sample, in order."""
    for i, s in enumerate(seconds):
        metrics.record_epoch(
            epoch_report(i + 1), ops=10, batch_ops=7, seconds=s, num_vms=3
        )


class TestServingMetrics:
    """Exact nearest-rank quantiles over the recorded epoch seconds."""

    def test_exact_quantiles_five_samples(self):
        metrics = ServingMetrics()
        record(metrics, [5.0, 1.0, 4.0, 2.0, 3.0])
        samples = metrics.samples
        assert samples == [5.0, 1.0, 4.0, 2.0, 3.0]  # arrival order
        assert quantile(samples, 0.50) == 3.0  # nearest-rank: ceil(0.5*5) = 3rd
        assert quantile(samples, 0.0) == 1.0
        assert quantile(samples, 1.0) == 5.0
        snap = metrics.snapshot()
        assert snap["serve.epoch_latency.p50_s"] == 3.0
        assert snap["serve.epoch_latency.count"] == 5.0
        assert snap["serve.epoch_latency.max_s"] == 5.0
        assert snap["serve.epoch_latency.mean_s"] == pytest.approx(3.0)
        assert metrics.busy_seconds == pytest.approx(15.0)

    def test_exact_percentiles_1_to_100(self):
        metrics = ServingMetrics()
        record(metrics, [float(s) for s in range(100, 0, -1)])
        snap = metrics.snapshot()
        assert snap["serve.epoch_latency.p50_s"] == 50.0
        assert snap["serve.epoch_latency.p95_s"] == 95.0
        assert snap["serve.epoch_latency.p99_s"] == 99.0
        assert quantile(metrics.samples, 0.01) == 1.0

    def test_rejects_negative_seconds_and_bad_quantile(self):
        metrics = ServingMetrics()
        with pytest.raises(ValueError, match="non-negative"):
            record(metrics, [-1.0])
        assert metrics.samples == []  # nothing recorded
        assert metrics.counters == dict.fromkeys(COUNTERS, 0)
        with pytest.raises(ValueError, match="quantile"):
            quantile([1.0], 1.5)
        with pytest.raises(ValueError, match="quantile"):
            quantile([], -0.1)
        assert quantile([], 0.5) == 0.0

    def test_serving_metrics_exact_slo_view(self):
        metrics = ServingMetrics()
        seconds = [0.4, 0.1, 0.2, 0.3]
        for i, s in enumerate(seconds):
            metrics.record_epoch(
                epoch_report(i + 1, rebuilt=(i == 3)),
                ops=10,
                batch_ops=7 + i,
                seconds=s,
                num_vms=3,
            )
        snap = metrics.snapshot()
        assert snap["serve.ops"] == 40.0
        assert snap["serve.moves"] == 4.0
        assert snap["serve.pairs_added"] == 20.0
        assert snap["serve.rebuilds"] == 1.0
        assert snap["serve.batch_ops"] == 10.0  # last seal's batch size
        assert snap["serve.epoch_latency.p50_s"] == 0.2
        assert snap["serve.epoch_latency.p99_s"] == 0.4
        assert snap["serve.epoch_latency.max_s"] == 0.4
        assert snap["serve.ops_per_s"] == pytest.approx(40.0)  # 40 ops / 1.0 s
        assert snap["serve.moves_per_s"] == pytest.approx(4.0)
        assert metrics.check_slo(0.4) is True
        assert metrics.check_slo(0.39) is False
        with pytest.raises(ValueError):
            metrics.check_slo(0.0)


class TestMicroEpochService:
    """Service mechanics: deterministic latency, cadences, config checks."""

    @staticmethod
    def _problem(seed):
        rng = np.random.default_rng(seed)
        workload = edgy_workload(rng)
        return workload, churn_problem(workload, rng)

    def test_fake_clock_drives_epoch_latency(self):
        workload, problem = self._problem(41)  # 12 and 14 churn ops
        clock = FakeClock()
        service = MicroEpochService(problem, clock=clock)
        model = ChurnModel(workload, CHURN, seed=1)
        for start, stop in [(100.0, 100.5), (200.0, 200.25)]:
            delta = model.step()
            batch = int(
                delta.subscribed_topics.size + delta.unsubscribed_topics.size
            )
            assert batch > 1  # two non-empty fragments
            service.ingest_delta(delta, cuts=[batch // 2])
            assert service.queue_depth == batch
            clock.extend(start, stop)
            micro = service.run_micro_epoch(delta.workload, delta.changed_topics)
            assert micro.seconds == pytest.approx(stop - start)
            # The seal drains the whole buffer: the batch is what was
            # queued, and no backlog is left behind it.
            assert micro.batch_ops == batch
            assert service.queue_depth == 0
        snap = service.metrics_snapshot()
        assert snap["serve.batch_ops"] == float(batch)
        assert snap["serve.epoch_latency.p99_s"] == pytest.approx(0.5)
        assert snap["serve.epoch_latency.p50_s"] == pytest.approx(0.25)
        assert service.micro_epochs == 2

    @staticmethod
    def _raise_spiked_epoch():
        """The lost-batch probe up to its raised micro-epoch.

        Returns the service, the churn delta, its hottest topic and the
        plan.
        """
        workload = zipf_workload(400, 20000, seed=11)
        msg = workload.message_size_bytes
        capacity = 2.5 * float(workload.event_rates.max()) * msg
        plan = replace(paper_plan(), capacity_bytes_override=capacity)
        service = MicroEpochService(
            MCSSProblem(workload, 100.0, plan),
            ServingConfig(fresh_solve_every=1000),
        )
        delta = ChurnModel(workload, ChurnConfig(0.02, 0.02, 0.0), seed=3).step()
        assert (delta.subscribed_topics.size, delta.unsubscribed_topics.size) == (
            1327,
            1755,
        )
        hot = int(np.argmax(delta.workload.event_rates))
        rates = np.array(delta.workload.event_rates)
        rates[hot] = capacity / msg
        spiked = Workload.from_csr(
            rates,
            delta.workload.interest_indptr,
            delta.workload.interest_topics,
            message_size_bytes=msg,
        )
        service.ingest_delta(delta)
        with pytest.raises(InfeasibleEpochError):
            service.run_micro_epoch(spiked, [hot])
        return service, delta, hot, plan

    @staticmethod
    def _assert_next_epoch_carries_the_batch(service, delta, hot, plan):
        micro = service.run_micro_epoch(delta.workload, [hot])
        assert (micro.report.epoch, micro.batch_ops) == (1, 3082)
        assert service.queue_depth == 0
        problem = MCSSProblem(delta.workload, 100.0, plan)
        assert service.reprovisioner.selection() == GreedySelectPairs().select(
            problem
        )
        assert validate_placement(problem, service.placement()).ok

    def test_raised_micro_epoch_keeps_its_batch(self):
        # A sealed batch whose step raises stays queued: the next
        # micro-epoch re-selects its subscribers, and the held
        # selection ends equal to GSP's.  Losing it left 428 stray and
        # 365 missing pairs and 156 unsatisfied subscribers here.
        service, delta, hot, plan = self._raise_spiked_epoch()
        assert service.queue_depth == 3082
        assert service.micro_epochs == 0
        self._assert_next_epoch_carries_the_batch(service, delta, hot, plan)

    def test_raised_batch_survives_checkpoint_and_resume(self, tmp_path):
        # The handed-back batch is state: a checkpoint saves it and a
        # resume queues it again.  Without it the resumed queue read 0
        # and the next micro-epoch left 156 subscribers unsatisfied.
        service, delta, hot, plan = self._raise_spiked_epoch()
        path = service.checkpoint(str(tmp_path / "raised.npz"))
        resumed, _ = MicroEpochService.resume(path, plan, service.config)
        assert resumed.queue_depth == 3082
        assert resumed.micro_epochs == 0
        self._assert_next_epoch_carries_the_batch(resumed, delta, hot, plan)

    def test_metrics_snapshot_pins_every_key_and_value(self):
        workload, problem = self._problem(41)
        clock = FakeClock()
        service = MicroEpochService(
            problem, ServingConfig(fresh_solve_every=2), clock=clock
        )
        model = ChurnModel(workload, CHURN, seed=1)
        served = []
        for start, stop in [(10.0, 10.5), (20.0, 20.25), (30.0, 31.0)]:
            delta = model.step()
            service.ingest_delta(delta)
            clock.extend(start, stop)
            served.append(
                service.run_micro_epoch(delta.workload, delta.changed_topics)
            )
        snap = service.metrics_snapshot()

        def total(field):
            return float(sum(getattr(m.report, field) for m in served))

        ops = float(sum(m.ops for m in served))
        last = served[-1]
        busy = 1.75  # 0.5 + 0.25 + 1.0 s, exact in binary
        expected = {
            "serve.micro_epochs": 3.0,
            "serve.ops": ops,
            "serve.moves": total("pairs_moved"),
            "serve.pairs_added": total("pairs_added"),
            "serve.pairs_removed": total("pairs_removed"),
            "serve.rebuilds": total("rebuilt"),
            "serve.batch_ops": float(last.batch_ops),
            "serve.cost_usd": last.report.cost.total_usd,
            "serve.drift": last.report.drift,
            "serve.num_vms": float(service.reprovisioner.num_vms),
            "serve.epoch_latency.p50_s": 0.5,
            "serve.epoch_latency.p95_s": 1.0,
            "serve.epoch_latency.p99_s": 1.0,
            "serve.epoch_latency.mean_s": busy / 3,
            "serve.epoch_latency.max_s": 1.0,
            "serve.epoch_latency.count": 3.0,
            "serve.ops_per_s": ops / busy,
            "serve.moves_per_s": total("pairs_moved") / busy,
        }
        assert set(snap) == set(expected)
        assert snap == expected

    def test_queue_depth_is_the_backlog_between_offer_and_seal(self):
        workload, problem = self._problem(41)  # 12 and 14 churn ops
        service = MicroEpochService(problem, clock=FakeClock())
        model = ChurnModel(workload, CHURN, seed=1)
        assert service.queue_depth == 0
        for _ in range(2):
            delta = model.step()
            depth = 0
            for fragment in split_delta(delta, [1, 3]):
                service.offer(fragment)
                depth += fragment.num_ops
                assert service.queue_depth == depth
            micro = service.run_micro_epoch(delta.workload, delta.changed_topics)
            assert micro.batch_ops == depth
            assert service.queue_depth == 0

    def test_config_validation(self):
        with pytest.raises(ValueError, match="checkpoint_path"):
            ServingConfig(checkpoint_every=2)
        with pytest.raises(ValueError, match="checkpoint_every"):
            ServingConfig(checkpoint_every=-1)

    def test_negative_slo_bound_rejected(self):
        # A negative bound used to switch the SLO gate off silently;
        # 0 is the documented "no SLO" value.
        with pytest.raises(ValueError, match="slo_p99_seconds"):
            ServingConfig(slo_p99_seconds=-1.0)
        assert ServingConfig(slo_p99_seconds=0.0).slo_p99_seconds == 0.0

    def test_checkpoint_needs_a_path(self):
        _, problem = self._problem(44)
        with pytest.raises(ValueError, match="no checkpoint path"):
            MicroEpochService(problem).checkpoint()

    @staticmethod
    def _small_service():
        """``zipf_workload(50, 2000, seed=11)``, capacity 2.5x its largest pair."""
        workload = zipf_workload(50, 2000, seed=11)
        msg = workload.message_size_bytes
        capacity = 2.5 * float(workload.event_rates.max()) * msg
        plan = replace(paper_plan(), capacity_bytes_override=capacity)
        delta = ChurnModel(workload, ChurnConfig(0.01, 0.01, 0.0), seed=3).step()
        return MicroEpochService(MCSSProblem(workload, 100.0, plan)), delta

    def test_negative_ids_rejected_before_the_queue(self):
        # A queued poison fragment made every later micro-epoch raise
        # NumPy's "repeats may not contain negative values" and hand
        # its batch back, so the backlog grew and the epoch stayed at 0.
        service, delta = self._small_service()
        with pytest.raises(ValueError, match="subscribed_subscribers"):
            service.offer(ChurnFragment([], [], [3], [-1]))
        assert service.queue_depth == 0
        service.ingest_delta(delta)
        micro = service.run_micro_epoch(delta.workload, delta.changed_topics)
        assert (micro.report.epoch, service.queue_depth) == (1, 0)

    @pytest.mark.parametrize("bad", [50, -1])
    def test_out_of_range_changed_topic_rejected_before_the_seal(self, bad):
        # Topic 50 (one past the last) raised IndexError after the seal
        # and lost the batch; -1 silently re-priced the last topic.
        service, delta = self._small_service()
        service.ingest_delta(delta)
        depth = service.queue_depth
        assert depth > 0
        with pytest.raises(ValueError, match=r"changed_topics .* \[0, 50\)"):
            service.run_micro_epoch(delta.workload, [bad])
        assert (service.queue_depth, service.micro_epochs) == (depth, 0)
        micro = service.run_micro_epoch(delta.workload, delta.changed_topics)
        assert (micro.report.epoch, micro.batch_ops) == (1, depth)

    @pytest.mark.parametrize(
        "arrays, field",
        [
            # One id past the end, field by field (50 topics, 2000
            # subscribers).
            (([50], [0], [], []), "unsubscribed_topics"),
            (([0], [2000], [], []), "unsubscribed_subscribers"),
            (([], [], [50], [0]), "subscribed_topics"),
            (([], [], [0], [2000]), "subscribed_subscribers"),
            # Each of these stepped an epoch, counted one op in serve.ops
            # and changed nothing; the fractional ids were read as topic
            # 1 and subscriber 2.
            (([], [], [10**6], [0]), "subscribed_topics"),
            (([], [], [3], [10**6]), "subscribed_subscribers"),
            (([10**6], [5], [], []), "unsubscribed_topics"),
            (([], [], [1.7], [2.9]), "subscribed_topics"),
        ],
    )
    def test_offer_refuses_ids_the_run_lacks(self, arrays, field):
        service, delta = self._small_service()
        with pytest.raises(ValueError, match=f"^{field} must hold"):
            service.offer(ChurnFragment(*arrays))
        assert (service.queue_depth, service.micro_epochs) == (0, 0)
        service.ingest_delta(delta)
        micro = service.run_micro_epoch(delta.workload, delta.changed_topics)
        assert (micro.report.epoch, micro.batch_ops) == (1, 122)

    @pytest.mark.parametrize(
        "extra, error",
        [
            # An op names topic 49: the seal refuses it and drains nothing.
            (-1, r"^subscribed_topics must hold integer ids in \[0, 49\)"),
            # The ids fit: the step refuses the count and the seal's
            # batch goes back to the queue.
            (1, "has 2000 subscribers and 51 topics, but the run has 2000 and 50"),
        ],
        ids=["a-topic-short", "a-topic-more"],
    )
    def test_workload_with_other_topics_keeps_the_batch(self, extra, error):
        # A topic short, the step raised a bare IndexError after the
        # seal, which run_micro_epoch did not hand back: the 122 ops
        # were lost.
        service, delta = self._small_service()
        service.ingest_delta(delta)
        assert service.queue_depth == 122
        w = delta.workload
        topics = w.num_topics + extra
        kept = w.interest_topics < topics
        sizes = np.bincount(w.pair_subscribers()[kept], minlength=w.num_subscribers)
        other = Workload.from_csr(
            np.resize(w.event_rates, topics),
            np.concatenate([[0], np.cumsum(sizes)]),
            w.interest_topics[kept],
            message_size_bytes=w.message_size_bytes,
        )
        with pytest.raises(ValueError, match=error):
            service.run_micro_epoch(other, [])
        assert (service.queue_depth, service.micro_epochs) == (122, 0)
        micro = service.run_micro_epoch(delta.workload, delta.changed_topics)
        assert (micro.report.epoch, micro.batch_ops, service.queue_depth) == (1, 122, 0)

    def test_seals_that_name_no_changed_topics_stay_gsp(self):
        # Sealing drifting deltas with changed_topics=[] left 30, 8, 34,
        # 3, 22, 45 and 94 subscribers unsatisfied over micro-epochs 1-7;
        # from micro-epoch 8 every call raised at the cadence audit and
        # the handed-back backlog grew.  The step re-prices from the
        # rates it holds.
        workload = zipf_workload(100, 3000, mean_interest=8.0, seed=5)
        rates = workload.event_rates
        msg = workload.message_size_bytes
        capacity = max(2.5 * float(rates.max()), float(rates.sum()) / 8.0) * msg
        plan = replace(paper_plan(), capacity_bytes_override=capacity)
        service = MicroEpochService(MCSSProblem(workload, 100.0, plan))
        model = ChurnModel(workload, ChurnConfig(0.01, 0.01, 0.05), seed=3)
        audits = 0
        for epoch in range(1, 15):
            delta = model.step()
            service.ingest_delta(delta)
            micro = service.run_micro_epoch(delta.workload, [])
            assert (micro.report.epoch, service.queue_depth) == (epoch, 0)
            audits += micro.report.fresh_solved
            problem = MCSSProblem(delta.workload, 100.0, plan)
            assert service.reprovisioner.selection() == GreedySelectPairs().select(
                problem
            )
            assert validate_placement(problem, service.placement()).ok
        assert audits >= 1  # the cadence epoch audited the held selection


class TestServingCheckpointResume:
    """Kill-mid-serve == never-killed, bit for bit (+ carried counters)."""

    @staticmethod
    def _assert_same_report(got, want):
        for field in (
            "epoch",
            "pairs_added",
            "pairs_removed",
            "pairs_moved",
            "vms_opened",
            "vms_closed",
            "rebuilt",
        ):
            assert getattr(got.report, field) == getattr(want.report, field), field
        assert got.report.cost.num_vms == want.report.cost.num_vms
        assert got.report.cost.total_usd == want.report.cost.total_usd
        assert got.ops == want.ops

    @pytest.mark.parametrize("seed", range(6))
    def test_kill_mid_serve_resumes_bit_exact(self, seed, tmp_path):
        rng = np.random.default_rng(17_000 + seed)
        workload = edgy_workload(rng)
        problem = churn_problem(workload, rng)
        path = str(tmp_path / "serve.npz")
        config = ServingConfig(
            fresh_solve_every=int(rng.choice([1, 3])),
            checkpoint_path=path,
            checkpoint_every=3,
        )

        ref = MicroEpochService(problem, config)
        ref_reports = ref.serve(ChurnModel(workload, CHURN, seed=seed), 6)

        service = MicroEpochService(problem, config)
        reports = service.serve(ChurnModel(workload, CHURN, seed=seed), 3)
        del service  # the "kill": nothing survives but the checkpoint

        resumed, churn_model = MicroEpochService.resume(
            path, problem.plan, config
        )
        assert churn_model is not None
        assert resumed.micro_epochs == 3
        # Carried counters: ops so far, not just since the resume.
        assert resumed.metrics.counters["ops"] == sum(r.ops for r in reports)
        reports += resumed.serve(churn_model, 3)

        assert len(reports) == len(ref_reports) == 6
        for got, want in zip(reports, ref_reports):
            self._assert_same_report(got, want)
        assert diff_placements(resumed.placement(), ref.placement()) is None
        assert (
            resumed.reprovisioner.selection() == ref.reprovisioner.selection()
        )
        assert resumed.metrics.counters["ops"] == ref.metrics.counters["ops"]

    @pytest.mark.parametrize("name", COUNTERS)
    def test_serving_state_round_trips_each_counter(self, name, tmp_path):
        rng = np.random.default_rng(97)
        workload = edgy_workload(rng)
        problem = churn_problem(workload, rng)
        service = MicroEpochService(problem)
        service.serve(ChurnModel(workload, CHURN, seed=2), 2)
        service.metrics.counters[name] += 1000  # a value no run reaches
        state = dict(service.metrics.counters)
        path = service.checkpoint(str(tmp_path / "state.npz"))
        resumed, _ = MicroEpochService.resume(path, problem.plan)
        assert resumed.metrics.counters == state

    @pytest.mark.parametrize("seed", range(3))
    def test_runner_resume_matches_uninterrupted(self, seed, tmp_path):
        from repro.experiments import run_serving_experiment

        rng = np.random.default_rng(18_000 + seed)
        workload = edgy_workload(rng)
        problem = churn_problem(workload, rng)
        path = str(tmp_path / "serve-run.npz")
        config = ServingConfig(checkpoint_path=path, checkpoint_every=2)

        ref = run_serving_experiment(
            workload, problem.plan, problem.tau, 6, seed=seed,
            churn_config=CHURN,
        )
        first = run_serving_experiment(
            workload, problem.plan, problem.tau, 4, seed=seed,
            churn_config=CHURN, serving_config=config,
        )
        assert first.checkpoints_written == 2
        resumed = run_serving_experiment(
            workload, problem.plan, problem.tau, 6, seed=seed,
            churn_config=CHURN, serving_config=config, resume=True,
        )
        assert resumed.resumed_from_micro_epoch == 4
        assert len(resumed.reports) == 2

        reports = first.reports + resumed.reports
        for got, want in zip(reports, ref.reports):
            self._assert_same_report(got, want)
        assert diff_placements(
            resumed.service.placement(), ref.service.placement()
        ) is None
        assert resumed.metrics["serve.ops"] == ref.metrics["serve.ops"]

    def test_bare_checkpoint_resumes_with_zero_counters(self, tmp_path):
        # A checkpoint of a bare reprovisioner and churn stream resumes
        # at the reprovisioner's epoch, with zero serving counters.
        rng = np.random.default_rng(99)
        workload = edgy_workload(rng)
        problem = churn_problem(workload, rng)
        model = ChurnModel(workload, CHURN, seed=0)
        reprov = IncrementalReprovisioner(problem)
        reprov.step(model.step())
        path = str(tmp_path / "old.npz")
        save_checkpoint(path, reprov, model)

        service, churn_model = MicroEpochService.resume(path, problem.plan)
        assert churn_model is not None
        assert service.micro_epochs == reprov.epoch == 1
        assert service.metrics_snapshot()["serve.micro_epochs"] == 1
        assert service.metrics.counters == dict.fromkeys(COUNTERS, 0)
        assert service.queue_depth == 0
        service.serve(churn_model, 1)
        assert service.micro_epochs == 2

    @pytest.mark.parametrize("seed", range(3))
    def test_runner_resumes_a_checkpoint_without_serving_counters(
        self, seed, tmp_path
    ):
        # A bare reprovisioner + churn-stream checkpoint, four epochs in,
        # continues at micro-epoch 5 exactly as the uninterrupted run.
        from repro.experiments import run_serving_experiment

        rng = np.random.default_rng(19_000 + seed)
        workload = edgy_workload(rng)
        problem = churn_problem(workload, rng)
        path = str(tmp_path / "bare.npz")
        model = ChurnModel(workload, CHURN, seed=seed)
        reprov = IncrementalReprovisioner(problem)
        for _ in range(4):
            reprov.step(model.step())
        save_checkpoint(path, reprov, model)

        ref = run_serving_experiment(
            workload, problem.plan, problem.tau, 6, seed=seed, churn_config=CHURN
        )
        resumed = run_serving_experiment(
            workload, problem.plan, problem.tau, 6, seed=seed, churn_config=CHURN,
            serving_config=ServingConfig(checkpoint_path=path), resume=True,
        )
        assert resumed.resumed_from_micro_epoch == 4
        assert [r.report.epoch for r in resumed.reports] == [5, 6]
        for got, want in zip(resumed.reports, ref.reports[4:]):
            self._assert_same_report(got, want)
        assert diff_placements(
            resumed.service.placement(), ref.service.placement()
        ) is None
        assert resumed.service.reprovisioner.epoch == 6
        assert resumed.metrics["serve.micro_epochs"] == 6

    def test_resume_rejects_other_solve_parameters(self, tmp_path):
        # The resumed reprovisioner keeps the checkpoint's solve
        # parameters.  A config naming others used to be kept as well,
        # so the service reported fresh_solve_every=2 while the next
        # four micro-epochs ran no fresh solve.
        workload = zipf_workload(100, 3000, mean_interest=8.0, seed=5)
        rates = workload.event_rates
        capacity = max(2.5 * float(rates.max()), float(rates.sum()) / 8.0)
        plan = replace(
            paper_plan(),
            capacity_bytes_override=capacity * workload.message_size_bytes,
        )
        config = ServingConfig(fresh_solve_every=8)
        service = MicroEpochService(MCSSProblem(workload, 100.0, plan), config)
        service.serve(ChurnModel(workload, ChurnConfig(0.01, 0.01, 0.0), seed=3), 3)
        path = service.checkpoint(str(tmp_path / "run.npz"))
        with pytest.raises(
            ValueError,
            match=r"^rebuild_threshold is 3\.0 in the config but 1\.15 in the "
            r"reprovisioner; fresh_solve_every is 2 in the config but 8 ",
        ):
            MicroEpochService.resume(
                path, plan, ServingConfig(fresh_solve_every=2, rebuild_threshold=3.0)
            )
        with pytest.raises(ValueError, match="^fresh_solve_every is 2 .* 8 in"):
            MicroEpochService.resume(path, plan, ServingConfig(fresh_solve_every=2))
        resumed, _ = MicroEpochService.resume(path, plan, config)
        assert resumed.reprovisioner.fresh_solve_every == 8
        assert resumed.micro_epochs == 3

    def test_wrapped_reprovisioner_counts_from_its_epoch(self, tmp_path):
        # One count: a wrapped reprovisioner's epochs are micro-epochs
        # already served, for the reports and the checkpoint cadence.
        rng = np.random.default_rng(98)
        workload = edgy_workload(rng)
        problem = churn_problem(workload, rng)
        model = ChurnModel(workload, CHURN, seed=3)
        reprov = IncrementalReprovisioner(problem)
        for _ in range(2):
            reprov.step(model.step())
        path = tmp_path / "wrapped.npz"
        service = MicroEpochService.from_reprovisioner(
            reprov, ServingConfig(checkpoint_path=str(path), checkpoint_every=3)
        )
        assert service.micro_epochs == 2
        assert service.config.checkpoint_every == 3
        served = service.serve(model, 1)
        assert served[0].report.epoch == service.micro_epochs == 3
        assert service.metrics_snapshot()["serve.micro_epochs"] == 3
        resumed, _ = MicroEpochService.resume(path, problem.plan)
        assert resumed.metrics_snapshot()["serve.micro_epochs"] == 3


class ServingMachine(RuleBasedStateMachine):
    """The serving API against a model of its queue and the referee.

    A small service at ``fresh_solve_every=1`` takes whole churn deltas
    cut at random positions, runs micro-epochs (plain, empty, sealed
    without naming the re-priced topics, or on a spiked workload whose
    step raises), refuses fragments naming an id past the run's, and is
    checkpointed and resumed into a new service.  The machine models the
    queue as the fragments offered and not yet applied.  After every
    micro-epoch that steps, the ``reprovision-loop`` referee steps the
    delta that seal must have built, naming every topic re-priced since
    the last step that did not raise (the referee trusts its list; the
    service re-prices from the rates it holds), and the placements must
    agree.
    """

    def __init__(self):
        super().__init__()
        self.tmp = tempfile.TemporaryDirectory()

    def teardown(self):
        self.tmp.cleanup()

    @initialize(seed=st.integers(0, 2**16 - 1))
    def start(self, seed):
        rng = np.random.default_rng(seed)
        workload = edgy_workload(rng)
        self.problem = churn_problem(workload, rng)
        self.config = ServingConfig(fresh_solve_every=1)
        self.service = MicroEpochService(self.problem, self.config)
        self.loop = LoopIncrementalReprovisioner(
            self.problem, rebuild_threshold=self.config.rebuild_threshold
        )
        self.model = ChurnModel(workload, CHURN, seed=seed)
        self.workload = workload  # the last offered delta's workload
        self.pending = []  # fragments offered and not yet applied
        self.changed = np.empty(0, dtype=np.int64)  # since the last step

    def _offer(self, cuts):
        delta = self.model.step()
        num_ops = delta.subscribed_topics.size + delta.unsubscribed_topics.size
        fragments = split_delta(delta, [c % (num_ops + 1) for c in cuts])
        for fragment in fragments:
            self.service.offer(fragment)
        self.pending += fragments
        self.workload = delta.workload
        self.changed = np.union1d(self.changed, delta.changed_topics)

    @rule(cuts=st.lists(st.integers(0, 1000), max_size=4))
    def offer(self, cuts):
        self._offer(cuts)

    @rule(field=st.sampled_from([f.name for f in fields(ChurnFragment)]))
    def offer_out_of_range(self, field):
        workload = self.workload
        arrays = {f.name: np.array([0]) for f in fields(ChurnFragment)}
        past_end = (
            workload.num_topics
            if field.endswith("_topics")
            else workload.num_subscribers
        )
        arrays[field] = np.array([past_end])
        depth = self.service.queue_depth
        with pytest.raises(ValueError, match=f"^{field} must hold integer ids"):
            self.service.offer(ChurnFragment(**arrays))
        assert self.service.queue_depth == depth

    @rule()
    def micro_epoch(self):
        self._step(self.changed)

    @precondition(lambda self: not self.pending and not self.changed.size)
    @rule()
    def empty_micro_epoch(self):
        self._step([])

    @rule(cuts=st.lists(st.integers(0, 1000), max_size=4))
    def micro_epoch_without_changed_topics(self, cuts):
        self._offer(cuts)
        self._step([])

    @rule()
    def spiked_micro_epoch(self):
        workload = self.workload
        rates = np.array(workload.event_rates)
        hot = int(np.argmax(rates))
        # Past half a VM: the step raises before it changes anything.
        rates[hot] = self.problem.plan.capacity_bytes / workload.message_size_bytes
        spiked = Workload.from_csr(
            rates,
            workload.interest_indptr,
            workload.interest_topics,
            message_size_bytes=workload.message_size_bytes,
        )
        epoch = self.service.micro_epochs
        with pytest.raises(InfeasibleEpochError):
            self.service.run_micro_epoch(spiked, np.union1d(self.changed, [hot]))
        assert self.service.micro_epochs == epoch

    @rule()
    def checkpoint_and_resume(self):
        def state(service):
            counters = dict(service.metrics.counters)
            return service.queue_depth, service.micro_epochs, counters

        before = state(self.service)
        path = self.service.checkpoint(os.path.join(self.tmp.name, "serve.npz"))
        self.service, _ = MicroEpochService.resume(
            path, self.problem.plan, self.config
        )
        assert state(self.service) == before

    @invariant()
    def queue_depth_is_the_pending_churn(self):
        assert self.service.queue_depth == sum(f.num_ops for f in self.pending)

    def _step(self, changed):
        micro = self.service.run_micro_epoch(self.workload, changed)

        def pending(name):
            arrays = [getattr(f, name) for f in self.pending]
            return np.concatenate([np.empty(0, dtype=np.int64), *arrays])

        sealed = WorkloadDelta(
            self.workload,
            pending("subscribed_topics"),
            pending("subscribed_subscribers"),
            pending("unsubscribed_topics"),
            pending("unsubscribed_subscribers"),
            self.changed,
        )
        batch_ops = sum(f.num_ops for f in self.pending)
        assert micro.batch_ops == batch_ops
        assert micro.ops == batch_ops + len(changed)
        self.loop.step(sealed)
        assert diff_placements(self.service.placement(), self.loop.placement()) is None
        self.pending = []
        self.changed = np.empty(0, dtype=np.int64)


ServingMachine.TestCase.settings = settings(
    max_examples=50, stateful_step_count=20, deadline=None
)
TestServingMachine = ServingMachine.TestCase


@pytest.mark.slow
def test_serving_machine_long_run():
    """The same machine over longer and more runs (the weekly slow suite)."""
    run_state_machine_as_test(
        ServingMachine,
        settings=settings(max_examples=300, stateful_step_count=30, deadline=None),
    )
