"""The serving layer: queue reassembly, epoch state, SLO metrics, resume.

Four contracts, all deterministic (no timing-flaky assertions):

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
  counters), mirroring ``TestCheckpointResumeEquivalence``.

The end-to-end referee pin (randomized splits vs ``reprovision-loop``)
lives in ``tests/test_vectorized_equivalence.py``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.bounds import lower_bound, subscriber_bound_terms, terms_lower_bound
from repro.core import MCSSProblem, Workload, validate_placement
from repro.dynamic import (
    ChurnConfig,
    ChurnModel,
    IncrementalReprovisioner,
    InfeasibleEpochError,
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
        first, _rng = random_delta(5)
        second, _rng = random_delta(6)
        queue = ChurnIngestQueue()
        for fragment in split_delta(first, [3]):
            queue.offer(fragment)
        sealed = queue.seal_epoch(first.workload, [4, 1])
        queue.offer(split_delta(second)[0])
        queue.unseal(sealed)
        assert queue.depth == (
            sum(f.num_ops for f in split_delta(first))
            + sum(f.num_ops for f in split_delta(second))
        )
        merged = queue.seal_epoch(second.workload, [1, 0])
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
        assert merged.changed_topics.tolist() == [0, 1, 4]
        assert merged.workload is second.workload
        assert queue.depth == 0
        # Owed topics are paid once: the seal after that is plain.
        assert queue.seal_epoch(second.workload, [7]).changed_topics.tolist() == [7]

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
        workload = snap["workload"]
        p_v = snap["pair_subscribers"]
        p_t = snap["pair_topics"]
        p_vm = snap["pair_vms"]
        num_vms = snap["num_vms"]
        np.testing.assert_array_equal(np.lexsort((p_t, p_v)), np.arange(p_v.size))
        # Each subscriber's rows start at its offset.
        ids = max(workload.num_subscribers, int(p_v[-1]) + 1 if p_v.size else 0)
        np.testing.assert_array_equal(
            reprov._first, np.searchsorted(p_v, np.arange(ids + 1))
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
    def _emptied_vm_delta(reprov):
        """Every subscriber with a pair on VM 0 drops all its interests."""
        workload = reprov.problem.workload
        snap = reprov.snapshot()
        leaving = np.unique(snap["pair_subscribers"][snap["pair_vms"] == 0])
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

    @staticmethod
    def _vanished_delta(reprov, count):
        """The last ``count`` subscribers leave the workload."""
        workload = reprov.problem.workload
        n = workload.num_subscribers
        evolved = workload.restrict_subscribers(range(n - count))
        leaving = workload.pair_subscribers() >= n - count
        return WorkloadDelta(
            evolved,
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            workload.interest_topics[leaving],
            workload.pair_subscribers()[leaving],
            np.empty(0, dtype=np.int64),
        )

    @pytest.mark.parametrize("sigma", [0.0, 0.2])
    @pytest.mark.parametrize("fresh_every", [1, 3])
    @pytest.mark.parametrize("seed", range(3))
    def test_live_state_matches_recomputation(self, seed, fresh_every, sigma):
        # Random churn plus an epoch that empties a VM and one where
        # subscribers leave the workload, at both fresh-solve cadences;
        # the state is checked after every step.
        problem = stress_problem(300)
        reprov = IncrementalReprovisioner(
            problem, rebuild_threshold=1.05, fresh_solve_every=fresh_every
        )
        self._assert_matches_snapshot(reprov)
        rng = np.random.default_rng(500 + seed)
        moved = closed = 0
        for epoch in range(1, 8):
            if epoch == 3:
                delta = self._emptied_vm_delta(reprov)
            elif epoch == 5:
                delta = self._vanished_delta(reprov, int(rng.integers(1, 20)))
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
        assert metrics.counters["micro_epochs"] == 0
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
        assert snap["serve.micro_epochs"] == 4.0
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

    def test_raised_micro_epoch_keeps_its_batch(self):
        # A sealed batch whose step raises stays queued: the next
        # micro-epoch re-selects its subscribers, and the held
        # selection ends equal to GSP's.  Losing it left 428 stray and
        # 365 missing pairs and 156 unsatisfied subscribers here.
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
        assert service.queue_depth == 3082
        assert service.micro_epochs == 0

        micro = service.run_micro_epoch(delta.workload, [hot])
        assert (micro.report.epoch, micro.batch_ops) == (1, 3082)
        assert service.queue_depth == 0
        problem = MCSSProblem(delta.workload, 100.0, plan)
        assert service.reprovisioner.selection() == GreedySelectPairs().select(
            problem
        )
        assert validate_placement(problem, service.placement()).ok

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
        state = service.serving_state()
        # The micro-epoch count is the reprovisioner's epoch.
        assert state[name] == (
            service.micro_epochs
            if name == "micro_epochs"
            else service.metrics.counters[name]
        )
        path = service.checkpoint(str(tmp_path / "state.npz"))
        resumed, _ = MicroEpochService.resume(path, problem.plan)
        assert resumed.metrics.counters == state
        assert resumed.serving_state() == state

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

    def test_old_checkpoints_without_serving_state_load(self, tmp_path):
        # A churn-era checkpoint (no serving_state member) must resume
        # with counters starting at the reprovisioner's epoch.
        from repro.resilience import save_checkpoint

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
        counters = service.metrics.counters
        assert counters["micro_epochs"] == 1
        assert counters["ops"] == 0  # no serving counters recorded
        service.serve(churn_model, 1)
        assert service.micro_epochs == 2

    @pytest.mark.parametrize("seed", range(3))
    def test_runner_resumes_a_checkpoint_without_serving_counters(
        self, seed, tmp_path
    ):
        # A bare reprovisioner + churn-stream checkpoint, four epochs in,
        # continues at micro-epoch 5 exactly as the uninterrupted run.
        from repro.experiments import run_serving_experiment
        from repro.resilience import save_checkpoint

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

    def test_wrapped_reprovisioner_counts_from_its_epoch(self, tmp_path):
        # One counter: a wrapped reprovisioner's epochs are micro-epochs
        # already served, for the reports and the checkpoint cadence.
        from repro.resilience import load_serving_state

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
        assert load_serving_state(path)["micro_epochs"] == 3
