"""Chaos suite: the fault-tolerance layer under injected faults.

Every failure path of :func:`repro.resilience.supervise.supervised_map`
is *driven*, not reasoned about: deterministic :class:`FaultPlan`
injection kills, hangs, and corrupts real forked children, and the
assertions demand bit-exactness with the serial path (retry and
degrade never change results) or a typed error — never a hang, never a
silently wrong answer.  Also covers the validated env-knob layer, the
atomic-write discipline, and checkpoint corruption detection.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.core import MCSSProblem
from repro.dynamic import ChurnModel, IncrementalReprovisioner
from repro.resilience import (
    FaultPlan,
    KnobError,
    SupervisedStats,
    TraceCorruptionError,
    atomic_write,
    default_shard_size,
    default_workers,
    env_float,
    env_int,
    env_str,
    load_checkpoint,
    save_checkpoint,
    supervised_map,
)
from repro.resilience.integrity import member_digest
from repro.selection import GreedySelectPairs
from repro.solver import MCSSSolver
from repro.workloads import zipf_workload
from tests.conftest import make_unit_plan

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="supervised fan-out requires the fork start method",
)

# Fast retry schedule for fault tests: the jitter stays seeded, only
# the scale shrinks so injected faults do not serialize the suite.
FAST = dict(backoff_base=0.01, backoff_cap=0.05)


# A knob that exists only inside these tests: passed through a
# constant (not a literal) so EK01 does not demand a registry row for
# a variable no production code reads.
_KNOB = "MCSS_TEST_KNOB"


def _work(x):
    return int(x) * int(x) + 1


def _boom(x):
    if x == 2:
        raise ValueError(f"task error on item {x}")
    return _work(x)


def _nested(x):
    stats = SupervisedStats()
    out = supervised_map(_work, [x, x + 1], workers=2, stats=stats)
    return out, stats.mode


class TestKnobs:
    def test_defaults_when_unset(self, monkeypatch):
        monkeypatch.delenv(_KNOB, raising=False)
        assert env_int(_KNOB, 7) == 7
        assert env_float(_KNOB, 0.5) == 0.5
        assert env_str(_KNOB, "x") == "x"

    def test_empty_string_means_default(self, monkeypatch):
        monkeypatch.setenv(_KNOB, "")
        assert env_int(_KNOB, 7) == 7
        assert env_float(_KNOB, 0.5) == 0.5

    def test_garbage_error_names_the_variable(self, monkeypatch):
        monkeypatch.setenv(_KNOB, "two")
        with pytest.raises(KnobError, match=_KNOB):
            env_int(_KNOB, 1)
        with pytest.raises(KnobError, match=_KNOB):
            env_float(_KNOB, 1.0)

    def test_minimum_enforced(self, monkeypatch):
        monkeypatch.setenv(_KNOB, "-3")
        with pytest.raises(KnobError, match="must be >= 0"):
            env_int(_KNOB, 1, minimum=0)

    def test_float_minimum_enforced(self, monkeypatch):
        monkeypatch.setenv(_KNOB, "0.25")
        assert env_float(_KNOB, 1.0, minimum=0.0) == 0.25
        with pytest.raises(KnobError, match="must be >= 0.5"):
            env_float(_KNOB, 1.0, minimum=0.5)

    def test_knob_error_is_a_value_error(self):
        assert issubclass(KnobError, ValueError)

    def test_shard_knobs_route_through_validation(self, monkeypatch):
        monkeypatch.setenv("MCSS_SHARD_SIZE", "lots")
        with pytest.raises(KnobError, match="MCSS_SHARD_SIZE"):
            default_shard_size()
        monkeypatch.setenv("MCSS_SHARD_WORKERS", "-1")
        with pytest.raises(KnobError, match="MCSS_SHARD_WORKERS"):
            default_workers()

    def test_supervision_knobs_route_through_validation(self, monkeypatch):
        from repro.resilience import default_max_retries, default_piece_timeout

        monkeypatch.setenv("MCSS_PIECE_TIMEOUT", "soon")
        with pytest.raises(KnobError, match="MCSS_PIECE_TIMEOUT"):
            default_piece_timeout()
        monkeypatch.setenv("MCSS_MAX_RETRIES", "-2")
        with pytest.raises(KnobError, match="MCSS_MAX_RETRIES"):
            default_max_retries()


class TestFaultPlan:
    def test_parse_and_match(self):
        plan = FaultPlan.parse("kill:0:1;corrupt:3:*")
        assert plan.fault_for(0, 1) == "kill"
        assert plan.fault_for(0, 2) is None
        assert plan.fault_for(3, 1) == "corrupt"
        assert plan.fault_for(3, 9) == "corrupt"
        assert plan.fault_for(1, 1) is None
        assert bool(plan)
        assert not bool(FaultPlan.parse(""))

    @pytest.mark.parametrize(
        "spec",
        ["explode:0:1", "kill:0", "kill:x:1", "kill:0:y", "kill:-1:1", "kill:0:0"],
    )
    def test_bad_specs_raise_knob_errors(self, spec):
        with pytest.raises(KnobError, match="fault plan"):
            FaultPlan.parse(spec)

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv("MCSS_FAULT_PLAN", raising=False)
        assert FaultPlan.from_env() is None
        monkeypatch.setenv("MCSS_FAULT_PLAN", "hang:2:1")
        assert FaultPlan.from_env().fault_for(2, 1) == "hang"
        monkeypatch.setenv("MCSS_FAULT_PLAN", "oops")
        with pytest.raises(KnobError, match="MCSS_FAULT_PLAN"):
            FaultPlan.from_env()


class TestSupervisedHappyPath:
    def test_serial_fallback(self):
        stats = SupervisedStats()
        out = supervised_map(_work, range(5), workers=1, stats=stats)
        assert out == [_work(i) for i in range(5)]
        assert stats.mode == "serial"

    @needs_fork
    def test_forked_matches_serial(self):
        stats = SupervisedStats()
        out = supervised_map(_work, range(7), workers=3, stats=stats)
        assert out == [_work(i) for i in range(7)]
        assert stats.mode == "supervised"
        assert stats.attempts == [1] * 7
        assert stats.retries == 0 and not stats.degraded_pieces

    @needs_fork
    def test_single_item_stays_serial(self):
        stats = SupervisedStats()
        assert supervised_map(_work, [4], workers=3, stats=stats) == [17]
        assert stats.mode == "serial"

    @needs_fork
    def test_nested_call_runs_serially(self):
        # A supervised child is daemonic and may not fork: the inner
        # fan-out computes its pieces in that child instead of crashing.
        stats = SupervisedStats()
        out = supervised_map(_nested, range(3), workers=2, stats=stats)
        assert stats.mode == "supervised"
        assert out == [([_work(i), _work(i + 1)], "serial") for i in range(3)]


@needs_fork
class TestChaosInjection:
    """kill / hang / corrupt x first / middle / last piece of 5."""

    PIECES = (0, 2, 4)

    @pytest.mark.parametrize("piece", PIECES)
    def test_killed_piece_retried_bit_exact(self, piece):
        stats = SupervisedStats()
        plan = FaultPlan.parse(f"kill:{piece}:1")
        out = supervised_map(
            _work, range(5), workers=2, fault_plan=plan, stats=stats, **FAST
        )
        assert out == [_work(i) for i in range(5)]
        assert stats.attempts[piece] == 2
        assert stats.deaths == 1 and stats.retries == 1
        assert not stats.degraded_pieces

    @pytest.mark.parametrize("piece", PIECES)
    def test_hung_piece_killed_and_retried(self, piece):
        stats = SupervisedStats()
        plan = FaultPlan.parse(f"hang:{piece}:1")
        t0 = time.monotonic()
        out = supervised_map(
            _work, range(5), workers=2, timeout=0.5,
            fault_plan=plan, stats=stats, **FAST,
        )
        elapsed = time.monotonic() - t0
        assert out == [_work(i) for i in range(5)]
        assert stats.timeouts == 1 and stats.attempts[piece] == 2
        # The injected hang sleeps 3600s; finishing fast proves the kill.
        assert elapsed < 30.0

    @pytest.mark.parametrize("piece", PIECES)
    def test_corrupt_payload_detected_and_retried(self, piece):
        stats = SupervisedStats()
        plan = FaultPlan.parse(f"corrupt:{piece}:1")
        out = supervised_map(
            _work, range(5), workers=2, fault_plan=plan, stats=stats, **FAST
        )
        assert out == [_work(i) for i in range(5)]
        assert stats.corruptions == 1 and stats.attempts[piece] == 2

    def test_multiple_simultaneous_faults(self):
        stats = SupervisedStats()
        plan = FaultPlan.parse("kill:0:1;corrupt:4:1;kill:2:2")
        out = supervised_map(
            _work, range(5), workers=2, fault_plan=plan, stats=stats, **FAST
        )
        assert out == [_work(i) for i in range(5)]
        assert stats.deaths == 1 and stats.corruptions == 1
        assert stats.attempts[0] == 2 and stats.attempts[4] == 2

    def test_retry_exhaustion_degrades_to_serial(self):
        stats = SupervisedStats()
        plan = FaultPlan.parse("kill:1:*")
        out = supervised_map(
            _work, range(5), workers=2, max_retries=1,
            fault_plan=plan, stats=stats, **FAST,
        )
        assert out == [_work(i) for i in range(5)]
        # 1 + max_retries forked attempts, then the in-process fallback.
        assert stats.attempts[1] == 2
        assert stats.degraded_pieces == [1]

    def test_persistent_hang_degrades(self):
        stats = SupervisedStats()
        plan = FaultPlan.parse("hang:0:*")
        out = supervised_map(
            _work, range(3), workers=2, timeout=0.3, max_retries=0,
            fault_plan=plan, stats=stats, **FAST,
        )
        assert out == [_work(i) for i in range(3)]
        assert stats.timeouts == 1 and stats.degraded_pieces == [0]

    def test_task_exception_propagates_without_retry(self):
        stats = SupervisedStats()
        with pytest.raises(ValueError, match="task error on item 2"):
            supervised_map(_boom, range(5), workers=2, stats=stats, **FAST)
        # A typed task error is an answer, not an infrastructure fault.
        assert stats.attempts[2] == 1 and stats.retries == 0

    def test_backoff_schedule_is_seeded(self):
        from repro.resilience.supervise import _backoff_delay

        a = [_backoff_delay(0, p, 2, 0.05, 1.0) for p in range(4)]
        b = [_backoff_delay(0, p, 2, 0.05, 1.0) for p in range(4)]
        assert a == b  # reproducible regardless of interleaving
        assert len(set(a)) == len(a)  # jittered per piece
        assert all(0.0 < d <= 0.1 for d in a)


@needs_fork
class TestFaultedPipeline:
    """Env-injected faults through the real sharded solver paths, forced
    out of core by the ``MCSS_SHARD_SIZE`` / ``MCSS_SHARD_WORKERS`` knobs."""

    def _problem(self, small_zipf):
        return MCSSProblem(small_zipf, 100.0, make_unit_plan(1e12))

    def test_sharded_selection_survives_env_faults(
        self, small_zipf, monkeypatch, force_shards
    ):
        problem = self._problem(small_zipf)
        expected = GreedySelectPairs().select(problem)
        monkeypatch.setenv("MCSS_FAULT_PLAN", "kill:0:1;corrupt:2:1")
        monkeypatch.setenv("MCSS_MAX_RETRIES", "2")
        force_shards(50, workers=2)
        got = GreedySelectPairs().select(problem)
        for a, b in zip(got.csr_arrays(), expected.csr_arrays()):
            np.testing.assert_array_equal(a, b)

    def test_out_of_core_solve_bit_exact_under_faults(
        self, small_zipf, monkeypatch, force_shards
    ):
        problem = self._problem(small_zipf)
        expected = MCSSSolver.paper().solve(problem)
        monkeypatch.setenv("MCSS_FAULT_PLAN", "corrupt:0:1")
        force_shards(50, workers=2)
        got = MCSSSolver.paper().solve(problem)
        assert got.cost == expected.cost


class TestAtomicWrite:
    def test_success_replaces_atomically(self, tmp_path):
        target = tmp_path / "out.bin"
        target.write_bytes(b"old")
        with atomic_write(str(target)) as fh:
            fh.write(b"new contents")
        assert target.read_bytes() == b"new contents"
        assert list(tmp_path.iterdir()) == [target]

    def test_failure_leaves_old_bytes_and_no_debris(self, tmp_path):
        target = tmp_path / "out.bin"
        target.write_bytes(b"old")
        with pytest.raises(RuntimeError, match="mid-write"):
            with atomic_write(str(target)) as fh:
                fh.write(b"partial garbage")
                raise RuntimeError("simulated mid-write crash")
        assert target.read_bytes() == b"old"
        assert list(tmp_path.iterdir()) == [target]


class TestCheckpointIntegrity:
    def _reprovisioner(self, tau=100.0):
        workload = zipf_workload(30, 80, mean_interest=4.0, seed=3)
        max_rate = float(workload.event_rates.max())
        plan = make_unit_plan(16.0 * max_rate * workload.message_size_bytes)
        problem = MCSSProblem(workload, tau, plan)
        return IncrementalReprovisioner(problem), plan, workload

    def test_corrupt_member_named_on_load(self, tmp_path):
        reprovisioner, plan, workload = self._reprovisioner()
        churn = ChurnModel(workload, seed=0)
        path = str(tmp_path / "run.npz")
        save_checkpoint(path, reprovisioner, churn)

        data = dict(np.load(path))
        bad = data["pair_topics"].copy()
        bad.flat[0] += 1
        data["pair_topics"] = bad
        np.savez(path, **data)  # stale digest now disagrees

        with pytest.raises(TraceCorruptionError, match="pair_topics"):
            load_checkpoint(path, plan)

    def test_missing_member_named_on_load(self, tmp_path):
        reprovisioner, plan, workload = self._reprovisioner()
        path = str(tmp_path / "run.npz")
        save_checkpoint(path, reprovisioner)
        data = dict(np.load(path))
        del data["used_bytes"]
        np.savez(path, **data)
        with pytest.raises(TraceCorruptionError, match="used_bytes"):
            load_checkpoint(path, plan)

    def test_unsupported_version_rejected(self, tmp_path):
        reprovisioner, plan, _ = self._reprovisioner()
        path = str(tmp_path / "run.npz")
        save_checkpoint(path, reprovisioner)
        data = dict(np.load(path))
        data["checkpoint_version"] = np.int64(99)
        np.savez(path, **data)
        with pytest.raises(ValueError, match="unsupported checkpoint version 99"):
            load_checkpoint(path, plan)

    SCALARS = (
        "num_vms",
        "epoch",
        "since_fresh",
        "lb_ratio",
        "tau",
        "rebuild_threshold",
        "fresh_solve_every",
        "message_size_bytes",
    )

    def _stepped_checkpoint(self, path):
        reprovisioner, plan, workload = self._reprovisioner()
        churn = ChurnModel(workload, seed=0)
        for _ in range(3):
            reprovisioner.step(churn.step())
        save_checkpoint(path, reprovisioner, churn)
        return reprovisioner, plan

    @pytest.mark.parametrize(
        "member, value",
        [
            ("num_vms", 1),  # added to the stored value
            ("epoch", 996),  # 3 -> 999
            ("since_fresh", 1),
            ("lb_ratio", 0.5),
            ("tau", -90.0),  # 100 -> 10
            ("rebuild_threshold", -0.65),  # 1.15 -> 0.5
            ("fresh_solve_every", -8),  # 8 -> 0
            ("message_size_bytes", 1.0),
        ],
    )
    def test_altered_scalar_member_named_on_load(self, tmp_path, member, value):
        path = str(tmp_path / "run.npz")
        _, plan = self._stepped_checkpoint(path)
        data = dict(np.load(path))
        data[member] = data[member] + np.asarray(value, dtype=data[member].dtype)
        np.savez(path, **data)  # stale digest now disagrees
        with pytest.raises(TraceCorruptionError, match=f"member '{member}'"):
            load_checkpoint(path, plan)

    def test_checkpoint_without_scalar_digests_still_loads(self, tmp_path):
        # Checkpoints written before the scalars were digested.
        path = str(tmp_path / "run.npz")
        reprovisioner, plan = self._stepped_checkpoint(path)
        data = dict(np.load(path))
        for member in self.SCALARS:
            del data["digest_" + member]
        np.savez(path, **data)
        restored, churn = load_checkpoint(path, plan)
        assert churn is not None
        want, got = reprovisioner.snapshot(), restored.snapshot()
        for member in self.SCALARS[:-1]:
            assert got[member] == want[member], member
        assert restored.selection() == reprovisioner.selection()

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("rebuild_threshold", 0.5),
            ("rebuild_threshold", float("nan")),
            ("fresh_solve_every", 0),
            ("tau", -1.0),
            ("tau", float("nan")),
            ("epoch", -1),
            ("since_fresh", -1),
            ("since_fresh", 8),  # == fresh_solve_every: step resets it first
            ("lb_ratio", 0.0),
            ("lb_ratio", float("inf")),
            ("lb_ratio", float("nan")),
            ("num_vms", -1),
        ],
    )
    def test_out_of_range_scalar_rejected_by_restore(self, field, bad):
        reprovisioner, plan, _ = self._reprovisioner()
        snap = reprovisioner.snapshot()
        assert snap["fresh_solve_every"] == 8
        snap[field] = bad
        with pytest.raises(ValueError, match=f"^(snapshot )?{field} must"):
            IncrementalReprovisioner.restore(snap, plan)

    def test_ragged_snapshot_rejected_by_restore(self):
        reprovisioner, plan, _ = self._reprovisioner()
        snap = reprovisioner.snapshot()
        snap["pair_vms"] = snap["pair_vms"][:-1]
        with pytest.raises(ValueError, match="disagree in length"):
            IncrementalReprovisioner.restore(snap, plan)

    @pytest.mark.parametrize(
        "member, bad",
        [("pair_topics", -1), ("pair_topics", 10**6), ("pair_vms", 10**6)],
    )
    def test_out_of_range_ids_rejected_by_restore(self, member, bad):
        reprovisioner, plan, _ = self._reprovisioner()
        snap = reprovisioner.snapshot()
        snap[member][0] = bad
        with pytest.raises(ValueError, match="do not exist"):
            IncrementalReprovisioner.restore(snap, plan)

    def test_tampered_snapshot_rejected_by_restore(self):
        reprovisioner, plan, _ = self._reprovisioner()
        snap = reprovisioner.snapshot()
        snap["used_bytes"] = snap["used_bytes"] + 1.0
        with pytest.raises(ValueError, match="used_bytes"):
            IncrementalReprovisioner.restore(snap, plan)

    @staticmethod
    def _permuted(snap, how):
        """The snapshot with its three pair arrays permuted together."""
        v, t = snap["pair_subscribers"], snap["pair_topics"]
        assert (v[1:] == v[:-1]).any()  # some subscriber holds 2+ pairs
        order = {
            "shuffled": np.random.default_rng(0).permutation(v.size),
            "subscribers-descending": np.argsort(-v, kind="stable"),
            "topics-descending": np.lexsort((-t, v)),
        }[how]
        for member in ("pair_subscribers", "pair_topics", "pair_vms"):
            snap[member] = snap[member][order]
        return snap

    @pytest.mark.parametrize(
        "how", ["shuffled", "subscribers-descending", "topics-descending"]
    )
    def test_unsorted_pair_table_rejected_by_restore(self, how):
        # Permuted together, the arrays keep every pair on its VM, so
        # the used-bytes cross-check passes; the row offsets restore
        # derives assume (subscriber, topic) order.  At tau 1e9 every
        # subscriber takes its whole interest, so many hold 2+ pairs.
        reprovisioner, plan, _ = self._reprovisioner(tau=1e9)
        snap = self._permuted(reprovisioner.snapshot(), how)
        with pytest.raises(ValueError, match="pair_subscribers/pair_topics"):
            IncrementalReprovisioner.restore(snap, plan)

    def test_unsorted_pair_table_rejected_on_load(self, tmp_path):
        # The same table in a checkpoint file whose digests match it.
        reprovisioner, plan, workload = self._reprovisioner(tau=1e9)
        path = str(tmp_path / "run.npz")
        save_checkpoint(path, reprovisioner, ChurnModel(workload, seed=0))
        data = self._permuted(dict(np.load(path)), "shuffled")
        for member in ("pair_subscribers", "pair_topics", "pair_vms"):
            data["digest_" + member] = np.uint32(member_digest(data[member]))
        np.savez(path, **data)
        with pytest.raises(ValueError, match="pair_subscribers/pair_topics"):
            load_checkpoint(path, plan)

    def test_checkpoint_leaves_no_tmp_debris(self, tmp_path):
        reprovisioner, plan, workload = self._reprovisioner()
        path = str(tmp_path / "run.npz")
        save_checkpoint(path, reprovisioner, ChurnModel(workload, seed=0))
        assert sorted(os.listdir(tmp_path)) == ["run.npz"]
