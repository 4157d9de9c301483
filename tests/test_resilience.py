"""The fault-tolerance layer: knobs, atomic writes, trace integrity, checkpoints.

Covers the validated env-knob layer, the atomic-write discipline,
trace-digest verification, and checkpoint corruption detection: every
damaged input must raise a typed error naming what broke, never load
into a silently wrong answer.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import MCSSProblem
from repro.dynamic import ChurnModel, IncrementalReprovisioner
from repro.resilience import (
    KnobError,
    TraceCorruptionError,
    atomic_write,
    env_float,
    env_int,
    load_checkpoint,
    save_checkpoint,
)
from repro.resilience.integrity import member_digest
from repro.selection.sharded import default_shard_size, default_workers
from repro.workloads import zipf_workload
from tests.conftest import make_unit_plan

# A knob that exists only inside these tests: passed through a
# constant (not a literal) so EK01 does not demand a registry row for
# a variable no production code reads.
_KNOB = "MCSS_TEST_KNOB"


class TestKnobs:
    def test_defaults_when_unset(self, monkeypatch):
        monkeypatch.delenv(_KNOB, raising=False)
        assert env_int(_KNOB, 7) == 7
        assert env_float(_KNOB, 0.5) == 0.5

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
        [
            ("pair_topics", -1),
            ("pair_topics", 10**6),
            ("pair_vms", 10**6),
            ("pair_subscribers", -1),
            ("pair_subscribers", "num_subscribers"),
        ],
    )
    def test_out_of_range_ids_rejected_by_restore(self, member, bad):
        reprovisioner, plan, _ = self._reprovisioner()
        snap = reprovisioner.snapshot()
        if bad == "num_subscribers":
            # On the last pair the table stays ascending, so only the
            # range check can catch it.
            snap[member][-1] = snap["workload"].num_subscribers
        else:
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
