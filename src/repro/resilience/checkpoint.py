"""Atomic checkpoint/restore for long churn/reprovision runs.

A checkpoint is one digested, atomically-written ``.npz`` carrying the
complete :meth:`IncrementalReprovisioner.snapshot` state (pair arrays,
fleet size, epoch counters, calibration ratio, the workload's CSR
arrays) plus, optionally, the :class:`ChurnModel`'s configuration and
bit-generator state as a JSON member.  Restoring replays *nothing*: a
killed 1000-epoch run resumes from the persisted arrays and the exact
RNG stream position, so the continuation is bit-identical to the run
that was never killed (pinned in tests/test_vectorized_equivalence.py).

Every member but the version carries a ``digest_<member>`` CRC32 (see
:mod:`repro.resilience.integrity`); a corrupt or truncated checkpoint
raises :class:`TraceCorruptionError` naming the bad member rather than
resuming from garbage.  Checkpoints written before the scalar members
were digested lack those digests and still load; the scalars of every
checkpoint must also pass :meth:`IncrementalReprovisioner.restore`'s
range checks.
"""

from __future__ import annotations

import json
from typing import Optional, Tuple

import numpy as np

from .integrity import verified_member, write_npz_atomic

__all__ = [
    "CHECKPOINT_VERSION",
    "load_checkpoint",
    "load_serving_state",
    "save_checkpoint",
]

CHECKPOINT_VERSION = 1

# Digested since the first checkpoint version: a load requires these.
_ARRAY_MEMBERS = (
    "pair_subscribers",
    "pair_topics",
    "pair_vms",
    "used_bytes",
    "event_rates",
    "interest_indptr",
    "interest_topics",
    "churn_state",
    "serving_state",
)
# Digested since version 0.13.0: a load verifies a digest when present.
_SCALAR_MEMBERS = (
    "num_vms",
    "epoch",
    "since_fresh",
    "lb_ratio",
    "tau",
    "rebuild_threshold",
    "fresh_solve_every",
    "message_size_bytes",
)


def save_checkpoint(path, reprovisioner, churn_model=None, serving_state=None) -> str:
    """Atomically persist a reprovisioner (and optional churn model).

    ``serving_state`` is an optional JSON-able dict of serving-layer
    counters (see :mod:`repro.serving.service`); like ``churn_state``
    it rides along as a digested JSON member, so old checkpoints (which
    simply lack the member) keep loading and old readers skip it.
    """
    path = str(path)
    snap = reprovisioner.snapshot()
    workload = snap["workload"]
    members = {
        "checkpoint_version": np.int64(CHECKPOINT_VERSION),
        "pair_subscribers": snap["pair_subscribers"],
        "pair_topics": snap["pair_topics"],
        "pair_vms": snap["pair_vms"],
        "used_bytes": snap["used_bytes"],
        "num_vms": np.int64(snap["num_vms"]),
        "epoch": np.int64(snap["epoch"]),
        "since_fresh": np.int64(snap["since_fresh"]),
        "lb_ratio": np.float64(snap["lb_ratio"]),
        "tau": np.float64(snap["tau"]),
        "rebuild_threshold": np.float64(snap["rebuild_threshold"]),
        "fresh_solve_every": np.int64(snap["fresh_solve_every"]),
        "event_rates": np.asarray(workload.event_rates, dtype=np.float64),
        "interest_indptr": np.asarray(workload.interest_indptr, dtype=np.int64),
        "interest_topics": np.asarray(workload.interest_topics, dtype=np.int64),
        "message_size_bytes": np.float64(workload.message_size_bytes),
    }
    if churn_model is not None:
        config = churn_model.config
        state = {
            "rng": churn_model.rng_state(),
            "config": {
                "unsubscribe_fraction": config.unsubscribe_fraction,
                "subscribe_fraction": config.subscribe_fraction,
                "rate_drift_sigma": config.rate_drift_sigma,
            },
        }
        members["churn_state"] = np.frombuffer(
            json.dumps(state).encode("utf-8"), dtype=np.uint8
        )
    if serving_state is not None:
        members["serving_state"] = np.frombuffer(
            json.dumps(serving_state).encode("utf-8"), dtype=np.uint8
        )
    write_npz_atomic(
        path, members, digest_members=_ARRAY_MEMBERS + _SCALAR_MEMBERS
    )
    return path


def load_serving_state(path) -> Optional[dict]:
    """The serving-layer counters member, or ``None`` when absent."""
    path = str(path)
    with np.load(path, allow_pickle=False) as data:
        if "serving_state" not in data.files:
            return None
        blob = bytes(verified_member(data, "serving_state", path))
    return json.loads(blob.decode("utf-8"))


def load_checkpoint(path, plan) -> Tuple[object, Optional[object]]:
    """Restore ``(reprovisioner, churn_model_or_None)`` from a checkpoint.

    ``plan`` (the :class:`ProvisioningPlan`) is not serialized — VM
    pricing/capacity is configuration, not run state — so the caller
    supplies the same plan the original run used.
    """
    # Function-level imports: this module sits below repro.dynamic in
    # the import graph (selection.sharded pulls in repro.resilience).
    from ..core import Workload
    from ..dynamic import ChurnConfig, ChurnModel, IncrementalReprovisioner

    path = str(path)
    churn_blob = None
    with np.load(path, allow_pickle=False) as data:
        version = int(data["checkpoint_version"])
        if version != CHECKPOINT_VERSION:
            raise ValueError(
                f"unsupported checkpoint version {version} "
                f"(this build reads version {CHECKPOINT_VERSION})"
            )

        def member(name):
            return verified_member(
                data, name, path, require_digest=name not in _SCALAR_MEMBERS
            )

        workload = Workload.from_csr(
            np.array(member("event_rates")),
            np.array(member("interest_indptr")),
            np.array(member("interest_topics")),
            message_size_bytes=float(member("message_size_bytes")),
        )
        snap = {
            "pair_subscribers": np.array(member("pair_subscribers")),
            "pair_topics": np.array(member("pair_topics")),
            "pair_vms": np.array(member("pair_vms")),
            "used_bytes": np.array(member("used_bytes")),
            "num_vms": int(member("num_vms")),
            "epoch": int(member("epoch")),
            "since_fresh": int(member("since_fresh")),
            "lb_ratio": float(member("lb_ratio")),
            "tau": float(member("tau")),
            "rebuild_threshold": float(member("rebuild_threshold")),
            "fresh_solve_every": int(member("fresh_solve_every")),
            "workload": workload,
        }
        if "churn_state" in data.files:
            churn_blob = bytes(member("churn_state"))

    reprovisioner = IncrementalReprovisioner.restore(snap, plan)
    churn_model = None
    if churn_blob is not None:
        state = json.loads(churn_blob.decode("utf-8"))
        churn_model = ChurnModel(
            workload, ChurnConfig(**state["config"]), seed=0
        )
        churn_model.set_rng_state(state["rng"])
    return reprovisioner, churn_model
