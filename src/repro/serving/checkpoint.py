"""Atomic checkpoint/restore of a serving run.

A checkpoint is one atomically written ``.npz`` holding everything a
:class:`~repro.serving.MicroEpochService` holds, each member written
once, under the name its owner gives it:

* the reprovisioner's
  :meth:`~repro.dynamic.IncrementalReprovisioner.snapshot`;
* the ingest queue's :meth:`~repro.serving.queue.ChurnIngestQueue.snapshot`,
  the churn offered and not yet applied.  A consistent snapshot must
  include the messages in transit (Chandy and Lamport, "Distributed
  snapshots", ACM TOCS 1985);
* one ``serve_<counter>`` scalar per :data:`~repro.serving.slo.COUNTERS`;
* ``churn_state``: JSON of the churn model's configuration and
  bit-generator position (``null`` without a model).

Every member but ``checkpoint_version`` carries a ``digest_<member>``
CRC32 (:mod:`repro.resilience.integrity`), and none is optional: a load
opens the file once and verifies each member as its owner's
``restore`` reads it, so a missing or altered one raises
:class:`~repro.resilience.TraceCorruptionError` naming it.  Restoring
replays nothing: the resumed run draws exactly what the run that was
never killed draws (pinned in tests/test_vectorized_equivalence.py and
tests/test_serving.py).
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from ..dynamic import ChurnConfig, ChurnModel, IncrementalReprovisioner
from ..resilience.integrity import verified_member, write_npz_atomic
from .queue import ChurnIngestQueue
from .slo import COUNTERS

__all__ = ["CHECKPOINT_VERSION", "load_checkpoint", "save_checkpoint"]

CHECKPOINT_VERSION = 3


def save_checkpoint(
    path,
    reprovisioner: IncrementalReprovisioner,
    churn_model: Optional[ChurnModel] = None,
    queue: Optional[ChurnIngestQueue] = None,
    counters: Optional[Mapping[str, int]] = None,
) -> str:
    """Atomically write a complete checkpoint; returns the path.

    ``queue`` and ``counters`` are a serving run's ingest queue and
    serving counters; without them the checkpoint holds an idle
    service's, an empty queue and zero counters.
    """
    path = str(path)
    queue = queue if queue is not None else ChurnIngestQueue()
    counters = counters if counters is not None else dict.fromkeys(COUNTERS, 0)
    churn = None
    if churn_model is not None:
        churn = {"rng": churn_model.rng_state(), "config": asdict(churn_model.config)}
    members = {
        **reprovisioner.snapshot(),
        **queue.snapshot(),
        **{"serve_" + name: np.int64(counters[name]) for name in COUNTERS},
        "churn_state": np.frombuffer(json.dumps(churn).encode("utf-8"), dtype=np.uint8),
    }
    write_npz_atomic(
        path,
        {"checkpoint_version": np.int64(CHECKPOINT_VERSION), **members},
        digest_members=members,
    )
    return path


class _VerifiedMembers:
    """An open checkpoint's members, each checked against its digest when read."""

    def __init__(self, data, path: str) -> None:
        self._data = data
        self._path = path

    def __getitem__(self, name: str):
        return verified_member(self._data, name, self._path, require_digest=True)


def load_checkpoint(
    path, plan
) -> Tuple[
    IncrementalReprovisioner, Optional[ChurnModel], ChurnIngestQueue, Dict[str, int]
]:
    """Restore ``(reprovisioner, churn_model_or_None, queue, counters)``.

    ``plan`` (the :class:`ProvisioningPlan`) is not serialized -- VM
    pricing and capacity are configuration, not run state -- so the
    caller supplies the same plan the original run used.
    """
    path = str(path)
    with np.load(path, allow_pickle=False) as data:
        version = int(verified_member(data, "checkpoint_version", path, verify=False))
        if version != CHECKPOINT_VERSION:
            raise ValueError(
                f"unsupported checkpoint version {version} "
                f"(this build reads version {CHECKPOINT_VERSION})"
            )
        members = _VerifiedMembers(data, path)
        reprovisioner = IncrementalReprovisioner.restore(members, plan)
        workload = reprovisioner.workload
        queue = ChurnIngestQueue.restore(members, workload)
        counters = {name: int(members["serve_" + name]) for name in COUNTERS}
        churn = json.loads(bytes(members["churn_state"]).decode("utf-8"))
    churn_model = None
    if churn is not None:
        churn_model = ChurnModel(workload, ChurnConfig(**churn["config"]), seed=0)
        churn_model.set_rng_state(churn["rng"])
    return reprovisioner, churn_model, queue, counters
