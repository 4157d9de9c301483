"""Fault tolerance for the out-of-core pipeline.

Four small substrates, threaded through the sharded solve end to end:

* :mod:`~repro.resilience.knobs` — validated ``MCSS_*`` env parsing
  with errors that name the variable.
* :mod:`~repro.resilience.supervise` — :func:`supervised_map`, the
  one process fan-out (fork-inherited work, dead-child detection,
  per-piece timeout, digest-checked results, seeded-backoff retries,
  degrade-to-serial), the :class:`FaultPlan` injection seam the chaos
  suite drives, and the shard knobs: :func:`subscriber_shards` decides
  when a workload is solved out of core.
* :mod:`~repro.resilience.integrity` — atomic writes and per-member
  content digests for every on-disk artifact.
* :mod:`~repro.resilience.checkpoint` — atomic checkpoint/restore so
  killed serving runs resume bit-exactly.

See the "Failure model & recovery" section of docs/ARCHITECTURE.md.
"""

from .checkpoint import (
    CHECKPOINT_VERSION,
    load_checkpoint,
    load_serving_state,
    save_checkpoint,
)
from .faults import FAULT_KINDS, FaultPlan, FaultSpec
from .integrity import (
    TraceCorruptionError,
    atomic_write,
    member_digest,
    verified_member,
    write_npz_atomic,
)
from .knobs import KnobError, env_float, env_int, env_str
from .supervise import (
    PieceFailedError,
    SupervisedStats,
    default_max_retries,
    default_piece_timeout,
    default_shard_size,
    default_workers,
    shard_bounds,
    subscriber_shards,
    supervised_map,
)

__all__ = [
    "CHECKPOINT_VERSION",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "KnobError",
    "PieceFailedError",
    "SupervisedStats",
    "TraceCorruptionError",
    "atomic_write",
    "default_max_retries",
    "default_piece_timeout",
    "default_shard_size",
    "default_workers",
    "env_float",
    "env_int",
    "env_str",
    "load_checkpoint",
    "load_serving_state",
    "member_digest",
    "save_checkpoint",
    "shard_bounds",
    "subscriber_shards",
    "supervised_map",
    "verified_member",
    "write_npz_atomic",
]
