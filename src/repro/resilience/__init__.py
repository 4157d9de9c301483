"""Fault tolerance for on-disk artifacts and long-running serving.

Three small substrates:

* :mod:`~repro.resilience.knobs` — validated ``MCSS_*`` env parsing
  with errors that name the variable.
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
from .integrity import (
    TraceCorruptionError,
    atomic_write,
    member_digest,
    verified_member,
    write_npz_atomic,
)
from .knobs import KnobError, env_float, env_int

__all__ = [
    "CHECKPOINT_VERSION",
    "KnobError",
    "TraceCorruptionError",
    "atomic_write",
    "env_float",
    "env_int",
    "load_checkpoint",
    "load_serving_state",
    "member_digest",
    "save_checkpoint",
    "verified_member",
    "write_npz_atomic",
]
