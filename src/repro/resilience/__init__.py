"""Fault tolerance for on-disk artifacts and environment knobs.

Two small substrates:

* :mod:`~repro.resilience.knobs` — validated ``MCSS_*`` env parsing
  with errors that name the variable.
* :mod:`~repro.resilience.integrity` — atomic writes and per-member
  content digests for every on-disk artifact.

Serving checkpoints build on both and live with what they save, in
:mod:`repro.serving.checkpoint`.  See the "Failure model & recovery"
section of docs/ARCHITECTURE.md.
"""

from .integrity import (
    TraceCorruptionError,
    atomic_write,
    member_digest,
    verified_member,
    write_npz_atomic,
)
from .knobs import KnobError, env_float, env_int

__all__ = [
    "KnobError",
    "TraceCorruptionError",
    "atomic_write",
    "env_float",
    "env_int",
    "member_digest",
    "verified_member",
    "write_npz_atomic",
]
