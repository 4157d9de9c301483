"""Atomic file writes and content digests: the trace-integrity substrate.

Two failure modes killed hours-long out-of-core runs before this
module existed: a half-written ``.npz`` left behind by an interrupted
save (silently loadable-but-wrong or cryptically truncated), and a
corrupt member surfacing as a shape error deep inside the solver.  The
fix is mechanical and shared by every on-disk artifact in the repo:

* :func:`atomic_write` — tmp file in the destination directory +
  flush + ``fsync`` + ``os.replace`` + directory fsync, so readers see
  either the old file or the complete new one, never a prefix.
* :func:`member_digest` — zero-copy CRC32 over an array's bytes
  (works on ``np.memmap``; pages stream in lazily).
* :func:`write_npz_atomic` / :func:`verified_member` — the npz-level
  pairing: record ``digest_<member>`` alongside each payload member,
  verify on read, and raise :class:`TraceCorruptionError` *naming the
  bad member* instead of letting garbage flow downstream.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
import zlib
from typing import Iterable, Mapping

import numpy as np

__all__ = [
    "TraceCorruptionError",
    "atomic_write",
    "member_digest",
    "verified_member",
    "write_npz_atomic",
]


class TraceCorruptionError(ValueError):
    """An on-disk artifact is truncated or failed its content digest.

    The message always names the offending member and file, so a
    corrupt multi-GB trace is diagnosable without a hex editor.
    """


def member_digest(arr) -> int:
    """CRC32 of an array's raw bytes, without copying large arrays.

    Accepts anything ``np.ascontiguousarray`` does (including 0-d
    scalars and ``np.memmap`` views); the memoryview cast keeps big
    members zero-copy so digesting a 100M-pair trace stays cheap.
    """
    a = np.ascontiguousarray(arr)
    if a.nbytes < (1 << 20):
        return zlib.crc32(a.tobytes())
    return zlib.crc32(memoryview(a).cast("B"))


@contextlib.contextmanager
def atomic_write(path, mode: str = "wb"):
    """Write ``path`` all-or-nothing via tmp file + fsync + rename.

    Yields an open file object; on clean exit the temp file is fsynced
    and atomically renamed over ``path`` (and the directory entry
    fsynced), on error it is removed and ``path`` is left untouched.
    """
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, mode) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, path)
        dir_fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_path)
        raise


def write_npz_atomic(
    path,
    members: Mapping[str, np.ndarray],
    *,
    digest_members: Iterable[str] = (),
) -> None:
    """Atomically save an npz, recording ``digest_<m>`` for each named member."""
    out = dict(members)
    for name in digest_members:
        if name in members:
            out["digest_" + name] = np.uint32(member_digest(members[name]))
    with atomic_write(path) as fh:
        np.savez(fh, **out)


def verified_member(
    data,
    name: str,
    path,
    *,
    verify: bool = True,
    require_digest: bool = False,
):
    """Fetch ``data[name]``, checking its recorded digest if present.

    ``data`` is an open ``np.load`` mapping.  Raises
    :class:`TraceCorruptionError` naming the member when it is missing,
    when its bytes do not match the recorded CRC, or (with
    ``require_digest``) when the digest member itself is absent.
    """
    try:
        arr = data[name]
    except KeyError:
        raise TraceCorruptionError(
            f"member {name!r} is missing from {os.fspath(path)!r} "
            "(truncated or interrupted write?)"
        ) from None
    if not verify:
        return arr
    digest_name = "digest_" + name
    if digest_name not in getattr(data, "files", data):
        if require_digest:
            raise TraceCorruptionError(
                f"member {digest_name!r} is missing from "
                f"{os.fspath(path)!r}; cannot verify {name!r}"
            )
        return arr
    want = int(np.uint32(data[digest_name]))
    got = member_digest(arr)
    if got != want:
        raise TraceCorruptionError(
            f"member {name!r} of {os.fspath(path)!r} is corrupt: "
            f"crc32 {got:#010x} != recorded {want:#010x}"
        )
    return arr
