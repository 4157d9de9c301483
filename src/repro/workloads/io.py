"""Workload (de)serialization.

One format, ``.npz`` (:func:`save_workload` / :func:`load_workload`):
the CSR interest arrays plus a header record, compact and
**versioned**.  This build reads and writes *version 3* only and raises
a clear "unsupported version" error on any other instead of misreading
the file.  A version-3 file holds ``version``, ``generator_version``
(the :data:`repro.workloads.GENERATOR_VERSION` the writer ran), the CSR
arrays ``event_rates`` / ``interest_indptr`` / ``interest_topics``,
``message_size_bytes``, and a ``digest_<member>`` CRC32 for each of
those payload members.  Loads verify the digests and raise
:class:`TraceCorruptionError` *naming the bad member*, or the missing
digest; writes go through tmp-file + fsync + atomic rename
(:func:`repro.resilience.integrity.atomic_write`), so an interrupted
save never leaves a half-valid trace behind.  Written *uncompressed* so
that ``load_workload(path, mmap=True)`` can hand back a
:class:`~repro.core.backend.MmapBackend`-backed
:class:`~repro.core.Workload` whose arrays are ``np.memmap`` views
straight into the file -- no pair-sized RAM allocation, the entry
ticket to the out-of-core sharded solves
(:mod:`repro.selection.sharded`).  The mmap path skips digest
verification by default (it would page in the whole trace); pass
``verify=True`` to force it.  Digests check a file's bytes, not its
values: the :class:`~repro.core.Workload` constructor still rejects a
non-finite or non-positive event rate.

:func:`save_zipf_workload_chunked` generates a Zipf workload directly
*into* a format-3 file, one subscriber chunk at a time, so traces
larger than RAM-comfortable (the 10M-user / >=100M-pair bench rung)
never exist as a single in-RAM draw.  Each completed chunk is
persisted to a ``<path>.parts/`` sidecar and recorded in a
``<path>.manifest.json``; a re-run after a crash resumes from the
completed chunks (bit-exactly -- chunks are independently seeded) and
cleans both up once the final trace is atomically in place.
"""

from __future__ import annotations

import json
import os
import shutil
import zipfile
from typing import Dict, List, Optional, Union

import numpy as np
from numpy.lib import format as npformat

from ..core import MmapBackend, Workload
from ..core.segsearch import sorted_unique
from ..resilience.integrity import (
    TraceCorruptionError,
    atomic_write,
    verified_member,
    write_npz_atomic,
)
from .synthetic import GENERATOR_VERSION

__all__ = [
    "TraceCorruptionError",
    "save_workload",
    "load_workload",
    "save_zipf_workload_chunked",
]

_FORMAT_VERSION = 3
# Members carrying a digest_<name> CRC32 in format v3.
_PAYLOAD_MEMBERS = (
    "event_rates",
    "interest_indptr",
    "interest_topics",
    "message_size_bytes",
)


def _resolve_npz_path(path: Union[str, os.PathLike]) -> str:
    """Mirror ``np.savez``'s filename rule (``.npz`` appended if missing)."""
    path = os.fspath(path)
    if not path.endswith(".npz"):
        path = path + ".npz"
    return path


def _workload_members(
    event_rates, interest_indptr, interest_topics, message_size_bytes
) -> Dict[str, np.ndarray]:
    return {
        "version": np.int64(_FORMAT_VERSION),
        "generator_version": np.int64(GENERATOR_VERSION),
        "event_rates": np.asarray(event_rates, dtype=np.float64),
        "interest_indptr": np.asarray(interest_indptr, dtype=np.int64),
        "interest_topics": np.asarray(interest_topics, dtype=np.int64),
        "message_size_bytes": np.float64(message_size_bytes),
    }


def save_workload(workload: Workload, path: Union[str, os.PathLike]) -> str:
    """Write a workload to ``path`` (``.npz`` appended if missing).

    Format version 3: the CSR arrays verbatim, a header record (format
    version and the writer's generator version), and a per-member
    CRC32.  The write is atomic (tmp file + fsync + rename): readers
    see the old file or the complete new one, never a prefix.
    Uncompressed -- the members are plain ``.npy`` blocks inside the
    zip, which :func:`load_workload` can memory-map.  Returns the path
    actually written.
    """
    path = _resolve_npz_path(path)
    write_npz_atomic(
        path,
        _workload_members(
            workload.event_rates,
            workload.interest_indptr,
            workload.interest_topics,
            workload.message_size_bytes,
        ),
        digest_members=_PAYLOAD_MEMBERS,
    )
    return path


def _mmap_npz_member(path: str, zf: zipfile.ZipFile, name: str) -> np.ndarray:
    """Memory-map one uncompressed ``.npy`` member of an ``.npz`` file.

    A stored (non-deflated) zip member is the byte-identical ``.npy``
    stream at a known file offset: local header (30 fixed bytes +
    filename + extra field), then the npy magic/header, then the raw
    array data -- which ``np.memmap`` can map directly.
    """
    member = name + ".npy"
    info = zf.getinfo(member)
    if info.compress_type != zipfile.ZIP_STORED:
        raise ValueError(
            f"cannot mmap compressed member {member!r}; re-save it with "
            "save_workload(), which writes uncompressed members"
        )
    with open(path, "rb") as fh:
        fh.seek(info.header_offset)
        local = fh.read(30)
        if local[:4] != b"PK\x03\x04":
            raise ValueError(f"corrupt local header for member {member!r}")
        name_len = int.from_bytes(local[26:28], "little")
        extra_len = int.from_bytes(local[28:30], "little")
        fh.seek(info.header_offset + 30 + name_len + extra_len)
        magic = npformat.read_magic(fh)
        if magic == (1, 0):
            shape, fortran, dtype = npformat.read_array_header_1_0(fh)
        elif magic == (2, 0):
            shape, fortran, dtype = npformat.read_array_header_2_0(fh)
        else:
            raise ValueError(f"unsupported npy header version {magic} in {member!r}")
        data_offset = fh.tell()
    return np.memmap(
        path,
        dtype=dtype,
        mode="r",
        offset=data_offset,
        shape=shape,
        order="F" if fortran else "C",
    )


def load_workload(
    path: Union[str, os.PathLike],
    *,
    mmap: bool = False,
    verify: Optional[bool] = None,
) -> Workload:
    """Read a workload previously written by :func:`save_workload`.

    ``verify`` controls digest checking of the payload members: the
    default (``None``) verifies on in-RAM loads and skips on mmap
    loads (checking there would page in the whole trace up front);
    ``verify=True`` forces the check everywhere; ``verify=False`` skips
    it.  A check requires each digest, so a file missing one (damaged,
    or built by hand) fails it.  A failed check raises
    :class:`TraceCorruptionError` naming the corrupt member or the
    missing digest.

    With ``mmap=True`` (uncompressed members, as :func:`save_workload`
    writes them) the returned
    workload is backed by a :class:`~repro.core.backend.MmapBackend`:
    its CSR arrays are read-only ``np.memmap`` views into the file, and
    pair-sized derived caches spill to ``<path>.cache/`` sidecar files
    instead of the Python heap.  The file is trusted on this path (it
    was written from an already-validated workload); the in-RAM path
    keeps the full re-validation.  Any format version but 3 raises
    ``ValueError``.
    """
    path = os.fspath(path)
    with np.load(path, allow_pickle=False) as data:
        version = int(data["version"])
        if version != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported workload format version {version} "
                f"(this build reads version {_FORMAT_VERSION})"
            )
        if not mmap:
            members = {
                name: verified_member(
                    data, name, path,
                    verify=verify is not False, require_digest=True,
                )
                for name in _PAYLOAD_MEMBERS
            }
            return Workload.from_csr(
                members["event_rates"],
                members["interest_indptr"],
                members["interest_topics"],
                message_size_bytes=float(members["message_size_bytes"]),
            )
        message_size = float(
            verified_member(
                data, "message_size_bytes", path,
                verify=bool(verify), require_digest=True,
            )
        )
        digests = {n: data[n] for n in data.files if n.startswith("digest_")}
    with zipfile.ZipFile(path) as zf:
        rates = _mmap_npz_member(path, zf, "event_rates")
        indptr = _mmap_npz_member(path, zf, "interest_indptr")
        flat = _mmap_npz_member(path, zf, "interest_topics")
    if verify:
        # Explicit opt-in: stream every mapped member through the CRC
        # (pages the trace in once) before trusting it.
        for name, arr in (
            ("event_rates", rates),
            ("interest_indptr", indptr),
            ("interest_topics", flat),
        ):
            verified_member({**digests, name: arr}, name, path, require_digest=True)
    return Workload.from_csr(
        rates,
        indptr,
        flat,
        message_size_bytes=message_size,
        validate=False,
        backend=MmapBackend(path + ".cache"),
    )


def _draw_zipf_chunk(
    chunk: int,
    lo: int,
    hi: int,
    num_topics: int,
    mean_interest: float,
    probs: np.ndarray,
    seed: Optional[int],
):
    """Draw one subscriber chunk; an independent stream per chunk index.

    The per-chunk seeding is what makes resume-after-crash bit-exact:
    a chunk's draw never depends on which other chunks already ran.
    """
    rng = np.random.default_rng([seed if seed is not None else 0, chunk])
    sizes = np.clip(
        rng.poisson(mean_interest, size=hi - lo), 1, num_topics
    ).astype(np.int64)
    subs = np.repeat(np.arange(lo, hi, dtype=np.int64), sizes)
    picks = rng.choice(num_topics, size=int(sizes.sum()), p=probs)
    # Packed-key unique: per-subscriber dedup + sorted interests,
    # exactly as the in-RAM generator does -- global subscriber ids
    # keep the chunks' key ranges disjoint and ascending, so the
    # concatenated flats are already subscriber-major CSR data.
    keys = sorted_unique(subs * num_topics + picks)
    chunk_counts = np.bincount(keys // num_topics - lo, minlength=hi - lo)
    return chunk_counts.astype(np.int64), keys % num_topics


def _load_manifest(manifest_path: str, params: dict) -> List[int]:
    """Completed chunk ids from a matching sidecar manifest, else []."""
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    except (OSError, ValueError):
        return []
    if manifest.get("params") != params:
        return []  # different draw: the partial state is useless
    return [int(c) for c in manifest.get("chunks", [])]


def save_zipf_workload_chunked(
    path: Union[str, os.PathLike],
    num_topics: int,
    num_subscribers: int,
    mean_interest: float = 5.0,
    rate_exponent: float = 1.2,
    max_rate: float = 10_000.0,
    popularity_exponent: float = 1.1,
    message_size_bytes: float = 200.0,
    seed: Optional[int] = 0,
    chunk_subscribers: int = 1_000_000,
    resume: bool = True,
) -> str:
    """Draw a Zipf workload chunk-by-chunk straight into a format-3 file.

    Same marginals as :func:`repro.workloads.zipf_workload` (the rates
    and popularity weights are deterministic functions of
    ``num_topics``; interest sizes are Poisson-clipped; within-draw
    duplicates collapse), but subscribers are drawn in independent
    per-chunk streams seeded ``default_rng([seed, chunk_index])`` --
    so the output is *not* a replay of ``zipf_workload(seed)``, it is
    the out-of-core generator for traces whose single-draw temporaries
    would not fit the memory budget (the 10M-user bench rung).  Peak
    RAM is one chunk's draw plus the accumulated CSR arrays; the
    workload itself is meant to be read back with
    ``load_workload(path, mmap=True)``.

    Each completed chunk is persisted atomically to
    ``<path>.parts/chunk_<i>.npz`` and recorded in
    ``<path>.manifest.json``; with ``resume=True`` (the default) a
    re-run whose parameters match the manifest skips the completed
    chunks -- bit-exact, since chunk streams are independent -- and a
    parameter mismatch starts the draw from scratch.  The final file is
    written atomically, then the sidecar state is removed.  Returns the
    written path.
    """
    if num_topics <= 0 or num_subscribers <= 0:
        raise ValueError("populations must be positive")
    if chunk_subscribers <= 0:
        raise ValueError("chunk_subscribers must be positive")

    path = _resolve_npz_path(path)
    manifest_path = path + ".manifest.json"
    parts_dir = path + ".parts"
    params = {
        "format_version": _FORMAT_VERSION,
        "generator_version": GENERATOR_VERSION,
        "num_topics": num_topics,
        "num_subscribers": num_subscribers,
        "mean_interest": mean_interest,
        "rate_exponent": rate_exponent,
        "max_rate": max_rate,
        "popularity_exponent": popularity_exponent,
        "message_size_bytes": message_size_bytes,
        "seed": seed,
        "chunk_subscribers": chunk_subscribers,
    }
    completed = set(_load_manifest(manifest_path, params)) if resume else set()

    ranks = np.arange(1, num_topics + 1, dtype=np.float64)
    rates = np.maximum(1.0, np.floor(max_rate / ranks**rate_exponent))
    probs = ranks**-popularity_exponent
    probs /= probs.sum()

    counts = np.zeros(num_subscribers, dtype=np.int64)
    flat_chunks: List[np.ndarray] = []
    for chunk, lo in enumerate(range(0, num_subscribers, chunk_subscribers)):
        hi = min(lo + chunk_subscribers, num_subscribers)
        part_path = os.path.join(parts_dir, f"chunk_{chunk}.npz")
        if chunk in completed:
            try:
                with np.load(part_path, allow_pickle=False) as part:
                    chunk_counts = np.array(
                        verified_member(
                            part, "counts", part_path, require_digest=True
                        )
                    )
                    chunk_flat = np.array(
                        verified_member(
                            part, "flat", part_path, require_digest=True
                        )
                    )
            except (OSError, TraceCorruptionError):
                # A part that vanished or failed its digest is simply
                # not completed; redraw it (same stream, same bits).
                completed.discard(chunk)
        if chunk not in completed:
            chunk_counts, chunk_flat = _draw_zipf_chunk(
                chunk, lo, hi, num_topics, mean_interest, probs, seed
            )
            os.makedirs(parts_dir, exist_ok=True)
            write_npz_atomic(
                part_path,
                {"counts": chunk_counts, "flat": chunk_flat},
                digest_members=("counts", "flat"),
            )
            completed.add(chunk)
            with atomic_write(manifest_path, mode="w") as fh:
                json.dump(
                    {"params": params, "chunks": sorted(completed)}, fh
                )
        counts[lo:hi] = chunk_counts
        flat_chunks.append(chunk_flat)

    indptr = np.zeros(num_subscribers + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    flat = (
        np.concatenate(flat_chunks) if flat_chunks else np.empty(0, np.int64)
    )
    write_npz_atomic(
        path,
        _workload_members(rates, indptr, flat, message_size_bytes),
        digest_members=_PAYLOAD_MEMBERS,
    )
    for leftover in (manifest_path,):
        if os.path.exists(leftover):
            os.unlink(leftover)
    shutil.rmtree(parts_dir, ignore_errors=True)
    return path
