"""Process fan-out: ``supervised_map``, the one primitive, and its knobs.

Subscriber-sharded GSP and the ladder's taus split work into
independent pieces and optionally run them across worker processes.
:func:`supervised_map` is the one primitive they share.  It uses the
``fork`` start method and passes work *by index* through a
module-level table set before the children fork: children inherit the
parent's address space, so mmap-backed workloads cross the process
boundary as shared pages -- pickling them would densify every
``np.memmap`` into a private copy, defeating the point of the mmap
backend.  Only the (small) per-piece results travel back through
pickles.  On top of that it adds the supervision a long-running
sharded solve needs:

* **dead children** are detected via exit codes, not hangs — a worker
  that dies without reporting is retried, never waited on forever;
* **per-piece wall-clock timeout** (``MCSS_PIECE_TIMEOUT``) kills hung
  workers;
* **result integrity** — each child CRC32s its pickled result before
  sending, so a corrupted payload is detected in the parent and
  treated as an infrastructure failure (retried), never unpickled into
  a silently wrong answer;
* **retries** with capped exponential backoff and *seeded* jitter
  (``MCSS_MAX_RETRIES``): the delay for (piece, attempt) comes from
  ``np.random.default_rng([seed, piece, attempt])``, so schedules are
  reproducible regardless of how failures interleave across pieces;
* **graceful degradation** — a piece that exhausts its retries runs
  serially in-process; because shard merges are order-independent the
  final result stays bit-exact with the all-serial path;
* a deterministic **fault-injection seam** (:class:`~repro.resilience.
  faults.FaultPlan`, env-selectable via ``MCSS_FAULT_PLAN``) so every
  one of these paths is exercised by the chaos suite.

Exceptions *raised by fn itself* are transported back and re-raised in
the parent immediately — a typed task error (bad input, corrupt trace)
is an answer, not an infrastructure failure, and retrying it would
only repeat it.

The out-of-core decision lives here too, next to the knobs it reads:
a workload spanning more than one :func:`subscriber_shards` range is
solved out of core.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import pickle
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .faults import FaultPlan
from .knobs import env_float, env_int

__all__ = [
    "PieceFailedError",
    "SupervisedStats",
    "default_max_retries",
    "default_piece_timeout",
    "default_shard_size",
    "default_workers",
    "shard_bounds",
    "subscriber_shards",
    "supervised_map",
]

# Exit code a "kill" fault dies with; any nonzero exit counts as dead.
_FAULT_KILL_EXIT = 43
# Supervision tick: upper bound on how stale deadline/exit checks get.
_TICK_S = 0.05

# Work table inherited by forked children: holds fn/items/plan by
# reference so nothing is pickled per piece.
_SHARED: Dict[str, Any] = {}


def default_shard_size() -> int:
    """Subscribers per shard (``MCSS_SHARD_SIZE``, default 1,000,000)."""
    return env_int("MCSS_SHARD_SIZE", 1_000_000, minimum=1)


def default_workers() -> int:
    """Worker processes for fan-out (``MCSS_SHARD_WORKERS``, default 1)."""
    return env_int("MCSS_SHARD_WORKERS", 1, minimum=0)


def shard_bounds(n: int, shard_size: int) -> List[Tuple[int, int]]:
    """Contiguous ``[lo, hi)`` ranges covering ``range(n)``.

    Every shard has ``shard_size`` items except possibly the last.
    ``n == 0`` yields no shards.
    """
    if shard_size <= 0:
        raise ValueError("shard_size must be positive")
    return [(lo, min(lo + shard_size, n)) for lo in range(0, n, shard_size)]


def subscriber_shards(num_subscribers: int) -> List[Tuple[int, int]]:
    """The ``MCSS_SHARD_SIZE`` subscriber ranges of a workload.

    More than one range means the workload is solved out of core:
    Stage 1 runs per shard (forked when ``MCSS_SHARD_WORKERS > 1``) and
    merges bit-exactly.
    """
    return shard_bounds(num_subscribers, default_shard_size())


def default_piece_timeout() -> float:
    """``MCSS_PIECE_TIMEOUT`` in seconds; 0 (the default) disables it."""
    return env_float("MCSS_PIECE_TIMEOUT", 0.0, minimum=0.0)


def default_max_retries() -> int:
    """``MCSS_MAX_RETRIES``: forked re-attempts per piece before degrading."""
    return env_int("MCSS_MAX_RETRIES", 2, minimum=0)


class PieceFailedError(RuntimeError):
    """A child raised an exception that could not be transported intact."""


@dataclass
class SupervisedStats:
    """Observability for one supervised_map call (chaos-suite hooks).

    Pass an instance via ``stats=`` to inspect what supervision did:
    per-piece attempt counts, failure tallies by kind, and which
    pieces fell back to in-process serial execution.
    """

    attempts: List[int] = field(default_factory=list)
    retries: int = 0
    deaths: int = 0
    timeouts: int = 0
    corruptions: int = 0
    degraded_pieces: List[int] = field(default_factory=list)
    mode: str = "serial"


def _backoff_delay(
    seed: int, piece: int, attempt: int, base: float, cap: float
) -> float:
    """Capped exponential backoff with seeded jitter in [0.5x, 1x]."""
    rng = np.random.default_rng([seed, piece, attempt])
    return min(cap, base * 2.0 ** (attempt - 1)) * (0.5 + 0.5 * rng.random())


def _child_main(piece: int, attempt: int, conn) -> None:
    """Run one piece in a forked child and report (digest ++ payload).

    The CRC is computed *before* any injected corruption flips payload
    bytes, which is exactly what a real bit-flip between compute and
    delivery looks like from the parent's side.
    """
    plan = _SHARED.get("plan")
    fault = plan.fault_for(piece, attempt) if plan is not None else None
    if fault == "kill":
        os._exit(_FAULT_KILL_EXIT)
    if fault == "hang":
        time.sleep(3600.0)
    try:
        result = _SHARED["fn"](_SHARED["items"][piece])
        payload = pickle.dumps(("ok", result), protocol=pickle.HIGHEST_PROTOCOL)
    except BaseException as exc:  # transported to the parent, re-raised there
        try:
            payload = pickle.dumps(("exc", exc), protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            payload = pickle.dumps(
                ("exc_repr", repr(exc)), protocol=pickle.HIGHEST_PROTOCOL
            )
    digest = zlib.crc32(payload)
    if fault == "corrupt":
        payload = bytes([payload[0] ^ 0xFF]) + payload[1:]
    try:
        conn.send_bytes(digest.to_bytes(4, "little") + payload)
        conn.close()
    except BaseException:
        os._exit(1)
    # _exit skips pytest/atexit teardown inherited from the parent.
    os._exit(0)


def _read_report(conn) -> Tuple[str, Any]:
    """Parse a child's report: ('ok', value) | ('exc', exc) | failures."""
    try:
        blob = conn.recv_bytes()
    except (EOFError, OSError):
        return ("dead", None)
    digest = int.from_bytes(blob[:4], "little")
    payload = blob[4:]
    if zlib.crc32(payload) != digest:
        return ("corrupt", None)
    kind, value = pickle.loads(payload)
    if kind == "exc_repr":
        return ("exc", PieceFailedError(value))
    return (kind, value)


def supervised_map(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    workers: Optional[int] = None,
    *,
    timeout: Optional[float] = None,
    max_retries: Optional[int] = None,
    fault_plan: Optional[FaultPlan] = None,
    backoff_base: float = 0.05,
    backoff_cap: float = 1.0,
    seed: int = 0,
    stats: Optional[SupervisedStats] = None,
) -> List[Any]:
    """``[fn(item) for item in items]`` with supervision, retry, and degrade.

    ``fn`` and ``items`` reach forked children through the inherited
    work table, never pickled; results come back pickled, in item
    order, so the serial and forked paths return the same list.
    ``workers`` defaults to ``MCSS_SHARD_WORKERS``.  The map runs
    serially in-process when ``workers <= 1``, for a single item,
    where ``fork`` is unavailable, and inside a supervised child:
    children are daemonic and may not fork children of their own, so
    a nested fan-out (e.g. a forked ladder tau whose GSP shards)
    computes its pieces in the child that asked.  Fault injection only
    applies to forked attempts.  ``timeout`` <= 0 disables the
    deadline.  A piece still failing after ``1 + max_retries`` forked
    attempts is recomputed serially in-process, so infrastructure
    faults can delay a solve but never change it.
    """
    items = list(items)
    workers = default_workers() if workers is None else int(workers)
    timeout = default_piece_timeout() if timeout is None else float(timeout)
    max_retries = (
        default_max_retries() if max_retries is None else int(max_retries)
    )
    if fault_plan is None:
        fault_plan = FaultPlan.from_env()
    if stats is None:
        stats = SupervisedStats()
    stats.attempts = [0] * len(items)

    use_fork = (
        workers > 1
        and len(items) > 1
        and "fork" in multiprocessing.get_all_start_methods()
        and not multiprocessing.current_process().daemon
    )
    if not use_fork:
        stats.mode = "serial"
        return [fn(item) for item in items]

    stats.mode = "supervised"
    ctx = multiprocessing.get_context("fork")
    results: List[Any] = [None] * len(items)
    pending: List[Tuple[float, int]] = [(0.0, i) for i in range(len(items))]
    running: Dict[int, Tuple[Any, Any, Optional[float]]] = {}
    degraded: List[int] = []

    def reap(piece: int, *, kill: bool = False) -> None:
        proc, conn, _ = running.pop(piece)
        if kill and proc.exitcode is None:
            proc.kill()
        proc.join()
        conn.close()

    def record_failure(piece: int, kind: str) -> None:
        if kind == "dead":
            stats.deaths += 1
        elif kind == "timeout":
            stats.timeouts += 1
        elif kind == "corrupt":
            stats.corruptions += 1
        attempt = stats.attempts[piece]
        if attempt > max_retries:
            stats.degraded_pieces.append(piece)
            degraded.append(piece)
        else:
            stats.retries += 1
            delay = _backoff_delay(
                seed, piece, attempt, backoff_base, backoff_cap
            )
            pending.append((time.monotonic() + delay, piece))

    _SHARED["fn"] = fn
    _SHARED["items"] = items
    _SHARED["plan"] = fault_plan
    try:
        while pending or running:
            now = time.monotonic()
            for entry in sorted(pending):
                if len(running) >= workers:
                    break
                not_before, piece = entry
                if not_before > now:
                    continue
                pending.remove(entry)
                stats.attempts[piece] += 1
                recv_end, send_end = ctx.Pipe(duplex=False)
                proc = ctx.Process(
                    target=_child_main,
                    args=(piece, stats.attempts[piece], send_end),
                    daemon=True,
                )
                proc.start()
                send_end.close()
                deadline = now + timeout if timeout > 0 else None
                running[piece] = (proc, recv_end, deadline)

            if not running:
                # Every pending piece is backing off; sleep to the earliest.
                time.sleep(
                    max(0.0, min(nb for nb, _ in pending) - time.monotonic())
                    + 1e-3
                )
                continue

            conns = [conn for _, conn, _ in running.values()]
            readable = set(
                multiprocessing.connection.wait(conns, timeout=_TICK_S) or ()
            )
            now = time.monotonic()
            for piece, (proc, conn, deadline) in list(running.items()):
                exited = proc.exitcode is not None
                if conn in readable or (exited and conn.poll(0)):
                    if exited and proc.exitcode != 0:
                        # Died mid-report: the payload may be a prefix and
                        # recv_bytes could block on it — discard instead.
                        reap(piece)
                        record_failure(piece, "dead")
                        continue
                    kind, value = _read_report(conn)
                    reap(piece)
                    if kind == "ok":
                        results[piece] = value
                    elif kind == "exc":
                        raise value
                    else:
                        record_failure(piece, kind)
                elif exited:
                    # Exited without a (complete) report. EOF detection
                    # alone is unreliable here: siblings forked while this
                    # pipe existed inherit its write end, so poll exit
                    # codes instead of waiting for EOF.
                    reap(piece)
                    record_failure(piece, "dead")
                elif deadline is not None and now >= deadline:
                    reap(piece, kill=True)
                    record_failure(piece, "timeout")
    finally:
        for piece in list(running):
            reap(piece, kill=True)
        _SHARED.clear()

    # Degraded pieces: supervision gave up on forking them; compute
    # in-process (exceptions propagate — this is the all-serial path).
    for piece in degraded:
        results[piece] = fn(items[piece])
    return results
