"""VM placement model and per-VM bandwidth accounting (Equation (2)).

A :class:`Placement` is the output of Stage 2: an assignment of the
selected topic-subscriber pairs to a fleet of VMs ``B``.  For a VM
``b`` the paper defines

    bw_b = sum_{(t,v) assigned to b} ev_t        (outgoing)
         + sum_{t hosted on b} ev_t              (incoming, once per VM)

i.e. each pair costs one outgoing copy of the topic's event stream and
each *distinct* topic hosted on a VM costs one incoming copy.  Spreading
the pairs of one topic over ``k`` VMs therefore wastes ``(k-1) * ev_t``
of incoming bandwidth -- the effect Stage 2's optimizations fight.

All bandwidth quantities on this class are kept in **bytes per time
unit** (event rate x message size) so the capacity constraint ``bw_b <=
BC`` can be checked directly against the byte-denominated VM capacity
of the pricing catalog.

Array-backed core
-----------------
The hot-path state is held in NumPy arrays so the vectorized Stage-2
packers never loop over VMs in Python:

* :meth:`Placement.used_bytes_array` -- per-VM byte accounting as
  one float64 vector (geometrically grown);
* :meth:`Placement.from_groups` -- adopt a finished placement as flat
  per-(vm, topic) group arrays plus the caller's own per-VM bytes, in
  O(groups) array work; CBP builds its result this way, and
  :meth:`Placement.from_pair_arrays` (flat per-pair input, one
  lexsort) feeds it too.

Per-(vm, topic) subscriber identities are retained as lists of array
chunks (appended, never extended element-wise) so the placement can be
audited (satisfaction, duplicate-assignment).  The per-VM
:class:`VirtualMachine` objects remain the scalar accounting/query API
and the one record of which topics each VM ingests (Equation (2)'s
incoming term); each :meth:`Placement.assign` updates exactly one of
them in O(1).  A placement adopted through
:meth:`~Placement.from_groups` builds those objects and the member
dict only on the first call that needs them: the solve path (audit,
cost) reads only the flat group arrays and the per-VM bytes vector.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .pairs import PairSelection
from .workload import Workload

__all__ = ["VirtualMachine", "Placement", "CapacityError"]


class CapacityError(ValueError):
    """Raised when an assignment would exceed a VM's bandwidth capacity."""


class VirtualMachine:
    """A single VM holding topic-subscriber pairs.

    Tracks, incrementally:

    * ``pair_counts``: ``topic -> number of pairs of that topic on
      this VM`` (subscriber identities are tracked by the owning
      :class:`Placement`);
    * the outgoing/incoming byte rates implied by those counts.
    """

    __slots__ = ("capacity_bytes", "_pair_counts", "_out_bytes", "_in_bytes")

    def __init__(self, capacity_bytes: float) -> None:
        if capacity_bytes <= 0:
            raise ValueError("VM capacity must be positive")
        self.capacity_bytes = float(capacity_bytes)
        self._pair_counts: Dict[int, int] = {}
        self._out_bytes = 0.0
        self._in_bytes = 0.0

    # -- accounting ----------------------------------------------------
    @property
    def outgoing_bytes(self) -> float:
        """Outgoing byte rate (one copy per assigned pair)."""
        return self._out_bytes

    @property
    def incoming_bytes(self) -> float:
        """Incoming byte rate (one copy per distinct hosted topic)."""
        return self._in_bytes

    @property
    def used_bytes(self) -> float:
        """``bw_b`` -- total (incoming + outgoing) byte rate."""
        return self._out_bytes + self._in_bytes

    @property
    def free_bytes(self) -> float:
        """Remaining capacity ``BC - bw_b``."""
        return self.capacity_bytes - self.used_bytes

    @property
    def topics(self) -> Iterable[int]:
        """Distinct topics hosted on this VM."""
        return self._pair_counts.keys()

    @property
    def num_pairs(self) -> int:
        """Number of pairs assigned to this VM."""
        return sum(self._pair_counts.values())

    def pair_count(self, topic: int) -> int:
        """Number of pairs of ``topic`` on this VM."""
        return self._pair_counts.get(topic, 0)

    def hosts_topic(self, topic: int) -> bool:
        """Whether the topic's event stream is ingested by this VM."""
        return topic in self._pair_counts

    # -- mutation ------------------------------------------------------
    def addition_cost_bytes(self, topic_bytes: float, count: int, new_topic: bool) -> float:
        """Byte-rate delta of adding ``count`` pairs of a topic.

        ``topic_bytes`` is ``ev_t * message_size``; ``new_topic`` says
        whether this VM would start ingesting the topic (one extra
        incoming copy).
        """
        return topic_bytes * (count + (1 if new_topic else 0))

    def fits(self, topic_bytes: float, count: int, new_topic: bool) -> bool:
        """Whether ``count`` pairs of a topic fit in the free capacity."""
        return self.addition_cost_bytes(topic_bytes, count, new_topic) <= self.free_bytes + 1e-9

    def max_new_pairs(self, topic_bytes: float, already_hosted: bool) -> int:
        """Largest number of pairs of a topic this VM can still accept.

        Accounts for the one-off incoming copy if the topic is not yet
        hosted here.  Returns 0 when not even a single pair fits.
        """
        free = self.free_bytes + 1e-9
        if not already_hosted:
            free -= topic_bytes
        if free < topic_bytes:
            return 0
        return int(free // topic_bytes)

    def add_pairs(self, topic: int, topic_bytes: float, count: int) -> None:
        """Assign ``count`` pairs of ``topic`` to this VM.

        Raises :class:`CapacityError` if the capacity would be exceeded;
        callers are expected to check :meth:`fits` first.
        """
        if count <= 0:
            raise ValueError("count must be positive")
        new_topic = topic not in self._pair_counts
        delta = self.addition_cost_bytes(topic_bytes, count, new_topic)
        if delta > self.free_bytes + 1e-9:
            raise CapacityError(
                f"adding {count} pairs of topic {topic} needs {delta:.1f} B "
                f"but only {self.free_bytes:.1f} B free"
            )
        self._pair_counts[topic] = self._pair_counts.get(topic, 0) + count
        self._out_bytes += topic_bytes * count
        if new_topic:
            self._in_bytes += topic_bytes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"VirtualMachine(used={self.used_bytes:.0f}/"
            f"{self.capacity_bytes:.0f} B, topics={len(self._pair_counts)}, "
            f"pairs={self.num_pairs})"
        )


class Placement:
    """A complete assignment of selected pairs to a VM fleet.

    Stage-2 algorithms build a placement incrementally through
    :meth:`assign` / :meth:`new_vm`, or hand a
    finished one over in one batch through :meth:`from_groups`;
    analysis code reads the aggregate properties.  See the module
    docstring for the array-backed core.
    """

    def __init__(self, workload: Workload, capacity_bytes: float) -> None:
        if capacity_bytes <= 0:
            raise ValueError("VM capacity must be positive")
        self.workload = workload
        self.capacity_bytes = float(capacity_bytes)
        self._num_vms = 0
        self._vms: List[VirtualMachine] = []
        # Array core: per-VM used bytes (geometrically grown buffer).
        self._used = np.zeros(8, dtype=np.float64)
        # (vm index, topic) -> adopted subscriber-array chunks.
        self._members: Dict[Tuple[int, int], List[np.ndarray]] = {}
        self._num_pairs = 0
        # Flat-array view cache (see assignment_arrays).
        self._mutations = 0
        self._flat_cache: Optional[Tuple[int, Tuple[np.ndarray, ...]]] = None
        # from_groups: the recorded per-VM (outgoing, incoming) bytes,
        # held until _fleet() builds the per-VM objects from them.
        self._pending: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # -- construction ----------------------------------------------------
    @classmethod
    def from_groups(
        cls,
        workload: Workload,
        capacity_bytes: float,
        vm_ids: np.ndarray,
        topics: np.ndarray,
        sizes: np.ndarray,
        subscribers: np.ndarray,
        out_bytes: np.ndarray,
        in_bytes: np.ndarray,
    ) -> "Placement":
        """Adopt a finished placement given as flat per-group arrays.

        ``vm_ids``, ``topics`` and ``sizes`` hold one row per distinct
        (vm, topic) group, in the order :meth:`iter_assignments` will
        yield them; ``subscribers`` is their members laid end to end,
        group-major.  They become the :meth:`assignment_arrays` view
        as they are (``subscribers`` is marked read-only, not copied).
        ``out_bytes`` / ``in_bytes`` are the caller's own per-VM
        outgoing and incoming byte rates, one entry per VM: they are
        the bookkeeping :func:`~repro.core.validate_placement`
        cross-checks against its recomputation from the groups, so a
        caller must pass the values its decisions ran on, not values
        derived from the groups.

        The :class:`VirtualMachine` objects and the member dict are
        built on the first call that needs them; the audit and
        :meth:`MCSSProblem.cost_of` never do.
        """
        placement = cls(workload, capacity_bytes)
        out = np.array(out_bytes, dtype=np.float64)
        inc = np.array(in_bytes, dtype=np.float64)
        subs = np.asarray(subscribers, dtype=np.int64)
        subs.setflags(write=False)
        groups = tuple(
            np.ascontiguousarray(a, dtype=np.int64) for a in (vm_ids, topics, sizes)
        )
        vm, topic, size = groups
        if not vm.size == topic.size == size.size or int(size.sum()) != subs.size:
            raise ValueError(
                "group rows must be parallel and their sizes must sum to the subscribers"
            )
        if out.size != inc.size or (
            vm.size and not 0 <= int(vm.min()) <= int(vm.max()) < out.size
        ):
            raise ValueError("every group's VM needs an entry in out_bytes and in_bytes")
        placement._num_vms = int(out.size)
        placement._used = out + inc
        placement._num_pairs = int(subs.size)
        placement._flat_cache = (0, groups + (subs,))
        placement._pending = (out, inc)
        return placement

    @classmethod
    def from_pair_arrays(
        cls,
        workload: Workload,
        capacity_bytes: float,
        vm_ids: np.ndarray,
        topics: np.ndarray,
        subscribers: np.ndarray,
        num_vms: Optional[int] = None,
    ) -> "Placement":
        """Build a placement from flat per-pair arrays in one batch pass.

        ``vm_ids``, ``topics`` and ``subscribers`` are parallel arrays,
        one row per assigned pair; VM indices must be dense in
        ``[0, num_vms)`` (``num_vms`` defaults to ``max(vm_ids) + 1``).
        One ``np.lexsort`` groups the pairs by ``(vm, topic)`` and two
        ``np.bincount`` passes price the VMs; the groups are adopted
        through :meth:`from_groups`, so the cost is O(pairs log pairs)
        regardless of how many pairs each group holds.  The sort is
        stable: subscribers keep their input order inside each group.
        ``np.bincount`` adds each VM's groups in order, the same chain
        of sums one :meth:`assign` per group would run.  Raises
        :class:`CapacityError` if a VM's groups exceed its capacity.

        This is the batch materialization path of the dynamic
        reprovisioner (its per-epoch state is exactly these arrays).
        """
        vm = np.ascontiguousarray(vm_ids, dtype=np.int64)
        t = np.ascontiguousarray(topics, dtype=np.int64)
        v = np.ascontiguousarray(subscribers, dtype=np.int64)
        if not (vm.size == t.size == v.size):
            raise ValueError("vm_ids, topics and subscribers must be parallel")
        count = int(num_vms) if num_vms is not None else (
            int(vm.max()) + 1 if vm.size else 0
        )
        if vm.size and (int(vm.min()) < 0 or int(vm.max()) >= count):
            raise ValueError(
                f"vm_ids must lie in [0, {count}); got "
                f"[{int(vm.min())}, {int(vm.max())}]"
            )
        order = np.lexsort((t, vm))
        s_vm, s_t, s_v = vm[order], t[order], v[order]
        new_group = np.ones(s_vm.size, dtype=bool)
        new_group[1:] = (s_vm[1:] != s_vm[:-1]) | (s_t[1:] != s_t[:-1])
        starts = new_group.nonzero()[0]
        g_vm, g_t = s_vm[starts], s_t[starts]
        sizes = np.diff(np.append(starts, s_vm.size))
        topic_bytes = workload.event_rates[g_t] * workload.message_size_bytes
        out_bytes = np.bincount(g_vm, weights=topic_bytes * sizes, minlength=count)
        in_bytes = np.bincount(g_vm, weights=topic_bytes, minlength=count)
        if g_vm.size:
            # Each VM's last group is its last assign: re-run that
            # step's check on the bytes of the groups before it.
            last = np.append(g_vm[1:] != g_vm[:-1], True)
            head = ~last
            out_prev = np.bincount(
                g_vm[head], weights=(topic_bytes * sizes)[head], minlength=count
            )
            in_prev = np.bincount(g_vm[head], weights=topic_bytes[head], minlength=count)
            delta = topic_bytes[last] * (sizes[last] + 1)
            free = capacity_bytes - (out_prev + in_prev)[g_vm[last]]
            over = np.flatnonzero(delta > free + 1e-9)
            if over.size:
                g = int(np.flatnonzero(last)[over[0]])
                raise CapacityError(
                    f"VM {int(g_vm[g])}: adding {int(sizes[g])} pairs of topic "
                    f"{int(g_t[g])} needs {delta[over[0]]:.1f} B but only "
                    f"{free[over[0]]:.1f} B free"
                )
        return cls.from_groups(
            workload, capacity_bytes, g_vm, g_t, sizes, s_v, out_bytes, in_bytes
        )

    def _fleet(self) -> List[VirtualMachine]:
        """The per-VM objects, built on first use after :meth:`from_groups`.

        Also fills the member dict from the adopted groups, in group
        order -- the state the same groups assigned one :meth:`assign`
        at a time would leave.
        """
        pending = self._pending
        if pending is not None:
            self._pending = None
            out, inc = pending
            vm_ids, topics, sizes, subs = self._flat_cache[1]
            vms = [VirtualMachine(self.capacity_bytes) for _ in range(out.size)]
            for vm, o, i in zip(vms, out.tolist(), inc.tolist()):
                vm._out_bytes, vm._in_bytes = o, i
            ends = np.cumsum(sizes).tolist()
            for b, t, lo, hi in zip(
                vm_ids.tolist(), topics.tolist(), [0] + ends[:-1], ends
            ):
                vms[b]._pair_counts[t] = hi - lo
                self._members[(b, t)] = [subs[lo:hi]]
            self._vms = vms
        return self._vms

    def new_vm(self) -> int:
        """Deploy a new empty VM; returns its index."""
        vms = self._fleet()
        index = self._num_vms
        if index == self._used.size:
            grown = np.zeros(max(2 * index, 8), dtype=np.float64)
            grown[:index] = self._used
            self._used = grown
        else:
            self._used[index] = 0.0
        vms.append(VirtualMachine(self.capacity_bytes))
        self._num_vms = index + 1
        return index

    def assign(self, vm_index: int, topic: int, subscribers: Sequence[int]) -> None:
        """Assign pairs ``(topic, v) for v in subscribers`` to a VM.

        The subscribers are copied once into a read-only chunk.
        Accounting is O(1) in their number: one
        :meth:`VirtualMachine.add_pairs` update plus one chunk append.
        """
        subs = np.array(list(subscribers), dtype=np.int64)
        if subs.size == 0:
            return
        subs.setflags(write=False)
        topic = int(topic)
        vm = self._fleet()[vm_index]
        vm.add_pairs(topic, self.topic_bytes(topic), int(subs.size))
        self._used[vm_index] = vm.used_bytes
        self._members.setdefault((vm_index, topic), []).append(subs)
        self._num_pairs += int(subs.size)
        self._mutations += 1

    def topic_bytes(self, topic: int) -> float:
        """Byte rate of one copy of a topic's event stream."""
        return self.workload.event_rate(topic) * self.workload.message_size_bytes

    # -- views -----------------------------------------------------------
    @property
    def vms(self) -> Sequence[VirtualMachine]:
        """The VM fleet ``B`` (read-only view)."""
        return tuple(self._fleet())

    def vm(self, vm_index: int) -> VirtualMachine:
        """O(1) access to one VM (no fleet tuple materialization)."""
        return self._fleet()[vm_index]

    @property
    def num_vms(self) -> int:
        """``|B|``."""
        return self._num_vms

    def used_bytes_array(self) -> np.ndarray:
        """Per-VM ``bw_b`` as one float64 vector (read-only view)."""
        view = self._used[: self._num_vms].view()
        view.setflags(write=False)
        return view

    def hosts_mask(self, topic: int) -> np.ndarray:
        """Boolean vector over VMs: does VM ``b`` ingest ``topic``?"""
        topic = int(topic)
        return np.fromiter(
            (vm.hosts_topic(topic) for vm in self._fleet()),
            dtype=bool,
            count=self._num_vms,
        )

    @property
    def total_bytes(self) -> float:
        """``sum(bw_b)`` in bytes per time unit."""
        return float(self._used[: self._num_vms].sum())

    @property
    def total_incoming_bytes(self) -> float:
        """Aggregate incoming byte rate over the fleet."""
        return sum(vm.incoming_bytes for vm in self._fleet())

    @property
    def num_pairs(self) -> int:
        """Total number of assigned pairs."""
        return self._num_pairs

    def _group_members(self, chunks: List[np.ndarray]) -> np.ndarray:
        return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)

    def members(self, vm_index: int, topic: int) -> List[int]:
        """Subscribers of ``topic`` served from VM ``vm_index``."""
        self._fleet()
        chunks = self._members.get((vm_index, topic))
        if not chunks:
            return []
        return self._group_members(chunks).tolist()

    def vm_topics(self, vm_index: int) -> List[int]:
        """Distinct topics hosted on a VM."""
        return list(self._fleet()[vm_index].topics)

    def topic_replicas(self, topic: int) -> int:
        """Number of VMs ingesting ``topic`` (replication degree)."""
        return int(self.hosts_mask(topic).sum())

    def iter_assignments(self) -> Iterator[Tuple[int, int, List[int]]]:
        """Yield ``(vm_index, topic, subscribers)`` triples."""
        self._fleet()
        for (b, t), chunks in self._members.items():
            yield b, t, self._group_members(chunks).tolist()

    def assignment_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The assignments as flat arrays (vectorized-validator view).

        Returns ``(vm_ids, topics, sizes, subscribers)``: one entry per
        (vm, topic) group in :meth:`iter_assignments` order, plus the
        concatenated subscriber ids (group-major).  Cached until the
        next :meth:`assign`, so repeated audits of a finished placement
        flatten the chunk lists only once.
        """
        cached = self._flat_cache
        if cached is not None and cached[0] == self._mutations:
            return cached[1]
        groups = len(self._members)
        vm_ids = np.empty(groups, dtype=np.int64)
        topics = np.empty(groups, dtype=np.int64)
        sizes = np.empty(groups, dtype=np.int64)
        chunks: List[np.ndarray] = []
        for g, ((b, t), group) in enumerate(self._members.items()):
            arr = self._group_members(group)
            vm_ids[g] = b
            topics[g] = t
            sizes[g] = arr.size
            chunks.append(arr)
        subscribers = (
            np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
        )
        arrays = (vm_ids, topics, sizes, subscribers)
        self._flat_cache = (self._mutations, arrays)
        return arrays

    def topics_by_subscriber(self) -> Dict[int, List[int]]:
        """``subscriber -> distinct topics delivered`` over the fleet.

        A pair assigned to several VMs (allowed by Equation (3)'s
        ``max_b``) counts once.
        """
        self._fleet()
        seen: Dict[int, set] = {}
        for (_, t), chunks in self._members.items():
            for v in self._group_members(chunks).tolist():
                seen.setdefault(v, set()).add(t)
        return {v: sorted(topics) for v, topics in seen.items()}

    def to_selection(self) -> PairSelection:
        """Collapse the placement back into the distinct pair set."""
        self._fleet()
        by_topic: Dict[int, set] = {}
        for (_, t), chunks in self._members.items():
            by_topic.setdefault(t, set()).update(
                self._group_members(chunks).tolist()
            )
        return PairSelection({t: sorted(s) for t, s in by_topic.items()})

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Placement(vms={self.num_vms}, pairs={self.num_pairs}, "
            f"bytes={self.total_bytes:.0f})"
        )
