"""Run-interval recorder.

The scheduler calls :meth:`TraceRecorder.record_interval` whenever a thread
leaves a CPU, producing a stream of ``(node, cpu, thread identity, t0, t1)``
records.  Applications add :class:`Mark` records (e.g. Allreduce begin/end
per rank).  A recorder can be limited to some nodes; the Figure 4
experiment records node 0 only, which is also how the paper worked around
classified-system data limits (trace a subset, extract summaries).

Intervals are stored in :class:`IntervalColumns`: five typed ``array``
columns (node, cpu, thread slot, t0, t1), 28 bytes per interval, plus one
``(tid, name, category)`` row per thread.  The first window query builds a
:class:`NodeIntervalIndex` per node, another 20 bytes per interval
(position, start, running max-end).  One frozen dataclass per interval,
the earlier layout, cost about 190 bytes; a :class:`RunInterval` is now
built only when a caller indexes or iterates ``TraceRecorder.intervals``.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

__all__ = [
    "RunInterval",
    "Mark",
    "FaultEvent",
    "IntervalColumns",
    "NodeIntervalIndex",
    "TraceRecorder",
]


@dataclass(frozen=True)
class RunInterval:
    """One contiguous occupancy of a CPU by a thread."""

    node: int
    cpu: int
    tid: int
    name: str
    category: str
    t0: float
    t1: float

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


@dataclass(frozen=True)
class Mark:
    """An application trace record (the paper's `trace hook` analogue)."""

    name: str
    node: int
    rank: int
    time: float
    payload: object = None


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault or resilience action (``node=-1``: cluster-wide).

    ``kind`` values shipped by :mod:`repro.faults`: ``node_crash``,
    ``node_slowdown``, ``cosched_died``, ``cosched_hung``,
    ``cosched_restarted``, ``timesync_lost``, ``timesync_degraded``,
    ``pipe_msg_lost``, ``task_reregistered``.
    """

    kind: str
    node: int
    time: float
    detail: object = None


class IntervalColumns(Sequence):
    """Run intervals as parallel typed columns, read as a sequence.

    Five ``array`` columns hold one entry per interval: ``node``, ``cpu``
    and ``slot`` (C ints) and ``t0``, ``t1`` (doubles), 28 bytes in all.
    ``slot`` indexes ``threads``, the table of ``(tid, name, category)``
    rows, one per thread seen; a Figure-4 run records about 27,000
    intervals of 73 threads.  Indexing and iteration build
    :class:`RunInterval` objects on demand; :meth:`append` adds one.
    """

    __slots__ = ("node", "cpu", "slot", "t0", "t1", "threads", "_slot_of")

    def __init__(self) -> None:
        self.node = array("i")
        self.cpu = array("i")
        self.slot = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.threads: list[tuple[int, str, str]] = []
        self._slot_of: dict[tuple[int, str, str], int] = {}

    def add(self, node: int, cpu: int, tid: int, name: str, category: str,
            t0: float, t1: float) -> None:
        """Append one interval given field by field."""
        key = (tid, name, category)
        slot = self._slot_of.get(key)
        if slot is None:
            slot = self._slot_of[key] = len(self.threads)
            self.threads.append(key)
        self.node.append(node)
        self.cpu.append(cpu)
        self.slot.append(slot)
        self.t0.append(t0)
        self.t1.append(t1)

    def append(self, iv: RunInterval) -> None:
        """Append one interval."""
        self.add(iv.node, iv.cpu, iv.tid, iv.name, iv.category, iv.t0, iv.t1)

    def clear(self) -> None:
        """Drop every interval and thread row."""
        for col in (self.node, self.cpu, self.slot, self.t0, self.t1):
            del col[:]
        self.threads.clear()
        self._slot_of.clear()

    def __len__(self) -> int:
        return len(self.t0)

    def __getitem__(self, i: int) -> RunInterval:
        tid, name, category = self.threads[self.slot[i]]
        return RunInterval(self.node[i], self.cpu[i], tid, name, category, self.t0[i], self.t1[i])

    def __iter__(self):
        threads = self.threads
        for node, cpu, slot, t0, t1 in zip(self.node, self.cpu, self.slot, self.t0, self.t1):
            tid, name, category = threads[slot]
            yield RunInterval(node, cpu, tid, name, category, t0, t1)


class NodeIntervalIndex:
    """Stabbing index over one node's intervals: their positions sorted by
    start time, with the sorted starts and a running max-end alongside.

    ``positions(t0, t1)`` returns the position of every interval with
    ``iv.t0 < t1`` and ``iv.t1 > t0`` in **insertion order**, in
    O(log I + k) for k results: a bisect bounds the candidates by start
    time, and the backwards scan stops as soon as the running maximum of
    end times falls to or below ``t0`` (everything earlier ends even
    sooner).  Insertion order matters: attribution sums floats, and
    visiting intervals in the order the naive full scan does keeps the
    sums bit-identical.

    Candidates are a *superset* of positive-overlap intervals (a
    zero-length interval inside the window matches the inequalities but
    has zero overlap); callers apply the same ``overlap > 0`` filter the
    naive scan uses.
    """

    __slots__ = ("_cols", "_order", "_starts", "_max_end")

    def __init__(self, cols: IntervalColumns, order: np.ndarray) -> None:
        # order: the node's positions sorted by (t0, position).  numpy
        # fills the three arrays in place through views that die with
        # this frame, so the build holds no second copy of them.
        n = len(order)
        self._cols = cols
        self._order = array("i", [0]) * n
        self._starts = array("d", [0.0]) * n
        self._max_end = array("d", [0.0]) * n
        if n:
            np.frombuffer(self._order, dtype=np.intc)[:] = order
            np.take(np.frombuffer(cols.t0), order, out=np.frombuffer(self._starts))
            max_end = np.frombuffer(self._max_end)
            np.take(np.frombuffer(cols.t1), order, out=max_end)
            np.maximum.accumulate(max_end, out=max_end)

    def __len__(self) -> int:
        return len(self._order)

    def positions(self, t0: float, t1: float) -> list[int]:
        """Positions of intervals with ``iv.t0 < t1 and iv.t1 > t0``, ascending."""
        order = self._order
        max_end = self._max_end
        ends = self._cols.t1
        out = []
        i = bisect_left(self._starts, t1) - 1
        while i >= 0 and max_end[i] > t0:
            pos = order[i]
            if ends[pos] > t0:
                out.append(pos)
            i -= 1
        out.sort()
        return out

    def rows(self, t0: float, t1: float) -> list[tuple[str, str, float, float]]:
        """``(name, category, iv.t0, iv.t1)`` of :meth:`positions`' intervals."""
        cols = self._cols
        threads, slot, starts, ends = cols.threads, cols.slot, cols.t0, cols.t1
        return [
            (*threads[slot[p]][1:], starts[p], ends[p]) for p in self.positions(t0, t1)
        ]

    def overlapping(self, t0: float, t1: float) -> list[RunInterval]:
        """Intervals with ``iv.t0 < t1 and iv.t1 > t0``, insertion order."""
        cols = self._cols
        return [cols[p] for p in self.positions(t0, t1)]


def _node_indexes(cols: IntervalColumns) -> dict[int, NodeIntervalIndex]:
    """One :class:`NodeIntervalIndex` per node recorded in *cols*.

    Reads the columns through zero-copy numpy views, which hold the
    columns' buffers (and so block appends) only until this returns.
    """
    if not len(cols):
        return {}
    nodes = np.frombuffer(cols.node, dtype=np.intc)
    # A stable argsort keeps equal starts in insertion order: the
    # (t0, position) order the index scans in.
    by_start = np.argsort(np.frombuffer(cols.t0), kind="stable")
    if nodes.min() == nodes.max():  # one node traced, as in Figure 4
        return {int(nodes[0]): NodeIntervalIndex(cols, by_start)}
    return {
        int(n): NodeIntervalIndex(cols, by_start[nodes[by_start] == n])
        for n in np.unique(nodes)
    }


class TraceRecorder:
    """Collects run intervals and marks.

    Parameters
    ----------
    enabled:
        Master switch; when False every record call is a cheap no-op.
    nodes:
        If given, only record intervals on these node ids (the Fig-4 style
        "trace one node of a large run").  Marks and fault events are
        recorded on every node while enabled.
    """

    def __init__(
        self,
        enabled: bool = True,
        nodes: Optional[Iterable[int]] = None,
    ) -> None:
        self.enabled = enabled
        self.node_filter = frozenset(nodes) if nodes is not None else None
        self.intervals = IntervalColumns()
        self.marks: list[Mark] = []
        self.faults: list[FaultEvent] = []
        # Lazy per-node interval index (and its fault-time sibling).
        # Validity is keyed on record counts: appends (the only mutation
        # the recording path performs) grow the columns, so a count mismatch
        # means "stale, rebuild on next query" without the recording hot
        # path ever touching index state.
        self._interval_index: dict[int, NodeIntervalIndex] = {}
        self._interval_index_len = -1
        self._fault_rows: list[tuple[float, int, FaultEvent]] = []
        self._fault_times: list[float] = []
        self._fault_index_len = -1

    def record_interval(self, node: int, cpu: int, thread, t0: float, t1: float) -> None:
        """Record one CPU occupancy (called by the dispatcher; stays cheap)."""
        if not self.enabled:
            return
        if self.node_filter is not None and node not in self.node_filter:
            return
        self.intervals.add(node, cpu, thread.tid, thread.name, thread.category, t0, t1)

    def mark(self, name: str, node: int, rank: int, time: float, payload: object = None) -> None:
        """Write an application trace record."""
        if not self.enabled:
            return
        self.marks.append(Mark(name, node, rank, time, payload))

    def record_fault(self, kind: str, node: int, time: float, detail: object = None) -> None:
        """Record one injected fault / resilience action (the node filter
        doesn't apply — fault events are rare and always wanted)."""
        if not self.enabled:
            return
        self.faults.append(FaultEvent(kind, node, time, detail))

    def snapshot_state(self, desc) -> dict:
        """Checkpoint view: record counts plus content digests.

        Digests use thread *names* rather than tids (tids come from a
        module-global counter and differ between rebuilds of the same
        run), so a restored-and-replayed run digests identically to the
        uninterrupted one — the bit-identical-trace acceptance check.
        """
        import hashlib
        import json

        def digest(rows) -> str:
            blob = json.dumps(rows, default=repr)
            return hashlib.sha256(blob.encode("utf-8")).hexdigest()

        return {
            "enabled": self.enabled,
            "n_intervals": len(self.intervals),
            "n_marks": len(self.marks),
            "n_faults": len(self.faults),
            "intervals": digest(self._interval_rows()),
            "marks": digest(
                [[m.name, m.node, m.rank, m.time, repr(m.payload)] for m in self.marks]
            ),
            "faults": digest(
                [[f.kind, f.node, f.time, repr(f.detail)] for f in self.faults]
            ),
        }

    def _interval_rows(self) -> list:
        cols = self.intervals
        threads = cols.threads
        return [
            [node, cpu, threads[slot][1], threads[slot][2], t0, t1]
            for node, cpu, slot, t0, t1 in zip(cols.node, cols.cpu, cols.slot, cols.t0, cols.t1)
        ]

    def clear(self) -> None:
        """Drop all recorded intervals, marks, and fault events."""
        self.intervals.clear()
        self.marks.clear()
        self.faults.clear()
        self._interval_index = {}
        self._interval_index_len = -1
        self._fault_rows = []
        self._fault_times = []
        self._fault_index_len = -1

    # ------------------------------------------------------------------
    # Query indexes (built lazily, invalidated by appends)
    # ------------------------------------------------------------------
    def interval_index(self, node: int) -> Optional[NodeIntervalIndex]:
        """The stabbing index for *node*'s intervals (None: none recorded).

        Built lazily over all nodes in one pass and reused until the next
        append invalidates it; analysis sweeps that attribute hundreds of
        windows against the same trace pay the O(I log I) build once.
        """
        cols = self.intervals
        if self._interval_index_len != len(cols):
            self._interval_index = _node_indexes(cols)
            self._interval_index_len = len(cols)
        return self._interval_index.get(node)

    def faults_in(self, t0: float, t1: float) -> list[FaultEvent]:
        """Fault events with ``t0 <= time <= t1``, in insertion order.

        Backed by a lazily-built sorted time index, so window sweeps cost
        O(log F + k) each instead of re-scanning every recorded fault.
        """
        if self._fault_index_len != len(self.faults):
            self._fault_rows = sorted(
                (ev.time, pos, ev) for pos, ev in enumerate(self.faults)
            )
            self._fault_times = [r[0] for r in self._fault_rows]
            self._fault_index_len = len(self.faults)
        lo = bisect_left(self._fault_times, t0)
        hi = bisect_right(self._fault_times, t1)
        rows = sorted(self._fault_rows[lo:hi], key=lambda r: r[1])
        return [r[2] for r in rows]

    def intervals_on(self, node: int) -> list[RunInterval]:
        """All intervals recorded on *node*."""
        return [iv for iv in self.intervals if iv.node == node]

    def marks_named(self, name: str) -> list[Mark]:
        """All marks with the given name."""
        return [m for m in self.marks if m.name == name]

    def __len__(self) -> int:
        return len(self.intervals)
