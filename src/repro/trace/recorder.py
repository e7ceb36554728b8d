"""Run-interval recorder.

The scheduler calls :meth:`TraceRecorder.record_interval` whenever a thread
leaves a CPU, producing a stream of ``(node, cpu, thread identity, t0, t1)``
records.  Applications add :class:`Mark` records (e.g. Allreduce begin/end
per rank).  Recording is opt-in per category so large sweeps don't pay the
memory cost; the Figure 4 experiment records everything on one node, which
is also how the paper worked around classified-system data limits (trace a
subset, extract summaries).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Optional

__all__ = ["RunInterval", "Mark", "FaultEvent", "NodeIntervalIndex", "TraceRecorder"]


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


class NodeIntervalIndex:
    """Stabbing index over one node's intervals: sorted by start time with
    a running max-end array.

    ``overlapping(t0, t1)`` returns every interval with ``iv.t0 < t1`` and
    ``iv.t1 > t0`` in **insertion order**, in O(log I + k) for k results:
    a bisect bounds the candidates by start time, and the backwards scan
    stops as soon as the running maximum of end times falls to or below
    ``t0`` (everything earlier ends even sooner).  Insertion order matters:
    attribution sums floats, and returning intervals in the order the
    naive full scan visits them keeps the sums bit-identical.

    Candidates are a *superset* of positive-overlap intervals (a
    zero-length interval inside the window matches the inequalities but
    has zero overlap); callers apply the same ``overlap > 0`` filter the
    naive scan uses.
    """

    __slots__ = ("_starts", "_max_end", "_entries")

    def __init__(self, rows: list[tuple[float, int, RunInterval]]) -> None:
        # rows: (t0, insertion position, interval), sorted by (t0, pos).
        self._entries = rows
        self._starts = [r[0] for r in rows]
        max_end = []
        m = float("-inf")
        for r in rows:
            t1 = r[2].t1
            if t1 > m:
                m = t1
            max_end.append(m)
        self._max_end = max_end

    def __len__(self) -> int:
        return len(self._entries)

    def overlapping(self, t0: float, t1: float) -> list[RunInterval]:
        """Intervals with ``iv.t0 < t1 and iv.t1 > t0``, insertion order."""
        entries = self._entries
        max_end = self._max_end
        out = []
        i = bisect_left(self._starts, t1) - 1
        while i >= 0 and max_end[i] > t0:
            e = entries[i]
            if e[2].t1 > t0:
                out.append((e[1], e[2]))
            i -= 1
        out.sort()
        return [iv for _, iv in out]


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
        self.intervals: list[RunInterval] = []
        self.marks: list[Mark] = []
        self.faults: list[FaultEvent] = []
        # Lazy per-node interval index (and its fault-time sibling).
        # Validity is keyed on record counts: appends (the only mutation
        # the recording path performs) grow the list, so a count mismatch
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
        self.intervals.append(
            RunInterval(node, cpu, thread.tid, thread.name, thread.category, t0, t1)
        )

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
            "intervals": digest(
                [
                    [iv.node, iv.cpu, iv.name, iv.category, iv.t0, iv.t1]
                    for iv in self.intervals
                ]
            ),
            "marks": digest(
                [[m.name, m.node, m.rank, m.time, repr(m.payload)] for m in self.marks]
            ),
            "faults": digest(
                [[f.kind, f.node, f.time, repr(f.detail)] for f in self.faults]
            ),
        }

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
        if self._interval_index_len != len(self.intervals):
            per_node: dict[int, list] = {}
            for pos, iv in enumerate(self.intervals):
                per_node.setdefault(iv.node, []).append((iv.t0, pos, iv))
            # Rows are generated in pos order, so each node list is already
            # sorted by pos; sort by (t0, pos) never compares intervals.
            self._interval_index = {
                node: NodeIntervalIndex(sorted(rows)) for node, rows in per_node.items()
            }
            self._interval_index_len = len(self.intervals)
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
